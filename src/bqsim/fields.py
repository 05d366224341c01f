"""Initial-data presets and seeded random fields.

Random fields are drawn mode by mode in a fixed ring-by-ring order of the
half wavevector lattice, so a given (key, spectrum) pair produces the same
low-mode coefficients at every resolution: refining the grid only appends
new high modes.  That makes refinement studies compare discretizations of
one underlying function instead of two unrelated samples.

A draw lives on the kept (2 kmax + 1)^2 block (`Grid.block`): it is filled there (`_scatter`
gives the flat block indices of the modes and of their conjugates), a velocity's two draws are
Leray-projected there (`spectral._leray`, the formula of `leray_project`), and each block is
scattered once into +0.0 (`Grid.plane`).  The bytes are those of the whole-plane scatter and
projection, which `tests/oracle.py` keeps.
"""

from __future__ import annotations

import functools

import numpy as np

from .spectral import (
    Grid,
    SpectralField,
    VectorField,
    _check_finite,
    _leray,
    _read_only,
    _wrap,
    dealiased_transform,
)


def _half_lattice(kmax: int):
    """Half of the mode lattice (k1 > 0, or k1 == 0 and k2 > 0), ring ordered.

    Ring ordering by max(|k1|, |k2|) guarantees the array for a smaller kmax
    is a prefix of the array for a larger one.  Returns integer arrays
    (k1, k2) and the Euclidean magnitudes.
    """
    k1, k2 = np.indices((2 * kmax + 1, 2 * kmax + 1)).reshape(2, -1) - kmax
    half = (k1 > 0) | ((k1 == 0) & (k2 > 0))
    k1, k2 = k1[half], k2[half]
    order = np.lexsort((k2, k1, np.maximum(np.abs(k1), np.abs(k2))))
    return k1[order], k2[order], np.hypot(k1[order], k2[order])


@functools.lru_cache(maxsize=None)
def _scatter(kmax: int, spectrum_gamma: float):
    """Flat indices of a draw's modes and of their conjugates in the kept (2 kmax + 1)^2 block
    (FFT layout), and the envelope |k|^(-gamma); read-only, as every caller shares them."""
    k1, k2, mag = _half_lattice(kmax)
    b = 2 * kmax + 1
    return tuple(map(_read_only, ((k1 % b) * b + k2 % b, (-k1 % b) * b + -k2 % b,
                                  mag**(-spectrum_gamma))))


def _block_draw(grid: Grid, spectrum_gamma: float, amplitude: float, key) -> np.ndarray:
    """The kept block of a `random_scalar_field` draw."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check below
        modes, mirrors, envelope = _scatter(grid.kmax, spectrum_gamma)
        c = np.random.default_rng(key).standard_normal((len(envelope), 2)).view(complex)[:, 0]
        c *= amplitude
        c /= np.sqrt(2.0)
        c *= envelope
    _check_finite(c)
    b = 2 * grid.kmax + 1
    block = np.zeros(b * b, dtype=complex)
    block[modes] = c
    block[mirrors] = np.conj(c)
    return block.reshape(b, b)


def random_scalar_field(
    grid: Grid, spectrum_gamma: float, amplitude: float, key: tuple[int, ...]
) -> SpectralField:
    """Mean-free random real field with coefficients ~ |k|^(-gamma).

    Modes are filled up to the dealiasing cutoff max(|k1|, |k2|) <= `grid.kmax` with
    unit complex Gaussians shaped by the power-law envelope; the conjugate
    half follows by symmetry.  `key` seeds the draw deterministically.
    """
    return _wrap(grid, grid.plane(_block_draw(grid, spectrum_gamma, amplitude, key)))


def random_divfree_velocity(
    grid: Grid, spectrum_gamma: float, amplitude: float, key: tuple[int, ...]
) -> VectorField:
    """Divergence-free random velocity: two shaped noises, Leray projected (on the kept block,
    where they live)."""
    b1, b2 = (_block_draw(grid, spectrum_gamma, amplitude, key + (s,)) for s in (1, 2))
    return VectorField(*(_wrap(grid, grid.plane(b)) for b in _leray(b1, b2, *grid.block_k)))


def taylor_green_vorticity(grid: Grid, amplitude: float = 1.0) -> SpectralField:
    """Cellular vorticity sin(x1) sin(x2)."""
    x1, x2 = grid.nodes()
    return dealiased_transform(grid, amplitude * np.sin(x1) * np.sin(x2))


def gaussian_blob(
    grid: Grid,
    width: float = 0.5,
    amplitude: float = 1.0,
    mean_subtract: bool = False,
) -> SpectralField:
    """Gaussian bump exp(-|x - pi|^2 / width^2) centered in the box."""
    x1, x2 = grid.nodes()
    r2 = (x1 - np.pi) ** 2 + (x2 - np.pi) ** 2
    samples = amplitude * np.exp(-r2 / width**2)
    if mean_subtract:
        samples = samples - np.mean(samples)
    return dealiased_transform(grid, samples)
