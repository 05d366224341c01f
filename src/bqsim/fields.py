"""Initial-data presets and seeded random fields.

Random fields are drawn mode by mode in a fixed ring-by-ring order of the
half wavevector lattice, so a given (key, spectrum) pair produces the same
low-mode coefficients at every resolution: refining the grid only appends
new high modes.  That makes refinement studies compare discretizations of
one underlying function instead of two unrelated samples.
"""

from __future__ import annotations

import functools

import numpy as np

from .spectral import (
    Grid,
    PhysicalField,
    SpectralField,
    VectorField,
    _check_finite,
    _wrap,
    dealiased_transform,
    leray_project,
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
def _scatter(n: int, kmax: int, spectrum_gamma: float):
    """Where an n-grid draw puts its modes and their conjugates, and the envelope |k|^(-gamma)."""
    k1, k2, mag = _half_lattice(kmax)
    return (k1 % n, k2 % n), (-k1 % n, -k2 % n), mag**(-spectrum_gamma)


def random_scalar_field(
    grid: Grid, spectrum_gamma: float, amplitude: float, key: tuple[int, ...]
) -> SpectralField:
    """Mean-free random real field with coefficients ~ |k|^(-gamma).

    Modes are filled up to the dealiasing cutoff max(|k1|, |k2|) <= `grid.kmax` with
    unit complex Gaussians shaped by the power-law envelope; the conjugate
    half follows by symmetry.  `key` seeds the draw deterministically.
    """
    n = grid.n
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check below
        modes, mirrors, envelope = _scatter(n, grid.kmax, spectrum_gamma)
        draws = np.random.default_rng(key).standard_normal((len(envelope), 2))
        c = amplitude * (draws[:, 0] + 1j * draws[:, 1]) / np.sqrt(2.0) * envelope
    _check_finite(c)
    coeffs = np.zeros((n, n), dtype=complex)
    coeffs[modes] = c
    coeffs[mirrors] = np.conj(c)
    return _wrap(grid, coeffs)


def random_divfree_velocity(
    grid: Grid, spectrum_gamma: float, amplitude: float, key: tuple[int, ...]
) -> VectorField:
    """Divergence-free random velocity: two shaped noises, Leray projected."""
    u1 = random_scalar_field(grid, spectrum_gamma, amplitude, key + (1,))
    u2 = random_scalar_field(grid, spectrum_gamma, amplitude, key + (2,))
    return leray_project(VectorField(u1, u2))


def taylor_green_vorticity(grid: Grid, amplitude: float = 1.0) -> SpectralField:
    """Cellular vorticity sin(x1) sin(x2)."""
    x1, x2 = grid.nodes()
    return dealiased_transform(PhysicalField(grid, amplitude * np.sin(x1) * np.sin(x2)))


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
    return dealiased_transform(PhysicalField(grid, samples))
