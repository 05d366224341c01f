"""Dyadic frequency decomposition, Besov norms, and paraproduct machinery.

The band filters are built by telescoping a single smooth radial transition
function g with g(r) = 1 for r <= 1 and g(r) = 0 for r >= 2, constructed
from the classical exp(-1/t) bump:

    chi(k)   = g(|k|)                                   low-frequency cutoff
    phi_q(k) = g(|k| / 2^(q+1)) - g(|k| / 2^q)          annulus 2^q < |k| < 2^(q+2)

Because the sum telescopes, chi + sum_q phi_q == 1 at every wavevector once q reaches
qmax = ceil(log2(n/2)) (2^(qmax+1) >= n exceeds every grid |k| <= n/sqrt(2)), with no
normalization step.  Block q = -1 denotes chi.  The homogeneous variants drop the zero
mode and use annular bands only; the annulus g(|k|) - g(2|k|) (support 1/2 < |k| < 2)
covers the lowest nonzero torus modes in that case.

Each grid has one filter bank, built on first use and cached
(`build_filter_bank`), its bands read-only; the operators here take it from their field's
grid.  A band index q is an integer (`_check_band_index`).  A band is stored on the half-spectrum
columns it can occupy (`DyadicFilterBank.columns`), all n rows: 1.05 MB at n = 256, not 5.2.
Bands are even in k2, so `DyadicFilterBank.plane` mirrors column j onto n - j for whole-plane use.

Band L^p norms take p = 2 from Parseval (`spectral._parseval`, on the half spectrum), with no
transform; other p sample one band at a time, over its stored columns only (`_real_samples`).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidInputError
from .spectral import (
    Grid,
    SpectralField,
    VectorField,
    _apply_multiplier,
    _components,
    _forward,
    _parseval,
    _read_only,
    _real_samples,
    _weighted_lr,
    _wrap,
    advect,
    dealiased_transform,
    inverse_transform,
    lp_norm,
    to_physical,
)


def smooth_transition(r: np.ndarray) -> np.ndarray:
    """C-infinity monotone function: 1 for r <= 1, 0 for r >= 2."""
    r = np.asarray(r, dtype=float)
    out = np.ones_like(r)
    out[r >= 2.0] = 0.0
    mid = (r > 1.0) & (r < 2.0)
    t = r[mid]
    upper = np.exp(-1.0 / (2.0 - t))
    lower = np.exp(-1.0 / (t - 1.0))
    out[mid] = upper / (upper + lower)
    return out


class DyadicFilterBank:
    """Smooth dyadic band multipliers on a grid, each on its columns; block q = -1 is the low cutoff."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self.qmin = -1
        self.qmax = int(math.ceil(math.log2(grid.n / 2)))
        # Band q is zero where |k| >= 2^(q+2) (2 at q = -1): in half-spectrum columns from there.
        self.columns = {q: min(2 ** (q + 2), grid.n // 2 + 1) for q in range(-1, self.qmax + 1)}

        def g(scale, q):  # g(|k| / scale) on band q's columns
            return smooth_transition(grid.kmag[:, : self.columns[q]] / scale)

        self.chi = _read_only(g(1.0, -1))
        self.phi = [_read_only(g(2.0 ** (q + 1), q) - g(2.0**q, q)) for q in range(self.qmax + 1)]
        # Annulus with support (1/2, 2) covering torus modes 1 <= |k| < 2; it
        # replaces chi when a decomposition must avoid the zero mode.
        self.phi_low_annulus = _read_only(self.chi - g(0.5, -1))

    def block_multiplier(self, q: int) -> np.ndarray:
        """Band q's multiplier on the whole (n, n) plane."""
        _check_band_index(q)
        if not self.qmin <= q <= self.qmax:
            message = f"band index q={q} outside [{self.qmin}, {self.qmax}] for n={self.grid.n}"
            raise InvalidInputError(message)
        return self.plane(self.chi if q == -1 else self.phi[q])

    def plane(self, band: np.ndarray) -> np.ndarray:
        """The (n, n) multiplier of a stored band: column n - j repeats column j for
        0 < j < n/2 (k2 -> -k2 leaves |k| as it is), +0.0 beyond the band's columns."""
        n, w = self.grid.n, band.shape[1]
        out = np.zeros((n, n))
        out[:, :w] = band
        out[:, n + 1 - min(w, n // 2) :] = band[:, min(w, n // 2) - 1 : 0 : -1]
        return out

    def bands(self, homogeneous: bool = False):
        """Yield (q, band) pairs covering the decomposition, each band as stored."""
        yield -1, self.phi_low_annulus if homogeneous else self.chi
        yield from enumerate(self.phi)


def _check_band_index(q) -> None:
    """Raise InvalidInputError unless the band index q is an integer (a bool is not)."""
    if isinstance(q, bool) or not isinstance(q, numbers.Integral):
        raise InvalidInputError(f"band index q must be an integer, got {q!r}")


@functools.lru_cache(maxsize=None)
def build_filter_bank(grid: Grid) -> DyadicFilterBank:
    """Return the (cached) filter bank for this grid."""
    return DyadicFilterBank(grid)


def dyadic_block(f: SpectralField, q: int) -> SpectralField:
    """Frequency-localized piece Delta_q f (q = -1 gives the low block)."""
    return _apply_multiplier(f, build_filter_bank(f.grid).block_multiplier(q))


def partial_sum(f: SpectralField, q: int) -> SpectralField:
    """Low-pass sum S_q f = sum of blocks Delta_p with p <= q - 1.

    By telescoping the multiplier equals g(|k| / 2^q) for q >= 0, so
    S_(qmax+1) f recovers f exactly (qmax = ceil(log2(n/2))).  For q <= -1 the sum is empty.
    """
    _check_band_index(q)
    if q <= -1:
        return _wrap(f.grid, np.zeros_like(f.coeffs))
    return _apply_multiplier(f, smooth_transition(f.grid.kmag / 2.0**q))


@dataclass(frozen=True)
class BesovSpec:
    """Index triple (s, p, r) plus the homogeneous/inhomogeneous switch."""

    s: float
    p: float
    r: float
    homogeneous: bool = False

    def __post_init__(self):
        _check_indices(self.s, ("integrability p", self.p), ("summation r", self.r))


def _check_indices(s: float, *exponents) -> None:
    """Raise ConfigurationError unless s is finite and each (name, value) lies in [1, inf]."""
    if not math.isfinite(s):
        raise ConfigurationError(f"Besov regularity s must be finite, got {s}")
    for name, x in exponents:
        if not (x == math.inf or x >= 1):
            raise ConfigurationError(f"Besov {name} must be >= 1, got {x}")


def _band_samples(f, homogeneous: bool = False):
    """Yield (q, samples of Delta_q f: an array, or a pair for a vector), each component
    formed over its band's columns only."""
    comps = _components(f)
    for q, mult in build_filter_bank(f.grid).bands(homogeneous):
        bands = tuple(_real_samples(c.coeffs[:, : mult.shape[1]] * mult, f.grid) for c in comps)
        yield q, bands if isinstance(f, VectorField) else bands[0]


def band_lp_norms(f, p: float, homogeneous: bool = False):
    """Per-band L^p norms (q indices, norms of Delta_q f): Parseval at p = 2, else sampled."""
    if p == 2:
        qs, mults = zip(*build_filter_bank(f.grid).bands(homogeneous))
        return np.array(qs), _parseval([c.coeffs for c in _components(f)], mults)
    qs, norms = zip(*((q, lp_norm(band, p)) for q, band in _band_samples(f, homogeneous)))
    return np.array(qs), np.array(norms)


def besov_norm(f, spec: BesovSpec) -> float:
    """Discrete Besov norm: l^r aggregation of 2^(qs) * ||Delta_q f||_p.

    Accepts a scalar SpectralField or a spectral VectorField (bands of a
    vector use the pointwise Euclidean magnitude).  The homogeneous variant
    never touches the zero mode: all of its band multipliers vanish at k = 0.
    Band norms: Parseval at p = 2, otherwise each band sampled over the columns it occupies.
    """
    qs, norms = band_lp_norms(f, spec.p, spec.homogeneous)
    return _weighted_lr(2.0 ** (qs * spec.s) * norms, spec.r)


def mixed_time_besov_norm(
    times: np.ndarray,
    band_norms: np.ndarray,
    qs: np.ndarray,
    s: float,
    rho: float,
    r: float,
) -> float:
    """Space-time Besov norm with the time integral taken band-first.

    `band_norms[i, j]` is ||Delta_(qs[j]) u(times[i])||_p.  Each band is
    reduced over time with the L^rho quadrature (trapezoid; rho = inf takes
    the max), weighted by 2^(qs), then aggregated in l^r over bands (rho, r in [1, inf]).
    The times must increase strictly and `band_norms` be of shape (len(times), len(qs)).
    """
    _check_indices(s, ("time integrability rho", rho), ("summation r", r))
    t, qs = np.asarray(times, dtype=float), np.asarray(qs)
    norms = np.asarray(band_norms, dtype=float)
    if not (t.ndim == qs.ndim == 1 and norms.shape == (len(t), len(qs))):
        raise InvalidInputError(
            f"band norms of shape {norms.shape} do not match times {t.shape} and qs {qs.shape}"
        )
    _check_increasing(t)
    t = np.concatenate([t[:1], t, t[-1:]])
    weights = (t[2:] - t[:-2]) / 2.0  # the trapezoid rule as a weighted sum over times
    per_band = [_weighted_lr(b, rho, weights) for b in norms.T]
    return _weighted_lr(2.0 ** (qs * s) * np.array(per_band), r)


def _check_increasing(t: np.ndarray) -> None:
    if not (t.ndim == 1 and t.size > 0):
        raise InvalidInputError(f"times must be a non-empty 1-D series, got shape {t.shape}")
    if not np.all(np.diff(t) > 0):
        raise InvalidInputError("times must increase strictly")


def bony_decompose(u: SpectralField, w: SpectralField):
    """Split the product u*w into (T_u w, T_w u, R(u, w)), each dealiased.

    T_u w collects S_(q-1) u * Delta_q w, the remainder pairs blocks at
    distance <= 1.  The three parts sum to the dealiased pseudo-spectral
    product because the block pairing partitions all band pairs.
    """
    grid = u._same_grid(w)
    bu, bw = ([b for _, b in _band_samples(f)] for f in (u, w))
    cum_u, cum_w = (np.cumsum(b, axis=0) for b in (bu, bw))
    # bw[q + 1] is block q; cum_*[q - 1] is the partial sum over blocks -1 .. q-2
    t_uw = sum(cum_u[q - 1] * bw[q + 1] for q in range(1, len(bw) - 1))
    t_wu = sum(cum_w[q - 1] * bu[q + 1] for q in range(1, len(bw) - 1))
    remainder = sum(bu[i] * sum(bw[max(i - 1, 0) : i + 2]) for i in range(len(bw)))
    return tuple(dealiased_transform(grid, s) for s in (t_uw, t_wu, remainder))


def commutator_riesz(v: VectorField, theta: SpectralField) -> VectorField:
    """Vector commutator of the Riesz transform with multiplication by v.

    Component i is R(v_i * theta) - v_i * R(theta) with dealiased products, each product
    and the difference formed on the kept block.  R theta is sampled from the half spectrum,
    as theta is.  For divergence-free v its divergence equals the transport commutator
    R(v . grad theta) - v . grad(R theta).
    """
    grid = v.x1._same_grid(theta)
    h = grid.n // 2 + 1
    th = inverse_transform(theta)
    rth = _real_samples(theta.coeffs[:, :h] * grid.riesz_mult[:, :h], grid)
    r = grid.block(grid.riesz_mult)
    out = []
    for comp in v.components():
        vi = inverse_transform(comp)
        first = _forward(grid, vi * th, True) * r
        second = _forward(grid, vi * rth, True)
        out.append(_wrap(grid, grid.plane(first - second)))
    return VectorField(out[0], out[1])


def commutator_block(v: VectorField, f: SpectralField, q: int) -> SpectralField:
    """Block/transport commutator Delta_q(v . grad f) - v . grad(Delta_q f)."""
    vp = to_physical(v)
    return dyadic_block(advect(vp, f), q) - advect(vp, dyadic_block(f, q))


def band_kernel(grid: Grid, q: int) -> np.ndarray:
    """Physical-space convolution kernel realizing block q.

    Normalized so that torus convolution with the kernel multiplies
    Fourier-series coefficients by the band multiplier.
    """
    coeffs = build_filter_bank(grid).block_multiplier(q).astype(complex) / (2.0 * np.pi) ** 2
    return inverse_transform(_wrap(grid, coeffs))


def centered_radius(grid: Grid) -> np.ndarray:
    """Distance to the origin with coordinates folded into [-pi, pi)."""
    xc = np.mod(grid.x + np.pi, 2.0 * np.pi) - np.pi
    return np.hypot(xc[:, None], xc[None, :])
