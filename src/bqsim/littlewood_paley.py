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
(`build_filter_bank`); the operators here take it from their field's grid.

Band L^p norms take p = 2 from Parseval, with no transform and with the coefficients
scaled by their max; other p sample one band at a time, formed only over the half-spectrum
columns it can occupy (`DyadicFilterBank.columns`), by `spectral._real_samples`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidInputError
from .spectral import (
    Grid,
    PhysicalField,
    SpectralField,
    VectorField,
    _apply_multiplier,
    _real_samples,
    _rescale_by,
    _wrap,
    advect,
    dealiased_transform,
    inverse_transform,
    lp_norm,
    riesz,
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
    """Smooth dyadic band multipliers on a grid; block q = -1 is the low cutoff."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self.qmin = -1
        self.qmax = int(math.ceil(math.log2(grid.n / 2)))
        self.chi = low = smooth_transition(grid.kmag)
        self.phi = []
        for q in range(0, self.qmax + 1):
            high = smooth_transition(grid.kmag / 2.0 ** (q + 1))
            self.phi.append(high - low)
            low = high
        # Annulus with support (1/2, 2) covering torus modes 1 <= |k| < 2; it
        # replaces chi when a decomposition must avoid the zero mode.
        self.phi_low_annulus = self.chi - smooth_transition(2.0 * grid.kmag)
        # Band q is zero where |k| >= 2^(q+2) (2 at q = -1): in half-spectrum columns from there.
        self.columns = {q: min(2 ** (q + 2), grid.n // 2 + 1) for q in range(-1, self.qmax + 1)}

    def block_multiplier(self, q: int) -> np.ndarray:
        if q == -1:
            return self.chi
        if 0 <= q <= self.qmax:
            return self.phi[q]
        raise InvalidInputError(
            f"band index q={q} outside [{self.qmin}, {self.qmax}] for n={self.grid.n}"
        )

    def bands(self, homogeneous: bool = False):
        """Yield (q, multiplier) pairs covering the decomposition."""
        yield -1, self.phi_low_annulus if homogeneous else self.chi
        yield from enumerate(self.phi)


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
        if not math.isfinite(self.s):
            raise ConfigurationError(f"Besov regularity s must be finite, got {self.s}")
        if not (self.p == math.inf or self.p >= 1):
            raise ConfigurationError(f"Besov integrability p must be >= 1, got {self.p}")
        if not (self.r == math.inf or self.r >= 1):
            raise ConfigurationError(f"Besov summation r must be >= 1, got {self.r}")


def _components(f):
    return f.components() if isinstance(f, VectorField) else (f,)


def _band_samples(f, homogeneous: bool = False):
    """Yield (q, physical Delta_q f), each component formed over `bank.columns[q]` only."""
    bank, comps = build_filter_bank(f.grid), _components(f)
    for q, mult in bank.bands(homogeneous):
        cols = np.s_[:, : bank.columns[q]]
        bands = [PhysicalField(f.grid, _real_samples(c.coeffs[cols] * mult[cols])) for c in comps]
        yield q, VectorField(*bands) if isinstance(f, VectorField) else bands[0]


def band_lp_norms(f, p: float, homogeneous: bool = False):
    """Per-band L^p norms (q indices, norms of Delta_q f): Parseval at p = 2, else sampled."""
    if p == 2:  # 2 pi sqrt(sum_k mult_q(k)^2 |coeff(k)|^2) over the components
        mags = [np.abs(c.coeffs) for c in _components(f)]
        top = max(float(np.max(m)) for m in mags) or 1.0  # scaled by it, squares stay finite
        power = sum((m / top) ** 2 for m in mags)
        pairs = ((q, 2.0 * np.pi * top * np.sqrt(np.sum(mult * mult * power)))
                 for q, mult in build_filter_bank(f.grid).bands(homogeneous))
    else:
        pairs = ((q, lp_norm(band, p)) for q, band in _band_samples(f, homogeneous))
    qs, norms = zip(*pairs)
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


def _weighted_lr(terms: np.ndarray, r: float, weights=1.0) -> float:
    """(sum weights * terms^r)^(1/r) of terms >= 0, or max(terms) at r = inf; the terms
    are scaled by their max first when the power sum leaves the normal doubles."""
    if r == math.inf:
        return float(np.max(terms))
    with np.errstate(over="ignore"):
        total = np.sum(weights * terms**r)
    top = _rescale_by(total, terms)
    if top:
        return float(top * np.sum(weights * (terms / top) ** r) ** (1.0 / r))
    return float(total ** (1.0 / r))


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
    the max), weighted by 2^(qs), then aggregated in l^r over bands.
    """
    t = np.asarray(times, dtype=float)
    t = np.concatenate([t[:1], t, t[-1:]])
    weights = (t[2:] - t[:-2]) / 2.0  # the trapezoid rule as a weighted sum over times
    per_band = [_weighted_lr(b, rho, weights) for b in np.asarray(band_norms, dtype=float).T]
    return _weighted_lr(2.0 ** (np.asarray(qs) * s) * np.array(per_band), r)


def bony_decompose(u: SpectralField, w: SpectralField):
    """Split the product u*w into (T_u w, T_w u, R(u, w)), each dealiased.

    T_u w collects S_(q-1) u * Delta_q w, the remainder pairs blocks at
    distance <= 1.  The three parts sum to the dealiased pseudo-spectral
    product because the block pairing partitions all band pairs.
    """
    grid = u._same_grid(w)
    bu = [b.samples for _, b in _band_samples(u)]
    bw = [b.samples for _, b in _band_samples(w)]
    cum_u = np.cumsum(bu, axis=0)
    cum_w = np.cumsum(bw, axis=0)
    # bw[q + 1] is block q; cum_*[q - 1] is the partial sum over blocks -1 .. q-2
    t_uw = sum(cum_u[q - 1] * bw[q + 1] for q in range(1, len(bw) - 1))
    t_wu = sum(cum_w[q - 1] * bu[q + 1] for q in range(1, len(bw) - 1))
    remainder = sum(bu[i] * sum(bw[max(i - 1, 0) : i + 2]) for i in range(len(bw)))
    return tuple(dealiased_transform(PhysicalField(grid, s)) for s in (t_uw, t_wu, remainder))


def commutator_riesz(v: VectorField, theta: SpectralField) -> VectorField:
    """Vector commutator of the Riesz transform with multiplication by v.

    Component i is R(v_i * theta) - v_i * R(theta) with dealiased products.
    For divergence-free v its divergence equals the transport commutator
    R(v . grad theta) - v . grad(R theta).
    """
    grid = theta.grid
    th = inverse_transform(theta).samples
    rth = _real_samples(riesz(theta).coeffs)
    out = []
    for comp in v.components():
        vi = inverse_transform(comp).samples
        first = riesz(dealiased_transform(PhysicalField(grid, vi * th)))
        second = dealiased_transform(PhysicalField(grid, vi * rth))
        out.append(first - second)
    return VectorField(out[0], out[1])


def commutator_block(v: VectorField, f: SpectralField, q: int) -> SpectralField:
    """Block/transport commutator Delta_q(v . grad f) - v . grad(Delta_q f)."""
    vp = to_physical(v)
    return dyadic_block(advect(vp, f), q) - advect(vp, dyadic_block(f, q))


def band_kernel(grid: Grid, q: int) -> PhysicalField:
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
