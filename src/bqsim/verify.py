"""Monte-Carlo verification of commutator, interpolation, and Bernstein bounds.

Each suite draws a seeded ensemble of random fields, evaluates both sides of
one functional inequality per sample, and reports the ratio statistics.  A
finite, refinement-stable max ratio is the numerical surrogate for "holds
with a constant independent of the function": because random fields extend
coherently across resolutions (see `fields`), rerunning a suite at 2n tests
the same underlying functions with their next octave of modes filled in.

Every L^2 norm of a sample is a Parseval sum of its coefficients (`sobolev_norm` at s = 0,
`gradient_lp_norm` and the Besov bands at p = 2, `_lp`), with no transform; what a sample still
transforms feeds a product, a nonlinear map or a norm with p != 2.
`_collect` runs samples i and i + 1, pure functions of their seed keys, on two threads from
n = `dynamics.PARALLEL_MIN_N`.  Every suite is homogeneous, so the rhs floors are relative.

Torus note: fields live on [0, 2pi)^2, so phenomena specific to the whole
plane (non-compact scalings, infinite-volume kernels) are outside scope;
kernel moments use box-folded coordinates.  Report CSVs repeat this note.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .dynamics import _pair
from .errors import ConfigurationError
from .fields import random_divfree_velocity, random_scalar_field
from .littlewood_paley import (
    BesovSpec,
    band_kernel,
    besov_norm,
    centered_radius,
    commutator_block,
    commutator_riesz,
    dyadic_block,
)
from .simio import write_ratio_csv
from .spectral import (
    Grid,
    VectorField,
    advect,
    dealiased_transform,
    divergence,
    forward_transform,
    fractional_dissipation,
    gradient,
    gradient_lp_norm,
    integrate,
    inverse_transform,
    lp_norm,
    sobolev_norm,
    to_physical,
    vector_sobolev_norm,
)

#: Samples whose right-hand side falls at or below this fraction of the largest finite |rhs| of
#: their ensemble are excluded from ratio statistics (degenerate denominators) but still counted.
RHS_FLOOR = 1e-14


@dataclass(frozen=True)
class EnsembleSpec:
    """Seeded random-field ensemble parameters."""

    seed: int = 42
    count: int = 64
    n: int = 128
    spectrum_gamma: float = 2.5
    amplitude: float = 1.0

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigurationError(f"ensemble seed must be >= 0, got {self.seed}")
        if self.count < 1:
            raise ConfigurationError(f"ensemble count must be >= 1, got {self.count}")
        if self.n % 2 != 0 or self.n < 16:
            raise ConfigurationError(f"ensemble grid size must be even and >= 16, got {self.n}")
        if not 0 < self.amplitude < math.inf:
            raise ConfigurationError(f"amplitude must be finite and > 0, got {self.amplitude}")
        if not math.isfinite(self.spectrum_gamma):
            raise ConfigurationError(f"spectrum_gamma must be finite, got {self.spectrum_gamma}")


@dataclass
class RatioReport:
    """Per-sample lhs/rhs values of an inequality and their ratio statistics."""

    suite: str
    params: dict
    lhs: np.ndarray
    rhs: np.ndarray

    @property
    def included(self) -> np.ndarray:
        scale = np.max(np.abs(self.rhs[np.isfinite(self.rhs)]), initial=0.0)
        return self.rhs > RHS_FLOOR * scale

    @property
    def excluded_ids(self) -> list:
        return [int(i) for i in np.nonzero(~self.included)[0]]

    @property
    def ratios(self) -> np.ndarray:
        inc = self.included
        return self.lhs[inc] / self.rhs[inc]

    def _ratio_stat(self, reduce) -> float:
        """reduce of the included ratios, or NaN when no sample is included."""
        r = self.ratios
        return float(reduce(r)) if r.size else math.nan

    max_ratio = property(lambda self: self._ratio_stat(np.max))
    median_ratio = property(lambda self: self._ratio_stat(np.median))
    min_ratio = property(lambda self: self._ratio_stat(np.min))

    @property
    def excluded_count(self) -> int:
        return int(np.count_nonzero(~self.included))

    @property
    def all_finite(self) -> bool:
        return bool(self.ratios.size > 0 and np.all(np.isfinite(self.ratios)))

    def summary(self) -> str:
        return (
            f"suite={self.suite} samples={self.lhs.size} excluded={self.excluded_count} "
            f"max_ratio={self.max_ratio:.6g} median_ratio={self.median_ratio:.6g}"
        )

    def write_csv(self, path, header_lines=()):
        write_ratio_csv(path, self, header_lines)


def _collect(suite, params, ens, one_sample) -> RatioReport:
    """Evaluate one_sample(grid, scalar, velocity) for each sample i, i and i + 1 as a pair
    (`dynamics._pair`), gathered in index order; the two draw functions seed sample i's fields
    with (suite salt, seed, i, stream)."""
    grid = Grid(ens.n)
    salt = zlib.crc32(suite.encode()) & 0x7FFFFFFF
    spectrum = (ens.spectrum_gamma, ens.amplitude)

    def sample(i):
        def scalar(stream=0):
            return random_scalar_field(grid, *spectrum, (salt, ens.seed, i, stream))

        def velocity(stream=10):
            return random_divfree_velocity(grid, *spectrum, (salt, ens.seed, i, stream))

        return one_sample(grid, scalar, velocity)

    results = []
    for i in range(0, ens.count, 2):  # an odd count's last sample alone
        results += _pair(grid, sample, (i,), (i + 1,)) if i + 1 < ens.count else [sample(i)]
    lhs, rhs = np.array(results, dtype=float).T.copy()
    return RatioReport(suite=suite, params=dict(params), lhs=lhs, rhs=rhs)


def _lp(f, p) -> float:
    """L^p norm of a field or a vector field: Parseval at p = 2, else its samples' quadrature."""
    if p == 2:
        return sobolev_norm(f, 0.0)
    return lp_norm(to_physical(f) if isinstance(f, VectorField) else inverse_transform(f), p)


# ---------------------------------------------------------------------------
# Suites


def verify_commutator_hs(ens: EnsembleSpec, s: float = 0.5) -> RatioReport:
    """Riesz/multiplication commutator in H^s against the velocity gradient.

    lhs = ||[R, v] theta||_(H^s); rhs = ||grad v||_(L2) ||theta||_(B^(s-1)_(inf,2))
    + ||v||_(L2) ||theta||_(L2), for divergence-free v and 0 < s < 1.
    """
    if not 0.0 < s < 1.0:
        raise ConfigurationError(f"commutator-hs regularity s must lie in (0, 1), got {s}")

    def one(grid, scalar, velocity):
        v, theta = velocity(), scalar()
        lhs = vector_sobolev_norm(commutator_riesz(v, theta), s)
        l2 = vector_sobolev_norm(v, 0.0) * sobolev_norm(theta, 0.0)
        return lhs, gradient_lp_norm(v, 2) * besov_norm(theta, BesovSpec(s - 1.0, math.inf, 2.0)) + l2

    return _collect("commutator-hs", {"s": s}, ens, one)


def verify_commutator_bp(ens: EnsembleSpec, p: float = 2.0) -> RatioReport:
    """Transport-form Riesz commutator in B^0_(p,inf).

    lhs = ||div([R, v] theta)||_(B^0_(p,inf)); rhs = ||grad v||_(L^p)
    ||theta||_(B^0_(inf,inf)) + ||v||_(L2) ||theta||_(L2), p in [2, inf].
    """
    if not (p == math.inf or p >= 2.0):
        raise ConfigurationError(f"commutator-bp exponent p must lie in [2, inf], got {p}")

    def one(grid, scalar, velocity):
        v, theta = velocity(), scalar()
        lhs = besov_norm(divergence(commutator_riesz(v, theta)), BesovSpec(0.0, p, math.inf))
        l2 = vector_sobolev_norm(v, 0.0) * sobolev_norm(theta, 0.0)
        return lhs, gradient_lp_norm(v, p) * besov_norm(theta, BesovSpec(0.0, math.inf, math.inf)) + l2

    return _collect("commutator-bp", {"p": p}, ens, one)


def verify_kernel_commutator(ens: EnsembleSpec, q: int = 3, p: float = 2.0) -> RatioReport:
    """First-moment bound for a convolution/multiplication commutator.

    lhs = ||h * (f g) - f (h * g)||_(L^p) with h the band-q kernel; rhs =
    ||x h||_(L1) ||grad f||_(L^p) ||g||_(L^inf).  The underlying constant is
    exactly 1, so ratios should stay at or below 1 up to quadrature slack.
    """
    grid = Grid(ens.n)
    xh_l1 = integrate(centered_radius(grid) * np.abs(band_kernel(grid, q)))

    def one(grid, scalar, velocity):
        f, g = scalar(0), scalar(1)
        f_phys, g_phys = inverse_transform(f), inverse_transform(g)
        fg = dealiased_transform(grid, f_phys * g_phys)
        conv_g = inverse_transform(dyadic_block(g, q))
        lhs = _lp(dyadic_block(fg, q) - dealiased_transform(grid, f_phys * conv_g), p)
        return lhs, xh_l1 * _lp(gradient(f), p) * lp_norm(g_phys, math.inf)

    return _collect("kernel", {"q": q, "p": p}, ens, one)


def verify_power_map(ens: EnsembleSpec, beta: float = 4.0, s: float = 0.5) -> RatioReport:
    """Homogeneous-Sobolev bound for the signed power map u -> |u|^(beta-2) u.

    lhs = || |u|^(beta-2) u ||_(Hdot^s); rhs = ||u||^(beta-2)_(L^(2 beta))
    ||u||_(Hdot^(s+1-2/beta)), for beta >= 2 and 0 < s < 1.
    """
    if not 2.0 <= beta < math.inf:
        raise ConfigurationError(f"power-map exponent beta must be finite and >= 2, got {beta}")
    if not 0.0 < s < 1.0:
        raise ConfigurationError(f"power-map regularity s must lie in (0, 1), got {s}")

    def one(grid, scalar, velocity):
        u = scalar()
        u_phys = inverse_transform(u)
        powered = np.sign(u_phys) * np.abs(u_phys) ** (beta - 1.0)
        lhs = sobolev_norm(forward_transform(grid, powered), s, homogeneous=True)
        weak = sobolev_norm(u, s + 1.0 - 2.0 / beta, homogeneous=True)
        return lhs, lp_norm(u_phys, 2.0 * beta) ** (beta - 2.0) * weak

    return _collect("power-map", {"beta": beta, "s": s}, ens, one)


def verify_log_interpolation(ens: EnsembleSpec) -> RatioReport:
    """Logarithmic interpolation: L2 against B^0_(2,inf) with an H^1 log factor.

    lhs = ||v||_(L2); rhs = ||v||_(B^0_(2,inf)) log(e + ||v||_(H^1) /
    ||v||_(B^0_(2,inf))) for divergence-free v.
    """

    def one(grid, scalar, velocity):
        v = velocity()
        lhs, weak = vector_sobolev_norm(v, 0.0), besov_norm(v, BesovSpec(0.0, 2.0, math.inf))
        if weak <= RHS_FLOOR * lhs:
            return lhs, 0.0
        return lhs, weak * math.log(math.e + vector_sobolev_norm(v, 1.0) / weak)

    return _collect("log-interp", {}, ens, one)


def verify_generalized_bernstein(ens: EnsembleSpec, q: int = 3, r: float = 3.0) -> RatioReport:
    """Lower dissipation bound on a band: int (|D| u_q) |u_q|^(r-2) u_q dx
    >= c 2^q ||u_q||^r_(L^r).

    The reported ratio is the per-sample constant c; the suite passes when
    the smallest c stays positive and bounded away from zero.
    """
    if not 2.0 <= r < math.inf:
        raise ConfigurationError(f"gen-bernstein exponent r must be finite and >= 2, got {r}")

    def one(grid, scalar, velocity):
        uq = dyadic_block(scalar(), q)
        uq_phys = inverse_transform(uq)
        dissip = inverse_transform(fractional_dissipation(uq, 1.0))
        signed_power = np.sign(uq_phys) * np.abs(uq_phys) ** (r - 1.0)
        return integrate(dissip * signed_power), 2.0**q * lp_norm(uq_phys, r) ** r

    return _collect("gen-bernstein", {"q": q, "r": r}, ens, one)


def verify_product_transport(ens: EnsembleSpec, s: float = -0.5) -> RatioReport:
    """Negative-regularity bound for the transport product.

    lhs = ||v . grad f||_(B^s_(2,inf)); rhs = ||v||_(L2) ||f||_(B^(1+s)_(inf,1))
    for divergence-free v and -1 <= s <= 0.
    """
    if not -1.0 <= s <= 0.0:
        raise ConfigurationError(f"product regularity s must lie in [-1, 0], got {s}")

    def one(grid, scalar, velocity):
        v, f = velocity(), scalar()
        lhs = besov_norm(advect(to_physical(v), f), BesovSpec(s, 2.0, math.inf))
        return lhs, vector_sobolev_norm(v, 0.0) * besov_norm(f, BesovSpec(1.0 + s, math.inf, 1.0))

    return _collect("product", {"s": s}, ens, one)


def verify_block_commutator(
    ens: EnsembleSpec, q: int = 3, p: float = 2.0, variant: str = "binf"
) -> RatioReport:
    """Transport/block commutator [Delta_q, v . grad] f in L^p.

    variant 'binf': rhs = ||grad v||_(L^p) ||f||_(B^0_(inf,inf)).
    variant 'b2a':  rhs = ||grad v||_(L^p) ||f||_(B^(2/p)_(p,1)); here the
    gradient integrability is tied to the left-hand exponent.
    """
    if variant not in ("binf", "b2a"):
        raise ConfigurationError(f"block-commutator variant must be 'binf' or 'b2a', got {variant!r}")
    if variant == "b2a" and p == math.inf:
        raise ConfigurationError("block-commutator variant 'b2a' requires finite p")

    spec = BesovSpec(0.0, math.inf, math.inf) if variant == "binf" else BesovSpec(2.0 / p, p, 1.0)

    def one(grid, scalar, velocity):
        v, f = velocity(), scalar()
        lhs = _lp(commutator_block(v, f, q), p)
        return lhs, gradient_lp_norm(v, p) * besov_norm(f, spec)

    return _collect("block-commutator", {"q": q, "p": p, "variant": variant}, ens, one)


# ---------------------------------------------------------------------------
# Suite registry and pass criteria (used by the command-line front end)

SUITES = {
    "commutator-hs": verify_commutator_hs,
    "commutator-bp": verify_commutator_bp,
    "kernel": verify_kernel_commutator,
    "power-map": verify_power_map,
    "log-interp": verify_log_interpolation,
    "gen-bernstein": verify_generalized_bernstein,
    "product": verify_product_transport,
    "block-commutator": verify_block_commutator,
}

#: Max ratio admitted for the kernel moment suite (constant 1 + quadrature slack).
KERNEL_RATIO_LIMIT = 1.05


def suite_passes(report: RatioReport) -> bool:
    """Finite ratios for every included sample, plus suite-specific limits."""
    if not report.all_finite:
        return False
    if report.suite == "kernel":
        return report.max_ratio <= KERNEL_RATIO_LIMIT
    if report.suite == "gen-bernstein":
        return bool(np.min(report.ratios) > 0.0)
    return True
