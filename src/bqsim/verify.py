"""Monte-Carlo verification of commutator, interpolation, and Bernstein bounds.

Each suite draws a seeded ensemble of random fields, evaluates both sides of
one functional inequality per sample, and reports the ratio statistics.  A
finite, refinement-stable max ratio is the numerical surrogate for "holds
with a constant independent of the function": because random fields extend
coherently across resolutions (see `fields`), rerunning a suite at 2n tests
the same underlying functions with their next octave of modes filled in.

Torus note: fields live on [0, 2pi)^2, so phenomena specific to the whole
plane (non-compact scalings, infinite-volume kernels) are outside scope;
kernel moments use box-folded coordinates.  Report CSVs repeat this note.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

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
from .spectral import (
    Grid,
    PhysicalField,
    advect,
    dealias,
    divergence,
    forward_transform,
    fractional_dissipation,
    gradient,
    gradient_lp_norm,
    inverse_transform,
    lp_norm,
    sobolev_norm,
    to_physical,
    vector_sobolev_norm,
)

#: Samples whose right-hand side falls at or below this are excluded from
#: ratio statistics (degenerate denominators) but still counted.
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
        if self.count < 1:
            raise ConfigurationError(f"ensemble count must be >= 1, got {self.count}")
        if self.n % 2 != 0 or self.n < 16:
            raise ConfigurationError(f"ensemble grid size must be even and >= 16, got {self.n}")
        if self.amplitude <= 0:
            raise ConfigurationError(f"ensemble amplitude must be positive, got {self.amplitude}")


@dataclass
class RatioReport:
    """Per-sample lhs/rhs values of an inequality and their ratio statistics."""

    suite: str
    params: dict
    lhs: np.ndarray
    rhs: np.ndarray

    @property
    def included(self) -> np.ndarray:
        return self.rhs > RHS_FLOOR

    @property
    def excluded_ids(self) -> list:
        return [int(i) for i in np.nonzero(~self.included)[0]]

    @property
    def ratios(self) -> np.ndarray:
        inc = self.included
        return self.lhs[inc] / self.rhs[inc]

    @property
    def max_ratio(self) -> float:
        r = self.ratios
        return float(np.max(r)) if r.size else math.nan

    @property
    def min_ratio(self) -> float:
        r = self.ratios
        return float(np.min(r)) if r.size else math.nan

    @property
    def median_ratio(self) -> float:
        r = self.ratios
        return float(np.median(r)) if r.size else math.nan

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
        lines = [f"# {h}" for h in header_lines]
        lines.append(f"# suite: {self.suite}")
        lines.append(
            "# params: " + " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        )
        lines.append("# note: torus discretization; plane-only phenomena out of scope")
        lines.append("sample_id,lhs,rhs,ratio")
        inc = self.included
        for i in range(self.lhs.size):
            ratio = f"{self.lhs[i] / self.rhs[i]:.17g}" if inc[i] else "nan"
            lines.append(f"{i},{self.lhs[i]:.17g},{self.rhs[i]:.17g},{ratio}")
        lines.append(
            f"# summary: max_ratio={self.max_ratio:.17g} median_ratio={self.median_ratio:.17g} "
            f"excluded={self.excluded_count}"
        )
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


def _collect(suite, params, ens, one_sample) -> RatioReport:
    """Evaluate one_sample(grid, scalar, velocity) for each sample i; the two
    draw functions seed sample i's fields with (suite salt, seed, i, stream)."""
    grid = Grid(ens.n)
    salt = zlib.crc32(suite.encode()) & 0x7FFFFFFF
    spectrum = (ens.spectrum_gamma, ens.amplitude)
    lhs = np.empty(ens.count)
    rhs = np.empty(ens.count)
    for i in range(ens.count):

        def scalar(stream=0):
            return random_scalar_field(grid, *spectrum, (salt, ens.seed, i, stream))

        def velocity(stream=10):
            return random_divfree_velocity(grid, *spectrum, (salt, ens.seed, i, stream))

        lhs[i], rhs[i] = one_sample(grid, scalar, velocity)
    return RatioReport(suite=suite, params=dict(params), lhs=lhs, rhs=rhs)


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
        v = velocity()
        theta = scalar()
        comm = commutator_riesz(v, theta)
        lhs = float(np.hypot(sobolev_norm(comm.x1, s), sobolev_norm(comm.x2, s)))
        rhs = gradient_lp_norm(v, 2) * besov_norm(
            theta, BesovSpec(s - 1.0, math.inf, 2.0)
        ) + lp_norm(to_physical(v), 2) * lp_norm(inverse_transform(theta), 2)
        return lhs, rhs

    return _collect("commutator-hs", {"s": s}, ens, one)


def verify_commutator_bp(ens: EnsembleSpec, p: float = 2.0) -> RatioReport:
    """Transport-form Riesz commutator in B^0_(p,inf).

    lhs = ||div([R, v] theta)||_(B^0_(p,inf)); rhs = ||grad v||_(L^p)
    ||theta||_(B^0_(inf,inf)) + ||v||_(L2) ||theta||_(L2), p in [2, inf].
    """
    if not (p == math.inf or p >= 2.0):
        raise ConfigurationError(f"commutator-bp exponent p must lie in [2, inf], got {p}")

    def one(grid, scalar, velocity):
        v = velocity()
        theta = scalar()
        comm_div = divergence(commutator_riesz(v, theta))
        lhs = besov_norm(comm_div, BesovSpec(0.0, p, math.inf))
        rhs = gradient_lp_norm(v, p) * besov_norm(
            theta, BesovSpec(0.0, math.inf, math.inf)
        ) + lp_norm(to_physical(v), 2) * lp_norm(inverse_transform(theta), 2)
        return lhs, rhs

    return _collect("commutator-bp", {"p": p}, ens, one)


def verify_kernel_commutator(ens: EnsembleSpec, q: int = 3, p: float = 2.0) -> RatioReport:
    """First-moment bound for a convolution/multiplication commutator.

    lhs = ||h * (f g) - f (h * g)||_(L^p) with h the band-q kernel; rhs =
    ||x h||_(L1) ||grad f||_(L^p) ||g||_(L^inf).  The underlying constant is
    exactly 1, so ratios should stay at or below 1 up to quadrature slack.
    """

    def one(grid, scalar, velocity):
        h = band_kernel(grid, q)
        xh_l1 = float(np.sum(centered_radius(grid) * np.abs(h.samples)) * grid.cell_area)
        f = scalar(0)
        g = scalar(1)
        f_phys = inverse_transform(f).samples
        g_phys = inverse_transform(g).samples
        fg = dealias(forward_transform(PhysicalField(grid, f_phys * g_phys)))
        conv_fg = inverse_transform(dyadic_block(fg, q)).samples
        conv_g = inverse_transform(dyadic_block(g, q)).samples
        f_convg = inverse_transform(
            dealias(forward_transform(PhysicalField(grid, f_phys * conv_g)))
        ).samples
        lhs = lp_norm(PhysicalField(grid, conv_fg - f_convg), p)
        rhs = xh_l1 * lp_norm(to_physical(gradient(f)), p) * float(np.max(np.abs(g_phys)))
        return lhs, rhs

    return _collect("kernel", {"q": q, "p": p}, ens, one)


def verify_power_map(ens: EnsembleSpec, beta: float = 4.0, s: float = 0.5) -> RatioReport:
    """Homogeneous-Sobolev bound for the signed power map u -> |u|^(beta-2) u.

    lhs = || |u|^(beta-2) u ||_(Hdot^s); rhs = ||u||^(beta-2)_(L^(2 beta))
    ||u||_(Hdot^(s+1-2/beta)), for beta >= 2 and 0 < s < 1.
    """
    if beta < 2.0:
        raise ConfigurationError(f"power-map exponent beta must be >= 2, got {beta}")
    if not 0.0 < s < 1.0:
        raise ConfigurationError(f"power-map regularity s must lie in (0, 1), got {s}")

    def one(grid, scalar, velocity):
        u = scalar()
        u_phys = inverse_transform(u).samples
        powered = np.sign(u_phys) * np.abs(u_phys) ** (beta - 1.0)
        lhs = sobolev_norm(
            forward_transform(PhysicalField(grid, powered)), s, homogeneous=True
        )
        rhs = lp_norm(PhysicalField(grid, u_phys), 2.0 * beta) ** (beta - 2.0) * sobolev_norm(
            u, s + 1.0 - 2.0 / beta, homogeneous=True
        )
        return lhs, rhs

    return _collect("power-map", {"beta": beta, "s": s}, ens, one)


def verify_log_interpolation(ens: EnsembleSpec) -> RatioReport:
    """Logarithmic interpolation: L2 against B^0_(2,inf) with an H^1 log factor.

    lhs = ||v||_(L2); rhs = ||v||_(B^0_(2,inf)) log(e + ||v||_(H^1) /
    ||v||_(B^0_(2,inf))) for divergence-free v.
    """

    def one(grid, scalar, velocity):
        v = velocity()
        lhs = lp_norm(to_physical(v), 2)
        weak = besov_norm(v, BesovSpec(0.0, 2.0, math.inf))
        if weak <= RHS_FLOOR:
            return lhs, 0.0
        h1 = vector_sobolev_norm(v, 1.0)
        return lhs, weak * math.log(math.e + h1 / weak)

    return _collect("log-interp", {}, ens, one)


def verify_generalized_bernstein(ens: EnsembleSpec, q: int = 3, r: float = 3.0) -> RatioReport:
    """Lower dissipation bound on a band: int (|D| u_q) |u_q|^(r-2) u_q dx
    >= c 2^q ||u_q||^r_(L^r).

    The reported ratio is the per-sample constant c; the suite passes when
    the smallest c stays positive and bounded away from zero.
    """
    if r < 2.0:
        raise ConfigurationError(f"gen-bernstein exponent r must be >= 2, got {r}")

    def one(grid, scalar, velocity):
        u = scalar()
        uq = dyadic_block(u, q)
        uq_phys = inverse_transform(uq).samples
        dissip = inverse_transform(fractional_dissipation(uq, 1.0)).samples
        signed_power = np.sign(uq_phys) * np.abs(uq_phys) ** (r - 1.0)
        lhs = float(np.sum(dissip * signed_power) * grid.cell_area)
        rhs = 2.0**q * lp_norm(PhysicalField(grid, uq_phys), r) ** r
        return lhs, rhs

    return _collect("gen-bernstein", {"q": q, "r": r}, ens, one)


def verify_product_transport(ens: EnsembleSpec, s: float = -0.5) -> RatioReport:
    """Negative-regularity bound for the transport product.

    lhs = ||v . grad f||_(B^s_(2,inf)); rhs = ||v||_(L2) ||f||_(B^(1+s)_(inf,1))
    for divergence-free v and -1 <= s <= 0.
    """
    if not -1.0 <= s <= 0.0:
        raise ConfigurationError(f"product regularity s must lie in [-1, 0], got {s}")

    def one(grid, scalar, velocity):
        v = velocity()
        f = scalar()
        lhs = besov_norm(advect(v, f), BesovSpec(s, 2.0, math.inf))
        rhs = lp_norm(to_physical(v), 2) * besov_norm(f, BesovSpec(1.0 + s, math.inf, 1.0))
        return lhs, rhs

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

    def one(grid, scalar, velocity):
        v = velocity()
        f = scalar()
        comm = commutator_block(v, f, q)
        lhs = lp_norm(inverse_transform(comm), p)
        if variant == "binf":
            rhs = gradient_lp_norm(v, p) * besov_norm(f, BesovSpec(0.0, math.inf, math.inf))
        else:
            rhs = gradient_lp_norm(v, p) * besov_norm(f, BesovSpec(2.0 / p, p, 1.0))
        return lhs, rhs

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
