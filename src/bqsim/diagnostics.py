"""Trajectory diagnostics, a-priori-bound checks, and Osgood-type bounds.

A `DiagnosticsTracker` consumes states at the sampling cadence and emits
`DiagnosticsRecord` rows; cumulative time integrals use the trapezoid rule
over the cadence points.  All `check_*` functions are pure functions of the
record series, so re-running them on a diagnostics CSV reproduces the same
verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from .dynamics import SimState
from .errors import ConfigurationError, InvalidInputError
from .littlewood_paley import BesovSpec, _check_increasing, besov_norm
from .spectral import SpectralField, _parseval, _real_samples, biot_savart, dealias, integrate, lp_norm


@dataclass
class DiagnosticsRecord:
    """One cadence sample of the tracked norms and cumulative integrals.

    `hhalf_*_sq_cum` integrate squared homogeneous H^(1/2) norms, taken with the L^2 norms but
    `l2_v` and the dissipation |||D|^(alpha/2) v||^2 by `spectral._parseval` on the half spectrum,
    weighted by `Grid.sobolev_weight`; `besov_omega_cum` and `V_t` integrate the vorticity
    B^0_(inf,1) norm and the grid Lipschitz seminorm of the velocity.  The trailing
    `hhalf_omega_sq_cum` column is the vorticity analogue of the smoothing integral of gamma.
    """

    t: float
    l2_v: float
    hhalf_v_sq_cum: float
    l2_theta: float
    l4_theta: float
    linf_theta: float
    l2_omega: float
    lr_omega: float
    l2_gamma: float
    hhalf_gamma_sq_cum: float
    besov_theta: float
    besov_omega_cum: float
    lip_v: float
    V_t: float
    energy_residual: float
    hhalf_omega_sq_cum: float


RECORD_FIELDS = [f.name for f in dataclass_fields(DiagnosticsRecord)]

#: Running-integral column -> the integrand it accumulates (trapezoid rule
#: over the cadence points, starting from zero at the first record).
_RUNNING_INTEGRALS = {
    "hhalf_v_sq_cum": "hhalf_v_sq",
    "hhalf_gamma_sq_cum": "hhalf_gamma_sq",
    "hhalf_omega_sq_cum": "hhalf_omega_sq",
    "besov_omega_cum": "besov_omega",
    "V_t": "lip_v",
}

DRIFT_TOL = 1e-3  # relative rise of a theta L^p norm that check_max_principle admits
ENERGY_SLACK = 1e-3  # relative excess over the velocity bound that check_energy admits
STARTUP_FRACTION = 1e-3  # share of the maximum below which envelope fits drop samples


def _squared(norm: float) -> float:
    """norm ** 2 of a float, or inf where that raises OverflowError (a numpy float's warns)."""
    try:
        return norm**2
    except OverflowError:
        return math.inf


class DiagnosticsTracker:
    """Accumulates records from successive states handed in time order."""

    def __init__(self, omega_lr: float = 3.0):
        if not omega_lr >= 1:
            raise ConfigurationError(f"omega_lr exponent must be >= 1, got {omega_lr}")
        self.omega_lr = omega_lr
        self._prev = None  # (t, integrands, running integrals)

    def record(self, state: SimState) -> DiagnosticsRecord:
        """Compute all tracked quantities for this state's dealiased part and append integrals."""
        g, half = state.grid, np.s_[:, : state.grid.n // 2 + 1]
        omega, theta = dealias(state.omega_hat), dealias(state.theta_hat)
        hs = [g.sobolev_weight(s, True) for s in (-0.5, 0.5 * state.alpha - 1.0, 0.5)]
        norms = _parseval([omega.coeffs], hs + [None])  # |v(k)| = |w(k)| / |k|
        hhalf_v, dissipation, hhalf_omega, l2_omega = map(float, norms)
        gam = omega.coeffs[half] - theta.coeffs[half] * g.riesz_mult[half]
        hhalf_gamma, l2_gamma = map(float, _parseval([gam], [hs[2], None]))
        v_phys = state.physical_velocity()  # `energy` keeps its bits: (E1 - E0) / dt magnifies them
        omega_phys, theta_phys = _real_samples(omega.coeffs, g), _real_samples(theta.coeffs, g)
        l2_v = lp_norm(v_phys, 2)
        ik1, ik2, *v_mults = g.block_mults  # lip_v: d1 v1 = -d2 v2, d2 v1 and d1 v2
        v1, v2 = (g.block(omega.coeffs) * mult for mult in v_mults)
        d = (v1 * ik1, v1 * ik2, v2 * ik1)
        lip_v = max(lp_norm(_real_samples(g.plane(b, True), g), math.inf) for b in d)

        integrands = {
            "hhalf_v_sq": _squared(hhalf_v),
            "hhalf_gamma_sq": _squared(hhalf_gamma),
            "hhalf_omega_sq": _squared(hhalf_omega),
            "besov_omega": besov_norm(omega, BesovSpec(0.0, math.inf, 1.0)),
            "lip_v": lip_v,
            "energy": 0.5 * _squared(l2_v),
            "dissipation": _squared(dissipation),
            "buoyancy_power": integrate(theta_phys * v_phys[1]),
        }

        if self._prev is None:
            cums = dict.fromkeys(_RUNNING_INTEGRALS, 0.0)
            energy_residual = 0.0
        else:
            t_prev, prev, prev_cums = self._prev
            dt = state.t - t_prev
            if dt <= 0:
                raise ConfigurationError(
                    f"states must be recorded in increasing time order (got {t_prev} -> {state.t})"
                )
            cums = {
                column: prev_cums[column] + 0.5 * dt * (prev[key] + integrands[key])
                for column, key in _RUNNING_INTEGRALS.items()
            }
            # Discrete balance d/dt(kinetic energy) + dissipation = buoyancy
            # power, sampled midpoint-consistently between cadence points.
            energy_residual = (integrands["energy"] - prev["energy"]) / dt + 0.5 * (
                integrands["dissipation"] + prev["dissipation"]
            ) - 0.5 * (integrands["buoyancy_power"] + prev["buoyancy_power"])

        rec = DiagnosticsRecord(
            t=state.t,
            l2_v=l2_v,
            l2_theta=float(_parseval([theta.coeffs], [None])[0]),
            l4_theta=lp_norm(theta_phys, 4),
            linf_theta=lp_norm(theta_phys, math.inf),
            l2_omega=l2_omega,
            lr_omega=lp_norm(omega_phys, self.omega_lr),
            l2_gamma=l2_gamma,
            besov_theta=besov_norm(theta, BesovSpec(0.0, math.inf, 1.0)),
            lip_v=lip_v,
            energy_residual=energy_residual,
            **cums,
        )
        self._prev = (state.t, integrands, cums)
        return rec


# ---------------------------------------------------------------------------
# Envelope fitting


@dataclass
class BoundProfile:
    """A fitted growth envelope: form name, constants, and fit quality."""

    form: str
    constants: dict
    r_squared: float

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        c = self.constants
        if self.form == "exponential":
            return c["scale"] * np.exp(c["rate"] * t)
        if self.form == "double-exponential":
            return np.exp(np.exp(c["inner_intercept"] + c["inner_rate"] * t)) - np.e
        raise ConfigurationError(f"unknown bound profile form {self.form!r}")


def _log_linear_fit(t, logy):
    rate, intercept = np.polyfit(t, logy, 1)
    fitted = intercept + rate * t
    ss_res = float(np.sum((logy - fitted) ** 2))
    ss_tot = float(np.sum((logy - np.mean(logy)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return rate, intercept, r2


def _series_pair(times, values) -> tuple:
    """times and values as float arrays of one shape."""
    t, y = np.asarray(times, dtype=float), np.asarray(values, dtype=float)
    if t.shape != y.shape:
        raise InvalidInputError(f"times of shape {t.shape} do not match values of shape {y.shape}")
    return t, y


def fit_exponential_envelope(times, values) -> BoundProfile:
    """Least-squares fit of scale * exp(rate t) to the growth of a series.

    Startup samples below `STARTUP_FRACTION` of the series maximum sit far
    under any single-exponential envelope and are excluded from the fit; the
    scale is then inflated so the profile upper-bounds every sample.
    """
    t, y = _series_pair(times, values)
    top = float(np.max(y[np.isfinite(y)], initial=0.0))
    if top <= 0.0:
        return BoundProfile("exponential", {"scale": 0.0, "rate": 0.0}, 1.0)
    mask = np.isfinite(y) & (y > top * STARTUP_FRACTION)
    if np.count_nonzero(mask) < 2:
        return BoundProfile("exponential", {"scale": top, "rate": 0.0}, 0.0)
    rate, intercept, r2 = _log_linear_fit(t[mask], np.log(y[mask]))
    scale = math.exp(intercept)
    finite = np.isfinite(y)
    with np.errstate(over="ignore"):
        envelope = scale * np.exp(rate * t[finite])
        lift = float(np.max(y[finite] / np.maximum(envelope, 1e-300)))
    return BoundProfile("exponential", {"scale": scale * max(lift, 1.0), "rate": rate}, r2)


def fit_double_exponential_envelope(times, values) -> BoundProfile:
    """Fit exp(exp(a + b t)) - e to a positive series via log(log(e + y))."""
    t, y = _series_pair(times, values)
    keep = np.isfinite(y)
    if np.count_nonzero(keep) < 2:
        return BoundProfile("double-exponential", {"inner_intercept": 0.0, "inner_rate": 0.0}, 0.0)
    z = np.log(np.log(np.e + np.maximum(y[keep], 0.0)))
    rate, intercept, r2 = _log_linear_fit(t[keep], z)
    return BoundProfile(
        "double-exponential", {"inner_intercept": intercept, "inner_rate": rate}, r2
    )


# ---------------------------------------------------------------------------
# Trajectory checks (pure functions of the record series)


def _series(records, name):
    return np.array([getattr(r, name) for r in records], dtype=float)


@dataclass
class CheckReport:
    name: str
    passed: bool
    details: dict


def check_max_principle(records, p) -> CheckReport:
    """Temperature L^p norms may not rise above their initial value.

    Fails when the relative drift max_t ||theta(t)||_p / ||theta(0)||_p - 1
    exceeds `DRIFT_TOL`.
    """
    field = {2: "l2_theta", 4: "l4_theta", math.inf: "linf_theta"}.get(p)
    if field is None:
        raise ConfigurationError(f"max principle tracked for p in {{2, 4, inf}}, got {p}")
    series = _series(records, field)
    initial = series[0]
    drift = 0.0 if initial == 0.0 else float(np.max(series / initial) - 1.0)
    return CheckReport(
        name=f"max-principle-p{p}",
        passed=drift <= DRIFT_TOL,
        details={"p": p, "drift": drift, "tolerance": DRIFT_TOL, "initial": float(initial)},
    )


def check_energy(records) -> CheckReport:
    """Velocity growth bound ||v(t)|| <= ||v0|| + t ||theta0|| at every sample.

    Also reports the quadratic-envelope constant for kinetic energy plus the
    cumulative H^(1/2) dissipation, which should stay O(1 + t^2).
    """
    t = _series(records, "t")
    l2v = _series(records, "l2_v")
    bound = l2v[0] + (t - t[0]) * records[0].l2_theta
    ok = bool(np.all(l2v <= bound * (1.0 + ENERGY_SLACK)))
    margin = float(np.max(l2v - bound))
    quad = (l2v**2 + _series(records, "hhalf_v_sq_cum")) / (1.0 + (t - t[0]) ** 2)
    residuals = _series(records, "energy_residual")
    return CheckReport(
        name="energy-bound",
        passed=ok,
        details={
            "worst_excess": margin,
            "slack": ENERGY_SLACK,
            "quadratic_envelope_C0": float(np.max(quad)),
            "max_energy_residual": float(np.max(np.abs(residuals))),
        },
    )


def check_gamma_smoothing(records) -> CheckReport:
    """The damped combination accrues a finite smoothing integral.

    Fits the single-exponential envelope to the cumulative homogeneous
    H^(1/2) integral of gamma and, for contrast, to the same integral of the
    raw vorticity.  The check passes when the series is "finite and
    envelope-fittable": every sample finite and the fitted envelope finite.
    The log-linear R^2 is reported, not gated: the cumulative integral of a
    decaying integrand is log-concave, so a saturating series (the smoothing
    effect at work) caps the attainable R^2 well below 1.
    """
    t = _series(records, "t")
    gamma_cum = _series(records, "hhalf_gamma_sq_cum")
    omega_cum = _series(records, "hhalf_omega_sq_cum")
    fit_gamma = fit_exponential_envelope(t, gamma_cum)
    fit_omega = fit_exponential_envelope(t, omega_cum)
    finite = bool(np.all(np.isfinite(gamma_cum)))
    return CheckReport(
        name="gamma-smoothing",
        passed=finite and math.isfinite(fit_gamma.constants["scale"]),
        details={
            "gamma_fit": fit_gamma,
            "omega_fit": fit_omega,
            "r_squared": fit_gamma.r_squared,
            "final_gamma_integral": float(gamma_cum[-1]),
            "final_omega_integral": float(omega_cum[-1]),
        },
    )


def check_lipschitz(records) -> CheckReport:
    """Lipschitz-velocity budget: tracked vorticity norms stay finite.

    Reports a single-exponential envelope for the cumulative B^0_(inf,1)
    vorticity integral and a double-exponential envelope for the L^r
    vorticity norm.
    """
    t = _series(records, "t")
    besov_cum = _series(records, "besov_omega_cum")
    lr = _series(records, "lr_omega")
    lip = _series(records, "lip_v")
    finite = all(np.all(np.isfinite(series)) for series in (besov_cum, lr, lip))
    return CheckReport(
        name="lipschitz-velocity",
        passed=finite,
        details={
            "besov_cum_fit": fit_exponential_envelope(t, besov_cum),
            "lr_fit": fit_double_exponential_envelope(t, lr),
            "max_lip_v": float(np.max(lip)),
            "final_V_t": float(records[-1].V_t),
        },
    )


# ---------------------------------------------------------------------------
# Osgood bounds


def osgood_bound(a: float, times, gamma_values, mu: str = "gronwall") -> np.ndarray:
    """Upper bound for alpha(t) <= a + int gamma(s) mu(alpha(s)) ds.

    mu = 'gronwall' is the linear modulus mu(r) = r, giving a * exp(G(t))
    with G the running integral of gamma (trapezoid).  mu = 'log' is the
    modulus r (1 - log r), giving a^exp(-G) * e^(1 - exp(-G)) wherever the
    smallness condition a <= e^(1 - exp(G)) holds; points where it fails
    are reported as vacuous (+inf).  a = 0 propagates to the zero bound.  The times must be a
    non-empty 1-D series that increases strictly.
    """
    if not a >= 0:  # NaN too
        raise ConfigurationError(f"initial size a must be nonnegative, got {a}")
    t, g = _series_pair(times, gamma_values)
    _check_increasing(t)
    running = np.concatenate(
        [[0.0], np.cumsum(0.5 * np.diff(t) * (g[:-1] + g[1:]))]
    )
    if mu == "gronwall":
        return a * np.exp(running)
    if mu == "log":
        if a == 0.0:
            return np.zeros_like(t)
        with np.errstate(over="ignore"):
            admissible = a <= np.exp(1.0 - np.exp(running))
            shrink = np.exp(-running)
            bound = a**shrink * np.exp(1.0 - shrink)
        return np.where(admissible, bound, np.inf)
    raise ConfigurationError(f"mu must be 'gronwall' or 'log', got {mu!r}")


def linear_gamma_smoothing_integral(gamma0: SpectralField, t: float) -> float:
    """Closed-form smoothing integral when gamma decays freely (v = 0, alpha = 1).

    With gamma(tau) = exp(-|k| tau) gamma0 per mode, the time integral of the
    squared homogeneous H^(1/2) norm is
    (2 pi)^2 sum_k (1 - exp(-2 |k| t)) |gamma0(k)|^2 / 2, for finite t >= 0.
    """
    if not 0 <= t < math.inf:  # NaN too
        raise ConfigurationError(f"time t must be nonnegative and finite, got {t}")
    k = gamma0.grid.kmag[:, : gamma0.grid.n // 2 + 1]  # the columns `_parseval` reads
    weight = np.sqrt((1.0 - np.exp(-2.0 * k * t)) / 2.0)  # 0 at k = 0
    return _squared(float(_parseval([gamma0.coeffs], [weight])[0]))


def state_difference(s1: SimState, s2: SimState) -> float:
    """Separation metric: ||theta1 - theta2||_(B^-1_(2,inf)) + ||v1 - v2||_(B^0_(2,inf))."""
    dtheta = s1.theta_hat - s2.theta_hat
    dv = biot_savart(s1.omega_hat - s2.omega_hat)
    theta_part = besov_norm(dtheta, BesovSpec(-1.0, 2.0, math.inf))
    vel_part = besov_norm(dv, BesovSpec(0.0, 2.0, math.inf))
    return theta_part + vel_part
