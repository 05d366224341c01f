"""Time integration of the vorticity/temperature system on the torus.

State variables are the spectral vorticity w and temperature theta with

    dt w     + v . grad w     + |D|^alpha w = d1 theta
    dt theta + v . grad theta               = 0
    v = biot_savart(w)

The stepper is a classical integrating-factor RK4: the dissipative
multiplier exp(-|k|^alpha dt) is applied exactly, so a pure-dissipation
problem incurs no splitting error; advection and buoyancy ride in the
nonlinear stage evaluations (`_tendencies`, which `rhs` wraps).  It advances the
dealiased part of a state: the stages and the update are plain arrays of the kept
(2 kmax + 1)^2 block (`Grid.block`), gathered once per step and scattered once.

The combination gamma = w - R theta (R the first Riesz transform) absorbs
the buoyancy forcing when alpha = 1: it satisfies a transport-dissipation
equation forced only by the commutator of R with the advection, which is
what `gamma_residual` measures.
"""

from __future__ import annotations

import contextvars
import functools
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUpError, ConfigurationError, NonFiniteError
from .littlewood_paley import commutator_riesz
from .spectral import (
    SpectralField,
    VectorField,
    _advect,
    _apply_multiplier,
    _check_mean_free,
    _samples,
    _wrap,
    advect,
    biot_savart,
    divergence,
    fractional_dissipation,
    inverse_transform,
    lp_norm,
    riesz,
)

#: Grid max of |v| beyond which the trajectory is declared blown up.
VELOCITY_BLOWUP_THRESHOLD = 1e6

#: Least n at which a step runs on two threads (`_pair`): against one thread its paired loop time
#: read 0.95-1.05 at n = 128, 0.82-0.85 at 160, 0.75 at 192 and 0.70 at 256 on a 2-core host.
PARALLEL_MIN_N = 160


@dataclass
class SimState:
    """Spectral state (t, vorticity, temperature) plus the dissipation order; its samples are
    those of its dealiased part, the part the step reads."""

    t: float
    omega_hat: SpectralField
    theta_hat: SpectralField
    alpha: float = 1.0
    _velocity: tuple = field(default=(None, None, None), init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ConfigurationError(f"alpha must lie in (0, 2], got {self.alpha}")
        if self.omega_hat.grid != self.theta_hat.grid:
            raise ConfigurationError("omega and theta live on different grids")
        _check_mean_free(self.omega_hat)

    @property
    def grid(self):
        return self.omega_hat.grid

    def velocity(self) -> VectorField:
        return biot_savart(self.omega_hat)

    def physical_velocity(self) -> tuple:
        """Velocity samples (v1, v2) of the dealiased vorticity, kept for the read-only array
        they came from (`copy()` and `dataclasses.replace` start without them)."""
        return self._velocity_samples()[1]

    def max_velocity(self) -> float:
        """Grid max of |v| over `physical_velocity`, worked out once with those samples."""
        return self._velocity_samples()[2]

    def _velocity_samples(self) -> tuple:
        coeffs, g = self.omega_hat.coeffs, self.grid
        if self._velocity[0] is not coeffs:
            v = _block_velocity(g, g.block(coeffs))
            self._velocity = (coeffs, v, float(np.max(np.hypot(*v))))
        return self._velocity

    def physical_temperature(self) -> np.ndarray:
        """Complex-path samples of the dealiased temperature, for `adaptive_dt`'s buoyant limit."""
        return _samples(self.grid.block(self.theta_hat.coeffs), self.grid)

    def copy(self) -> "SimState":
        return SimState(self.t, self.omega_hat, self.theta_hat, self.alpha)


def gamma(state: SimState) -> SpectralField:
    """Diagonalizing combination omega - R theta."""
    return state.omega_hat - riesz(state.theta_hat)


def rhs(state: SimState):
    """Non-dissipative tendencies (domega, dtheta) of the dealiased state; |D|^alpha is excluded.

    domega = -v.grad(omega) + d1 theta,  dtheta = -v.grad(theta), with the
    advection products dealiased (`_tendencies` on the kept blocks and `physical_velocity`).
    """
    g = state.grid
    blocks = (g.block(f.coeffs) for f in (state.omega_hat, state.theta_hat))
    return tuple(_wrap(g, g.plane(d)) for d in _tendencies(g, *blocks, state.physical_velocity()))


def _block_velocity(g, w: np.ndarray) -> tuple:
    """Velocity samples of the vorticity block w."""
    return _pair(g, _samples, *((w * mult, g) for mult in g.block_mults[2:]))


def _tendencies(g, w: np.ndarray, th: np.ndarray, v: tuple):
    """Tendency blocks of the kept blocks (w, th), v the samples of w's velocity."""
    ik1 = g.block_mults[0]  # read before the worker's `_advect`: no `cached_property` lock on 3.12+
    adv_w, adv_th = _pair(g, _advect, (g, v, w), (g, v, th))
    return -adv_w + th * ik1, -adv_th


def _pair(g, f, a: tuple, b: tuple) -> tuple:
    """(f(*a), f(*b)); at n >= PARALLEL_MIN_N f(*b) runs on the process's worker, if it has one,
    in the caller's context (numpy's error state), and is waited for if f(*a) raises."""
    worker = g.n >= PARALLEL_MIN_N and _worker(os.getpid())
    if not worker:
        return f(*a), f(*b)
    second = worker.submit(contextvars.copy_context().run, f, *b)
    try:
        return f(*a), second.result()
    finally:
        second.exception()  # waits


@functools.cache
def _worker(pid: int):
    """Process pid's one worker thread (a forked child makes its own), or False on one CPU."""
    from concurrent.futures import ThreadPoolExecutor  # on first use: importing bqsim starts none
    cpus = getattr(os, "sched_getaffinity", lambda _: range(os.cpu_count() or 1))(0)
    return len(cpus) > 1 and ThreadPoolExecutor(max_workers=1)


def cfl_dt(state: SimState, cfl_number: float = 0.5) -> float:
    """Advective CFL step: cfl * (2 pi / n) / max(|v|, 1e-8)."""
    if not 0 < cfl_number < np.inf:
        raise ConfigurationError(f"cfl number must be positive and finite, got {cfl_number}")
    vmax = state.max_velocity()
    return cfl_number * (2.0 * np.pi / state.grid.n) / max(vmax, 1e-8)


def step(state: SimState, dt: float) -> SimState:
    """One integrating-factor RK4 step of size dt of the state's dealiased part.

    The vorticity is advanced in the frame of the exact dissipative semigroup exp(-|k|^alpha t);
    the temperature (no dissipation) sees a plain RK4.  Stages and update run on the kept blocks
    (`_tendencies`), gathered once, stage 1 on the state's `physical_velocity`.  From
    n = PARALLEL_MIN_N, if the process may use two CPUs, a stage advects theta and samples v2 on a
    worker thread while the caller advects omega and samples v1, with the same floats: 0.70 of
    the one-thread time at n = 256.  The new state holds +0.0 beyond the 2/3 cutoff and keeps the
    velocity samples and grid max |v| of its blow-up test.  Raises BlowUpError, carrying the
    pre-step state, when a stage or the update is non-finite or the velocity exceeds the blow-up
    threshold.
    """
    if not 0 < dt < np.inf:
        raise ConfigurationError(f"step size dt must be positive and finite, got {dt}")
    g = state.grid
    e_half = np.exp(-0.5 * dt * g.block(g.kmag_power(state.alpha)))
    e_full = e_half * e_half
    w0, th0 = (g.block(f.coeffs) for f in (state.omega_hat, state.theta_hat))

    try:
        n1w, n1t = _tendencies(g, w0, th0, state.physical_velocity())
        wa = (w0 + (0.5 * dt) * n1w) * e_half
        ta = th0 + (0.5 * dt) * n1t
        n2w, n2t = _tendencies(g, wa, ta, _block_velocity(g, wa))
        wb = w0 * e_half + (0.5 * dt) * n2w
        tb = th0 + (0.5 * dt) * n2t
        n3w, n3t = _tendencies(g, wb, tb, _block_velocity(g, wb))
        wc = w0 * e_full + dt * (n3w * e_half)
        tc = th0 + dt * n3t
        # Sums add left to right: folding stages 1-3 now frees them, same floats.
        sum_w = n1w * e_full + 2.0 * ((n2w + n3w) * e_half)
        sum_t = n1t + 2.0 * (n2t + n3t)
        del n1w, n1t, n2w, n2t, n3w, n3t, wa, ta, wb, tb
        n4w, n4t = _tendencies(g, wc, tc, _block_velocity(g, wc))
    except NonFiniteError as err:
        raise BlowUpError(f"non-finite RK stage in step from t={state.t:.6g}", state=state) from err

    w1 = w0 * e_full + (dt / 6.0) * (sum_w + n4w)
    t1 = th0 + (dt / 6.0) * (sum_t + n4t)

    if not (np.all(np.isfinite(w1)) and np.all(np.isfinite(t1))):
        raise BlowUpError(
            f"non-finite coefficients after step from t={state.t:.6g}", state=state
        )
    new = SimState(state.t + dt, _wrap(g, g.plane(w1)), _wrap(g, g.plane(t1)), state.alpha)
    vmax = new.max_velocity()
    if vmax > VELOCITY_BLOWUP_THRESHOLD:
        raise BlowUpError(
            f"velocity magnitude {vmax:.3e} exceeds blow-up threshold after t={state.t:.6g}",
            state=state,
        )
    return new


def gamma_residual(state: SimState, dgamma_dt: SpectralField) -> float:
    """L2 residual of the damped-combination balance at this state.

    Measures dt(gamma) + v.grad(gamma) + |D|^alpha gamma
    - (|D| - |D|^alpha) R theta - div([R, v] theta); the time derivative is
    supplied by the caller (finite differences of neighboring states).  For
    alpha = 1 the middle correction vanishes identically.
    """
    v = state.velocity()
    g = gamma(state)
    grid = state.grid
    residual = (
        dgamma_dt
        + advect(state.physical_velocity(), g)
        + fractional_dissipation(g, state.alpha)
        - _apply_multiplier(riesz(state.theta_hat), grid.kmag - grid.kmag_power(state.alpha))
        - divergence(commutator_riesz(v, state.theta_hat))
    )
    return lp_norm(inverse_transform(residual), 2)


def trajectory_gamma_residuals(states) -> list[tuple[float, float]]:
    """Residual series from consecutive states (centered differences inside,
    one-sided at the ends)."""
    states = list(states)
    if len(states) < 2:
        return []
    gammas = [gamma(s) for s in states]
    times = [s.t for s in states]
    out = []
    for i, state in enumerate(states):
        lo, hi = max(i - 1, 0), min(i + 1, len(states) - 1)
        dg = (gammas[hi] - gammas[lo]) * (1.0 / (times[hi] - times[lo]))
        out.append((state.t, gamma_residual(state, dg)))
    return out


def linear_exact_solution(
    omega0: SpectralField, theta0: SpectralField, alpha: float, t: float
) -> SimState:
    """Closed-form state of the buoyancy-dissipation system with v frozen to 0.

    Per mode: theta is constant and
    w(t) = exp(-|k|^alpha t) w0 + (i k1 / |k|^alpha)(1 - exp(-|k|^alpha t)) theta0.
    For alpha = 1 this is exactly the statement that gamma = w - R theta
    decays by the factor exp(-|k| t) while theta stands still; t must be finite and >= 0.
    """
    if not 0 <= t < np.inf:  # NaN too, as `linear_gamma_smoothing_integral` checks it
        raise ConfigurationError(f"time t must be nonnegative and finite, got {t}")
    grid = omega0.grid
    decay = np.exp(-grid.kmag_power(alpha) * t)
    w_t = omega0.coeffs * decay + grid.forcing_mult(alpha) * (1.0 - decay) * theta0.coeffs
    return SimState(t, _wrap(grid, w_t), theta0, alpha)
