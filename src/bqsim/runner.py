"""Time-stepping driver: event-aligned stepping, artifacts, stability runs.

One stepping loop (`_trajectory`) serves `run` and `stability_experiment`.
It clamps each step so the trajectory lands exactly on every checkpoint time
and on t_end; combined with bit-exact checkpoints this makes resumed runs
reproduce the original trajectory to machine precision.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

from .config import RunConfig, config_echo, make_initial_data
from .diagnostics import DiagnosticsTracker, state_difference
from .dynamics import VELOCITY_BLOWUP_THRESHOLD, SimState, cfl_dt, step
from .errors import BlowUpError, ConfigurationError
from .fields import random_scalar_field
from .simio import write_checkpoint, write_diagnostics_csv
from .spectral import lp_norm

_TIME_EPS = 1e-12
#: |gamma_fit - 1| a stability experiment admits: a Lipschitz flow map reads 1.
GAMMA_FIT_TOL = 0.05


def adaptive_dt(state: SimState, cfl_number: float) -> float:
    """Advective CFL combined with a buoyant-acceleration limit.

    Starting from rest the velocity-based CFL is unbounded, yet the buoyancy
    force theta e2 spins the flow up within a step; bounding dt by
    cfl * sqrt(h / max |theta|) keeps the first steps resolved until the
    advective limit takes over.
    """
    h = 2.0 * math.pi / state.grid.n
    theta_max = lp_norm(state.physical_temperature(), math.inf)
    forcing_dt = cfl_number * math.sqrt(h / max(theta_max, 1e-8))
    return min(cfl_dt(state, cfl_number), forcing_dt)


@dataclass
class RunResult:
    """What a run produced: its diagnostics records, final state and artifact paths
    (`csv_path` and `output_dir` are None when no artifacts were written)."""

    records: list
    final_state: SimState
    csv_path: Path | None
    output_dir: Path | None
    steps_taken: int


def resolve_output_dir(default, override=None) -> Path:
    """Output directory precedence: explicit override, BQ_OUTPUT_DIR, default."""
    if override is not None:
        return Path(override)
    return Path(os.environ.get("BQ_OUTPUT_DIR") or default)


def _events(config: RunConfig, t_start: float) -> list[float]:
    times = set(config.checkpoint_times) | {config.t_end}
    return sorted(t for t in times if t > t_start + _TIME_EPS)


def _trajectory(config: RunConfig, state: SimState):
    """The one stepping loop: advance `state` to t_end, landing exactly on every
    checkpoint time.

    dt is `config.dt`, or `adaptive_dt` when that is None.  Yields
    (state, steps, sample, checkpoint) for the first state, after every step,
    at each landing on a checkpoint time (`checkpoint` is that time's index,
    else None) and, if the cadence missed it, once more for the last state.
    `sample` marks the first state, every `diag_cadence`-th step and the last
    state.  Yielding every step keeps a consumer's loop variable from pinning
    a state the loop has moved past.  After the first yield the initial
    velocity is tested against the blow-up threshold.
    """
    checkpoint_index = {t: i for i, t in enumerate(sorted(set(config.checkpoint_times)))}
    steps = 0
    yield state, steps, True, None
    vmax = state.max_velocity()
    if not vmax <= VELOCITY_BLOWUP_THRESHOLD:
        raise BlowUpError(f"initial velocity {vmax:.3e} exceeds blow-up threshold", state=state)
    for event in _events(config, state.t):
        while state.t < event - _TIME_EPS:
            dt = config.dt if config.dt is not None else adaptive_dt(state, config.cfl)
            remaining = event - state.t
            landed = dt >= remaining - _TIME_EPS
            state = step(state, min(dt, remaining))
            if landed:
                state.t = event
            steps += 1
            yield state, steps, steps % config.diag_cadence == 0, None
        if event in checkpoint_index:
            yield state, steps, False, checkpoint_index[event]
    if steps % config.diag_cadence != 0:
        yield state, steps, True, None


def run(
    config: RunConfig,
    output_dir=None,
    write_artifacts: bool = True,
    initial_state: SimState | None = None,
) -> RunResult:
    """Advance the configured initial data (or `initial_state`, which must have
    the config's n and alpha) to t_end.

    Diagnostics are recorded at every sample point of the stepping loop: the
    initial state, every `diag_cadence` steps and the final state.  With
    artifacts, each checkpoint time writes `checkpoint_<k>.bqsf`, the end
    writes `final.bqsf` and `diagnostics.csv`, and a blow-up (initial velocity
    included) writes the last finite state to `blowup.bqsf` and the records so
    far to the CSV before the error propagates.
    """
    state = make_initial_data(config) if initial_state is None else initial_state
    if (state.grid.n, state.alpha) != (config.n, config.alpha):
        raise ConfigurationError(
            f"initial state has n={state.grid.n}, alpha={state.alpha};"
            f" config has n={config.n}, alpha={config.alpha}"
        )
    if state.t > config.t_end + _TIME_EPS:
        raise ConfigurationError(
            f"initial state time {state.t} already beyond t_end {config.t_end}"
        )

    out = resolve_output_dir(config.output_dir, output_dir) if write_artifacts else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    tracker = DiagnosticsTracker(omega_lr=config.omega_lr)
    records = []
    try:
        for state, steps, sample, checkpoint in _trajectory(config, state):
            if sample:
                records.append(tracker.record(state))
            if checkpoint is not None and out is not None:
                write_checkpoint(out / f"checkpoint_{checkpoint:03d}.bqsf", state)
    except BlowUpError as err:
        if out is not None:
            write_checkpoint(out / "blowup.bqsf", err.state)
            write_diagnostics_csv(out / "diagnostics.csv", records, _csv_header(config))
        raise

    csv_path = None
    if out is not None:
        write_checkpoint(out / "final.bqsf", state)
        csv_path = out / "diagnostics.csv"
        write_diagnostics_csv(csv_path, records, _csv_header(config))

    return RunResult(
        records=records,
        final_state=state,
        csv_path=csv_path,
        output_dir=out,
        steps_taken=steps,
    )


def _csv_header(config: RunConfig) -> list[str]:
    return ["configuration:"] + ["  " + line for line in config_echo(config)]


# ---------------------------------------------------------------------------
# Two-trajectory stability experiment


@dataclass
class StabilityReport:
    """Separation growth of perturbed trajectories under the weak metric.

    gamma_fit estimates the Holder exponent of the flow map from the final
    separations of the delta and delta/4 runs; within `GAMMA_FIT_TOL` of 1 it
    shows Lipschitz dependence on the initial data in this metric.
    """

    delta: float
    gamma_fit: float
    times: tuple
    x_delta: tuple
    x_quarter: tuple


def perturbed_initial_state(base: SimState, delta: float, seed: int = 0) -> SimState:
    """Vorticity-only perturbation scaled so the weak metric starts at delta.

    The shape's separation is measured on the shape alone, so a base of any
    size cannot round it away.
    """
    if not 0 < delta < math.inf:  # NaN fails both comparisons
        raise ConfigurationError(f"perturbation size delta must be finite and > 0, got {delta}")
    shape = random_scalar_field(base.grid, 2.5, 1.0, (seed, 77))
    zero = shape * 0.0
    unit = state_difference(
        SimState(base.t, shape, zero, base.alpha), SimState(base.t, zero, zero, base.alpha)
    )
    if unit <= 0:
        raise ConfigurationError("perturbation shape produced zero metric separation")
    return SimState(
        base.t, base.omega_hat + shape * (delta / unit), base.theta_hat, base.alpha
    )


def stability_experiment(config: RunConfig, delta: float) -> StabilityReport:
    """Run base, delta-, and (delta/4)-perturbed trajectories side by side.

    Both perturbed starts are built, so `delta` is checked, before any
    trajectory runs.  A fixed step size is forced (derived from the base
    state's CFL limit if the config leaves dt adaptive) so all three
    trajectories sample identical times and the separation series are directly
    comparable.  The three trajectories step in lockstep and their separations
    are measured as the samples arrive, so only the current states are held;
    no diagnostics are recorded and no artifacts are written.
    """
    base0 = make_initial_data(config)
    starts = [base0] + [perturbed_initial_state(base0, d, config.seed) for d in (delta, delta / 4)]
    if config.dt is None and config.t_end > 0:  # a fixed dt must stay positive
        dt = min(adaptive_dt(base0, config.cfl), config.t_end / 16.0)
        config = replace(config, dt=dt)

    times, x_delta, x_quarter = [], [], []
    for (base, _, sample, _), (perturbed, *_), (quarter, *_) in zip(
        *(_trajectory(config, start) for start in starts), strict=True
    ):
        if sample:
            times.append(base.t)
            x_delta.append(state_difference(perturbed, base))
            x_quarter.append(state_difference(quarter, base))
    gamma_fit = math.log(
        max(x_delta[-1], 1e-300) / max(x_quarter[-1], 1e-300)
    ) / math.log(4.0)
    return StabilityReport(
        delta=delta,
        gamma_fit=gamma_fit,
        times=tuple(times),
        x_delta=tuple(x_delta),
        x_quarter=tuple(x_quarter),
    )
