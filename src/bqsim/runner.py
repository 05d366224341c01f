"""Time-stepping driver: event-aligned stepping, artifacts, stability runs.

The driver clamps each step so the trajectory lands exactly on every
checkpoint time and on t_end; combined with bit-exact checkpoints this makes
resumed runs reproduce the original trajectory to machine precision.
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
from .spectral import PhysicalField, _check_real, _samples, dealias, lp_norm

_TIME_EPS = 1e-12


def adaptive_dt(state: SimState, cfl_number: float) -> float:
    """Advective CFL combined with a buoyant-acceleration limit.

    Starting from rest the velocity-based CFL is unbounded, yet the buoyancy
    force theta e2 spins the flow up within a step; bounding dt by
    cfl * sqrt(h / max |theta|) keeps the first steps resolved until the
    advective limit takes over.
    """
    h = 2.0 * math.pi / state.grid.n
    _check_real(state.theta_hat)  # complex samples: the buoyant limit can set dt
    theta_max = lp_norm(PhysicalField(state.grid, _samples(state.theta_hat)), math.inf)
    forcing_dt = cfl_number * math.sqrt(h / max(theta_max, 1e-8))
    return min(cfl_dt(state, cfl_number), forcing_dt)


@dataclass
class RunResult:
    """Everything a run produced: records, final state, artifact paths."""

    config: RunConfig
    records: list
    final_state: SimState
    states: list | None
    checkpoint_paths: list
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


def run(
    config: RunConfig,
    output_dir=None,
    collect_states: bool = False,
    write_artifacts: bool = True,
    initial_state: SimState | None = None,
) -> RunResult:
    """Advance the configured initial data to t_end.

    An `initial_state` must have the config's n and alpha.  Diagnostics are
    recorded every `diag_cadence` steps (plus the initial and final states);
    checkpoints are written at each configured time and at the end.  On
    blow-up, initial velocity included, the last finite state is checkpointed
    for forensics before the error propagates.
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
    records = [tracker.record(state)]
    states = [state.copy()] if collect_states else None
    checkpoint_paths = []
    checkpoint_index = {
        t: i for i, t in enumerate(sorted(set(config.checkpoint_times)))
    }

    events = _events(config, state.t)
    steps = 0

    def emit(current: SimState):
        records.append(tracker.record(current))
        if states is not None:
            states.append(current.copy())

    try:
        vmax = lp_norm(state.physical_velocity(), math.inf)
        if not vmax <= VELOCITY_BLOWUP_THRESHOLD:
            raise BlowUpError(f"initial velocity {vmax:.3e} exceeds blow-up threshold", state=state)
        for event in events:
            while state.t < event - _TIME_EPS:
                dt = config.dt if config.dt is not None else adaptive_dt(state, config.cfl)
                remaining = event - state.t
                landed = dt >= remaining - _TIME_EPS
                state = step(state, min(dt, remaining))
                if landed:
                    state.t = event
                steps += 1
                if steps % config.diag_cadence == 0:
                    emit(state)
            if out is not None and event in checkpoint_index:
                path = out / f"checkpoint_{checkpoint_index[event]:03d}.bqsf"
                write_checkpoint(path, state)
                checkpoint_paths.append(path)
    except BlowUpError as err:
        if out is not None:
            write_checkpoint(out / "blowup.bqsf", err.state)
            write_diagnostics_csv(
                out / "diagnostics.csv", records, _csv_header(config)
            )
        raise

    if state.t > records[-1].t + _TIME_EPS:
        emit(state)

    csv_path = None
    if out is not None:
        final_path = out / "final.bqsf"
        write_checkpoint(final_path, state)
        checkpoint_paths.append(final_path)
        csv_path = out / "diagnostics.csv"
        write_diagnostics_csv(csv_path, records, _csv_header(config))

    return RunResult(
        config=config,
        records=records,
        final_state=state,
        states=states,
        checkpoint_paths=checkpoint_paths,
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
    separations of the delta and delta/4 runs; positive values certify
    continuous dependence on the initial data in this metric.
    """

    delta: float
    gamma_fit: float
    times: tuple
    x_delta: tuple
    x_quarter: tuple

    @property
    def final_ratio(self) -> float:
        return self.x_delta[-1] / max(self.x_quarter[-1], 1e-300)


def perturbed_initial_state(base: SimState, delta: float, seed: int = 0) -> SimState:
    """Vorticity-only perturbation scaled so the weak metric starts at delta."""
    if not 0 < delta < math.inf:  # NaN fails both comparisons
        raise ConfigurationError(f"perturbation size delta must be finite and > 0, got {delta}")
    shape = dealias(random_scalar_field(base.grid, 2.5, 1.0, (seed, 77)))
    trial = SimState(base.t, base.omega_hat + shape, base.theta_hat, base.alpha)
    unit = state_difference(trial, base)
    if unit <= 0:
        raise ConfigurationError("perturbation shape produced zero metric separation")
    return SimState(
        base.t, base.omega_hat + shape * (delta / unit), base.theta_hat, base.alpha
    )


def stability_experiment(config: RunConfig, delta: float) -> StabilityReport:
    """Run base, delta-, and (delta/4)-perturbed trajectories side by side.

    A fixed step size is forced (derived from the base state's CFL limit if
    the config leaves dt adaptive) so all three trajectories sample identical
    times and the separation series are directly comparable.
    """
    base0 = make_initial_data(config)
    if config.dt is None and config.t_end > 0:  # a fixed dt must stay positive
        dt = min(adaptive_dt(base0, config.cfl), config.t_end / 16.0)
        config = replace(config, dt=dt)

    def trajectory(state0):
        result = run(
            config,
            collect_states=True,
            write_artifacts=False,
            initial_state=state0,
        )
        return result.states

    base_states = trajectory(base0)
    delta_states = trajectory(perturbed_initial_state(base0, delta, config.seed))
    quarter_states = trajectory(perturbed_initial_state(base0, delta / 4.0, config.seed))
    if not (len(base_states) == len(delta_states) == len(quarter_states)):
        raise ConfigurationError("stability trajectories sampled different times")

    times = tuple(s.t for s in base_states)
    x_delta = tuple(state_difference(a, b) for a, b in zip(delta_states, base_states))
    x_quarter = tuple(state_difference(a, b) for a, b in zip(quarter_states, base_states))
    gamma_fit = math.log(
        max(x_delta[-1], 1e-300) / max(x_quarter[-1], 1e-300)
    ) / math.log(4.0)
    return StabilityReport(
        delta=delta,
        gamma_fit=gamma_fit,
        times=times,
        x_delta=x_delta,
        x_quarter=x_quarter,
    )
