"""Flat key=value run configuration and initial-data presets."""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .dynamics import SimState
from .errors import ConfigurationError
from .fields import (
    gaussian_blob,
    random_divfree_velocity,
    random_scalar_field,
    taylor_green_vorticity,
)
from .littlewood_paley import BesovSpec, besov_norm
from .spectral import (
    Grid,
    SpectralField,
    biot_savart,
    curl,
    dealias,
    gradient_lp_norm,
    inverse_transform,
    lp_norm,
    to_physical,
    vector_sobolev_norm,
)

PRESETS = ("zero", "taylor-green", "blob", "tg-blob", "random")
GRAD_V_EXPONENT = 4.0  # the p of the grad v L^p norm that `initial_norms` reports


@dataclass
class RunConfig:
    """Validated simulation parameters; defaults match the solver contract."""

    n: int
    t_end: float
    preset: str
    alpha: float = 1.0
    cfl: float = 0.5
    dt: float | None = None
    seed: int = 0
    diag_cadence: int = 10
    output_dir: str = "out"
    omega_lr: float = 3.0
    checkpoint_times: tuple = ()
    amplitude: float = 1.0
    tg_amplitude: float = 1.0
    blob_amplitude: float = 1.0
    blob_width: float = 0.5
    blob_mean_subtract: bool = False
    random_gamma: float = 2.5
    random_amplitude: float = 1.0
    source_text: str = field(default="", repr=False, compare=False)


def _parse_bool(key, raw):
    lowered = raw.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigurationError(f"config key '{key}': expected a boolean, got {raw!r}")


def _parse_float(key, raw):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(f"config key '{key}': expected a number, got {raw!r}") from None
    # omega_lr is a Lebesgue exponent, for which inf is valid; _validate bounds it.
    if key != "omega_lr" and not math.isfinite(value):
        raise ConfigurationError(f"config key '{key}': must be finite, got {raw!r}")
    return value


def _parse_int(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"config key '{key}': expected an integer, got {raw!r}") from None


def _parse_times(key, raw):
    if not raw.strip():
        return ()
    try:
        times = tuple(float(part) for part in raw.split(","))
    except ValueError:
        raise ConfigurationError(
            f"config key '{key}': expected comma-separated times, got {raw!r}"
        ) from None
    if not all(0 < t < math.inf for t in times):  # NaN fails both comparisons
        raise ConfigurationError(
            f"config key '{key}': checkpoint times must be positive and finite"
        )
    return tuple(sorted(set(times)))


_PARSER_FOR_ANNOTATION = {
    "int": _parse_int,
    "float": _parse_float,
    "float | None": _parse_float,
    "str": lambda key, raw: raw,
    "bool": _parse_bool,
    "tuple": _parse_times,
}

# Every RunConfig field except source_text is a config key; a field whose
# annotation has no parser fails here, at import.
_PARSERS = {
    f.name: _PARSER_FOR_ANNOTATION[f.type] for f in fields(RunConfig) if f.name != "source_text"
}


def parse_config(text: str) -> RunConfig:
    """Parse a flat key=value configuration; '#' starts a comment.

    Unknown keys and constraint violations raise ConfigurationError naming
    the offending key.  Missing optional keys take their documented defaults.
    """
    values = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if key not in _PARSERS:
            raise ConfigurationError(f"unknown config key '{key}' on line {lineno}")
        if key in values:
            raise ConfigurationError(f"duplicate config key '{key}' on line {lineno}")
        values[key] = _PARSERS[key](key, raw_value)

    for f in fields(RunConfig):
        if f.default is MISSING and f.default_factory is MISSING and f.name not in values:
            raise ConfigurationError(f"missing required config key '{f.name}'")

    config = RunConfig(source_text=text, **values)
    _validate(config)
    return config


def _validate(config: RunConfig):
    if config.n % 2 != 0 or config.n < 16:
        raise ConfigurationError(f"config key 'n': must be even and >= 16, got {config.n}")
    if not 0.0 < config.alpha <= 2.0:
        raise ConfigurationError(f"config key 'alpha': must lie in (0, 2], got {config.alpha}")
    if config.t_end < 0:
        raise ConfigurationError(f"config key 't_end': must be >= 0, got {config.t_end}")
    if config.cfl <= 0:
        raise ConfigurationError(f"config key 'cfl': must be positive, got {config.cfl}")
    if config.dt is not None and config.dt <= 0:
        raise ConfigurationError(f"config key 'dt': must be positive, got {config.dt}")
    if config.diag_cadence < 1:
        raise ConfigurationError(
            f"config key 'diag_cadence': must be >= 1, got {config.diag_cadence}"
        )
    if config.preset not in PRESETS:
        raise ConfigurationError(
            f"config key 'preset': unknown preset {config.preset!r}; choose from {PRESETS}"
        )
    if config.blob_width <= 0:
        raise ConfigurationError(
            f"config key 'blob_width': must be positive, got {config.blob_width}"
        )
    if not config.omega_lr >= 1:  # NaN fails the comparison
        raise ConfigurationError(f"config key 'omega_lr': must be >= 1, got {config.omega_lr}")
    if any(t > config.t_end for t in config.checkpoint_times):
        raise ConfigurationError(
            "config key 'checkpoint_times': every checkpoint time must be <= t_end"
        )


def config_echo(config: RunConfig) -> list[str]:
    """Canonical one-line-per-key echo of the effective configuration."""
    lines = []
    for f in fields(RunConfig):
        if f.name in ("output_dir", "source_text"):
            continue
        value = getattr(config, f.name)
        if f.name == "dt" and value is None:
            value = "adaptive"
        elif f.name == "checkpoint_times":
            value = ",".join(f"{t:g}" for t in value) or "none"
        lines.append(f"{f.name} = {value}")
    return lines


def make_initial_data(config: RunConfig) -> SimState:
    """Deterministic initial state for the configured preset and seed.

    The fields are dealiased so that pseudo-spectral products start exactly
    representable.  The global `amplitude` rescales the whole state, which
    is how linear-regime experiments are set up.
    """
    grid = Grid(config.n)
    zero = SpectralField(grid, np.zeros((grid.n, grid.n), dtype=complex))
    omega, theta = zero, zero

    if config.preset in ("taylor-green", "tg-blob"):
        omega = taylor_green_vorticity(grid, config.tg_amplitude)
    if config.preset in ("blob", "tg-blob"):
        theta = gaussian_blob(
            grid, config.blob_width, config.blob_amplitude, config.blob_mean_subtract
        )
    if config.preset == "random":
        v = random_divfree_velocity(
            grid, config.random_gamma, config.random_amplitude, (config.seed, 0)
        )
        omega = dealias(curl(v))
        theta = dealias(
            random_scalar_field(grid, config.random_gamma, config.random_amplitude, (config.seed, 3))
        )

    omega = dealias(omega) * config.amplitude
    theta = dealias(theta) * config.amplitude
    return SimState(0.0, omega, theta, config.alpha)


def initial_norms(state: SimState) -> dict:
    """Norms of the initial data entering the global-regularity hypotheses:
    theta in L2 and B^0_(inf,1), v in H^1 with grad v in L^p."""
    v = biot_savart(state.omega_hat)
    return {
        "l2_theta": lp_norm(inverse_transform(state.theta_hat), 2),
        "besov_theta_inf1": besov_norm(state.theta_hat, BesovSpec(0.0, math.inf, 1.0)),
        "h1_v": vector_sobolev_norm(v, 1.0),
        "grad_v_lp": gradient_lp_norm(v, GRAD_V_EXPONENT),
        "lp_exponent": GRAD_V_EXPONENT,
        "l2_v": lp_norm(to_physical(v), 2),
    }
