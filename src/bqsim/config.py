"""Flat key=value run configuration and initial-data presets."""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

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
    _wrap,
    biot_savart,
    curl,
    dealias,
    gradient_lp_norm,
    sobolev_norm,
    vector_sobolev_norm,
)

PRESETS = ("zero", "taylor-green", "blob", "tg-blob", "random")
GRAD_V_EXPONENT = 4.0  # the p of the grad v L^p norm that `initial_norms` reports


@dataclass(frozen=True)
class RunConfig:
    """Simulation parameters, checked whenever one is built (parsed, replaced or
    constructed); defaults match the solver contract."""

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

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # omega_lr is a Lebesgue exponent, for which inf is valid.
            if f.type.startswith("float") and value is not None and not (
                math.isfinite(value) or (f.name, value) == ("omega_lr", math.inf)
            ):
                raise ConfigurationError(f"config key '{f.name}': must be finite, got {value}")
        if self.n % 2 != 0 or self.n < 16:
            raise ConfigurationError(f"config key 'n': must be even and >= 16, got {self.n}")
        if not 0.0 < self.alpha <= 2.0:
            raise ConfigurationError(f"config key 'alpha': must lie in (0, 2], got {self.alpha}")
        if self.t_end < 0:
            raise ConfigurationError(f"config key 't_end': must be >= 0, got {self.t_end}")
        if self.cfl <= 0:
            raise ConfigurationError(f"config key 'cfl': must be positive, got {self.cfl}")
        if self.dt is not None and self.dt <= 0:
            raise ConfigurationError(f"config key 'dt': must be positive, got {self.dt}")
        if self.seed < 0:
            raise ConfigurationError(f"config key 'seed': must be >= 0, got {self.seed}")
        if self.diag_cadence < 1:
            raise ConfigurationError(
                f"config key 'diag_cadence': must be >= 1, got {self.diag_cadence}"
            )
        if self.preset not in PRESETS:
            raise ConfigurationError(
                f"config key 'preset': unknown preset {self.preset!r}; choose from {PRESETS}"
            )
        if self.blob_width <= 0:
            raise ConfigurationError(
                f"config key 'blob_width': must be positive, got {self.blob_width}"
            )
        if self.omega_lr < 1:
            raise ConfigurationError(f"config key 'omega_lr': must be >= 1, got {self.omega_lr}")
        if not all(0 < t <= self.t_end for t in self.checkpoint_times):  # NaN fails both
            raise ConfigurationError(
                "config key 'checkpoint_times': every checkpoint time must lie in (0, t_end]"
            )


def _parse_bool(key, raw):
    lowered = raw.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigurationError(f"config key '{key}': expected a boolean, got {raw!r}")


def _parse_float(key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ConfigurationError(f"config key '{key}': expected a number, got {raw!r}") from None


def _parse_int(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"config key '{key}': expected an integer, got {raw!r}") from None


def _parse_times(key, raw):
    if not raw.strip():
        return ()
    try:
        return tuple(sorted({float(part) for part in raw.split(",")}))
    except ValueError:
        raise ConfigurationError(
            f"config key '{key}': expected comma-separated times, got {raw!r}"
        ) from None


_PARSER_FOR_ANNOTATION = {
    "int": _parse_int,
    "float": _parse_float,
    "float | None": _parse_float,
    "str": lambda key, raw: raw,
    "bool": _parse_bool,
    "tuple": _parse_times,
}

# Every RunConfig field is a config key; a field whose annotation has no
# parser fails here, at import.
_PARSERS = {f.name: _PARSER_FOR_ANNOTATION[f.type] for f in fields(RunConfig)}


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

    return RunConfig(**values)


def config_echo(config: RunConfig) -> list[str]:
    """Canonical one-line-per-key echo of the effective configuration."""
    lines = []
    for f in fields(RunConfig):
        if f.name == "output_dir":
            continue
        value = getattr(config, f.name)
        if f.name == "dt" and value is None:
            value = "adaptive"
        elif f.name == "checkpoint_times":
            value = ",".join(map(str, value)) or "none"
        lines.append(f"{f.name} = {value}")
    return lines


def make_initial_data(config: RunConfig) -> SimState:
    """Deterministic initial state for the configured preset and seed.

    The fields are dealiased so that pseudo-spectral products start exactly
    representable.  The global `amplitude` rescales the whole state, which
    is how linear-regime experiments are set up.
    """
    grid = Grid(config.n)
    omega = theta = _wrap(grid, np.zeros((grid.n, grid.n), dtype=complex))

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
        omega = curl(v)
        theta = random_scalar_field(
            grid, config.random_gamma, config.random_amplitude, (config.seed, 3)
        )

    omega, theta = (SpectralField(grid, (dealias(f) * config.amplitude).coeffs)
                    for f in (omega, theta))
    return SimState(0.0, omega, theta, config.alpha)


def initial_norms(state: SimState) -> dict:
    """Norms of the initial data entering the global-regularity hypotheses:
    theta in L2 and B^0_(inf,1), v in H^1 with grad v in L^p."""
    v = biot_savart(state.omega_hat)
    return {
        "l2_theta": sobolev_norm(state.theta_hat, 0.0),
        "besov_theta_inf1": besov_norm(state.theta_hat, BesovSpec(0.0, math.inf, 1.0)),
        "h1_v": vector_sobolev_norm(v, 1.0),
        "grad_v_lp": gradient_lp_norm(v, GRAD_V_EXPONENT),
        "lp_exponent": GRAD_V_EXPONENT,
        "l2_v": vector_sobolev_norm(v, 0.0),
    }
