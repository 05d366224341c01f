"""Pseudo-spectral toolkit for the critically dissipative Boussinesq system.

The package combines a Fourier solver for the vorticity/temperature system
on the 2-pi torus (organized around the damped combination of vorticity and
a Riesz transform of the temperature), a dyadic Littlewood-Paley/Besov
toolkit, seeded ensemble verification of the harmonic-analysis inequalities
the solver's a-priori bounds rest on, and trajectory diagnostics.
"""

from .config import PRESETS, RunConfig, config_echo, initial_norms, make_initial_data, parse_config
from .diagnostics import (
    RECORD_FIELDS,
    BoundProfile,
    CheckReport,
    DiagnosticsRecord,
    DiagnosticsTracker,
    check_energy,
    check_gamma_smoothing,
    check_lipschitz,
    check_max_principle,
    fit_double_exponential_envelope,
    fit_exponential_envelope,
    linear_gamma_smoothing_integral,
    osgood_bound,
    state_difference,
)
from .dynamics import (
    SimState,
    cfl_dt,
    gamma,
    gamma_residual,
    linear_exact_solution,
    rhs,
    step,
    trajectory_gamma_residuals,
)
from .errors import BlowUpError, CheckpointError, ConfigurationError, InvalidInputError
from .fields import (
    gaussian_blob,
    random_divfree_velocity,
    random_scalar_field,
    taylor_green_vorticity,
)
from .littlewood_paley import (
    BesovSpec,
    DyadicFilterBank,
    band_kernel,
    band_lp_norms,
    besov_norm,
    bony_decompose,
    build_filter_bank,
    commutator_block,
    commutator_riesz,
    dyadic_block,
    mixed_time_besov_norm,
    partial_sum,
    smooth_transition,
)
from .runner import (
    RunResult,
    StabilityReport,
    perturbed_initial_state,
    run,
    stability_experiment,
)
from .simio import read_checkpoint, records_from_csv, write_checkpoint, write_diagnostics_csv
from .spectral import (
    Grid,
    SpectralField,
    VectorField,
    advect,
    biot_savart,
    curl,
    dealias,
    divergence,
    forward_transform,
    fractional_dissipation,
    gradient,
    gradient_lp_norm,
    grid_max_velocity,
    integrate,
    inverse_transform,
    leray_project,
    lp_norm,
    max_gradient,
    partial_derivative,
    riesz,
    sobolev_norm,
    to_physical,
    vector_sobolev_norm,
)
from .verify import (
    SUITES,
    EnsembleSpec,
    RatioReport,
    suite_passes,
    verify_block_commutator,
    verify_commutator_bp,
    verify_commutator_hs,
    verify_generalized_bernstein,
    verify_kernel_commutator,
    verify_log_interpolation,
    verify_power_map,
    verify_product_transport,
)

__version__ = "0.1.0"
