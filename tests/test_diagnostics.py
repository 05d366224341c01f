"""Tests for diagnostics records, envelope fits, trajectory checks, Osgood."""

import ast
import inspect
import math
import textwrap

import numpy as np
import pytest

import oracle
from bqsim import (
    ConfigurationError,
    DiagnosticsRecord,
    DiagnosticsTracker,
    Grid,
    InvalidInputError,
    RECORD_FIELDS,
    SimState,
    SpectralField,
    check_energy,
    check_gamma_smoothing,
    check_lipschitz,
    check_max_principle,
    dealias,
    fit_double_exponential_envelope,
    fit_exponential_envelope,
    forward_transform,
    linear_exact_solution,
    linear_gamma_smoothing_integral,
    osgood_bound,
    sobolev_norm,
    state_difference,
)
from bqsim.config import PRESETS, RunConfig, make_initial_data
from bqsim.dynamics import step
from bqsim.fields import random_scalar_field

L2_SIN = 4.442882938158366


def grid64():
    return Grid(64)


def zero_field(grid):
    return SpectralField(grid, np.zeros((grid.n, grid.n), dtype=complex))


def spectral_sin(grid, k=1):
    x1, _ = grid.nodes()
    return forward_transform(grid, np.sin(k * x1))


def decay_states(grid, times):
    """Free vorticity decay omega(t) = e^{-t} sin x1 (theta = 0, alpha = 1)."""
    w0 = spectral_sin(grid)
    z = zero_field(grid)
    return [linear_exact_solution(w0, z, 1.0, t) for t in times]


def mkrec(t, **kw):
    base = {name: 0.0 for name in RECORD_FIELDS}
    base["t"] = t
    base.update(kw)
    return DiagnosticsRecord(**base)


class TestRecordLayout:
    def test_field_order_is_pinned(self):
        assert RECORD_FIELDS == [
            "t",
            "l2_v",
            "hhalf_v_sq_cum",
            "l2_theta",
            "l4_theta",
            "linf_theta",
            "l2_omega",
            "lr_omega",
            "l2_gamma",
            "hhalf_gamma_sq_cum",
            "besov_theta",
            "besov_omega_cum",
            "lip_v",
            "V_t",
            "energy_residual",
            "hhalf_omega_sq_cum",
        ]


class TestTracker:
    def test_first_record_has_zero_cumulatives(self):
        g = grid64()
        tracker = DiagnosticsTracker()
        rec = tracker.record(SimState(0.0, spectral_sin(g), zero_field(g), 1.0))
        assert rec.hhalf_v_sq_cum == 0.0
        assert rec.V_t == 0.0
        assert rec.energy_residual == 0.0
        assert rec.l2_omega == pytest.approx(L2_SIN, rel=1e-12)

    def test_trapezoid_cumulative_on_constant_integrand(self):
        g = grid64()
        tracker = DiagnosticsTracker()
        w = spectral_sin(g)
        z = zero_field(g)
        # identical vorticity at both samples: integrand is constant
        tracker.record(SimState(0.0, w, z, 1.0))
        rec = tracker.record(SimState(0.1, w, z, 1.0))
        hhalf_sq = sobolev_norm(w, 0.5, homogeneous=True) ** 2
        assert rec.hhalf_omega_sq_cum == pytest.approx(0.1 * hhalf_sq, rel=1e-12)
        assert rec.hhalf_gamma_sq_cum == pytest.approx(0.1 * hhalf_sq, rel=1e-12)

    def test_rejects_non_increasing_times(self):
        g = grid64()
        tracker = DiagnosticsTracker()
        s = SimState(0.0, spectral_sin(g), zero_field(g), 1.0)
        tracker.record(s)
        with pytest.raises(ConfigurationError):
            tracker.record(s)

    def test_energy_residual_shrinks_quadratically(self):
        g = grid64()

        def max_residual(h):
            tracker = DiagnosticsTracker()
            records = [
                tracker.record(s) for s in decay_states(g, [k * h for k in range(6)])
            ]
            return max(abs(r.energy_residual) for r in records)

        coarse, fine = max_residual(0.02), max_residual(0.01)
        assert coarse / fine > 3.5

    def test_record_checks_no_field(self, symmetry_checks):
        """A state's fields were checked when they were built; a record checks none."""
        g = grid64()
        omega, theta = (random_scalar_field(g, 2.0, 1.0, (k,)) for k in (6, 7))
        DiagnosticsTracker().record(SimState(0.0, omega, theta, 1.0))
        assert symmetry_checks == []

    @pytest.mark.parametrize("broken", ["omega", "theta"])
    def test_record_rejects_broken_symmetry(self, broken):
        g = grid64()
        coeffs = np.zeros((64, 64), dtype=complex)
        coeffs[1, 0] = 1.0  # missing the conjugate partner at -1
        fields = {"omega": spectral_sin(g), "theta": spectral_sin(g, 2)}
        with pytest.raises(InvalidInputError, match="conjugate symmetry broken"):
            fields[broken] = SpectralField(g, coeffs)  # built, so no record ever sees it

    def test_tracked_norms_of_decaying_shear(self):
        g = grid64()
        tracker = DiagnosticsTracker()
        states = decay_states(g, [0.0, 0.5])
        tracker.record(states[0])
        rec = tracker.record(states[1])
        assert rec.l2_omega == pytest.approx(math.exp(-0.5) * L2_SIN, rel=1e-10)
        assert rec.l2_v == pytest.approx(math.exp(-0.5) * L2_SIN, rel=1e-10)
        assert rec.lip_v == pytest.approx(math.exp(-0.5), rel=1e-10)
        assert rec.besov_theta == 0.0


#: (preset, seed, alpha) of the states the record is compared with the oracle on: every preset,
#: random seeds 0-3, and two dissipation orders whose weights are built per call
RECORD_CASES = ([(preset, 0, 1.0) for preset in PRESETS if preset != "random"]
                + [("random", seed, 1.0) for seed in range(4)]
                + [("random", 0, 0.5), ("random", 1, 2.0)])


class TestRecordOracle:
    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("preset, seed, alpha", RECORD_CASES)
    def test_record_matches_the_full_plane_oracle(self, preset, seed, alpha, n):
        """The record works on the dealiased state: Parseval norms on the half spectrum, three
        gradient samples and theta on the real path.  The kinetic energy keeps every bit, as
        (E1 - E0) / dt magnifies them; every other column stays within 1e-12, the energy residual
        in absolute terms."""
        state = make_initial_data(RunConfig(n=n, t_end=1.0, preset=preset, seed=seed, alpha=alpha))
        states = [state]
        for _ in range(2):
            states.append(step(states[-1], 2e-3))
        tracker, got = DiagnosticsTracker(), []
        for s in states:
            got.append((tracker.record(s), tracker._prev[1]["energy"]))
        want = oracle.records(state.grid, oracle.bands(state.grid), [(s.t, s.omega_hat.coeffs, s.theta_hat.coeffs)
                                                  for s in states], alpha)
        for (rec, energy), ref in zip(got, want):
            assert energy == ref["energy"] and rec.l2_v == ref["l2_v"]
            assert rec.energy_residual == pytest.approx(ref["energy_residual"], rel=0, abs=1e-12)
            for name in set(RECORD_FIELDS) - {"energy_residual"}:
                assert getattr(rec, name) == pytest.approx(ref[name], rel=1e-12, abs=0), name

    def test_record_builds_no_fourier_weight(self):
        """The record reads its weights from the grid (`sobolev_weight`, `riesz_mult`,
        `block_mults`): it names no lattice array and takes no power."""
        tree = ast.parse(textwrap.dedent(inspect.getsource(DiagnosticsTracker.record)))
        names = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)}
        assert names.isdisjoint({"kmag", "inv_ksq", "k1_odd", "k2_odd", "block_k"})
        assert not [node for node in ast.walk(tree) if isinstance(node, ast.Pow)]

    def test_a_state_that_is_not_dealiased_records_as_its_dealias_does(self):
        """The record reads the state's dealiased part, as its velocity samples do."""
        g, rng = grid64(), np.random.default_rng(11)

        def noise():
            a = rng.standard_normal((g.n, g.n))
            return forward_transform(g, a - a.mean())

        states = [SimState(t, noise(), noise(), 1.0) for t in (0.0, 0.01)]
        assert all((s.omega_hat.coeffs != dealias(s.omega_hat).coeffs).any() for s in states)
        full, cut = DiagnosticsTracker(), DiagnosticsTracker()
        for s in states:
            assert full.record(s) == cut.record(SimState(s.t, dealias(s.omega_hat), dealias(s.theta_hat)))


class TestEnvelopeFits:
    def test_exponential_recovery(self):
        t = np.linspace(0.0, 2.0, 40)
        y = 3.0 * np.exp(1.7 * t)
        profile = fit_exponential_envelope(t, y)
        assert profile.form == "exponential"
        assert profile.constants["rate"] == pytest.approx(1.7, rel=1e-6)
        assert profile.r_squared > 0.999999
        assert np.all(profile.evaluate(t) >= y * (1 - 1e-9))

    def test_exponential_excludes_startup_zeros(self):
        t = np.linspace(0.0, 1.0, 21)
        y = np.where(t < 0.2, 0.0, np.exp(3.0 * t))
        profile = fit_exponential_envelope(t, y)
        assert profile.constants["rate"] == pytest.approx(3.0, rel=1e-6)

    def test_exponential_on_zero_series(self):
        t = np.linspace(0.0, 1.0, 5)
        profile = fit_exponential_envelope(t, np.zeros_like(t))
        assert profile.constants["scale"] == 0.0
        assert profile.r_squared == 1.0

    @pytest.mark.parametrize("fit", [fit_exponential_envelope, fit_double_exponential_envelope,
                                     lambda t, y: osgood_bound(1.0, t, y)],
                             ids=["exponential", "double-exponential", "osgood"])
    def test_a_series_of_another_shape_is_bad_input(self, fit):
        """Before, the two fits raised numpy's IndexError and `osgood_bound` a ConfigurationError."""
        shapes = r"times of shape \(3,\) do not match values of shape \(2,\)"
        with pytest.raises(InvalidInputError, match=shapes):
            fit([0.0, 1.0, 2.0], [1.0, 2.0])

    def test_double_exponential_recovery(self):
        t = np.linspace(0.0, 1.5, 30)
        y = np.exp(np.exp(0.5 + 1.2 * t)) - math.e
        profile = fit_double_exponential_envelope(t, y)
        assert profile.constants["inner_rate"] == pytest.approx(1.2, rel=1e-3)
        assert profile.r_squared > 0.999
        assert np.max(np.abs(profile.evaluate(t) - y) / y.max()) < 1e-6


class TestTrajectoryChecks:
    def test_max_principle_passes_within_drift(self):
        records = [mkrec(0.0, l2_theta=1.0), mkrec(1.0, l2_theta=1.0005)]
        report = check_max_principle(records, 2)
        assert report.passed
        assert report.details["drift"] == pytest.approx(5e-4)

    def test_max_principle_fails_beyond_drift(self):
        records = [mkrec(0.0, linf_theta=1.0), mkrec(1.0, linf_theta=1.01)]
        report = check_max_principle(records, math.inf)
        assert not report.passed

    def test_max_principle_rejects_untracked_exponent(self):
        records = [mkrec(0.0, l2_theta=1.0)]
        with pytest.raises(ConfigurationError):
            check_max_principle(records, 3)

    def test_energy_bound_pass_and_fail(self):
        ok = [
            mkrec(0.0, l2_v=1.0, l2_theta=2.0),
            mkrec(1.0, l2_v=2.9, l2_theta=2.0),
        ]
        assert check_energy(ok).passed
        bad = [
            mkrec(0.0, l2_v=1.0, l2_theta=2.0),
            mkrec(1.0, l2_v=3.2, l2_theta=2.0),
        ]
        assert not check_energy(bad).passed

    def test_gamma_smoothing_on_exponential_series(self):
        times = np.linspace(0.0, 2.0, 30)
        records = [
            mkrec(t, hhalf_gamma_sq_cum=2.0 * math.exp(0.8 * t), hhalf_omega_sq_cum=5.0)
            for t in times
        ]
        report = check_gamma_smoothing(records)
        assert report.passed
        assert report.details["r_squared"] > 0.999
        assert report.details["omega_fit"].constants["rate"] == pytest.approx(0.0, abs=1e-9)

    def test_gamma_smoothing_saturating_series_threshold(self):
        # Cumulative integral of a decaying integrand: log-concave, so the
        # log-linear fit cannot explain it, yet the envelope bound is finite.
        times = np.linspace(0.0, 2.0, 30)
        records = [
            mkrec(t, hhalf_gamma_sq_cum=0.1 * (1.0 - math.exp(-4.0 * t)), hhalf_omega_sq_cum=t)
            for t in times
        ]
        default = check_gamma_smoothing(records)
        assert default.passed
        assert default.details["r_squared"] < 0.95

    def test_gamma_smoothing_fails_on_nonfinite(self):
        records = [
            mkrec(0.0, hhalf_gamma_sq_cum=0.0),
            mkrec(0.5, hhalf_gamma_sq_cum=1.0),
            mkrec(1.0, hhalf_gamma_sq_cum=math.inf),
            mkrec(1.5, hhalf_gamma_sq_cum=math.inf),
        ]
        assert not check_gamma_smoothing(records).passed

    def test_lipschitz_check_reports_envelopes(self):
        times = np.linspace(0.0, 1.0, 20)
        records = [
            mkrec(t, besov_omega_cum=t, lr_omega=1.0 + t, lip_v=0.5, V_t=0.5 * t)
            for t in times
        ]
        report = check_lipschitz(records)
        assert report.passed
        assert report.details["besov_cum_fit"].form == "exponential"
        assert report.details["lr_fit"].form == "double-exponential"
        bad = records + [mkrec(2.0, lr_omega=math.inf)]
        assert not check_lipschitz(bad).passed


class TestOsgood:
    def test_gronwall_constant_rate(self):
        t = np.linspace(0.0, 2.0, 201)
        g = np.full_like(t, 0.7)
        bound = osgood_bound(1.5, t, g, mu="gronwall")
        assert bound[0] == pytest.approx(1.5)
        assert bound[-1] == pytest.approx(1.5 * math.exp(1.4), rel=1e-12)

    def test_gronwall_zero_initial(self):
        t = np.linspace(0.0, 1.0, 11)
        assert np.all(osgood_bound(0.0, t, np.ones_like(t)) == 0.0)

    def test_log_modulus_small_data(self):
        t = np.linspace(0.0, 1.0, 101)
        g = np.ones_like(t)
        a = 1e-6
        bound = osgood_bound(a, t, g, mu="log")
        shrink = math.exp(-1.0)
        expected = a**shrink * math.exp(1.0 - shrink)
        assert bound[0] == pytest.approx(a)
        assert bound[-1] == pytest.approx(expected, rel=1e-10)
        assert np.all(np.isfinite(bound))

    def test_log_modulus_goes_vacuous_for_large_data(self):
        t = np.linspace(0.0, 5.0, 51)
        g = np.ones_like(t)
        bound = osgood_bound(0.9, t, g, mu="log")
        assert bound[0] == pytest.approx(0.9)
        assert np.isinf(bound[-1])

    def test_log_bound_dominates_gronwall_for_small_data(self):
        # the log modulus exceeds the linear one below r = 1, so its
        # admissible bound sits above the Gronwall bound
        t = np.linspace(0.0, 0.5, 51)
        g = np.ones_like(t)
        a = 1e-8
        log_bound = osgood_bound(a, t, g, mu="log")
        lin_bound = osgood_bound(a, t, g, mu="gronwall")
        assert np.all(log_bound[1:] >= lin_bound[1:])

    def test_rejects_negative_initial(self):
        with pytest.raises(ConfigurationError):
            osgood_bound(-1.0, [0.0, 1.0], [1.0, 1.0])

    @pytest.mark.parametrize("mu", ["gronwall", "log"])
    def test_rejects_nan_initial(self, mu):
        """Before, NaN passed `a < 0`: NaN under gronwall, a vacuous inf under log."""
        with pytest.raises(ConfigurationError, match="initial size a"):
            osgood_bound(math.nan, [0.0, 1.0], [1.0, 1.0], mu=mu)

    def test_rejects_unknown_modulus(self):
        with pytest.raises(ConfigurationError):
            osgood_bound(1.0, [0.0, 1.0], [1.0, 1.0], mu="quadratic")

    @pytest.mark.parametrize("times", [[1.0, 0.0], [0.0, 0.0], [0.0, math.nan]])
    @pytest.mark.parametrize("mu", ["gronwall", "log"])
    def test_rejects_times_that_do_not_increase_strictly(self, times, mu):
        """Before, [1, 0] gave the bound [1.0, 0.368] under gronwall: below its start."""
        with pytest.raises(InvalidInputError, match="times must increase strictly"):
            osgood_bound(1.0, times, [1.0, 1.0], mu=mu)

    @pytest.mark.parametrize("times, gammas", [([], []), ([[0.0, 1.0]], [[1.0, 1.0]]), (0.0, 1.0)])
    @pytest.mark.parametrize("mu", ["gronwall", "log"])
    def test_rejects_times_that_are_not_a_nonempty_series(self, times, gammas, mu):
        """Before, [] and [[0, 1]] both gave the bound [1.0]: one point for no series, or a
        time row read as a single time."""
        with pytest.raises(InvalidInputError, match="non-empty 1-D series"):
            osgood_bound(1.0, times, gammas, mu=mu)


class TestClosedFormSmoothing:
    def test_matches_fine_quadrature(self):
        g = grid64()
        gamma0 = random_scalar_field(g, 2.5, 1.0, (61, 1))
        t_end = 0.8
        closed = linear_gamma_smoothing_integral(gamma0, t_end)
        # independent check: trapezoid quadrature of the decaying H^1/2 norm
        times = np.linspace(0.0, t_end, 4001)
        z = zero_field(g)
        values = np.array([
            sobolev_norm(
                linear_exact_solution(gamma0, z, 1.0, t).omega_hat, 0.5, homogeneous=True
            )
            ** 2
            for t in times
        ])
        quad = float(np.sum(np.diff(times) * (values[1:] + values[:-1]) / 2.0))
        assert closed == pytest.approx(quad, rel=1e-6)

    def test_saturates_at_half_h_half_squared(self):
        g = grid64()
        gamma0 = spectral_sin(g, 2)
        # as t -> inf the integral tends to ||gamma0||_{H^{-1/2}}^2 ... for a
        # single mode |k| = 2: (2 pi)^2 |c|^2 / 2 summed over the pair
        closed = linear_gamma_smoothing_integral(gamma0, 50.0)
        expected = (2 * math.pi) ** 2 * (0.25 + 0.25) / 2.0
        assert closed == pytest.approx(expected, rel=1e-12)

    def test_the_weight_drops_the_zero_mode(self):
        """(1 - exp(-2 |k| t)) / 2 vanishes at k = 0, so a mean in gamma0 adds nothing."""
        c = random_scalar_field(grid64(), 2.5, 1.0, (61, 2)).coeffs.copy()
        c[0, 0] = 0.0
        mean_free = SpectralField(grid64(), c)
        c[0, 0] = 0.75
        for t in (0.0, 0.3, 50.0):
            want = linear_gamma_smoothing_integral(mean_free, t)
            assert linear_gamma_smoothing_integral(SpectralField(grid64(), c), t) == want

    @pytest.mark.parametrize("t", [-1.0, math.nan])
    def test_rejects_negative_or_nan_time(self, t):
        with pytest.raises(ConfigurationError, match="time t must be nonnegative"):
            linear_gamma_smoothing_integral(spectral_sin(grid64(), 2), t)

    def test_rejects_an_infinite_time(self):
        """t = inf gave nan: the weight's 0 * inf at k = 0."""
        with pytest.raises(ConfigurationError, match="time t must be nonnegative and finite"):
            linear_gamma_smoothing_integral(spectral_sin(grid64(), 2), math.inf)


class TestStateDifference:
    def test_zero_for_identical_states(self):
        g = grid64()
        s = SimState(0.0, spectral_sin(g), zero_field(g), 1.0)
        assert state_difference(s, s.copy()) == 0.0

    def test_scales_linearly_in_vorticity_perturbation(self):
        g = grid64()
        base = SimState(0.0, spectral_sin(g), zero_field(g), 1.0)
        bump = random_scalar_field(g, 2.5, 1.0, (62, 1))
        one = SimState(0.0, base.omega_hat + bump, base.theta_hat, 1.0)
        half = SimState(0.0, base.omega_hat + bump * 0.5, base.theta_hat, 1.0)
        x1 = state_difference(one, base)
        x2 = state_difference(half, base)
        assert x1 == pytest.approx(2.0 * x2, rel=1e-12)
        assert x1 > 0.0
