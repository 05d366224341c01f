"""Oracle tests for the time stepper, the damped combination, and blow-up."""

import dataclasses
import math

import numpy as np
import pytest

from bqsim import (
    BlowUpError,
    ConfigurationError,
    DiagnosticsTracker,
    Grid,
    InvalidInputError,
    PhysicalField,
    SimState,
    SpectralField,
    VectorField,
    apply_multiplier,
    cfl_dt,
    dealias,
    forward_transform,
    gamma,
    inverse_transform,
    linear_exact_solution,
    lp_norm,
    random_scalar_field,
    rhs,
    riesz,
    step,
    trajectory_gamma_residuals,
)
from bqsim.runner import adaptive_dt


def grid64():
    return Grid(64)


def spectral(grid, samples):
    return forward_transform(PhysicalField(grid, samples))


def zero_field(grid):
    return SpectralField(grid, np.zeros((grid.n, grid.n), dtype=complex))


class TestSimState:
    def test_rejects_bad_alpha(self):
        g = grid64()
        with pytest.raises(ConfigurationError):
            SimState(0.0, zero_field(g), zero_field(g), alpha=0.0)
        with pytest.raises(ConfigurationError):
            SimState(0.0, zero_field(g), zero_field(g), alpha=2.5)
        for alpha in (0.0, 2.5, math.nan):
            with pytest.raises(ConfigurationError, match="alpha must lie in"):
                linear_exact_solution(zero_field(g), zero_field(g), alpha, 0.1)

    def test_rejects_mismatched_grids(self):
        with pytest.raises(ConfigurationError):
            SimState(0.0, zero_field(Grid(64)), zero_field(Grid(32)), alpha=1.0)

    def test_copy_is_independent(self):
        g = grid64()
        s = SimState(0.0, zero_field(g), zero_field(g), 1.0)
        c = s.copy()
        c.omega_hat.coeffs[1, 0] = 1.0
        assert s.omega_hat.coeffs[1, 0] == 0.0


class TestGamma:
    def test_damped_combination_cancels_matched_pair(self):
        g = grid64()
        x1, _ = g.nodes()
        # R sin(3 x1) = cos(3 x1), so omega = cos(3 x1) pairs with theta = sin(3 x1)
        state = SimState(0.0, spectral(g, np.cos(3 * x1)), spectral(g, np.sin(3 * x1)), 1.0)
        assert lp_norm(inverse_transform(gamma(state)), 2) < 1e-12

    def test_gamma_of_plain_vorticity(self):
        g = grid64()
        x1, _ = g.nodes()
        w = spectral(g, np.sin(x1))
        state = SimState(0.0, w, zero_field(g), 1.0)
        assert np.max(np.abs(gamma(state).coeffs - w.coeffs)) < 1e-15


class TestRhs:
    def test_buoyancy_forcing_with_zero_velocity(self):
        g = grid64()
        x1, _ = g.nodes()
        state = SimState(0.0, zero_field(g), spectral(g, np.cos(x1)), 1.0)
        domega, dtheta = rhs(state)
        forced = inverse_transform(domega).samples
        assert np.max(np.abs(forced + np.sin(x1))) < 1e-12
        assert lp_norm(inverse_transform(dtheta), 2) < 1e-13

    def test_shear_transports_temperature(self):
        g = grid64()
        x1, x2 = g.nodes()
        # omega = sin x1 -> v = (0, -cos x1); theta = sin x2 -> v.grad theta = -cos x1 cos x2
        state = SimState(0.0, spectral(g, np.sin(x1)), spectral(g, np.sin(x2)), 1.0)
        _, dtheta = rhs(state)
        got = inverse_transform(dtheta).samples
        assert np.max(np.abs(got - np.cos(x1) * np.cos(x2))) < 1e-11


class TestCfl:
    def test_unit_velocity_step(self):
        g = grid64()
        x1, _ = g.nodes()
        state = SimState(0.0, spectral(g, np.sin(x1)), zero_field(g), 1.0)
        assert cfl_dt(state, 0.5) == pytest.approx(0.5 * (2 * math.pi / 64), rel=1e-10)

    def test_zero_velocity_is_floored(self):
        g = grid64()
        state = SimState(0.0, zero_field(g), zero_field(g), 1.0)
        assert cfl_dt(state, 0.5) == pytest.approx(0.5 * (2 * math.pi / 64) / 1e-8)

    def test_rejects_bad_cfl_number(self):
        g = grid64()
        state = SimState(0.0, zero_field(g), zero_field(g), 1.0)
        with pytest.raises(ConfigurationError):
            cfl_dt(state, 0.0)


class TestStep:
    def test_pure_dissipation_is_exact(self):
        g = grid64()
        x1, _ = g.nodes()
        state = SimState(0.0, spectral(g, np.sin(3 * x1)), zero_field(g), 1.0)
        out = step(state, 0.25)
        expected = math.exp(-3 * 0.25) * np.sin(3 * x1)
        got = inverse_transform(out.omega_hat).samples
        assert np.max(np.abs(got - expected)) < 1e-14
        assert out.t == pytest.approx(0.25)

    def test_fractional_dissipation_is_exact(self):
        g = grid64()
        x1, _ = g.nodes()
        state = SimState(0.0, spectral(g, np.sin(3 * x1)), zero_field(g), 0.5)
        out = step(state, 0.25)
        expected = math.exp(-(3**0.5) * 0.25) * np.sin(3 * x1)
        got = inverse_transform(out.omega_hat).samples
        assert np.max(np.abs(got - expected)) < 1e-14

    def test_forced_shear_matches_closed_form(self):
        # theta = cos x1 stays put (v.grad theta = 0 for this geometry) and
        # forces omega(t) = (e^{-t} - 1) sin x1; the nonlinear terms vanish
        # identically, so the stepper must track the closed form to RK4 error.
        g = grid64()
        x1, _ = g.nodes()
        state = SimState(0.0, zero_field(g), spectral(g, np.cos(x1)), 1.0)
        dt = 1e-3
        for _ in range(50):
            state = step(state, dt)
        expected = (math.exp(-state.t) - 1.0) * np.sin(x1)
        got = inverse_transform(state.omega_hat).samples
        assert np.max(np.abs(got - expected)) < 1e-12
        theta_got = inverse_transform(state.theta_hat).samples
        assert np.max(np.abs(theta_got - np.cos(x1))) < 1e-12

    def test_temperature_l2_never_grows(self):
        g = grid64()
        x1, x2 = g.nodes()
        state = SimState(
            0.0,
            spectral(g, np.sin(x1) * np.sin(x2)),
            spectral(g, np.cos(x1) + 0.3 * np.sin(2 * x2)),
            1.0,
        )
        prev = lp_norm(inverse_transform(state.theta_hat), 2)
        for _ in range(20):
            state = step(state, 0.02)
            cur = lp_norm(inverse_transform(state.theta_hat), 2)
            assert cur <= prev * (1 + 1e-12)
            prev = cur

    def test_rejects_nonpositive_dt(self):
        g = grid64()
        state = SimState(0.0, zero_field(g), zero_field(g), 1.0)
        with pytest.raises(ConfigurationError):
            step(state, 0.0)

    def test_blowup_raises_with_forensic_state(self):
        g = grid64()
        x1, _ = g.nodes()
        state = SimState(0.0, spectral(g, 5e6 * np.sin(x1)), zero_field(g), 1.0)
        with pytest.raises(BlowUpError) as excinfo:
            step(state, 1e-3)
        kept = excinfo.value.state
        assert kept.t == 0.0
        assert np.all(np.isfinite(kept.omega_hat.coeffs))

    def test_nonfinite_stage_is_a_blowup(self):
        # At rest the first stage is finite; the second overflows inside advect.
        g = Grid(32)
        theta = dealias(random_scalar_field(g, 2.5, 1e300, (1,)))
        state = SimState(0, zero_field(g), theta)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError) as excinfo:
            step(state, 1e-3)
        assert excinfo.value.state is state

    @pytest.mark.parametrize("broken", ["omega", "theta"])
    def test_broken_symmetry_is_not_relabelled_as_blowup(self, broken):
        g = grid64()
        coeffs = np.zeros((64, 64), dtype=complex)
        coeffs[1, 0] = 1.0  # missing the conjugate partner: a program fault, not a blow-up
        fields = {"omega": zero_field(g), "theta": zero_field(g)}
        fields[broken] = SpectralField(g, coeffs)
        state = SimState(0.0, fields["omega"], fields["theta"], 1.0)
        with pytest.raises(InvalidInputError, match="conjugate symmetry broken"):
            step(state, 1e-3)

    def test_nonfinite_input_is_bad_input_not_blowup(self):
        g = Grid(32)
        theta = dealias(random_scalar_field(g, 2.0, 1.0, (3,)))
        theta.coeffs[2, 1] = np.nan
        state = SimState(0.0, zero_field(g), theta, 1.0)
        with pytest.raises(InvalidInputError, match="non-finite"):
            step(state, 1e-3)

    def test_symmetry_is_checked_once_per_field_per_step(self, symmetry_checks):
        g = grid64()
        omega = dealias(random_scalar_field(g, 2.0, 1.0, (4,)))
        state = SimState(0.0, omega, dealias(random_scalar_field(g, 2.0, 1.0, (5,))), 1.0)
        step(state, 1e-3)
        assert [id(f) for f in symmetry_checks] == [id(state.omega_hat), id(state.theta_hat)]


def random_state(n, seed=4):
    g = Grid(n)
    omega, theta = (dealias(random_scalar_field(g, 2.0, 1.0, (seed, k))) for k in (1, 2))
    return SimState(0.0, omega, theta, 1.0)


def same_samples(a, b):
    return all(np.array_equal(x.samples, y.samples) for x, y in zip(a.components(), b.components()))


def complex_velocity(state):
    """The state's velocity sampled by the complex inverse FFT that the step runs."""
    n = state.grid.n
    return VectorField(*(PhysicalField(state.grid, np.real(np.fft.ifft2(c.coeffs)) * (n * n))
                         for c in state.velocity().components()))


class TestVelocityReuse:
    def test_samples_are_the_checked_transform_bit_for_bit(self):
        state = step(random_state(64), 1e-3)
        expected = complex_velocity(state)
        assert same_samples(state.physical_velocity(), expected)
        assert state.physical_velocity() is state.physical_velocity()

    def test_fft_counts_per_step_and_per_dt(self, fft_calls):
        state = random_state(64)
        first = step(state, 1e-3)
        # 8 per stage (2 velocity, 4 gradient, 2 forward), 2 for the new state's velocity
        assert len(fft_calls) == 34
        fft_calls.clear()
        second = step(first, 1e-3)
        assert len(fft_calls) == 32  # stage 1 reuses the samples of the blow-up test
        fft_calls.clear()
        adaptive_dt(second, 0.5)
        assert fft_calls == ["ifft2"]  # theta only; the velocity samples are kept

    def test_record_reuses_the_velocity_samples(self, fft_calls):
        state = step(random_state(128), 1e-3)
        fft_calls.clear()
        DiagnosticsTracker().record(state)
        assert len(fft_calls) == 25

    @pytest.mark.parametrize(
        "fresh", [SimState.copy, lambda s: dataclasses.replace(s)], ids=["copy", "replace"]
    )
    def test_copies_start_without_samples(self, fresh, fft_calls):
        state = step(random_state(64), 1e-3)
        fft_calls.clear()
        clone = fresh(state)
        assert same_samples(clone.physical_velocity(), state.physical_velocity())
        assert len(fft_calls) == 2

    def test_reassigned_vorticity_is_never_served_stale_samples(self):
        state = step(random_state(64), 1e-3)
        old = state.physical_velocity()
        state.omega_hat = dealias(random_scalar_field(state.grid, 2.0, 1.0, (9,)))
        assert same_samples(state.physical_velocity(), complex_velocity(state))
        assert not same_samples(state.physical_velocity(), old)
        state.omega_hat.coeffs = state.omega_hat.coeffs * 2.0
        assert same_samples(state.physical_velocity(), complex_velocity(state))

    def test_step_folds_the_rk4_sums_without_moving_a_bit(self):
        state = random_state(64)
        folded = step(state, 1e-3)
        apply = apply_multiplier

        def unfolded(s, dt):  # IF-RK4 with its full sums, as written before the fold
            e_half = np.exp(-0.5 * dt * s.grid.kmag)
            e_full = e_half * e_half
            w0, th0 = s.omega_hat, s.theta_hat
            n1w, n1t = rhs(s)
            n2w, n2t = rhs(SimState(0.0, apply(w0 + (0.5 * dt) * n1w, e_half),
                                    th0 + (0.5 * dt) * n1t))
            n3w, n3t = rhs(SimState(0.0, apply(w0, e_half) + (0.5 * dt) * n2w,
                                    th0 + (0.5 * dt) * n2t))
            n4w, n4t = rhs(SimState(0.0, apply(w0, e_full) + dt * apply(n3w, e_half),
                                    th0 + dt * n3t))
            w1 = apply(w0, e_full) + (dt / 6.0) * (
                apply(n1w, e_full) + 2.0 * apply(n2w + n3w, e_half) + n4w
            )
            t1 = th0 + (dt / 6.0) * (n1t + 2.0 * (n2t + n3t) + n4t)
            return w1, t1

        w1, t1 = unfolded(state.copy(), 1e-3)
        assert np.array_equal(folded.omega_hat.coeffs, w1.coeffs)
        assert np.array_equal(folded.theta_hat.coeffs, t1.coeffs)


class TestLinearExact:
    def test_temperature_is_frozen(self):
        g = grid64()
        theta0 = forward_transform(PhysicalField(g, np.cos(g.nodes()[0])))
        out = linear_exact_solution(zero_field(g), theta0, 1.0, 2.0)
        assert np.max(np.abs(out.theta_hat.coeffs - theta0.coeffs)) < 1e-15

    def test_single_mode_alpha_one(self):
        g = grid64()
        x1, _ = g.nodes()
        out = linear_exact_solution(
            zero_field(g), spectral(g, np.cos(x1)), 1.0, 0.7
        )
        expected = (math.exp(-0.7) - 1.0) * np.sin(x1)
        got = inverse_transform(out.omega_hat).samples
        assert np.max(np.abs(got - expected)) < 1e-13

    def test_general_alpha_per_mode_formula(self):
        g = grid64()
        alpha, t = 0.5, 0.8
        w0 = np.zeros((64, 64), dtype=complex)
        th0 = np.zeros((64, 64), dtype=complex)
        w0[2, 1], w0[-2, -1] = 0.3 - 0.1j, 0.3 + 0.1j
        th0[2, 1], th0[-2, -1] = 0.2 + 0.4j, 0.2 - 0.4j
        out = linear_exact_solution(
            SpectralField(g, w0), SpectralField(g, th0), alpha, t
        )
        kmag = math.hypot(2, 1)
        decay = math.exp(-(kmag**alpha) * t)
        expected = decay * w0[2, 1] + (1j * 2 / kmag**alpha) * (1 - decay) * th0[2, 1]
        assert out.omega_hat.coeffs[2, 1] == pytest.approx(expected, rel=1e-13)

    def test_vorticity_decay_without_forcing(self):
        g = grid64()
        x1, _ = g.nodes()
        out = linear_exact_solution(spectral(g, np.sin(2 * x1)), zero_field(g), 1.0, 0.5)
        got = inverse_transform(out.omega_hat).samples
        assert np.max(np.abs(got - math.exp(-1.0) * np.sin(2 * x1))) < 1e-13


class TestGammaResiduals:
    def test_free_decay_residuals_are_small(self):
        g = grid64()
        x1, _ = g.nodes()
        theta0 = spectral(g, np.cos(x1))
        states = [
            linear_exact_solution(zero_field(g), theta0, 1.0, k * 1e-3) for k in range(5)
        ]
        residuals = trajectory_gamma_residuals(states)
        assert len(residuals) == 5
        # one-sided differences at the ends are first-order accurate
        assert residuals[0][1] < 3e-3 and residuals[-1][1] < 3e-3
        for t, value in residuals[1:-1]:
            assert value < 1e-5
