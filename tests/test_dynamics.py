"""Oracle tests for the time stepper, the damped combination, and blow-up."""

import dataclasses
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import bqsim
import oracle
from bqsim import (
    BlowUpError,
    ConfigurationError,
    Grid,
    InvalidInputError,
    SimState,
    SpectralField,
    cfl_dt,
    dealias,
    forward_transform,
    gamma,
    grid_max_velocity,
    inverse_transform,
    linear_exact_solution,
    lp_norm,
    make_initial_data,
    parse_config,
    random_scalar_field,
    rhs,
    riesz,
    step,
    trajectory_gamma_residuals,
)
from bqsim import dynamics
from bqsim.config import PRESETS
from bqsim.errors import NonFiniteError
from bqsim.runner import adaptive_dt
from bqsim.spectral import _advect


def grid64():
    return Grid(64)


def spectral(grid, samples):
    return forward_transform(grid, samples)


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
        """The copy shares the fields, which can be neither written nor rebound."""
        g = grid64()
        s = SimState(0.0, zero_field(g), zero_field(g), 1.0)
        c = s.copy()
        c.t, c.omega_hat = 1.0, spectral(g, np.sin(g.nodes()[0]))
        assert s.t == 0.0 and not s.omega_hat.coeffs.any()
        with pytest.raises(ValueError, match="read-only"):
            c.theta_hat.coeffs[1, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.theta_hat.coeffs = np.ones((64, 64), dtype=complex)
        assert s.theta_hat.coeffs[1, 0] == 0.0


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
        forced = inverse_transform(domega)
        assert np.max(np.abs(forced + np.sin(x1))) < 1e-12
        assert lp_norm(inverse_transform(dtheta), 2) < 1e-13

    def test_shear_transports_temperature(self):
        g = grid64()
        x1, x2 = g.nodes()
        # omega = sin x1 -> v = (0, -cos x1); theta = sin x2 -> v.grad theta = -cos x1 cos x2
        state = SimState(0.0, spectral(g, np.sin(x1)), spectral(g, np.sin(x2)), 1.0)
        _, dtheta = rhs(state)
        got = inverse_transform(dtheta)
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

    @pytest.mark.parametrize("cfl", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_cfl_number_by_name(self, cfl):
        g = grid64()
        state = SimState(0.0, zero_field(g), zero_field(g), 1.0)
        with pytest.raises(ConfigurationError, match="cfl number"):
            cfl_dt(state, cfl)


class TestStep:
    def test_pure_dissipation_is_exact(self):
        g = grid64()
        x1, _ = g.nodes()
        state = SimState(0.0, spectral(g, np.sin(3 * x1)), zero_field(g), 1.0)
        out = step(state, 0.25)
        expected = math.exp(-3 * 0.25) * np.sin(3 * x1)
        got = inverse_transform(out.omega_hat)
        assert np.max(np.abs(got - expected)) < 1e-14
        assert out.t == pytest.approx(0.25)

    def test_fractional_dissipation_is_exact(self):
        g = grid64()
        x1, _ = g.nodes()
        state = SimState(0.0, spectral(g, np.sin(3 * x1)), zero_field(g), 0.5)
        out = step(state, 0.25)
        expected = math.exp(-(3**0.5) * 0.25) * np.sin(3 * x1)
        got = inverse_transform(out.omega_hat)
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
        got = inverse_transform(state.omega_hat)
        assert np.max(np.abs(got - expected)) < 1e-12
        theta_got = inverse_transform(state.theta_hat)
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

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_dt_by_name(self, dt):
        """Bad input, not a blow-up: the step never starts."""
        state = random_state(32)
        with pytest.raises(ConfigurationError, match="step size dt"):
            step(state, dt)

    @pytest.mark.parametrize("preset", ["tg-blob", "blob", "taylor-green", "random"])
    def test_coefficients_outside_the_band_are_plus_zero(self, preset):
        """Checkpoints store these bits: every state holds +0.0 beyond the 2/3 cutoff."""
        state = make_initial_data(parse_config(f"n = 32\nt_end = 1\npreset = {preset}\n"))
        for state in (state, step(step(state, 1e-3), 1e-3)):
            for c in (state.omega_hat.coeffs, state.theta_hat.coeffs):
                outside = np.ascontiguousarray(c[~oracle.keep_mask(32)]).view(float)
                assert not np.any(outside) and not np.any(np.signbit(outside))

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
        with pytest.raises(InvalidInputError, match="conjugate symmetry broken"):
            fields[broken] = SpectralField(g, coeffs)  # built, so no step ever sees it

    def test_nonfinite_input_is_bad_input_not_blowup(self):
        g = Grid(32)
        theta = dealias(random_scalar_field(g, 2.0, 1.0, (3,))).coeffs.copy()
        theta[2, 1] = np.nan
        with pytest.raises(InvalidInputError, match="non-finite"):
            SpectralField(g, theta)  # built, so no step ever sees it

    @pytest.mark.parametrize("n", [16, 64, 98])  # kmax = 5, the smallest block; 98 = 2 (mod 3)
    @pytest.mark.parametrize("preset, alpha", [("zero", 1.0), ("taylor-green", 1.0), ("blob", 1.0),
                                               ("tg-blob", 1.0), ("random", 1.0), ("random", 0.5)])
    def test_step_is_the_oracle_step_bit_for_bit(self, preset, alpha, n):
        """Folding the RK4 sums, stepping the kept block, pruning passes and reusing samples
        must move no bit."""
        state = make_initial_data(parse_config(f"n = {n}\nt_end = 1\npreset = {preset}\nalpha = {alpha}\n"))
        w, th = state.omega_hat.coeffs, state.theta_hat.coeffs
        for _ in range(3):
            state = step(state, 1e-2)
            w, th = oracle.step(state.grid, w, th, 1e-2, alpha)
            assert np.array_equal(state.omega_hat.coeffs, w) and np.array_equal(state.theta_hat.coeffs, th)

    def test_step_advances_the_dealiased_part_of_its_input(self):
        """Content beyond the 2/3 cutoff is dropped: the step sees only the kept block."""
        state, keep = white_noise_state(48), oracle.keep_mask(48)
        omega, theta = state.omega_hat, state.theta_hat
        assert np.any(omega.coeffs[~keep]) and np.any(theta.coeffs[~keep])
        out = step(state, 1e-3)
        want = step(SimState(0.25, dealias(omega), dealias(theta), 0.5), 1e-3)
        assert np.array_equal(out.omega_hat.coeffs, want.omega_hat.coeffs)
        assert np.array_equal(out.theta_hat.coeffs, want.theta_hat.coeffs)
        for c in (out.omega_hat.coeffs, out.theta_hat.coeffs):
            outside = np.ascontiguousarray(c[~keep]).view(float)
            assert not np.any(outside) and not np.any(np.signbit(outside))
        state.physical_velocity()  # kept for stage 1: samples of the dealiased vorticity
        assert np.array_equal(step(state, 1e-3).omega_hat.coeffs, want.omega_hat.coeffs)
        loud = SimState(0.25, omega * 1e7, theta, 0.5)
        with pytest.raises(BlowUpError) as excinfo:
            step(loud, 1e-3)
        assert excinfo.value.state is loud

    def test_step_and_adaptive_dt_check_no_field(self, symmetry_checks):
        """A state's fields were checked when they were built; stepping checks none."""
        state = random_state(64)
        adaptive_dt(step(state, 1e-3), 0.5)
        assert symmetry_checks == []


def random_state(n, seed=4):
    g = Grid(n)
    omega, theta = (dealias(random_scalar_field(g, 2.0, 1.0, (seed, k))) for k in (1, 2))
    return SimState(0.0, omega, theta, 1.0)


def white_noise_state(n, seed=5):
    """A state of mean-free white noise, every mode filled beyond the 2/3 cutoff too."""
    g, rng = Grid(n), np.random.default_rng(seed)
    omega, theta = (forward_transform(g, x - x.mean()) for x in rng.standard_normal((2, n, n)))
    return SimState(0.25, omega, theta, 0.5)


def same_samples(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))


def complex_velocity(state):
    """The state's velocity sampled by the oracle's complex inverse FFT, as the step samples it."""
    return oracle.velocity(state.grid, state.omega_hat.coeffs)


class TestNonlinearOrder:
    """Fourth-order convergence of the full nonlinear step, by successive differences:
    halving dt shrinks the change between neighbouring runs 16-fold."""

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_halving_dt_shrinks_successive_differences_sixteenfold(self, seed, alpha):
        t_end = 0.1
        text = f"n = 32\nt_end = {t_end}\npreset = random\nseed = {seed}\nalpha = {alpha}\n"
        state0 = make_initial_data(parse_config(text))
        finals = []
        for steps in (10, 20, 40, 80):
            state = state0
            for _ in range(steps):
                state = step(state, t_end / steps)
            finals.append(np.concatenate([state.omega_hat.coeffs, state.theta_hat.coeffs]))
        diffs = [np.max(np.abs(b - a)) / np.max(np.abs(b)) for a, b in zip(finals, finals[1:])]
        ratios = [coarse / fine for coarse, fine in zip(diffs, diffs[1:])]
        assert all(14.0 <= r <= 18.0 for r in ratios), (diffs, ratios)


class TestResolution:
    """Spectral convergence in n on smooth data: the grids share no array, so a `Grid` whose
    lattice, nodes or multipliers go wrong with n parts the two runs."""

    K = 10  # the modes |k1|, |k2| <= K compared

    @classmethod
    def low_modes(cls, n):
        """tg-blob at n stepped to t = 0.5 by dt = 1e-2: (omega_hat, theta_hat) at |k_j| <= K."""
        state = make_initial_data(parse_config(f"n = {n}\nt_end = 0.5\npreset = tg-blob\n"))
        for _ in range(50):
            state = step(state, 1e-2)
        k = np.r_[0 : cls.K + 1, -cls.K : 0] % n
        return [f.coeffs[np.ix_(k, k)] for f in (state.omega_hat, state.theta_hat)]

    def test_tg_blob_at_n64_and_n128_agree_on_the_low_modes(self):
        """Measured: 1.8e-14 (omega) and 3.4e-13 (theta) of the largest low mode."""
        for coarse, fine in zip(self.low_modes(64), self.low_modes(128)):
            assert np.max(np.abs(coarse - fine)) <= 1e-12 * np.max(np.abs(fine))


class TestVelocityReuse:
    def test_samples_are_the_checked_transform_bit_for_bit(self):
        state = step(random_state(64), 1e-3)
        expected = complex_velocity(state)
        assert same_samples(state.physical_velocity(), expected)
        assert state.physical_velocity() is state.physical_velocity()

    @pytest.mark.parametrize(
        "fresh", [SimState.copy, lambda s: dataclasses.replace(s)], ids=["copy", "replace"]
    )
    def test_copies_start_without_samples(self, fresh):
        """They sample afresh (the `velocity-of-a-*` rows of the FFT count table) and get the same bits."""
        state = step(random_state(64), 1e-3)
        clone = fresh(state)
        assert clone.physical_velocity() is not state.physical_velocity()
        assert same_samples(clone.physical_velocity(), state.physical_velocity())

    def test_reassigned_vorticity_is_never_served_stale_samples(self):
        state = step(random_state(64), 1e-3)
        old = state.physical_velocity()
        state.omega_hat = dealias(random_scalar_field(state.grid, 2.0, 1.0, (9,)))
        assert same_samples(state.physical_velocity(), complex_velocity(state))
        assert not same_samples(state.physical_velocity(), old)
        with pytest.raises(dataclasses.FrozenInstanceError):  # the cache key cannot go stale
            state.omega_hat.coeffs = state.omega_hat.coeffs * 2.0
        with pytest.raises(ValueError, match="read-only"):
            state.omega_hat.coeffs[1, 2] *= 2.0
        state.omega_hat = state.omega_hat * 2.0
        assert same_samples(state.physical_velocity(), complex_velocity(state))

    def test_the_grid_max_velocity_is_worked_out_once_per_state(self, monkeypatch):
        """`step`'s blow-up test and the next `cfl_dt` read one max |v|, kept with the
        samples; it is `lp_norm`'s grid max of them bit for bit."""
        state = step(random_state(64), 1e-3)
        hypot, calls = np.hypot, []
        monkeypatch.setattr(np, "hypot", lambda *a: calls.append(a) or hypot(*a))
        dt = cfl_dt(state, 0.5)
        assert calls == []
        assert state.max_velocity() == lp_norm(state.physical_velocity(), math.inf)
        assert dt == 0.5 * (2.0 * np.pi / 64) / state.max_velocity()
        state.omega_hat = state.omega_hat * 2.0
        assert state.max_velocity() == lp_norm(state.physical_velocity(), math.inf)


class TestDealiasedSamples:
    """A state's samples, its tendencies and `grid_max_velocity` read the dealiased part of
    their input, as the step does."""

    @pytest.mark.parametrize("n", [16, 48, 98])
    def test_a_state_and_its_dealiased_copy_agree(self, n):
        s = white_noise_state(n)
        d = SimState(s.t, dealias(s.omega_hat), dealias(s.theta_hat), s.alpha)
        assert same_samples(s.physical_velocity(), d.physical_velocity())
        assert np.array_equal(s.physical_temperature(), d.physical_temperature())
        assert same_samples([f.coeffs for f in rhs(s)], [f.coeffs for f in rhs(d)])
        assert grid_max_velocity(s.velocity()) == grid_max_velocity(d.velocity())

    def test_a_state_rejects_a_vorticity_with_a_mean(self):
        """The samples ignore the mean mode (the Biot-Savart multiplier is 0 at k = 0), so a
        state is built only from a mean-free vorticity, by `biot_savart`'s rule: before, `cfl_dt`
        and `step` took this one while `run` rejected it at its first record."""
        state = random_state(32)
        coeffs = state.omega_hat.coeffs.copy()
        coeffs[0, 0] = 1e-3
        with pytest.raises(InvalidInputError, match="nonzero mean"):
            SimState(0.0, SpectralField(state.grid, coeffs), state.theta_hat)
        with pytest.raises(InvalidInputError, match="nonzero mean"):
            dataclasses.replace(state, omega_hat=SpectralField(state.grid, coeffs))
        coeffs[0, 0] = 1e-13  # round-off, as a stepped state carries
        SimState(0.0, SpectralField(state.grid, coeffs), state.theta_hat)


class TestLinearExact:
    def test_temperature_is_frozen(self):
        g = grid64()
        theta0 = forward_transform(g, np.cos(g.nodes()[0]))
        out = linear_exact_solution(zero_field(g), theta0, 1.0, 2.0)
        assert np.max(np.abs(out.theta_hat.coeffs - theta0.coeffs)) < 1e-15

    def test_single_mode_alpha_one(self):
        g = grid64()
        x1, _ = g.nodes()
        out = linear_exact_solution(
            zero_field(g), spectral(g, np.cos(x1)), 1.0, 0.7
        )
        expected = (math.exp(-0.7) - 1.0) * np.sin(x1)
        got = inverse_transform(out.omega_hat)
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
        got = inverse_transform(out.omega_hat)
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


def has_worker():
    return bool(dynamics._worker(os.getpid()))


class TestTwoThreads:
    """From `PARALLEL_MIN_N` a stage runs theta's advection and v2's sample on a worker thread."""

    @pytest.mark.parametrize("preset", PRESETS)
    def test_parallel_steps_equal_serial_steps_bit_for_bit(self, preset, monkeypatch):
        state0 = make_initial_data(parse_config(f"n = 256\nt_end = 1\npreset = {preset}\n"))
        threads = set()

        def advect(*args):
            threads.add(threading.get_ident())
            return _advect(*args)

        def ten_steps():
            state = state0
            for _ in range(10):
                state = step(state, 1e-3)
            return [a.tobytes() for a in (state.omega_hat.coeffs, state.theta_hat.coeffs,
                                          *state.physical_velocity())]

        monkeypatch.setattr(dynamics, "_advect", advect)
        parallel = ten_steps()
        assert len(threads) == (2 if has_worker() else 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            switching = ten_steps()
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(dynamics, "PARALLEL_MIN_N", 10**9)
        threads.clear()
        serial = ten_steps()
        assert threads == {threading.get_ident()}
        assert parallel == serial and switching == serial

    @pytest.mark.filterwarnings("error")
    def test_an_overflow_on_the_worker_is_a_blow_up_under_the_callers_error_state(self):
        """Theta's advection overflows on the worker, which must ignore it as the caller does:
        in numpy's default error state the overflow raises a RuntimeWarning instead."""
        state = random_state(256)
        state = SimState(0.0, state.omega_hat * 1e105, state.theta_hat * 1e200)
        assert state.grid.n >= dynamics.PARALLEL_MIN_N
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError):
            step(state, 1e-3)

    def test_a_raise_on_the_caller_waits_for_the_workers_half(self, monkeypatch):
        if not has_worker():
            pytest.skip("no worker on one CPU")
        caller, finished = threading.get_ident(), []

        def advect(*args):
            if threading.get_ident() == caller:
                raise NonFiniteError("the caller's half")
            time.sleep(0.2)
            finished.append(threading.get_ident())
            return _advect(*args)

        monkeypatch.setattr(dynamics, "_advect", advect)
        with pytest.raises(BlowUpError):
            step(random_state(256), 1e-3)
        assert len(finished) == 1

    def test_a_worker_only_where_the_process_may_use_two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert dynamics._worker.__wrapped__(os.getpid()) is False
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        worker = dynamics._worker.__wrapped__(os.getpid())
        assert worker.submit(threading.get_ident).result() != threading.get_ident()
        worker.shutdown()

    def test_importing_bqsim_starts_no_thread(self):
        code = "import sys, threading, bqsim; print(threading.active_count(), 'concurrent.futures' in sys.modules)"
        assert python(code).split() == ["1", "False"]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
    def test_a_forked_child_makes_its_own_worker(self):
        """The child of a process whose worker ran has none of its threads; stepping there on the
        parent's pool would wait for ever (here until the alarm)."""
        code = (
            "import os, signal\n"
            "from bqsim import Grid, SimState, dealias, random_scalar_field, step\n"
            "g = Grid(256)\n"
            "s = SimState(0.0, *(dealias(random_scalar_field(g, 2.0, 1.0, (4, k))) for k in (1, 2)))\n"
            "s = step(s, 1e-3)\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(30)\n"
            "    step(s, 1e-3)\n"
            "    os._exit(0)\n"
            "print(os.waitpid(pid, 0)[1])\n"
        )
        assert python(code).split() == ["0"]


def python(code):
    """Stdout of `code` run by a fresh interpreter that imports this bqsim."""
    env = {**os.environ, "PYTHONPATH": str(Path(bqsim.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-W", "ignore::DeprecationWarning", "-c", code],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
