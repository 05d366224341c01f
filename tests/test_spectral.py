"""Oracle tests for the Fourier core: transforms, multipliers, norms."""

import ast
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import bqsim
from bqsim import (
    BesovSpec,
    DiagnosticsTracker,
    Grid,
    InvalidInputError,
    ConfigurationError,
    PhysicalField,
    SimState,
    SpectralField,
    VectorField,
    advect,
    besov_norm,
    biot_savart,
    commutator_riesz,
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
    step,
    to_physical,
    vector_sobolev_norm,
)
from bqsim.fields import _half_lattice, random_divfree_velocity, random_scalar_field
from bqsim.runner import adaptive_dt
from bqsim.spectral import hermitian_defect

# ||sin x1||_{L^2([0,2pi)^2)} = sqrt(2 pi^2) = pi sqrt(2)
L2_SIN = 4.442882938158366


GRADIENT_NORMS = pytest.mark.parametrize(
    "norm",
    [max_gradient, lambda v: gradient_lp_norm(v, 3.0)],
    ids=["max_gradient", "gradient_lp_norm"],
)


def grid64():
    return Grid(64)


def complex_samples(f):
    """Samples of f by the complex inverse FFT that the step and `grid_max_velocity` run."""
    return np.real(np.fft.ifft2(f.coeffs)) * (f.grid.n * f.grid.n)


def half_spectrum_samples(f, axis=1):
    """Samples of f by one `irfft2` that reads indices 0..n/2 along `axis` (the real edge)."""
    n = f.grid.n
    half = f.coeffs[:, : n // 2 + 1] if axis else f.coeffs[: n // 2 + 1]
    return np.fft.irfft2(half, (n, n), axes=(1 - axis, axis)) * (n * n)


def spectral_sin(grid, k, axis=0):
    x1, x2 = grid.nodes()
    x = x1 if axis == 0 else x2
    return forward_transform(PhysicalField(grid, np.sin(k * x)))


class TestGrid:
    def test_rejects_odd_size(self):
        with pytest.raises(ConfigurationError):
            Grid(65)

    def test_rejects_small_size(self):
        with pytest.raises(ConfigurationError):
            Grid(8)

    def test_wavevectors_are_fft_ordered_integers(self):
        g = Grid(16)
        assert g.k1[0, 0] == 0 and g.k1[1, 0] == 1 and g.k1[-1, 0] == -1
        assert g.k1[8, 0] == -8  # Nyquist carries the negative sign
        assert g.k2[0, 1] == 1
        assert g.kmag[0, 0] == 0.0
        assert g.kmag[3, 4] == pytest.approx(5.0)

    def test_kmag_power_is_kmag_itself_at_the_critical_alpha(self):
        g = grid64()
        assert g.kmag_power(1.0) is g.kmag
        assert g.kmag_power(0.5).tobytes() == (g.kmag**0.5).tobytes()

    def test_forcing_multiplier_matches_safe_division(self):
        # The multiplier i*k1/|k|^alpha built by dividing by |k|^alpha with the
        # zero mode replaced by 1; the Riesz multiplier is its alpha = 1 case.
        g = grid64()
        for alpha in (0.5, 1.0, 2.0):
            safe = g.kmag**alpha
            safe[0, 0] = 1.0
            expected = 1j * np.broadcast_to(g.k1, (64, 64)) / safe
            expected[0, 0] = 0.0
            assert g.forcing_mult(alpha).tobytes() == expected.tobytes()
            if alpha == 1.0:
                assert g.riesz_mult.tobytes() == expected.tobytes()

    def test_nodes_span_the_torus(self):
        g = Grid(32)
        x1, x2 = g.nodes()
        assert x1[0, 0] == 0.0
        assert x1[1, 0] == pytest.approx(2 * np.pi / 32)
        assert x2[0, -1] == pytest.approx(2 * np.pi * 31 / 32)

    def test_dealias_mask_cutoff(self):
        g = Grid(64)
        keep = g.dealias_keep
        assert keep[21, 0] and keep[0, 21]  # 21 <= 64/3
        assert not keep[22, 0] and not keep[0, 22]


class TestTransforms:
    def test_roundtrip_matches_input(self):
        g = grid64()
        rng = np.random.default_rng(7)
        samples = rng.standard_normal((64, 64))
        back = inverse_transform(forward_transform(PhysicalField(g, samples)))
        assert np.max(np.abs(back.samples - samples)) < 1e-12

    def test_forward_rejects_nonfinite(self):
        g = grid64()
        bad = np.zeros((64, 64))
        bad[3, 3] = np.nan
        with pytest.raises(InvalidInputError):
            forward_transform(PhysicalField(g, bad))

    def test_single_mode_coefficients(self):
        g = grid64()
        f = spectral_sin(g, 3)
        # sin(3 x1) = (e^{3i x1} - e^{-3i x1}) / 2i
        assert f.coeffs[3, 0] == pytest.approx(-0.5j, abs=1e-14)
        assert f.coeffs[-3, 0] == pytest.approx(0.5j, abs=1e-14)

    def test_inverse_rejects_broken_symmetry(self):
        g = grid64()
        coeffs = np.zeros((64, 64), dtype=complex)
        coeffs[1, 0] = 1.0  # missing the conjugate partner at -1
        with pytest.raises(InvalidInputError):
            inverse_transform(SpectralField(g, coeffs))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_inverse_rejects_nonfinite_coefficients(self, bad):
        g = Grid(32)
        f = random_scalar_field(g, 2.0, 1.0, (3,))
        f.coeffs[2, 1] = bad
        with pytest.raises(InvalidInputError, match="non-finite"):
            inverse_transform(f)

    def test_noise_level_asymmetry_is_tolerated(self):
        g = grid64()
        coeffs = np.zeros((64, 64), dtype=complex)
        coeffs[1, 0] = 1e-17  # below float64 noise of any O(1) ancestor
        samples = inverse_transform(SpectralField(g, coeffs)).samples
        assert np.max(np.abs(samples)) < 1e-12

    def test_hermitian_defect_zero_field(self):
        g = grid64()
        assert hermitian_defect(SpectralField(g, np.zeros((64, 64), dtype=complex))) == 0.0


class TestDerivatives:
    def test_partial_derivative_single_mode(self):
        g = grid64()
        x1, _ = g.nodes()
        df = inverse_transform(partial_derivative(spectral_sin(g, 3), 0))
        assert np.max(np.abs(df.samples - 3 * np.cos(3 * x1))) < 1e-10

    def test_partial_derivative_other_axis_is_zero(self):
        g = grid64()
        df = inverse_transform(partial_derivative(spectral_sin(g, 3), 1))
        assert np.max(np.abs(df.samples)) < 1e-12

    def test_partial_derivative_rejects_bad_axis(self):
        with pytest.raises(ConfigurationError):
            partial_derivative(spectral_sin(grid64(), 1), 2)

    def test_gradient_components(self):
        g = grid64()
        x1, x2 = g.nodes()
        f = forward_transform(PhysicalField(g, np.sin(2 * x1) * np.cos(x2)))
        grad = gradient(f)
        g1 = inverse_transform(grad.x1).samples
        g2 = inverse_transform(grad.x2).samples
        assert np.max(np.abs(g1 - 2 * np.cos(2 * x1) * np.cos(x2))) < 1e-10
        assert np.max(np.abs(g2 + np.sin(2 * x1) * np.sin(x2))) < 1e-10


class TestMultiplierOperators:
    def test_dissipation_alpha_one_single_mode(self):
        g = grid64()
        x1, _ = g.nodes()
        out = inverse_transform(fractional_dissipation(spectral_sin(g, 3), 1.0))
        assert np.max(np.abs(out.samples - 3 * np.sin(3 * x1))) < 1e-10

    def test_dissipation_alpha_two_is_minus_laplacian(self):
        g = grid64()
        x1, x2 = g.nodes()
        f = forward_transform(PhysicalField(g, np.sin(3 * x1) * np.sin(4 * x2)))
        out = inverse_transform(fractional_dissipation(f, 2.0))
        assert np.max(np.abs(out.samples - 25 * np.sin(3 * x1) * np.sin(4 * x2))) < 1e-9

    def test_dissipation_rejects_bad_alpha(self):
        for alpha in (0.0, 2.5, math.nan):
            with pytest.raises(ConfigurationError, match="alpha must lie in"):
                fractional_dissipation(spectral_sin(grid64(), 1), alpha)

    def test_dissipation_kills_mean(self):
        g = grid64()
        coeffs = np.zeros((64, 64), dtype=complex)
        coeffs[0, 0] = 2.0
        out = fractional_dissipation(SpectralField(g, coeffs), 1.0)
        assert out.coeffs[0, 0] == 0.0

    def test_riesz_turns_sine_into_cosine(self):
        g = grid64()
        x1, _ = g.nodes()
        out = inverse_transform(riesz(spectral_sin(g, 3)))
        assert np.max(np.abs(out.samples - np.cos(3 * x1))) < 1e-10

    def test_riesz_annihilates_transverse_modes(self):
        g = grid64()
        out = inverse_transform(riesz(spectral_sin(g, 5, axis=1)))
        assert np.max(np.abs(out.samples)) < 1e-12


class TestBiotSavart:
    def test_shear_oracle(self):
        g = grid64()
        x1, _ = g.nodes()
        v = to_physical(biot_savart(spectral_sin(g, 1)))
        assert np.max(np.abs(v.x1.samples)) < 1e-12
        assert np.max(np.abs(v.x2.samples + np.cos(x1))) < 1e-12

    def test_velocity_is_divergence_free(self):
        g = grid64()
        w = random_scalar_field(g, 2.0, 1.0, (1, 2))
        div = inverse_transform(divergence(biot_savart(w)))
        assert np.max(np.abs(div.samples)) < 1e-11

    def test_curl_inverts_biot_savart(self):
        g = grid64()
        w = random_scalar_field(g, 2.0, 1.0, (3, 4))
        back = curl(biot_savart(w))
        assert np.max(np.abs(back.coeffs - w.coeffs)) < 1e-12

    def test_rejects_mean_carrying_vorticity(self):
        g = grid64()
        coeffs = np.zeros((64, 64), dtype=complex)
        coeffs[0, 0] = 1.0
        with pytest.raises(InvalidInputError):
            biot_savart(SpectralField(g, coeffs))


class TestLerayAndAdvection:
    def test_leray_removes_gradient_part(self):
        g = grid64()
        f = random_scalar_field(g, 2.0, 1.0, (5, 6))
        grad = gradient(f)
        projected = leray_project(grad)
        assert lp_norm(to_physical(projected), 2) < 1e-11

    def test_leray_idempotent(self):
        g = grid64()
        v = VectorField(
            random_scalar_field(g, 2.0, 1.0, (7, 8)),
            random_scalar_field(g, 2.0, 1.0, (9, 10)),
        )
        once = leray_project(v)
        twice = leray_project(once)
        assert np.max(np.abs(once.x1.coeffs - twice.x1.coeffs)) < 1e-13
        assert np.max(np.abs(once.x2.coeffs - twice.x2.coeffs)) < 1e-13

    def test_advect_by_unit_velocity_is_x1_derivative(self):
        g = grid64()
        ones = np.zeros((64, 64), dtype=complex)
        ones[0, 0] = 1.0
        zero = np.zeros((64, 64), dtype=complex)
        v = VectorField(SpectralField(g, ones), SpectralField(g, zero))
        f = spectral_sin(g, 3)
        adv = advect(to_physical(v), f)
        expected = dealias(partial_derivative(f, 0))
        assert np.max(np.abs(adv.coeffs - expected.coeffs)) < 1e-13

    def test_advect_rejects_a_velocity_that_is_not_physical_on_the_grid_of_f(self):
        g = grid64()
        v = random_divfree_velocity(g, 2.0, 1.0, (11,))
        f = random_scalar_field(g, 2.0, 1.0, (12,))
        foreign = to_physical(random_divfree_velocity(Grid(32), 2.0, 1.0, (11,)))
        mixed = VectorField(to_physical(v).x1, v.x2)
        for bad in (v, mixed, foreign):
            with pytest.raises(InvalidInputError, match="physical velocity on the grid of f"):
                advect(bad, f)

    def test_unchecked_operators_match_the_checked_transform_bit_for_bit(self):
        g = grid64()
        v = random_divfree_velocity(g, 2.0, 1.0, (11,))
        f = random_scalar_field(g, 2.0, 1.0, (12,))
        v1, v2 = (complex_samples(c) for c in v.components())
        f1, f2 = (complex_samples(partial_derivative(f, a)) for a in (0, 1))
        expected = dealias(forward_transform(PhysicalField(g, v1 * f1 + v2 * f2)))
        vp = VectorField(PhysicalField(g, v1), PhysicalField(g, v2))
        assert np.array_equal(advect(vp, f).coeffs, expected.coeffs)
        assert grid_max_velocity(v) == float(np.max(np.hypot(v1, v2)))
        # each derivative is sampled by the half-spectrum transform along its own axis
        derivs = [half_spectrum_samples(partial_derivative(c, a), a)
                  for c in v.components() for a in (0, 1)]
        assert max_gradient(v) == max(float(np.max(np.abs(d))) for d in derivs)
        frobenius = PhysicalField(g, np.sqrt(sum(d * d for d in derivs)))
        for p in (2.0, 3.0, math.inf):
            assert gradient_lp_norm(v, p) == lp_norm(frobenius, p)

    def test_dealias_zeroes_high_modes_only(self):
        g = grid64()
        coeffs = np.zeros((64, 64), dtype=complex)
        coeffs[21, 0] = 1.0
        coeffs[43, 0] = 1.0  # k1 = -21
        coeffs[25, 0] = 1.0  # beyond n/3
        out = dealias(SpectralField(g, coeffs))
        assert out.coeffs[21, 0] == 1.0 and out.coeffs[43, 0] == 1.0
        assert out.coeffs[25, 0] == 0.0


class TestNorms:
    def test_l2_of_sine(self):
        g = grid64()
        x1, _ = g.nodes()
        assert lp_norm(PhysicalField(g, np.sin(x1)), 2) == pytest.approx(L2_SIN, rel=1e-13)

    def test_l4_of_sine(self):
        g = grid64()
        x1, _ = g.nodes()
        # int sin^4 x1 over the box = (3/4) pi * 2 pi
        expected = (1.5 * math.pi**2) ** 0.25
        assert lp_norm(PhysicalField(g, np.sin(x1)), 4) == pytest.approx(expected, rel=1e-13)
        # 1e100**4 overflows, yet the constant 1e100 has the finite L^4 norm
        # 1e100 * (4 pi^2)^(1/4) on the torus.
        big = PhysicalField(Grid(32), np.full((32, 32), 1e100))
        assert lp_norm(big, 4) == pytest.approx(2.5066282746310002e100, rel=1e-15)

    def test_linf_of_sine(self):
        g = grid64()
        x1, _ = g.nodes()
        assert lp_norm(PhysicalField(g, np.sin(x1)), math.inf) == pytest.approx(1.0, rel=1e-12)

    def test_lp_rejects_bad_exponent(self):
        g = grid64()
        with pytest.raises(ConfigurationError):
            lp_norm(PhysicalField(g, np.zeros((64, 64))), 0.5)

    def test_vector_lp_uses_pointwise_magnitude(self):
        g = grid64()
        x1, _ = g.nodes()
        v = VectorField(PhysicalField(g, np.sin(x1)), PhysicalField(g, np.cos(x1)))
        # |v| == 1 pointwise
        assert lp_norm(v, 2) == pytest.approx(2 * math.pi, rel=1e-13)
        assert lp_norm(v, math.inf) == pytest.approx(1.0, rel=1e-13)

    def test_parseval(self):
        g = grid64()
        f = random_scalar_field(g, 2.0, 1.0, (11, 12))
        phys = inverse_transform(f)
        assert lp_norm(phys, 2) == pytest.approx(sobolev_norm(f, 0.0), rel=1e-12)

    def test_sobolev_single_mode(self):
        g = grid64()
        f = spectral_sin(g, 3)
        assert sobolev_norm(f, 1.0, homogeneous=True) == pytest.approx(3 * L2_SIN, rel=1e-12)
        assert sobolev_norm(f, 1.0) == pytest.approx(math.sqrt(10) * L2_SIN, rel=1e-12)

    def test_homogeneous_sobolev_ignores_mean(self):
        g = grid64()
        coeffs = np.zeros((64, 64), dtype=complex)
        coeffs[0, 0] = 5.0
        assert sobolev_norm(SpectralField(g, coeffs), 0.5, homogeneous=True) == 0.0

    def test_gradient_l2_matches_h1_seminorm(self):
        g = grid64()
        w = random_scalar_field(g, 2.5, 1.0, (13, 14))
        v = biot_savart(w)
        assert gradient_lp_norm(v, 2) == pytest.approx(
            vector_sobolev_norm(v, 1.0, homogeneous=True), rel=1e-11
        )

    def test_max_gradient_of_shear(self):
        g = grid64()
        v = biot_savart(spectral_sin(g, 1))
        # v = (0, -cos x1), so the only gradient entry is sin x1
        assert max_gradient(v) == pytest.approx(1.0, rel=1e-12)

    def test_grid_max_velocity(self):
        g = grid64()
        v = biot_savart(spectral_sin(g, 1))
        assert grid_max_velocity(v) == pytest.approx(1.0, rel=1e-12)

    def test_integrate_sine_squared(self):
        g = grid64()
        x1, _ = g.nodes()
        val = integrate(PhysicalField(g, np.sin(x1) ** 2))
        assert val == pytest.approx(2 * math.pi**2, rel=1e-13)

    @GRADIENT_NORMS
    def test_gradient_norms_check_each_velocity_component_once(self, norm, symmetry_checks):
        v = random_divfree_velocity(grid64(), 2.0, 1.0, (13,))
        norm(v)
        assert [id(f) for f in symmetry_checks] == [id(v.x1), id(v.x2)]

    @GRADIENT_NORMS
    @pytest.mark.parametrize("broken", [0, 1])
    def test_gradient_norms_reject_broken_symmetry(self, norm, broken):
        g = grid64()
        coeffs = np.zeros((64, 64), dtype=complex)
        coeffs[1, 0] = 1.0  # missing the conjugate partner at -1
        comps = list(random_divfree_velocity(g, 2.0, 1.0, (13,)).components())
        comps[broken] = SpectralField(g, coeffs)
        with pytest.raises(InvalidInputError, match="conjugate symmetry broken"):
            norm(VectorField(*comps))


class TestHalfLattice:
    @staticmethod
    def ring_by_ring(kmax):
        modes = []
        for ring in range(1, kmax + 1):
            ring_modes = [
                (k1, k2)
                for k1 in range(-ring, ring + 1)
                for k2 in range(-ring, ring + 1)
                if max(abs(k1), abs(k2)) == ring and (k1 > 0 or (k1 == 0 and k2 > 0))
            ]
            modes.extend(sorted(ring_modes))
        return np.array(modes, dtype=int)

    def test_matches_ring_by_ring_enumeration(self):
        for kmax in range(1, 7):
            k = self.ring_by_ring(kmax)
            k1, k2, mag = _half_lattice(kmax)
            for got, want in ((k1, k[:, 0]), (k2, k[:, 1]), (mag, np.hypot(k[:, 0], k[:, 1]))):
                assert got.dtype == want.dtype and np.array_equal(got, want), kmax


def white_noise(grid, seed):
    """A real field with every mode filled, the Nyquist row and column included."""
    samples = np.random.default_rng(seed).standard_normal((grid.n, grid.n))
    return forward_transform(PhysicalField(grid, samples))


def complex_commutator_riesz(v, theta):
    """`commutator_riesz` with every sample taken by the complex inverse FFT."""
    g = theta.grid
    th, rth = complex_samples(theta), complex_samples(riesz(theta))
    out = []
    for comp in v.components():
        vi = complex_samples(comp)
        first = riesz(dealias(forward_transform(PhysicalField(g, vi * th))))
        out.append(first - dealias(forward_transform(PhysicalField(g, vi * rth))))
    return VectorField(*out)


def assert_close(got, want):
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestRealEdge:
    """The checked edge samples by half-spectrum `irfft2`; it must match the complex path."""

    @pytest.mark.parametrize("n", [16, 48, 96, 256])
    def test_checked_edge_matches_the_complex_transform(self, n):
        g = Grid(n)
        smooth = (random_scalar_field(g, 2.0, 1.0, (81, n)), random_divfree_velocity(g, 2.0, 1.0, (82, n)))
        noise = (white_noise(g, n), VectorField(white_noise(g, n + 1), white_noise(g, n + 2)))
        for f, v in (smooth, noise):
            assert_close(inverse_transform(f).samples, complex_samples(f))
            for got, comp in zip(to_physical(v).components(), v.components()):
                assert_close(got.samples, complex_samples(comp))
            derivs = [complex_samples(partial_derivative(c, a)) for c in v.components() for a in (0, 1)]
            want = max(float(np.max(np.abs(d))) for d in derivs)
            assert max_gradient(v) == pytest.approx(want, rel=1e-12, abs=0)
            frobenius = PhysicalField(g, np.sqrt(sum(d * d for d in derivs)))
            for p in (2.0, 3.0, math.inf):
                assert gradient_lp_norm(v, p) == pytest.approx(lp_norm(frobenius, p), rel=1e-12, abs=0)
            got, want = commutator_riesz(v, f), complex_commutator_riesz(v, f)
            for a, b in zip(got.components(), want.components()):
                assert_close(a.coeffs, b.coeffs)

    def test_record_runs_one_complex_transform_and_the_step_stays_complex(self, fft_calls):
        g = Grid(128)
        omega, theta = (dealias(random_scalar_field(g, 2.0, 1.0, (4, k))) for k in (1, 2))
        state = step(SimState(0.0, omega, theta, 1.0), 1e-3)
        fft_calls.clear()
        DiagnosticsTracker().record(state)
        assert Counter(fft_calls) == {"ifft2": 1, "irfft2": 24}  # the complex one is theta
        fft_calls.clear()
        state = step(state, 1e-3)
        assert Counter(fft_calls) == {"ifft2": 24, "fft2": 8}
        fft_calls.clear()
        adaptive_dt(state, 0.5)
        assert fft_calls == ["ifft2"]


def rolled_defect(f):
    """`hermitian_defect` as written before the half-plane check: the full plane against
    its rolled mirror."""
    c = f.coeffs
    mirrored = np.conj(np.roll(c[::-1, ::-1], 1, axis=(0, 1)))
    scale = float(np.max(np.abs(c)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(c - mirrored))) / scale


def defect_case(name, n=48):
    g = Grid(n)
    f = white_noise(g, 5)
    c = f.coeffs
    if name == "asymmetric-nyquist-row":
        c[n // 2, 3] += 1e-3
    elif name == "asymmetric-everywhere":
        rng = np.random.default_rng(6)
        f.coeffs = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    elif name == "largest-in-the-lower-half":
        c[-5, 7] = 50.0  # its mirror stays small, and the scale is taken below row n/2
    elif name != "symmetric":
        c[n - 3, 5] = {"nan": np.nan, "inf": np.inf, "minus-inf": -np.inf,
                       "imaginary-inf": complex(0.0, np.inf)}[name]
    return f


class TestHalfPlaneDefect:
    @pytest.mark.parametrize("case", ["symmetric", "asymmetric-nyquist-row", "asymmetric-everywhere",
                                      "largest-in-the-lower-half", "nan", "inf", "minus-inf",
                                      "imaginary-inf"])
    def test_same_double_as_the_rolled_full_plane(self, case):
        f = defect_case(case)
        got, want = hermitian_defect(f), rolled_defect(f)
        assert got == want or (math.isnan(got) and math.isnan(want)), (got, want)
        assert math.isnan(got) == (case not in ("symmetric", "asymmetric-nyquist-row",
                                                "asymmetric-everywhere", "largest-in-the-lower-half"))


class TestNormRange:
    """Norms of fields near the ends of the double range, and in range to the bit."""

    @staticmethod
    def field():
        return random_scalar_field(Grid(32), 2.0, 1.0, (1,))

    @pytest.mark.parametrize("scale", [1e160, 1e-150, 1e-160])
    def test_norms_scale_exactly(self, scale):
        f = self.field()
        big = scale * f
        for p in (2, 3, 4):
            want = scale * lp_norm(inverse_transform(f), p)
            assert lp_norm(inverse_transform(big), p) == pytest.approx(want, rel=1e-12, abs=0)
            for r in (1, 2):
                spec = BesovSpec(0.0, p, r)
                want = scale * besov_norm(f, spec)
                assert besov_norm(big, spec) == pytest.approx(want, rel=1e-12, abs=0)
        for s, homogeneous in ((0.0, False), (1.0, False), (0.5, True)):
            want = scale * sobolev_norm(f, s, homogeneous)
            assert sobolev_norm(big, s, homogeneous) == pytest.approx(want, rel=1e-12, abs=0)

    def test_in_range_norms_keep_the_plain_expression_bit_for_bit(self):
        f = self.field()
        a = np.abs(inverse_transform(f).samples)
        for p in (2, 3, 4):
            assert lp_norm(inverse_transform(f), p) == float((np.sum(a**p) * f.grid.cell_area) ** (1.0 / p))
        power = np.abs(f.coeffs) ** 2
        w2s = (1.0 + f.grid.kmag**2) ** 0.5
        assert sobolev_norm(f, 0.5) == float(2.0 * np.pi * np.sqrt(np.sum(w2s * power)))


TRANSFORM_HELPERS = {"_samples": ["ifft2"], "_real_samples": ["irfft2"], "forward_transform": ["fft2"]}


def fft_calls_in(node):
    """Names of the `<module>.fft.<name>` transform calls under an AST node (not fftfreq)."""
    return [call.func.attr for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Attribute) and call.func.value.attr == "fft"
            and not call.func.attr.endswith(("freq", "shift"))]


class TestTransformLayer:
    def test_every_fft_call_sits_in_the_three_spectral_helpers(self):
        """A new caller of `numpy.fft` (a complex inverse, say) must go through spectral.py."""
        in_functions, total = {}, []
        for path in sorted(Path(bqsim.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    modules = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                    assert not any(m.startswith(("numpy.fft", "scipy")) or m == "fft"
                                   for m in modules), path.name
                if isinstance(node, ast.FunctionDef) and fft_calls_in(node):
                    in_functions[(path.name, node.name)] = fft_calls_in(node)
            total += fft_calls_in(tree)
        assert in_functions == {("spectral.py", name): calls for name, calls in TRANSFORM_HELPERS.items()}
        assert sorted(total) == sorted(sum(TRANSFORM_HELPERS.values(), []))  # none at module level
