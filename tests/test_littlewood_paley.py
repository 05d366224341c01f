"""Oracle tests for the dyadic filter bank, Besov norms, and paraproducts."""

import math

import numpy as np
import pytest

import bqsim.littlewood_paley
from bqsim import (
    BesovSpec,
    Grid,
    InvalidInputError,
    ConfigurationError,
    PhysicalField,
    SpectralField,
    VectorField,
    band_kernel,
    band_lp_norms,
    besov_norm,
    biot_savart,
    bony_decompose,
    build_filter_bank,
    commutator_block,
    commutator_riesz,
    dealias,
    dyadic_block,
    forward_transform,
    inverse_transform,
    lp_norm,
    mixed_time_besov_norm,
    partial_sum,
    riesz,
    smooth_transition,
)
from bqsim.fields import random_divfree_velocity, random_scalar_field
from bqsim.littlewood_paley import centered_radius

L2_SIN = 4.442882938158366


def single_mode(grid, k1, k2=0):
    coeffs = np.zeros((grid.n, grid.n), dtype=complex)
    coeffs[k1 % grid.n, k2 % grid.n] = -0.5j
    coeffs[-k1 % grid.n, -k2 % grid.n] = 0.5j
    return SpectralField(grid, coeffs)


class TestSmoothTransition:
    def test_plateau_and_support(self):
        r = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
        g = smooth_transition(r)
        assert np.all(g[:3] == 1.0)
        assert np.all(g[3:] == 0.0)

    def test_monotone_decreasing_on_transition(self):
        r = np.linspace(1.0, 2.0, 101)
        g = smooth_transition(r)
        assert np.all(np.diff(g) <= 1e-15)
        assert 0.0 < g[50] < 1.0


class TestFilterBank:
    def test_partition_of_unity_on_coefficients(self):
        g = Grid(128)
        bank = build_filter_bank(g)
        total = sum(mult for _, mult in bank.bands(homogeneous=False))
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_band_count(self):
        bank = build_filter_bank(Grid(128))
        # ceil(log2(64)) + 1 = 7 annular bands above the low-pass block
        assert bank.qmax == 7
        assert build_filter_bank(Grid(256)).qmax == 8

    def test_block_support_annulus(self):
        g = Grid(128)
        bank = build_filter_bank(g)
        mult = bank.block_multiplier(3)
        # phi_q is supported on the annulus 2^q < |k| < 2^{q+2}
        inside = g.kmag <= 2.0 ** 3
        outside = g.kmag >= 2.0 ** 5
        assert np.all(mult[inside] == 0.0)
        assert np.all(mult[outside] == 0.0)
        assert mult[16, 0] == pytest.approx(1.0)  # plateau at |k| = 2^{q+1}

    def test_block_multiplier_index_range(self):
        bank = build_filter_bank(Grid(64))
        with pytest.raises(InvalidInputError):
            bank.block_multiplier(-2)
        with pytest.raises(InvalidInputError):
            bank.block_multiplier(bank.qmax + 1)

    def test_partial_sum_telescopes(self):
        g = Grid(64)
        bank = build_filter_bank(g)
        f = random_scalar_field(g, 2.0, 1.0, (21, 1))
        for q in range(0, bank.qmax):
            lhs = partial_sum(f, q + 1, bank).coeffs
            rhs = partial_sum(f, q, bank).coeffs + dyadic_block(f, q, bank).coeffs
            assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_blocks_resum_to_field(self):
        g = Grid(64)
        bank = build_filter_bank(g)
        f = random_scalar_field(g, 2.0, 1.0, (22, 1))
        total = np.zeros_like(f.coeffs)
        for q in range(bank.qmin, bank.qmax + 1):
            total = total + dyadic_block(f, q, bank).coeffs
        assert np.max(np.abs(total - f.coeffs)) < 1e-12

    def test_homogeneous_bands_skip_the_mean(self):
        g = Grid(64)
        bank = build_filter_bank(g)
        for q, mult in bank.bands(homogeneous=True):
            assert mult[0, 0] == 0.0

    def test_homogeneous_low_band_covers_first_ring(self):
        g = Grid(64)
        bank = build_filter_bank(g)
        mults = dict(bank.bands(homogeneous=True))
        # |k| = 1 must be fully captured by the q = -1 annulus
        assert mults[-1][1, 0] == pytest.approx(1.0)


class TestBesovNorms:
    def test_single_band_besov(self):
        g = Grid(128)
        bank = build_filter_bank(g)
        f = single_mode(g, 8)  # |k| = 8 = 2^3 lands in band q = 2 exactly
        qs, norms = band_lp_norms(f, 2.0, bank)
        by_q = dict(zip(qs.tolist(), norms.tolist()))
        assert by_q[2] == pytest.approx(L2_SIN, rel=1e-12)
        assert sum(v > 1e-12 for v in by_q.values()) == 1
        for s in (-1.0, 0.0, 1.5):
            expected = 2.0 ** (2 * s) * L2_SIN
            assert besov_norm(f, BesovSpec(s, 2.0, math.inf), bank) == pytest.approx(
                expected, rel=1e-12
            )
            assert besov_norm(f, BesovSpec(s, 2.0, 1.0), bank) == pytest.approx(
                expected, rel=1e-12
            )

    def test_constant_field_besov(self):
        g = Grid(64)
        bank = build_filter_bank(g)
        coeffs = np.zeros((64, 64), dtype=complex)
        coeffs[0, 0] = 1.5
        f = SpectralField(g, coeffs)
        assert besov_norm(f, BesovSpec(0.0, 2.0, 1.0), bank) == pytest.approx(
            1.5 * 2 * math.pi, rel=1e-12
        )
        assert besov_norm(f, BesovSpec(0.0, 2.0, 1.0, homogeneous=True), bank) == 0.0

    def test_vector_besov_uses_euclidean_magnitude(self):
        g = Grid(64)
        bank = build_filter_bank(g)
        w = single_mode(g, 1)
        v = biot_savart(w)  # (0, -cos x1): single band, |v| = |cos x1|
        assert besov_norm(v, BesovSpec(0.0, math.inf, math.inf), bank) == pytest.approx(
            1.0, rel=1e-10
        )

    def test_besov_spec_validation(self):
        with pytest.raises(ConfigurationError):
            BesovSpec(0.0, 0.5, 2.0)
        with pytest.raises(ConfigurationError):
            BesovSpec(0.0, 2.0, 0.0)

    def test_ell_r_aggregation(self):
        g = Grid(128)
        bank = build_filter_bank(g)
        f = SpectralField(g, single_mode(g, 8).coeffs + single_mode(g, 32).coeffs)
        # bands q = 2 and q = 4, each of L2 size L2_SIN
        one = besov_norm(f, BesovSpec(0.0, 2.0, 1.0), bank)
        two = besov_norm(f, BesovSpec(0.0, 2.0, 2.0), bank)
        inf = besov_norm(f, BesovSpec(0.0, 2.0, math.inf), bank)
        assert one == pytest.approx(2 * L2_SIN, rel=1e-12)
        assert two == pytest.approx(math.sqrt(2) * L2_SIN, rel=1e-12)
        assert inf == pytest.approx(L2_SIN, rel=1e-12)

    def test_mixed_time_norm_against_hand_value(self):
        times = np.array([0.0, 1.0, 2.0])
        qs = np.array([0, 1])
        band_norms = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
        # constant in time: L^2 quadrature over [0, 2] gives sqrt(2) * value
        got = mixed_time_besov_norm(times, band_norms, qs, 1.0, 2.0, math.inf)
        assert got == pytest.approx(math.sqrt(2.0) * 4.0, rel=1e-12)
        got_inf = mixed_time_besov_norm(times, band_norms, qs, 0.0, math.inf, 1.0)
        assert got_inf == pytest.approx(3.0, rel=1e-12)


class TestBony:
    def test_parts_sum_to_dealiased_product(self):
        g = Grid(64)
        bank = build_filter_bank(g)
        u = random_scalar_field(g, 2.0, 1.0, (31, 1))
        w = random_scalar_field(g, 1.5, 1.0, (31, 2))
        t_uw, t_wu, remainder = bony_decompose(u, w, bank)
        product = dealias(
            forward_transform(
                PhysicalField(
                    g, inverse_transform(u).samples * inverse_transform(w).samples
                )
            )
        )
        total = t_uw.coeffs + t_wu.coeffs + remainder.coeffs
        scale = np.max(np.abs(product.coeffs))
        assert np.max(np.abs(total - product.coeffs)) < 1e-12 * max(scale, 1.0)

    def test_paraproduct_of_separated_modes(self):
        g = Grid(128)
        bank = build_filter_bank(g)
        u = single_mode(g, 1)       # low frequency
        w = single_mode(g, 0, 16)   # high frequency, well separated
        t_uw, t_wu, remainder = bony_decompose(u, w, bank)
        # low-times-high lands entirely in T_u w
        assert lp_norm(inverse_transform(t_uw), 2) > 1e-1
        assert lp_norm(inverse_transform(t_wu), 2) < 1e-12
        assert lp_norm(inverse_transform(remainder), 2) < 1e-12


class TestCommutators:
    def test_riesz_commutator_vanishes_for_constant_velocity(self):
        g = Grid(64)
        ones = np.zeros((64, 64), dtype=complex)
        ones[0, 0] = 1.0
        zero = np.zeros((64, 64), dtype=complex)
        v = VectorField(SpectralField(g, ones), SpectralField(g, 0.5 * ones + zero))
        theta = random_scalar_field(g, 2.0, 1.0, (41, 1))
        comm = commutator_riesz(v, theta)
        assert lp_norm(inverse_transform(comm.x1), 2) < 1e-12
        assert lp_norm(inverse_transform(comm.x2), 2) < 1e-12

    def test_riesz_commutator_matches_direct_evaluation(self):
        g = Grid(64)
        v = random_divfree_velocity(g, 2.5, 1.0, (42,))
        theta = random_scalar_field(g, 2.0, 1.0, (42, 9))
        comm = commutator_riesz(v, theta)
        theta_phys = inverse_transform(theta).samples
        rtheta_phys = inverse_transform(riesz(theta)).samples
        for comp, vel in zip(comm.components(), v.components()):
            vel_phys = inverse_transform(vel).samples
            direct = riesz(
                dealias(forward_transform(PhysicalField(g, vel_phys * theta_phys)))
            ).coeffs - dealias(
                forward_transform(PhysicalField(g, vel_phys * rtheta_phys))
            ).coeffs
            assert np.max(np.abs(comp.coeffs - direct)) < 1e-13

    def test_block_commutator_vanishes_for_constant_velocity(self):
        g = Grid(64)
        bank = build_filter_bank(g)
        ones = np.zeros((64, 64), dtype=complex)
        ones[0, 0] = 2.0
        zero = np.zeros((64, 64), dtype=complex)
        v = VectorField(SpectralField(g, ones), SpectralField(g, zero))
        f = random_scalar_field(g, 2.0, 1.0, (43, 1))
        comm = commutator_block(v, f, 2, bank)
        assert lp_norm(inverse_transform(comm), 2) < 1e-12


class TestBandKernel:
    def test_kernel_convolution_realizes_the_block(self):
        g = Grid(64)
        bank = build_filter_bank(g)
        f = random_scalar_field(g, 2.0, 1.0, (51, 1))
        q = 2
        kernel = band_kernel(bank, q)
        f_phys = inverse_transform(f).samples
        cell = (2 * np.pi / g.n) ** 2
        conv = np.real(np.fft.ifft2(np.fft.fft2(kernel.samples) * np.fft.fft2(f_phys))) * cell
        block = inverse_transform(dyadic_block(f, q, bank)).samples
        assert np.max(np.abs(conv - block)) < 1e-12

    def test_kernel_has_unit_band_mass_profile(self):
        g = Grid(64)
        bank = build_filter_bank(g)
        kernel = band_kernel(bank, 3)
        # Fourier coefficients of the kernel reproduce the multiplier
        coeffs = np.fft.fft2(kernel.samples) / (g.n * g.n) * (2 * np.pi) ** 2
        assert np.max(np.abs(coeffs - bank.block_multiplier(3))) < 1e-12

    def test_centered_radius_folds_coordinates(self):
        g = Grid(64)
        r = centered_radius(g)
        assert r[0, 0] == 0.0
        assert r[32, 0] == pytest.approx(math.pi)
        assert r[32, 32] == pytest.approx(math.pi * math.sqrt(2))
        assert r[1, 0] == pytest.approx(2 * math.pi / 64)
        assert r[-1, 0] == pytest.approx(2 * math.pi / 64)


BINF1 = BesovSpec(0.0, math.inf, 1.0)

#: name -> (operator on the inputs (u, w, v, bank), the inputs it checks)
OPERATORS = {
    "besov-scalar": (lambda u, w, v, bank: besov_norm(u, BINF1, bank), lambda u, w, v: [u]),
    "besov-vector": (
        lambda u, w, v, bank: besov_norm(v, BINF1, bank), lambda u, w, v: [v.x1, v.x2]
    ),
    "bony": (lambda u, w, v, bank: bony_decompose(u, w, bank), lambda u, w, v: [u, w]),
    "commutator-riesz": (
        lambda u, w, v, bank: commutator_riesz(v, u), lambda u, w, v: [u, v.x1, v.x2]
    ),
}


def operator_inputs():
    g = Grid(64)
    u = random_scalar_field(g, 2.0, 1.0, (61, 1))
    w = random_scalar_field(g, 1.5, 1.0, (61, 2))
    return u, w, random_divfree_velocity(g, 2.5, 1.0, (61,)), build_filter_bank(g)


def broken_field(grid):
    coeffs = np.zeros((grid.n, grid.n), dtype=complex)
    coeffs[1, 0] = 1.0  # missing the conjugate partner at -1
    return SpectralField(grid, coeffs)


def result_arrays(result):
    if isinstance(result, SpectralField):
        return [result.coeffs]
    if isinstance(result, (tuple, VectorField)):
        parts = result.components() if isinstance(result, VectorField) else result
        return [a for part in parts for a in result_arrays(part)]
    return [np.asarray(result)]


class TestSymmetryCheckedOncePerInput:
    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_each_input_is_checked_once(self, name, symmetry_checks):
        u, w, v, bank = operator_inputs()
        operator, checked = OPERATORS[name]
        operator(u, w, v, bank)
        assert [id(f) for f in symmetry_checks] == [id(f) for f in checked(u, w, v)]

    @pytest.mark.parametrize(
        "call",
        [
            lambda f, bad, v, bank: besov_norm(bad, BINF1, bank),
            lambda f, bad, v, bank: besov_norm(VectorField(v.x1, bad), BINF1, bank),
            lambda f, bad, v, bank: band_lp_norms(bad, 2.0, bank, homogeneous=True),
            lambda f, bad, v, bank: bony_decompose(bad, f, bank),
            lambda f, bad, v, bank: bony_decompose(f, bad, bank),
            lambda f, bad, v, bank: commutator_riesz(v, bad),
            lambda f, bad, v, bank: commutator_riesz(VectorField(bad, v.x2), f),
        ],
        ids=["besov-scalar", "besov-vector", "band-lp-norms", "bony-u", "bony-w",
             "commutator-riesz-theta", "commutator-riesz-v"],
    )
    def test_broken_input_is_rejected(self, call):
        u, _, v, bank = operator_inputs()
        with pytest.raises(InvalidInputError, match="conjugate symmetry broken"):
            call(u, broken_field(u.grid), v, bank)

    @pytest.mark.parametrize(
        "call",
        [
            lambda u, w, v, bank: band_lp_norms(u, 3.0, bank),
            lambda u, w, v, bank: band_lp_norms(v, math.inf, bank, homogeneous=True),
            lambda u, w, v, bank: bony_decompose(u, w, bank),
            lambda u, w, v, bank: commutator_riesz(v, u),
        ],
        ids=["band-norms-scalar", "band-norms-vector", "bony", "commutator-riesz"],
    )
    def test_unchecked_bands_match_the_checked_transform_bit_for_bit(self, call, monkeypatch):
        inputs = operator_inputs()
        fast = result_arrays(call(*inputs))
        monkeypatch.setattr(
            bqsim.littlewood_paley, "_samples", lambda f: inverse_transform(f).samples
        )
        checked = result_arrays(call(*inputs))
        assert len(fast) == len(checked)
        assert all(np.array_equal(a, b) for a, b in zip(fast, checked))
