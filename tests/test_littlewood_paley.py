"""Oracle tests for the dyadic filter bank, Besov norms, and paraproducts."""

import math

import numpy as np
import pytest

import bqsim.littlewood_paley
import oracle
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
from bqsim.littlewood_paley import DyadicFilterBank, _band_samples, centered_radius

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
        # ceil(log2(64)) = 6 annular bands q = 0..6 above the low-pass block: 2^7 >= n exceeds every |k|
        assert bank.qmax == 6
        assert build_filter_bank(Grid(256)).qmax == 7

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
            lhs = partial_sum(f, q + 1).coeffs
            rhs = partial_sum(f, q).coeffs + dyadic_block(f, q).coeffs
            assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_blocks_resum_to_field(self):
        g = Grid(64)
        bank = build_filter_bank(g)
        f = random_scalar_field(g, 2.0, 1.0, (22, 1))
        total = np.zeros_like(f.coeffs)
        for q in range(bank.qmin, bank.qmax + 1):
            total = total + dyadic_block(f, q).coeffs
        assert np.max(np.abs(total - f.coeffs)) < 1e-12

    @pytest.mark.parametrize("n", [16, 48, 98, 128])
    @pytest.mark.parametrize("homogeneous", [False, True])
    def test_each_band_is_zero_from_its_column_bound_on(self, n, homogeneous):
        """`_band_samples` forms band q over the half-spectrum columns below `columns[q]` only."""
        bank = build_filter_bank(Grid(n))
        for q, mult in bank.bands(homogeneous):
            assert bank.columns[q] == min(2 ** (q + 2), n // 2 + 1)
            assert not mult[:, bank.columns[q] : n // 2 + 1].any(), q

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


class TestBankFromGrid:
    """Every band operator uses the bank of its own field's grid."""

    def test_band_indices_follow_each_grid_in_one_process(self):
        for n, qmax in ((32, 4), (64, 5), (32, 4)):
            f = random_scalar_field(Grid(n), 2.0, 1.0, (23, n))
            qs, _ = band_lp_norms(f, 2.0)
            assert np.array_equal(qs, np.arange(-1, qmax + 1))

    def test_operators_match_a_freshly_built_bank_bit_for_bit(self):
        g = Grid(64)
        fresh = DyadicFilterBank(Grid(64))
        f = random_scalar_field(g, 2.0, 1.0, (24, 1))
        for q in range(fresh.qmin, fresh.qmax + 1):
            mult = fresh.block_multiplier(q)
            assert np.array_equal(dyadic_block(f, q).coeffs, f.coeffs * mult)
            kernel = inverse_transform(SpectralField(g, mult.astype(complex) / (2.0 * np.pi) ** 2))
            assert np.array_equal(band_kernel(g, q).samples, kernel.samples)
        for q in range(0, fresh.qmax + 2):
            expected = f.coeffs * smooth_transition(g.kmag / 2.0**q)
            assert np.array_equal(partial_sum(f, q).coeffs, expected)

    def test_bony_rejects_fields_on_different_grids(self):
        u = random_scalar_field(Grid(32), 2.0, 1.0, (25, 1))
        w = random_scalar_field(Grid(64), 2.0, 1.0, (25, 2))
        with pytest.raises(InvalidInputError, match="different grids"):
            bony_decompose(u, w)


class TestBesovNorms:
    def test_single_band_besov(self):
        g = Grid(128)
        f = single_mode(g, 8)  # |k| = 8 = 2^3 lands in band q = 2 exactly
        qs, norms = band_lp_norms(f, 2.0)
        by_q = dict(zip(qs.tolist(), norms.tolist()))
        assert by_q[2] == pytest.approx(L2_SIN, rel=1e-12)
        assert sum(v > 1e-12 for v in by_q.values()) == 1
        for s in (-1.0, 0.0, 1.5):
            expected = 2.0 ** (2 * s) * L2_SIN
            assert besov_norm(f, BesovSpec(s, 2.0, math.inf)) == pytest.approx(
                expected, rel=1e-12
            )
            assert besov_norm(f, BesovSpec(s, 2.0, 1.0)) == pytest.approx(
                expected, rel=1e-12
            )

    def test_constant_field_besov(self):
        g = Grid(64)
        coeffs = np.zeros((64, 64), dtype=complex)
        coeffs[0, 0] = 1.5
        f = SpectralField(g, coeffs)
        assert besov_norm(f, BesovSpec(0.0, 2.0, 1.0)) == pytest.approx(
            1.5 * 2 * math.pi, rel=1e-12
        )
        assert besov_norm(f, BesovSpec(0.0, 2.0, 1.0, homogeneous=True)) == 0.0

    def test_vector_besov_uses_euclidean_magnitude(self):
        g = Grid(64)
        w = single_mode(g, 1)
        v = biot_savart(w)  # (0, -cos x1): single band, |v| = |cos x1|
        assert besov_norm(v, BesovSpec(0.0, math.inf, math.inf)) == pytest.approx(
            1.0, rel=1e-10
        )

    def test_besov_spec_validation(self):
        with pytest.raises(ConfigurationError):
            BesovSpec(0.0, 0.5, 2.0)
        with pytest.raises(ConfigurationError):
            BesovSpec(0.0, 2.0, 0.0)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_besov_spec_rejects_non_finite_regularity(self, s):
        with pytest.raises(ConfigurationError, match="regularity s"):
            BesovSpec(s, 2.0, 2.0)

    def test_ell_r_aggregation(self):
        g = Grid(128)
        f = SpectralField(g, single_mode(g, 8).coeffs + single_mode(g, 32).coeffs)
        # bands q = 2 and q = 4, each of L2 size L2_SIN
        one = besov_norm(f, BesovSpec(0.0, 2.0, 1.0))
        two = besov_norm(f, BesovSpec(0.0, 2.0, 2.0))
        inf = besov_norm(f, BesovSpec(0.0, 2.0, math.inf))
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

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_mixed_time_norm_scales_exactly_near_the_ends_of_the_double_range(self, scale):
        # constant in time over [0, 1], s = 0: sqrt(3) * value for rho = r = 2
        got = mixed_time_besov_norm(np.array([0.0, 1.0]), np.full((2, 3), scale),
                                    np.array([-1, 0, 1]), 0.0, 2.0, 2.0)
        assert got == pytest.approx(math.sqrt(3.0) * scale, rel=1e-12, abs=0)
        times, qs = np.array([0.0, 0.5, 2.0]), np.array([-1, 0, 1])
        band_norms = np.array([[1.0, 2.0, 0.5], [3.0, 1.0, 0.25], [2.0, 4.0, 1.0]])
        for rho, r in ((2.0, 2.0), (1.0, 3.0), (math.inf, 2.0), (3.0, math.inf)):
            want = scale * mixed_time_besov_norm(times, band_norms, qs, 0.5, rho, r)
            got = mixed_time_besov_norm(times, scale * band_norms, qs, 0.5, rho, r)
            assert got == pytest.approx(want, rel=1e-12, abs=0)


class TestBony:
    def test_parts_sum_to_dealiased_product(self):
        g = Grid(64)
        u = random_scalar_field(g, 2.0, 1.0, (31, 1))
        w = random_scalar_field(g, 1.5, 1.0, (31, 2))
        t_uw, t_wu, remainder = bony_decompose(u, w)
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
        u = single_mode(g, 1)       # low frequency
        w = single_mode(g, 0, 16)   # high frequency, well separated
        t_uw, t_wu, remainder = bony_decompose(u, w)
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
        ones = np.zeros((64, 64), dtype=complex)
        ones[0, 0] = 2.0
        zero = np.zeros((64, 64), dtype=complex)
        v = VectorField(SpectralField(g, ones), SpectralField(g, zero))
        f = random_scalar_field(g, 2.0, 1.0, (43, 1))
        comm = commutator_block(v, f, 2)
        assert lp_norm(inverse_transform(comm), 2) < 1e-12


class TestBandKernel:
    def test_kernel_convolution_realizes_the_block(self):
        g = Grid(64)
        f = random_scalar_field(g, 2.0, 1.0, (51, 1))
        q = 2
        kernel = band_kernel(g, q)
        f_phys = inverse_transform(f).samples
        # torus convolution multiplies Fourier-series coefficients by (2 pi)^2
        conv = oracle.ifft2(oracle.fft2(kernel.samples) * oracle.fft2(f_phys)) * (2 * np.pi) ** 2
        block = inverse_transform(dyadic_block(f, q)).samples
        assert np.max(np.abs(conv - block)) < 1e-12

    def test_kernel_has_unit_band_mass_profile(self):
        g = Grid(64)
        bank = build_filter_bank(g)
        kernel = band_kernel(g, 3)
        # Fourier coefficients of the kernel reproduce the multiplier
        coeffs = oracle.fft2(kernel.samples) * (2 * np.pi) ** 2
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

#: name -> operator on the inputs (u, w, v)
OPERATORS = {
    "besov-scalar": lambda u, w, v: besov_norm(u, BINF1),
    "besov-vector": lambda u, w, v: besov_norm(v, BINF1),
    "bony": lambda u, w, v: bony_decompose(u, w),
    "commutator-riesz": lambda u, w, v: commutator_riesz(v, u),
}


def operator_inputs():
    g = Grid(64)
    u = random_scalar_field(g, 2.0, 1.0, (61, 1))
    w = random_scalar_field(g, 1.5, 1.0, (61, 2))
    return u, w, random_divfree_velocity(g, 2.5, 1.0, (61,))


def broken_field(grid):
    coeffs = np.zeros((grid.n, grid.n), dtype=complex)
    coeffs[1, 0] = 1.0  # missing the conjugate partner at -1
    return SpectralField(grid, coeffs)


def checked_samples(c):
    """`inverse_transform` of the field that `_real_samples(c)` samples (columns 0..n/2, zero
    beyond a narrower c), so the check sees every line it reads."""
    n = c.shape[0]
    half = np.zeros((n, n // 2 + 1), dtype=complex)
    half[:, : c.shape[1]] = c[:, : n // 2 + 1]
    return inverse_transform(SpectralField(Grid(n), oracle.hermitian_completion(half))).samples


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
        """When it is built from outside data; the operator checks none of its inputs again."""
        drawn_u, drawn_w, drawn_v = operator_inputs()
        u, w, v1, v2 = (SpectralField(f.grid, f.coeffs)
                        for f in (drawn_u, drawn_w, *drawn_v.components()))
        v = VectorField(v1, v2)
        OPERATORS[name](u, w, v)
        assert [id(c) for c in symmetry_checks] == [id(f.coeffs) for f in (u, w, v.x1, v.x2)]

    @pytest.mark.parametrize(
        "call",
        [
            lambda f, bad, v: besov_norm(bad, BINF1),
            lambda f, bad, v: besov_norm(VectorField(v.x1, bad), BINF1),
            lambda f, bad, v: band_lp_norms(bad, 2.0, homogeneous=True),
            lambda f, bad, v: bony_decompose(bad, f),
            lambda f, bad, v: bony_decompose(f, bad),
            lambda f, bad, v: commutator_riesz(v, bad),
            lambda f, bad, v: commutator_riesz(VectorField(bad, v.x2), f),
        ],
        ids=["besov-scalar", "besov-vector", "band-lp-norms", "bony-u", "bony-w",
             "commutator-riesz-theta", "commutator-riesz-v"],
    )
    def test_broken_input_is_rejected(self, call):
        """When the broken field is built, before the operator runs."""
        u, _, v = operator_inputs()
        with pytest.raises(InvalidInputError, match="conjugate symmetry broken"):
            call(u, broken_field(u.grid), v)

    @pytest.mark.parametrize(
        "call",
        [
            lambda u, w, v: band_lp_norms(u, 3.0),
            lambda u, w, v: band_lp_norms(v, math.inf, homogeneous=True),
            lambda u, w, v: bony_decompose(u, w),
            lambda u, w, v: commutator_riesz(v, u),
        ],
        ids=["band-norms-scalar", "band-norms-vector", "bony", "commutator-riesz"],
    )
    def test_unchecked_bands_match_the_checked_transform_bit_for_bit(self, call, monkeypatch):
        inputs = operator_inputs()
        fast = result_arrays(call(*inputs))
        monkeypatch.setattr(bqsim.littlewood_paley, "_real_samples", checked_samples)
        checked = result_arrays(call(*inputs))
        assert len(fast) == len(checked)
        assert all(np.array_equal(a, b) for a, b in zip(fast, checked))


def band_fields(n):
    """A scalar and a vector field up to the dealiasing cutoff, and white noise in every mode."""
    g = Grid(n)
    noise = forward_transform(PhysicalField(g, np.random.default_rng(n).standard_normal((n, n))))
    fields = (random_scalar_field(g, 2.0, 1.0, (71, n)), random_divfree_velocity(g, 2.5, 1.0, (72, n)))
    return g, fields + (noise,)


def oracle_band(f, mult):
    """The band of f under `mult` (`dyadic_block`, or the homogeneous low annulus), sampled
    by the oracle's full-plane complex inverse transform."""
    if isinstance(f, VectorField):
        return VectorField(*(oracle_band(c, mult) for c in f.components()))
    return PhysicalField(f.grid, oracle.ifft2(f.coeffs * mult))


def oracle_band_samples(f, homogeneous=False):
    """`_band_samples` by the oracle: each band's full-plane product, sampled by numpy's
    `irfft2` of every column 0..n/2."""
    comps = f.components() if isinstance(f, VectorField) else (f,)
    for q, mult in build_filter_bank(f.grid).bands(homogeneous):
        bands = [PhysicalField(f.grid, oracle.irfft2(c.coeffs * mult)) for c in comps]
        yield q, VectorField(*bands) if isinstance(f, VectorField) else bands[0]


class TestBandLayer:
    """Parseval band norms at p = 2 and half-spectrum `irfft2` bands otherwise."""

    @pytest.mark.parametrize("n", [16, 48, 96, 98, 128])
    def test_band_operators_match_the_oracle_band_loop_to_the_byte(self, n, monkeypatch):
        """Bands are formed over their columns and sampled over the columns they occupy, none
        for the top band of a dealiased field; white noise occupies every column."""
        _, (f, v, noise) = band_fields(n)
        fields = (f, v, noise, dealias(noise), VectorField(noise, dealias(noise)))
        calls = [lambda g=g, p=p, h=h: band_lp_norms(g, p, h)
                 for g in fields for p in (1.0, 3.0, math.inf) for h in (False, True)]
        calls += [lambda g=g, r=r: besov_norm(g, BesovSpec(0.5, math.inf, r))
                  for g in fields for r in (1.0, 2.0)]
        calls += [lambda a=a, b=b: bony_decompose(a, b) for a in (f, noise, dealias(noise)) for b in (f, noise)]
        fast = [[a.tobytes() for a in result_arrays(call())] for call in calls]
        monkeypatch.setattr(bqsim.littlewood_paley, "_band_samples", oracle_band_samples)
        assert fast == [[a.tobytes() for a in result_arrays(call())] for call in calls]

    @pytest.mark.parametrize("n", [16, 48, 96, 256])
    @pytest.mark.parametrize("homogeneous", [False, True])
    def test_parseval_norms_match_sampled_bands(self, n, homogeneous):
        g, fields = band_fields(n)
        for f in fields:
            qs, norms = band_lp_norms(f, 2, homogeneous)
            bands = list(build_filter_bank(g).bands(homogeneous))
            assert qs.tolist() == [q for q, _ in bands]
            for norm, (_, mult) in zip(norms, bands):
                assert norm == pytest.approx(lp_norm(oracle_band(f, mult), 2), rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [16, 48, 96, 256])
    @pytest.mark.parametrize("homogeneous", [False, True])
    def test_half_spectrum_bands_match_the_oracle_transform(self, n, homogeneous):
        g, fields = band_fields(n)
        for f in fields:
            bands = dict(build_filter_bank(g).bands(homogeneous))
            for q, band in _band_samples(f, homogeneous):
                expected = oracle_band(f, bands[q])
                pairs = (
                    zip(band.components(), expected.components())
                    if isinstance(f, VectorField) else [(band, expected)]
                )
                for got, want in pairs:
                    err = np.max(np.abs(got.samples - want.samples))
                    assert err <= 1e-12 * np.max(np.abs(want.samples))

    @pytest.mark.parametrize(
        "corrupt, message",
        [(lambda c: c.__setitem__((1, 0), c[1, 0] + 1.0), "conjugate symmetry broken"),
         (lambda c: c.__setitem__((3, 5), math.nan), "non-finite")],
        ids=["asymmetric", "nan"],
    )
    @pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
    def test_parseval_path_rejects_bad_input(self, corrupt, message, vector):
        _, (f, v, _) = band_fields(32)
        c = f.coeffs.copy()
        corrupt(c)
        with pytest.raises(InvalidInputError, match=message):
            bad = SpectralField(f.grid, c)  # built, so no norm ever sees it
            besov_norm(VectorField(v.x1, bad) if vector else bad, BesovSpec(0.0, 2.0, math.inf))

    @pytest.mark.parametrize("scale", [1e160, 1e-160])
    def test_parseval_path_neither_overflows_nor_underflows(self, scale):
        _, fields = band_fields(32)
        for f in fields:
            scaled = VectorField(f.x1 * scale, f.x2 * scale) if isinstance(f, VectorField) else f * scale
            for homogeneous in (False, True):
                for r in (1.0, math.inf):
                    spec = BesovSpec(0.5, 2.0, r, homogeneous)
                    got = besov_norm(scaled, spec)
                    assert math.isfinite(got)
                    assert got == pytest.approx(scale * besov_norm(f, spec), rel=1e-12, abs=0)
