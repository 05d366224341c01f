"""Oracle tests for the Fourier core: transforms, multipliers, norms."""

import ast
import builtins
import copy
import dataclasses
import math
import pickle
import weakref
from pathlib import Path

import numpy as np
import pytest

import bqsim
import bqsim.cli
import oracle
from bqsim import (
    BesovSpec,
    BlowUpError,
    CheckpointError,
    DiagnosticsTracker,
    Grid,
    InvalidInputError,
    ConfigurationError,
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
    make_initial_data,
    max_gradient,
    parse_config,
    partial_derivative,
    riesz,
    sobolev_norm,
    step,
    to_physical,
    vector_sobolev_norm,
)
from bqsim.errors import NonFiniteError
from bqsim.fields import _half_lattice, _scatter, random_divfree_velocity, random_scalar_field
from bqsim.runner import adaptive_dt
from bqsim.spectral import _components, _parseval, _real_samples, _samples, dealiased_transform, hermitian_defect
from bqsim.verify import SUITES, EnsembleSpec, _lp

# ||sin x1||_{L^2([0,2pi)^2)} = sqrt(2 pi^2) = pi sqrt(2)
L2_SIN = 4.442882938158366


GRADIENT_NORMS = pytest.mark.parametrize(
    "norm",
    [max_gradient, lambda v: gradient_lp_norm(v, 3.0)],
    ids=["max_gradient", "gradient_lp_norm"],
)


def grid64():
    return Grid(64)


def spectral_sin(grid, k, axis=0):
    x1, x2 = grid.nodes()
    x = x1 if axis == 0 else x2
    return forward_transform(grid, np.sin(k * x))


def white_noise(grid, seed):
    """A real field with every mode filled, the Nyquist row and column included."""
    samples = np.random.default_rng(seed).standard_normal((grid.n, grid.n))
    return forward_transform(grid, samples)


PASS_SIZES, PASS_CASES = [16, 48, 50, 64, 256], ["dealiased", "one-mode-past-the-cut", "white-noise"]


def pass_coeffs(g, case):
    """Dealiased noise, the same with one mode pair past the cut, or white noise."""
    c = dealias(white_noise(g, g.n)).coeffs.copy()
    if case == "one-mode-past-the-cut":
        c[g.kmax + 1, 2] = 0.25 - 0.5j
        c[-g.kmax - 1, -2] = 0.25 + 0.5j
    elif case == "white-noise":
        c = white_noise(g, g.n + 1).coeffs
    return c


class TestGrid:
    def test_rejects_odd_size(self):
        with pytest.raises(ConfigurationError):
            Grid(65)

    def test_rejects_small_size(self):
        with pytest.raises(ConfigurationError):
            Grid(8)

    def test_rejects_non_integer_size_and_takes_numpy_integers(self):
        with pytest.raises(ConfigurationError):
            Grid(64.5)
        for bad in ("32", None, [32]):  # before, "32" raised TypeError from string formatting
            with pytest.raises(ConfigurationError, match="grid size n must be an even integer"):
                Grid(bad)
        g = Grid(np.int64(64))
        assert g.n == 64 and type(g.n) is int

    def test_multipliers_are_built_on_first_read_and_kept(self):
        g = Grid(1024)
        square = [k for k, v in vars(g).items() if np.shape(v) == (1024, 1024)]
        assert square == []
        for name in ("kmag", "inv_ksq", "riesz_mult"):
            first = getattr(g, name)
            assert getattr(g, name) is first and vars(g)[name] is first

    def test_one_live_grid_per_size(self):
        """`Grid(n)` is the live grid of size n while anything holds one, so its multipliers
        are built once; when none is held, the next `Grid(n)` is a fresh one."""
        g = Grid(1018)
        assert Grid(1018) is g and Grid(np.int64(1018)) is g and Grid(1018.0) is g
        assert copy.deepcopy(g) is g and pickle.loads(pickle.dumps(g)) is g and Grid(1016) != g
        assert g.kmag is Grid(1018).kmag
        gone = weakref.ref(g)
        del g
        assert gone() is None
        assert "kmag" not in vars(Grid(1018))

    def test_shared_arrays_are_read_only(self):
        """Every user of a size shares its grid, filter bank and draws' lattice, so a write in
        place raises rather than changing what the next user reads."""
        g = Grid(32)
        bank = bqsim.build_filter_bank(g)
        arrays = [g.k1, g.k2, g.k1_odd, g.k2_odd, g.x, g.kmag, g.inv_ksq, g.riesz_mult,
                  *g.block_k, *g.block_mults, bank.chi, bank.phi_low_annulus, *bank.phi,
                  *_scatter(g.kmax, 2.0)]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[(1,) * a.ndim] = 99
        assert Grid(32).kmag[1, 1] == math.sqrt(2.0)

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
        # zero mode replaced by 1, and k1 = -n/2 by 0 (an odd multiplier vanishes
        # on its Nyquist row); the Riesz multiplier is its alpha = 1 case.
        g = grid64()
        k1 = np.broadcast_to(g.k1, (64, 64)).copy()
        k1[32] = 0.0
        for alpha in (0.5, 1.0, 2.0):
            safe = g.kmag**alpha
            safe[0, 0] = 1.0
            expected = 1j * k1 / safe
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
        keep = g.plane(g.block(np.ones((64, 64)))) != 0
        assert keep[21, 0] and keep[0, 21]  # 21 <= 64/3
        assert not keep[22, 0] and not keep[0, 22]

    def test_the_lattice_is_exact_at_every_size(self):
        """Integer wavenumbers, a zero odd factor on the Nyquist line and 2 * (n // 3) + 1
        kept lines at every even n up to 1024.  Scaled by `fftfreq`'s 1 / (n * (1 / n)),
        the wavenumbers are off by an ulp at 35 of these n (98, 196, 206, ...)."""
        for n in range(16, 1025, 2):
            g = Grid(n)
            assert g.k1[:, 0].tolist() == list(range(n // 2)) + list(range(-(n // 2), 0)), n
            assert g.k1_odd[n // 2, 0] == 0, n
            assert g.kmax == n // 3 and sum(len(range(n)[rows]) for rows in g.kept) == 2 * g.kmax + 1, n

    def test_only_grid_states_the_two_thirds_bound(self):
        """A division by 3 sits in `Grid.__init__` alone (`kmax`); the rest of bqsim reads it."""
        found = []
        for path in sorted(Path(bqsim.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            owner = {id(node): f"{cls.name}.{fn.name}" for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                     for fn in cls.body if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
            found += [(path.name, owner.get(id(node))) for node in ast.walk(tree)
                      if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.FloorDiv, ast.Div))
                      and isinstance(node.right, ast.Constant) and node.right.value == 3]
        assert found == [("spectral.py", "Grid.__init__")]

    @pytest.mark.parametrize("n", range(16, 131, 2))
    def test_kept_block_is_the_oracle_mask(self, n):
        """Gathering the kept block and scattering it back keeps the entries of the oracle's
        2/3 mask, in place, and +0.0 elsewhere."""
        g, x = Grid(n), np.random.default_rng(n).standard_normal((n, n))
        assert np.array_equal(g.plane(g.block(np.ones((n, n)))), oracle.keep_mask(n))
        assert g.plane(g.block(x)).tobytes() == np.where(oracle.keep_mask(n), x, 0.0).tobytes()


class TestTransforms:
    def test_roundtrip_matches_input(self):
        g = grid64()
        rng = np.random.default_rng(7)
        samples = rng.standard_normal((64, 64))
        back = inverse_transform(forward_transform(g, samples))
        assert np.max(np.abs(back - samples)) < 1e-12

    def test_forward_rejects_nonfinite(self):
        g = grid64()
        bad = np.zeros((64, 64))
        bad[3, 3] = np.nan
        with pytest.raises(InvalidInputError):
            forward_transform(g, bad)

    @pytest.mark.parametrize("shape", [(32, 32), (64, 32), (2, 64, 64), (64,), ()])
    @pytest.mark.parametrize("transform", [forward_transform, dealiased_transform])
    def test_forward_transforms_reject_samples_of_another_shape(self, transform, shape):
        with pytest.raises(InvalidInputError, match=r"samples must be an \(64, 64\) array"):
            transform(grid64(), np.zeros(shape))

    def test_forward_transforms_take_integer_samples_as_floats(self):
        g, ones = grid64(), np.ones((64, 64), dtype=int)
        for transform in (forward_transform, dealiased_transform):
            assert np.array_equal(transform(g, ones).coeffs, transform(g, ones * 1.0).coeffs)

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
        c = random_scalar_field(g, 2.0, 1.0, (3,)).coeffs.copy()
        c[2, 1] = bad
        with pytest.raises(InvalidInputError, match="non-finite"):  # when the field is built
            inverse_transform(SpectralField(g, c))

    def test_noise_level_asymmetry_is_tolerated(self):
        g = grid64()
        coeffs = np.zeros((64, 64), dtype=complex)
        coeffs[1, 0] = 1e-17  # below float64 noise of any O(1) ancestor
        samples = inverse_transform(SpectralField(g, coeffs))
        assert np.max(np.abs(samples)) < 1e-12

    @pytest.mark.parametrize("n", PASS_SIZES)
    @pytest.mark.parametrize("case", PASS_CASES)
    def test_passes_give_the_bytes_of_the_2d_transforms(self, n, case):
        """Each 1-D pass is the one `ifft2` (the step's sampler) or `rfft2` (the forward
        transforms) runs, in its order, so no bit moves; the sampler reads the kept block alone
        and skips the rows |k1| > n/3, which hold zeros (rows `samples-*` of `FFT_COUNTS`), and
        the forward transforms' second pass skips the columns past n/2, or past n/3 when
        dealiased, whose conjugates fill the rest."""
        g = Grid(n)
        c = pass_coeffs(g, case)
        assert _samples(g.block(c), g).tobytes() == oracle.ifft2(oracle.dealias(c)).tobytes()
        samples = oracle.ifft2(c)
        assert forward_transform(g, samples).coeffs.tobytes() == oracle.rfft2(samples).tobytes()
        got = dealiased_transform(g, samples).coeffs
        assert got.tobytes() == oracle.dealiased_rfft2(samples).tobytes()
        # dealias multiplies by 0 + 0j, which can leave -0.0 outside the band: same values
        assert np.array_equal(got, dealias(forward_transform(g, samples)).coeffs)

    @pytest.mark.parametrize("n", PASS_SIZES)
    @pytest.mark.parametrize("case", PASS_CASES)
    def test_real_forward_transforms_stay_within_an_ulp_of_the_complex(self, n, case):
        """The real path moves a coefficient of the samples of c by at most 1e-15 max|c| from
        the complex `fft2`, and `advect` by as much of its largest from the step's complex
        advection.  The worst measured: 5.5e-16, `forward_transform` of white noise at n = 50
        and `advect` by white noise there."""
        g = Grid(n)
        c = pass_coeffs(g, case)
        samples = oracle.ifft2(c)
        for got, want in ((forward_transform(g, samples), oracle.fft2(samples)),
                          (dealiased_transform(g, samples), oracle.dealiased_fft2(samples))):
            assert np.max(np.abs(got.coeffs - want)) <= 1e-15 * np.max(np.abs(c))
        f = SpectralField(g, c)
        v = tuple(oracle.ifft2(w.coeffs) for w in random_divfree_velocity(g, 2.0, 1.0, (n,)).components())
        want = oracle.advect(g, v, oracle.dealias(c))
        assert np.max(np.abs(advect(v, f).coeffs - want)) <= 1e-15 * np.max(np.abs(want))

    def test_hermitian_defect_zero_field(self):
        g = grid64()
        assert hermitian_defect(np.zeros((64, 64), dtype=complex)) == 0.0


class TestDerivatives:
    def test_partial_derivative_single_mode(self):
        g = grid64()
        x1, _ = g.nodes()
        df = inverse_transform(partial_derivative(spectral_sin(g, 3), 0))
        assert np.max(np.abs(df - 3 * np.cos(3 * x1))) < 1e-10

    def test_partial_derivative_other_axis_is_zero(self):
        g = grid64()
        df = inverse_transform(partial_derivative(spectral_sin(g, 3), 1))
        assert np.max(np.abs(df)) < 1e-12

    def test_partial_derivative_rejects_bad_axis(self):
        with pytest.raises(ConfigurationError):
            partial_derivative(spectral_sin(grid64(), 1), 2)

    def test_gradient_components(self):
        g = grid64()
        x1, x2 = g.nodes()
        f = forward_transform(g, np.sin(2 * x1) * np.cos(x2))
        grad = gradient(f)
        g1 = inverse_transform(grad.x1)
        g2 = inverse_transform(grad.x2)
        assert np.max(np.abs(g1 - 2 * np.cos(2 * x1) * np.cos(x2))) < 1e-10
        assert np.max(np.abs(g2 + np.sin(2 * x1) * np.sin(x2))) < 1e-10


class TestMultiplierOperators:
    def test_dissipation_alpha_one_single_mode(self):
        g = grid64()
        x1, _ = g.nodes()
        out = inverse_transform(fractional_dissipation(spectral_sin(g, 3), 1.0))
        assert np.max(np.abs(out - 3 * np.sin(3 * x1))) < 1e-10

    def test_dissipation_alpha_two_is_minus_laplacian(self):
        g = grid64()
        x1, x2 = g.nodes()
        f = forward_transform(g, np.sin(3 * x1) * np.sin(4 * x2))
        out = inverse_transform(fractional_dissipation(f, 2.0))
        assert np.max(np.abs(out - 25 * np.sin(3 * x1) * np.sin(4 * x2))) < 1e-9

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
        assert np.max(np.abs(out - np.cos(3 * x1))) < 1e-10

    def test_riesz_annihilates_transverse_modes(self):
        g = grid64()
        out = inverse_transform(riesz(spectral_sin(g, 5, axis=1)))
        assert np.max(np.abs(out)) < 1e-12


class TestBiotSavart:
    def test_shear_oracle(self):
        g = grid64()
        x1, _ = g.nodes()
        v1, v2 = to_physical(biot_savart(spectral_sin(g, 1)))
        assert np.max(np.abs(v1)) < 1e-12
        assert np.max(np.abs(v2 + np.cos(x1))) < 1e-12

    def test_velocity_is_divergence_free(self):
        g = grid64()
        w = random_scalar_field(g, 2.0, 1.0, (1, 2))
        div = inverse_transform(divergence(biot_savart(w)))
        assert np.max(np.abs(div)) < 1e-11

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

    @pytest.mark.parametrize("mean, top, rejected", [
        (1e-12, 1e3, False), (5e-10, 1e3, False), (2e-9, 1e3, True),
        (1e-12, 0.5, False), (1.1e-12, 0.5, True), (-3e-12, 2.0, True), (0.0, 0.0, False),
    ])
    def test_mean_is_measured_against_the_largest_coefficient_or_one(self, mean, top, rejected):
        """The mean passes when |mean| <= 1e-12 max(max|omega_hat|, 1)."""
        g = grid64()
        coeffs = np.zeros((64, 64), dtype=complex)
        coeffs[0, 0], coeffs[3, 1], coeffs[-3, -1] = mean, top, top
        if rejected:
            with pytest.raises(InvalidInputError, match=f"vorticity has nonzero mean {mean:.3e}"):
                biot_savart(SpectralField(g, coeffs))
        else:
            biot_savart(SpectralField(g, coeffs))


#: Operators on a vector, each of which read a mixed-grid vector before vectors were checked.
VECTOR_OPERATORS = {
    "vector_sobolev_norm": lambda v: vector_sobolev_norm(v, 1.0),
    "max_gradient": max_gradient,
    "besov_norm": lambda v: besov_norm(v, BesovSpec(0.0, 2.0, 1.0)),
    "grid_max_velocity": grid_max_velocity,
    "gradient_lp_norm": lambda v: gradient_lp_norm(v, 2.0),
    "commutator_riesz": lambda v: commutator_riesz(v, v.x1),
    "leray_project": leray_project,
    "divergence": divergence,
    "lp_norm": lambda v: lp_norm(to_physical(v), 2),
}


class TestVectorField:
    @pytest.mark.parametrize("name", sorted(VECTOR_OPERATORS))
    def test_components_on_two_grids_are_bad_input(self, name):
        """Before, vector_sobolev_norm and max_gradient returned a number for x1 on Grid(32)
        and x2 on Grid(64), and five operators raised numpy's ValueError."""
        x1, x2 = (random_scalar_field(Grid(n), 2.0, 1.0, (5,)) for n in (32, 64))
        with pytest.raises(InvalidInputError, match="fields live on different grids"):
            VECTOR_OPERATORS[name](VectorField(x1, x2))

    def test_holds_two_spectral_fields_and_is_frozen(self):
        f = random_scalar_field(Grid(32), 2.0, 1.0, (5,))
        for bad in (f.coeffs, inverse_transform(f), None):
            with pytest.raises(InvalidInputError, match="holds two SpectralFields"):
                VectorField(f, bad)
        v = VectorField(f, f)
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.x2 = f


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
        vp = to_physical(v)
        foreign = to_physical(random_divfree_velocity(Grid(32), 2.0, 1.0, (11,)))
        mixed = (vp[0], v.x2)
        for bad in (v, mixed, foreign, vp[0], np.stack(vp), list(vp), vp + vp[:1]):
            with pytest.raises(InvalidInputError, match=r"velocity samples \(v1, v2\) on the grid of f"):
                advect(bad, f)

    def test_unchecked_operators_match_the_checked_transform_bit_for_bit(self):
        g = grid64()
        v = random_divfree_velocity(g, 2.0, 1.0, (11,))
        f = random_scalar_field(g, 2.0, 1.0, (12,))
        v1, v2 = (oracle.ifft2(c.coeffs) for c in v.components())
        assert np.array_equal(advect((v1, v2), f).coeffs, oracle.advect(g, (v1, v2), f.coeffs, real=True))
        assert grid_max_velocity(v) == float(np.max(np.hypot(v1, v2)))
        # each derivative is sampled by the one half-spectrum transform of `inverse_transform`
        derivs = [inverse_transform(partial_derivative(c, a)) for c in v.components() for a in (0, 1)]
        assert max_gradient(v) == max(float(np.max(np.abs(d))) for d in derivs)
        frobenius = np.sqrt(sum(d * d for d in derivs))
        for p in (3.0, math.inf):  # p = 2 is a Parseval sum: `TestParsevalNorms`
            assert gradient_lp_norm(v, p) == lp_norm(frobenius, p)

    def test_dealias_zeroes_high_modes_only(self):
        g = grid64()
        coeffs = np.zeros((64, 64), dtype=complex)
        coeffs[21, 0] = 1.0
        coeffs[43, 0] = 1.0  # k1 = -21
        coeffs[25, 0] = coeffs[39, 0] = 1.0  # k1 = +-25, beyond n/3
        out = dealias(SpectralField(g, coeffs))
        assert out.coeffs[21, 0] == 1.0 and out.coeffs[43, 0] == 1.0
        assert out.coeffs[25, 0] == 0.0


class TestNorms:
    def test_l2_of_sine(self):
        g = grid64()
        x1, _ = g.nodes()
        assert lp_norm(np.sin(x1), 2) == pytest.approx(L2_SIN, rel=1e-13)

    def test_l4_of_sine(self):
        g = grid64()
        x1, _ = g.nodes()
        # int sin^4 x1 over the box = (3/4) pi * 2 pi
        expected = (1.5 * math.pi**2) ** 0.25
        assert lp_norm(np.sin(x1), 4) == pytest.approx(expected, rel=1e-13)
        # 1e100**4 overflows, yet the constant 1e100 has the finite L^4 norm
        # 1e100 * (4 pi^2)^(1/4) on the torus.
        big = np.full((32, 32), 1e100)
        assert lp_norm(big, 4) == pytest.approx(2.5066282746310002e100, rel=1e-15)

    def test_linf_of_sine(self):
        g = grid64()
        x1, _ = g.nodes()
        assert lp_norm(np.sin(x1), math.inf) == pytest.approx(1.0, rel=1e-12)

    def test_lp_rejects_bad_exponent(self):
        with pytest.raises(ConfigurationError):
            lp_norm(np.zeros((64, 64)), 0.5)

    @pytest.mark.parametrize("samples", [
        np.zeros((64, 32)), np.zeros((2, 64, 64)), [np.zeros((64, 64))] * 2, np.zeros(64),
        np.zeros((0, 0)), 1.0, (np.zeros((64, 64)),) * 3,
    ], ids=["non-square", "stack", "list-of-two", "1-d", "empty", "scalar", "triple"])
    @pytest.mark.parametrize("measure", [lambda a: lp_norm(a, 2), lambda a: lp_norm(a, math.inf),
                                         integrate], ids=["l2", "linf", "integrate"])
    def test_lp_norm_and_integrate_reject_samples_that_are_not_square(self, measure, samples):
        with pytest.raises(InvalidInputError, match=r"samples must be an \(n, n\) array"):
            measure(samples)

    @pytest.mark.parametrize("pair", [
        (np.zeros((64, 64)), np.zeros((32, 32))), (np.zeros((64, 64)), np.zeros((64, 32))),
        (np.zeros((2, 64, 64)), np.zeros((64, 64))),
    ], ids=["other-n", "non-square", "stack"])
    def test_lp_norm_rejects_a_pair_of_unlike_samples(self, pair):
        with pytest.raises(InvalidInputError, match="samples must be an"):
            lp_norm(pair, 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "minus-inf"])
    @pytest.mark.parametrize("p", [2, 3, math.inf])
    def test_lp_norm_rejects_non_finite_samples(self, p, bad):
        """As the forward transforms do: a single sample array, and a pair with one bad component
        (a hypot of inf and nan is inf, so a pair is not judged by its magnitude)."""
        a = np.ones((16, 16))
        a[3, 5] = bad
        for samples in (a, (np.ones((16, 16)), a), (a, np.full((16, 16), math.nan))):
            with pytest.raises(NonFiniteError, match="non-finite"):
                lp_norm(samples, p)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "minus-inf"])
    def test_integrate_rejects_non_finite_samples(self, bad):
        a = np.ones((16, 16))
        a[3, 5] = bad
        with pytest.raises(NonFiniteError, match="non-finite"):
            integrate(a)

    def test_finite_samples_whose_norm_overflows_give_inf(self):
        """Finiteness is looked for only when the result is not finite: finite samples whose
        norm or integral overflows still give inf (with numpy's overflow warning)."""
        a = np.full((16, 16), 1e308)
        with np.errstate(over="ignore"):
            assert [lp_norm(a, 2), lp_norm(a, 3), lp_norm((a, a), 2), integrate(a)] == [math.inf] * 4

    def test_norms_read_n_off_the_samples(self):
        """Cell area (2 pi / n)^2 for any n, and integer samples are taken as floats."""
        for n in (3, 16, 64):
            assert integrate(np.ones((n, n), dtype=int)) == pytest.approx(4 * math.pi**2, rel=1e-14)
            assert lp_norm(np.ones((n, n)), 2) == pytest.approx(2 * math.pi, rel=1e-14)

    def test_vector_lp_uses_pointwise_magnitude(self):
        g = grid64()
        x1, _ = g.nodes()
        v = (np.sin(x1), np.cos(x1))
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

    def test_sobolev_weights_are_built_once_on_the_half_spectrum(self):
        """One read-only weight per grid, s and kind, on the columns 0..n/2 that the sum reads,
        and none at s = 0; the norms keep the values of the full-plane weights."""
        g = Grid(48)
        weight = Grid.sobolev_weight
        weight.cache_clear()
        v = random_divfree_velocity(g, 2.0, 1.0, (13,))
        kinds = ((0.5, False), (0.5, True), (0.0, False), (1.0, False), (0.0, True))
        for _ in range(3):
            for s, homogeneous in kinds:
                sobolev_norm(v.x1, s, homogeneous)
                vector_sobolev_norm(v, s, homogeneous)
        assert weight.cache_info().misses == 4
        for s, homogeneous in kinds:
            w = g.sobolev_weight(s, homogeneous)
            assert w is g.sobolev_weight(s, homogeneous) and w.shape == (48, 25) and not w.flags.writeable
        assert weight.cache_info().misses == 5  # (0, False) only here: the norm takes no weight
        for s, homogeneous in ((0.5, False), (-0.5, True), (1.0, True)):
            w2s = (1 + g.kmag**2) ** s
            if homogeneous:
                w2s = np.where(g.kmag > 0, g.kmag, 1.0) ** (2 * s) * (g.kmag > 0)
            want = 2.0 * np.pi * np.sqrt(np.sum(w2s * np.abs(v.x1.coeffs) ** 2))
            assert sobolev_norm(v.x1, s, homogeneous) == pytest.approx(want, rel=1e-14, abs=0)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("homogeneous", [False, True])
    def test_sobolev_norms_reject_a_non_finite_index(self, s, homogeneous):
        """Before, s = nan gave NaN and s = inf numpy's "invalid value" warning."""
        v = random_divfree_velocity(grid64(), 2.0, 1.0, (13,))
        for norm in (sobolev_norm, vector_sobolev_norm):
            with pytest.raises(ConfigurationError, match="Sobolev index s must be finite"):
                norm(v.x1 if norm is sobolev_norm else v, s, homogeneous)

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
        val = integrate(np.sin(x1) ** 2)
        assert val == pytest.approx(2 * math.pi**2, rel=1e-13)

    @GRADIENT_NORMS
    def test_gradient_norms_check_each_velocity_component_once(self, norm, symmetry_checks):
        """When it is built from outside data; the norm checks nothing again."""
        drawn = random_divfree_velocity(grid64(), 2.0, 1.0, (13,))
        v = VectorField(*(SpectralField(c.grid, c.coeffs) for c in drawn.components()))
        norm(v)
        assert [id(c) for c in symmetry_checks] == [id(v.x1.coeffs), id(v.x2.coeffs)]

    @GRADIENT_NORMS
    @pytest.mark.parametrize("broken", [0, 1])
    def test_gradient_norms_reject_broken_symmetry(self, norm, broken):
        g = grid64()
        coeffs = np.zeros((64, 64), dtype=complex)
        coeffs[1, 0] = 1.0  # missing the conjugate partner at -1
        comps = list(random_divfree_velocity(g, 2.0, 1.0, (13,)).components())
        with pytest.raises(InvalidInputError, match="conjugate symmetry broken"):
            comps[broken] = SpectralField(g, coeffs)  # built, so the norm never sees it
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


def assert_close(got, want):
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def full_k_derivative(f, axis):
    """`partial_derivative` by i*k with the Nyquist entry k = -n/2 kept."""
    k = f.grid.k1 if axis == 0 else f.grid.k2
    return SpectralField(f.grid, f.coeffs * (1j * k))


class TestRealEdge:
    """`inverse_transform` samples by half-spectrum `irfft2`; it must match the complex path."""

    @pytest.mark.parametrize("n", [16, 48, 96, 98, 128])
    def test_sampler_gives_the_bytes_of_the_unpruned_irfft2(self, n):
        """`_real_samples` runs the axis-0 pass over columns 0..kmax when those beyond hold
        zeros, and no pass for a zero band (rows `record` and `besov-*` of `FFT_COUNTS`)."""
        g = Grid(n)
        bank = bqsim.build_filter_bank(g)
        noise = white_noise(g, n)
        inputs, zero_bands = [], 0
        for f in (noise, dealias(noise), random_scalar_field(g, 2.0, 1.0, (83, n)), random_state(n, 1).omega_hat):
            inputs += [(c, c) for c in (f.coeffs, partial_derivative(f, 0).coeffs, riesz(f).coeffs)]
            for homogeneous in (False, True):
                for (_, band), mult in zip(bank.bands(homogeneous), oracle.bands(g, homogeneous)):
                    half = f.coeffs[:, : band.shape[1]] * band  # as `_band_samples` forms it
                    inputs += [(f.coeffs * mult, f.coeffs * mult), (f.coeffs * mult, half)]
        for full, given in inputs:
            got, want = _real_samples(given, g), oracle.irfft2(full)
            if full.any():
                assert got.tobytes() == want.tobytes()
            else:  # numpy's passes over signed zeros can leave a -0.0; the sampler runs none
                zero_bands += 1
                assert got.tobytes() == np.zeros((n, n)).tobytes() and not want.any()
        assert zero_bands > 0  # the top band of each dealiased field

    @pytest.mark.parametrize("n", [16, 32, 48, 96, 98, 256])
    def test_checked_edge_matches_the_complex_transform(self, n):
        g = Grid(n)
        smooth = (random_scalar_field(g, 2.0, 1.0, (81, n)), random_divfree_velocity(g, 2.0, 1.0, (82, n)))
        noise = (white_noise(g, n), VectorField(white_noise(g, n + 1), white_noise(g, n + 2)))
        for f, v in (smooth, noise):
            # white noise fills the Nyquist lines, where odd multipliers must vanish
            for scalar in (f, riesz(f), divergence(v)):
                assert_close(inverse_transform(scalar), oracle.ifft2(scalar.coeffs))
            for vector in (v, gradient(f), biot_savart(curl(v)), leray_project(v)):
                for got, comp in zip(to_physical(vector), vector.components()):
                    assert_close(got, oracle.ifft2(comp.coeffs))
            derivs = [oracle.ifft2(partial_derivative(c, a).coeffs) for c in v.components() for a in (0, 1)]
            want = max(float(np.max(np.abs(d))) for d in derivs)
            assert max_gradient(v) == pytest.approx(want, rel=1e-12, abs=0)
            frobenius = np.sqrt(sum(d * d for d in derivs))
            for p in (2.0, 3.0, math.inf):
                assert gradient_lp_norm(v, p) == pytest.approx(lp_norm(frobenius, p), rel=1e-12, abs=0)
            got = commutator_riesz(v, f)
            want = oracle.commutator_riesz(g, [c.coeffs for c in v.components()], f.coeffs)
            for a, b in zip(got.components(), want):
                assert_close(a.coeffs, b)

    @pytest.mark.parametrize("n", [16, 32, 96])
    def test_leray_projection_of_white_noise_is_real_divergence_free_and_idempotent(self, n):
        g = Grid(n)
        v = VectorField(white_noise(g, n + 1), white_noise(g, n + 2))
        scale = max(float(np.max(np.abs(c.coeffs))) for c in v.components())
        once = leray_project(v)
        for c in once.components():  # the checking constructor takes it: it is real
            SpectralField(g, c.coeffs)
        assert np.max(np.abs(divergence(once).coeffs)) <= 1e-12 * scale
        for field in (once, biot_savart(curl(v))):  # divergence-free fields are kept
            for a, b in zip(field.components(), leray_project(field).components()):
                assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12 * scale

    @pytest.mark.parametrize("n", [16, 32, 96])
    def test_random_draws_and_initial_data_keep_their_bytes(self, n, monkeypatch):
        """Draws stop at the dealiasing cutoff, so the Nyquist rule changes none of their bits:
        they feed `energy_residual`, which magnifies a last-bit change about 10^7-fold.  The
        old arrays come from whole-plane draws, projected and differentiated by the full
        wavevector, the Nyquist entries kept."""
        config = parse_config(f"n = {n}\nt_end = 1\npreset = random\nseed = 3\n")
        lattice, calls = _half_lattice(Grid(n).kmax), []

        def arrays(draw):
            state = make_initial_data(config)
            v = draw(Grid(n), 2.0, 1.0, (5, n))
            return [state.omega_hat.coeffs, state.theta_hat.coeffs, v.x1.coeffs, v.x2.coeffs]

        def full_k_scalar(grid, gamma, amplitude, key):
            calls.append(key)
            return SpectralField(grid, oracle.scalar_draw(lattice, n, gamma, amplitude, key))

        def full_k_velocity(grid, gamma, amplitude, key):
            calls.append(key)
            c1, c2 = (oracle.scalar_draw(lattice, n, gamma, amplitude, key + (s,)) for s in (1, 2))
            return VectorField(*(SpectralField(grid, c) for c in oracle.leray(grid, c1, c2)))

        def counted_derivative(f, axis):
            calls.append(axis)
            return full_k_derivative(f, axis)

        new = arrays(random_divfree_velocity)
        monkeypatch.setattr(bqsim.config, "random_divfree_velocity", full_k_velocity)
        monkeypatch.setattr(bqsim.config, "random_scalar_field", full_k_scalar)
        monkeypatch.setattr(bqsim.spectral, "partial_derivative", counted_derivative)
        old = arrays(full_k_velocity)
        assert calls == [(3, 0), 0, 1, (3, 3), (5, n)]  # every old array took the full-k path
        assert [a.tobytes() for a in new] == [b.tobytes() for b in old]

    @pytest.mark.parametrize("key", [(-1,), (3, -2), (1.5,), ("a",)])
    def test_a_key_numpy_cannot_seed_is_bad_input(self, key):
        """Before, a negative key raised numpy's ValueError and a non-integer one its TypeError."""
        for draw in (random_scalar_field, random_divfree_velocity):
            with pytest.raises(InvalidInputError, match=r"^random key \("):
                draw(Grid(32), 2.0, 1.0, key)

    @pytest.mark.parametrize("n", [16, 48, 98, 128, 256])
    @pytest.mark.parametrize("gamma", [2.5, 1.0, 0.0, -1.0])
    def test_block_draws_are_the_whole_plane_draws(self, n, gamma):
        """A draw is filled, and a velocity Leray-projected, on the kept block, then scattered
        once: the bytes of the whole-plane scatter and projection."""
        g = Grid(n)
        lattice, key = _half_lattice(g.kmax), (7, n)
        want = oracle.scalar_draw(lattice, n, gamma, 1.5, key)
        assert random_scalar_field(g, gamma, 1.5, key).coeffs.tobytes() == want.tobytes()
        planes = (oracle.scalar_draw(lattice, n, gamma, 1.5, key + (s,)) for s in (1, 2))
        for got, want in zip(random_divfree_velocity(g, gamma, 1.5, key).components(),
                             oracle.leray(g, *planes)):
            assert got.coeffs.tobytes() == want.tobytes()


def defect_case(name, n=48):
    """A coefficient array: white noise, broken as the case names."""
    c = white_noise(Grid(n), 5).coeffs.copy()
    if name == "asymmetric-nyquist-row":
        c[n // 2, 3] += 1e-3
    elif name == "asymmetric-everywhere":
        rng = np.random.default_rng(6)
        c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    elif name == "largest-in-the-lower-half":
        c[-5, 7] = 50.0  # its mirror stays small, and the scale is taken below row n/2
    elif name != "symmetric":
        c[n - 3, 5] = {"nan": np.nan, "inf": np.inf, "minus-inf": -np.inf,
                       "imaginary-inf": complex(0.0, np.inf)}[name]
    return c


class TestHalfPlaneDefect:
    @pytest.mark.parametrize("case", ["symmetric", "asymmetric-nyquist-row", "asymmetric-everywhere",
                                      "largest-in-the-lower-half", "nan", "inf", "minus-inf",
                                      "imaginary-inf"])
    def test_same_double_as_the_rolled_full_plane(self, case):
        c = defect_case(case)
        got, want = hermitian_defect(c), oracle.rolled_defect(c)
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
        a = np.abs(inverse_transform(f))
        cell_area = (2.0 * math.pi / f.grid.n) ** 2
        for p in (2, 3, 4):
            assert lp_norm(inverse_transform(f), p) == float((np.sum(a**p) * cell_area) ** (1.0 / p))
        h = f.grid.n // 2 + 1  # the half-spectrum sum: columns 0..n/2, each 0 < j < n/2 twice
        power = f.coeffs[:, :h].real ** 2 + f.coeffs[:, :h].imag ** 2
        power[:, 1 : h - 1] *= 2.0
        w = (1.0 + f.grid.kmag[:, :h] ** 2) ** 0.25
        assert sobolev_norm(f, 0.5) == float(2.0 * np.pi * np.sqrt(np.sum(w * w * power)))
        assert sobolev_norm(f, 0.0) == float(2.0 * np.pi * np.sqrt(np.sum(power)))

    def test_two_spectral_helpers_own_every_power_sum(self):
        """`_weighted_lr` sums nonnegative terms and `_parseval` coefficients: they make the only
        calls of `_rescale_by`, and no other module defines a power sum of its own."""
        def rescale_calls(node):
            return sum(isinstance(call, ast.Call) and "_rescale_by"
                       == getattr(call.func, "id", getattr(call.func, "attr", None)) for call in ast.walk(node))

        callers, defined, total = {}, [], 0
        for path in sorted(Path(bqsim.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            total += rescale_calls(tree)
            callers.update({(path.name, f.name): rescale_calls(f) for f in tree.body
                            if isinstance(f, ast.FunctionDef) and rescale_calls(f)})
            defined += [(path.name, f.name) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                        and f.name in ("_weighted_lr", "_block_norm")]
        assert callers == {("spectral.py", "_weighted_lr"): 1, ("spectral.py", "_parseval"): 1}
        assert total == 2
        assert defined == [("spectral.py", "_weighted_lr")]


class TestParsevalNorms:
    """L^2 norms from the coefficients, with no transform: `sobolev_norm` and
    `vector_sobolev_norm` at s = 0, `gradient_lp_norm` at p = 2 and the verifier's `_lp`."""

    @staticmethod
    def norms(f, v):
        """The Parseval norms of f and v, in the order of `sampled`."""
        return [gradient_lp_norm(v, 2), sobolev_norm(f, 0.0), _lp(f, 2), vector_sobolev_norm(v, 0.0), _lp(v, 2)]

    @staticmethod
    def sampled(f, v):
        """The sampled quadratures that `norms` replace."""
        derivs = [oracle.ifft2(partial_derivative(c, a).coeffs) for c in v.components() for a in (0, 1)]
        l2_f = lp_norm(oracle.ifft2(f.coeffs), 2)
        l2_v = lp_norm(tuple(oracle.ifft2(c.coeffs) for c in v.components()), 2)
        return [lp_norm(np.sqrt(sum(d * d for d in derivs)), 2), l2_f, l2_f, l2_v, l2_v]

    @pytest.mark.parametrize("n", [16, 48, 96, 98, 256])
    def test_parseval_norms_match_the_sampled_quadrature(self, n):
        """Dealiased draws, and white noise with the Nyquist lines filled, where the gradient's
        odd multipliers vanish."""
        g = Grid(n)
        smooth = (random_scalar_field(g, 2.0, 1.0, (84, n)), random_divfree_velocity(g, 2.0, 1.0, (85, n)))
        noise = (white_noise(g, n), VectorField(white_noise(g, n + 1), white_noise(g, n + 2)))
        for f, v in (smooth, noise):
            for got, want in zip(self.norms(f, v), self.sampled(f, v)):
                assert got == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [16, 48, 128])
    def test_parseval_reads_a_plane_and_its_columns_to_n_over_2_alike(self, n):
        """One layout: of arrays of n rows `_parseval` reads columns 0..n/2, so a plane's
        columns 0..n/2 alone give its bits, with and without weights, for a field and a vector
        with the Nyquist lines filled."""
        g, h = Grid(n), n // 2 + 1
        mults = [None, g.sobolev_weight(0.5, True), g.sobolev_weight(-1.0, False), g.kmag]
        for f in (white_noise(g, n), VectorField(white_noise(g, n + 1), white_noise(g, n + 2))):
            cs = [c.coeffs for c in _components(f)]
            for m in ([None], mults):
                assert _parseval([c[:, :h] for c in cs], m).tolist() == _parseval(cs, m).tolist()

    @pytest.mark.parametrize("scale", [1e160, 1e-160])
    @pytest.mark.parametrize("n", [16, 96])
    def test_parseval_norms_neither_overflow_nor_underflow(self, scale, n):
        g = Grid(n)
        smooth = (random_scalar_field(g, 2.0, 1.0, (86, n)), random_divfree_velocity(g, 2.0, 1.0, (87, n)))
        for f, v in (smooth, (white_noise(g, n), VectorField(white_noise(g, n + 1), white_noise(g, n + 2)))):
            big = VectorField(v.x1 * scale, v.x2 * scale)
            for got, want in zip(self.norms(f * scale, big), self.norms(f, v)):
                assert math.isfinite(got) and got == pytest.approx(scale * want, rel=1e-12, abs=0)
            for s, homogeneous in ((1.0, False), (0.5, True), (-0.5, False)):
                want = scale * sobolev_norm(f, s, homogeneous)
                assert sobolev_norm(f * scale, s, homogeneous) == pytest.approx(want, rel=1e-12, abs=0)
                want = scale * vector_sobolev_norm(v, s, homogeneous)
                assert vector_sobolev_norm(big, s, homogeneous) == pytest.approx(want, rel=1e-12, abs=0)


#: The functions that call `numpy.fft`, and their calls: the real pair everywhere, and the step's
#: complex sampler and forward transform (inside `_advect`).
TRANSFORM_HELPERS = {"_forward": ["rfft", "fft"], "_advect": ["fft", "fft"], "_samples": ["ifft", "ifft"],
                     "_real_samples": ["irfft", "ifft"]}
COMPLEX_HELPERS = ("_samples", "_advect")


def fft_calls_in(node):
    """Names of the `<module>.fft.<name>` transform calls under an AST node (not fftfreq)."""
    return [call.func.attr for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Attribute) and call.func.value.attr == "fft"
            and not call.func.attr.endswith(("freq", "shift"))]


def fft_imports_in(tree):
    """Imports under an AST that reach `numpy.fft` (or scipy) by another name."""
    return [m for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for m in [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            if m.startswith(("numpy.fft", "scipy")) or m == "fft"]


class TestTransformLayer:
    def test_runner_and_diagnostics_import_only_the_private_spectral_names_they_sample_by(self):
        """The runner samples theta by `SimState.physical_temperature` and the record samples
        the state's kept blocks on the real path and sums their coefficients by `_parseval`;
        neither wraps a field unchecked."""
        for module, allowed in ((bqsim.runner, []), (bqsim.diagnostics, ["_parseval", "_real_samples"])):
            tree = ast.parse(Path(module.__file__).read_text(), module.__file__)
            private = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                       and (node.module or "").endswith("spectral")
                       for alias in node.names if alias.name.startswith("_")]
            assert private == allowed, module.__name__

    def test_every_fft_call_sits_in_the_spectral_helpers(self):
        """A new caller of `numpy.fft` (a complex inverse, say) must go through spectral.py."""
        in_functions, total = {}, []
        for path in sorted(Path(bqsim.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            assert fft_imports_in(tree) == [], path.name
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and fft_calls_in(node):
                    in_functions[(path.name, node.name)] = sorted(fft_calls_in(node))
            total += fft_calls_in(tree)
        assert in_functions == {("spectral.py", name): sorted(c) for name, c in TRANSFORM_HELPERS.items()}
        assert sorted(total) == sorted(sum(TRANSFORM_HELPERS.values(), []))  # none at module level

    def test_no_test_module_but_the_oracle_calls_numpy_fft(self):
        """The tests hold one full-plane complex reference, `oracle.py`."""
        callers = {}
        for path in sorted(Path(__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            assert fft_imports_in(tree) == [], path.name
            if fft_calls_in(tree):
                callers[path.name] = sorted(set(fft_calls_in(tree)))
        assert callers == {"oracle.py": ["fft2", "ifft2", "irfft2", "rfft2"]}

    def test_only_the_trajectory_reaches_the_complex_transforms(self):
        """Outside `dynamics` and `grid_max_velocity`, every `numpy.fft` call that a function
        reaches, through the names it references (its module's own and those it imports from
        bqsim), is made by `_real_samples` or the real `_forward`: the complex `_samples` and
        `_advect` serve the step, `SimState`'s samples and `grid_max_velocity` alone."""
        refs, trajectory = {}, {("spectral.py", name) for name in (*COMPLEX_HELPERS, "grid_max_velocity")}
        for path in sorted(Path(bqsim.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            names = {node.name: (path.name, node.name) for node in tree.body
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
            names.update({a.asname or a.name: (f"{node.module}.py", a.name) for node in tree.body
                          if isinstance(node, ast.ImportFrom) and node.level == 1 for a in node.names})
            scopes = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
            scopes += [(f"{cls.name}.{fn.name}", fn) for cls in tree.body if isinstance(cls, ast.ClassDef)
                       for fn in cls.body if isinstance(fn, ast.FunctionDef)]
            for name, node in scopes:
                refs[(path.name, name)] = {names[n.id] for n in ast.walk(node)
                                           if isinstance(n, ast.Name) and n.id in names}
                if path.name == "dynamics.py":
                    trajectory.add((path.name, name))

        def helpers_reached(start, stop=trajectory):
            """The transform helpers that start reaches, not walking on from a name in stop."""
            seen, todo = set(), [start]
            while todo:
                for ref in refs.get(todo.pop(), set()) - seen:
                    seen.add(ref)
                    todo += [] if ref in stop else [ref]
            return {name for module, name in seen if module == "spectral.py" and name in TRANSFORM_HELPERS}

        reach = {f: helpers_reached(f) for f in refs if f not in trajectory}
        assert {f: h for f, h in reach.items() if h - {"_forward", "_real_samples"}} == {}
        want = {"forward_transform": {"_forward"}, "inverse_transform": {"_real_samples"},
                "advect": {"_forward", "_real_samples"}, "commutator_riesz": {"_forward", "_real_samples"},
                "verify_product_transport": {"_forward", "_real_samples"}, "gaussian_blob": {"_forward"}}
        assert {name: h for (_, name), h in reach.items() if name in want} == want
        # the trajectory reaches the complex ones, so the walk sees through every module
        assert helpers_reached(("dynamics.py", "step"), set()) == set(COMPLEX_HELPERS)

    def test_only_grid_reads_the_raw_wavevectors(self):
        """Operators take odd factors from `k1_odd`/`k2_odd`, which vanish on the Nyquist line,
        so a new operator cannot bring back an antisymmetric one."""
        readers = []
        for path in sorted(Path(bqsim.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            in_grid = {id(node) for cls in ast.walk(tree)
                       if isinstance(cls, ast.ClassDef) and cls.name == "Grid" for node in ast.walk(cls)}
            readers += [(path.name, node.lineno) for node in ast.walk(tree)
                        if isinstance(node, ast.Attribute) and node.attr in ("k1", "k2")
                        and id(node) not in in_grid]
        assert readers == []


class TestCheckedOnce:
    def test_only_the_spectral_field_constructor_calls_check_real(self):
        """Fields are checked where they are built: no module but `spectral.py` names
        `_check_real`, and there only `SpectralField.__post_init__` calls it."""
        named, callers = [], []
        for path in sorted(Path(bqsim.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            parent = {id(child): node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

            def scope(node):
                names = []
                while id(node) in parent:
                    node = parent[id(node)]
                    names += [node.name] if isinstance(node, (ast.ClassDef, ast.FunctionDef)) else []
                return ".".join(reversed(names))

            for node in ast.walk(tree):
                name = getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
                if name != "_check_real" or isinstance(node, ast.FunctionDef):
                    continue
                if path.name != "spectral.py":
                    named.append((path.name, getattr(node, "lineno", None)))
                else:
                    callers.append((scope(node), isinstance(parent[id(node)], ast.Call)))
        assert named == []
        assert callers == [("SpectralField.__post_init__", True)]

    def test_fields_are_copied_and_read_only(self):
        g = Grid(32)
        c = random_scalar_field(g, 2.0, 1.0, (1,)).coeffs.copy()
        f = SpectralField(g, c)
        c[1, 2] += 1.0
        assert f.coeffs is not c and f.coeffs[1, 2] != c[1, 2]
        with pytest.raises(ValueError, match="read-only"):
            f.coeffs[1, 2] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.coeffs = c

    def test_fields_scale_by_real_numbers_only(self):
        f = random_scalar_field(Grid(32), 2.0, 1.0, (1,))
        for scalar in (2, 2.5, np.float64(2.5), np.int64(2), True):
            assert np.array_equal((scalar * f).coeffs, f.coeffs * scalar)
            assert np.array_equal((f * scalar).coeffs, f.coeffs * scalar)
        for bad in (1j, np.complex128(1.0), np.ones((32, 32))):
            with pytest.raises(TypeError):
                f * bad


def derived_fields(n):
    """name -> the `SpectralField`s that library call returns on random valid inputs at size n:
    seeded draws up to the 2/3 cutoff and white noise in every mode."""
    g = Grid(n)
    f, w = random_scalar_field(g, 2.0, 1.0, (91, n)), white_noise(g, n)
    v = random_divfree_velocity(g, 2.5, 1.0, (92, n))
    noise = VectorField(white_noise(g, n + 1), white_noise(g, n + 2))
    vp, samples = to_physical(v), np.random.default_rng(n).standard_normal((n, n))
    state = SimState(0.0, dealias(curl(v)), dealias(f), 1.0)
    stepped = step(state, 1e-3)
    qs = range(-1, bqsim.build_filter_bank(g).qmax + 1)
    return {
        "derivatives": [partial_derivative(x, a) for x in (f, w) for a in (0, 1)],
        "gradient": [c for x in (f, w) for c in gradient(x).components()],
        "divergence": [divergence(v), divergence(noise)],
        "curl": [curl(v), curl(noise)],
        "dissipation": [fractional_dissipation(x, a) for x in (f, w) for a in (0.5, 1.0, 2.0)],
        "riesz": [riesz(f), riesz(w)],
        "biot-savart": [c for x in (curl(v), curl(noise)) for c in biot_savart(x).components()],
        "leray": [c for x in (v, noise) for c in leray_project(x).components()],
        "dealias": [dealias(f), dealias(w)],
        "advect": [advect(vp, f), advect(vp, w)],
        "transforms": [forward_transform(g, samples), dealiased_transform(g, samples)],
        "dyadic-blocks": [bqsim.dyadic_block(x, q) for x in (f, w) for q in qs],
        "partial-sums": [bqsim.partial_sum(x, q) for x in (f, w) for q in range(-1, qs.stop + 1)],
        "bony": [*bqsim.bony_decompose(f, w), *bqsim.bony_decompose(w, f)],
        "commutator-riesz": [c for x in (v, noise) for c in commutator_riesz(x, f).components()],
        "commutator-block": [bqsim.commutator_block(v, x, q) for x in (f, w) for q in qs],
        "arithmetic": [f + w, f - w, -w, 2.5 * w, w * 3],
        "gamma": [bqsim.gamma(state)],
        "step": [stepped.omega_hat, stepped.theta_hat],
        "linear-exact": [bqsim.linear_exact_solution(curl(v), f, a, 0.3).omega_hat for a in (0.5, 1.0)],
        "random": [random_scalar_field(g, 1.5, 2.0, (93,)),
                   *random_divfree_velocity(g, 1.5, 2.0, (94,)).components()],
        "presets": [bqsim.taylor_green_vorticity(g), bqsim.gaussian_blob(g),
                    bqsim.gaussian_blob(g, 0.3, 2.0, True)],
    }


@pytest.mark.parametrize("n", [32, 48, 98])
def test_derived_fields_stay_valid(n):
    """What the operators wrap unchecked, the checking constructor accepts: the tests stand in
    for the run-time re-checks, so no operator needs to check its inputs again."""
    rejected = []
    for name, fields in derived_fields(n).items():
        assert fields and all(isinstance(f, SpectralField) for f in fields), name
        for f in fields:
            assert not f.coeffs.flags.writeable, name
            try:
                SpectralField(f.grid, f.coeffs)
            except InvalidInputError as err:
                rejected.append((name, str(err)))
    assert rejected == []


class TestArtifactWriter:
    def test_no_module_but_simio_writes_a_file(self):
        """`simio` owns every artifact format, so it alone opens a file for writing."""
        writers = []
        for path in sorted(Path(bqsim.__file__).parent.glob("*.py")):
            if path.name == "simio.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                strings = [a.value for a in [*node.args, *(k.value for k in node.keywords)]
                           if isinstance(a, ast.Constant) and isinstance(a.value, str)]
                opens_for_writing = name == "open" and any(
                    set(s) <= set("rwaxbt+") and set(s) & set("wax+") for s in strings)
                if name in ("write_text", "write_bytes") or opens_for_writing:
                    writers.append((path.name, node.lineno))
        assert writers == []


def random_state(n, steps):
    """A random dealiased state, stepped `steps` times by dt = 1e-3."""
    g = Grid(n)
    state = SimState(0.0, *(dealias(random_scalar_field(g, 2.0, 1.0, (4, k))) for k in (1, 2)))
    for _ in range(steps):
        state = step(state, 1e-3)
    return state


def dealiased_lines(n):
    """Lines of one complex 2-D transform of a dealiased field: the rows and columns |k_j| <=
    kmax along one axis, every line along the other."""
    return n + 2 * (n // 3) + 1


#: Exact `numpy.fft` work of each operation, pinned here and nowhere else: row -> (build
#: the input, the operation on it, {name: (calls, lines)}), lines summed over the calls.
#: A complex 2-D transform runs as 3 1-D passes: the kept lines along one axis in two
#: blocks, then every line along the other.
FFT_COUNTS = {
    **{f"samples-{case}-n{n}": (lambda n=n, case=case: SpectralField(Grid(n), pass_coeffs(Grid(n), case)),
                                lambda f: _samples(f.grid.block(f.coeffs), f.grid), {"ifft": (3, dealiased_lines(n))})
       for n in PASS_SIZES for case in PASS_CASES},
    # 8 transforms per RK stage (2 velocity, 4 gradient, 2 forward), 2 for the new state's
    # velocity; stage 1 takes the state's own samples, which a stepped state kept from its
    # blow-up test
    "step-fresh": (lambda: random_state(64, 0), lambda s: step(s, 1e-3),
                   {"ifft": (3 * 26, 26 * dealiased_lines(64)), "fft": (3 * 8, 8 * dealiased_lines(64))}),
    "step-stepped": (lambda: random_state(64, 1), lambda s: step(s, 1e-3),
                     {"ifft": (3 * 24, 24 * dealiased_lines(64)), "fft": (3 * 8, 8 * dealiased_lines(64))}),
    # at n >= PARALLEL_MIN_N theta's advection and v2's sample run on the worker thread
    "step-stepped-n256": (lambda: random_state(256, 1), lambda s: step(s, 1e-3),
                          {"ifft": (3 * 24, 24 * dealiased_lines(256)),
                           "fft": (3 * 8, 8 * dealiased_lines(256))}),
    "adaptive-dt": (lambda: random_state(64, 2), lambda s: adaptive_dt(s, 0.5),
                    {"ifft": (3, dealiased_lines(64))}),  # theta only
    "velocity-of-a-copy": (lambda: random_state(64, 1).copy(), SimState.physical_velocity,
                           {"ifft": (6, 2 * dealiased_lines(64))}),
    "velocity-of-a-replace": (lambda: dataclasses.replace(random_state(64, 1)), SimState.physical_velocity,
                              {"ifft": (6, 2 * dealiased_lines(64))}),
    # A real sample is an `ifft` pass over the columns 0..kmax = 42 it can occupy, or fewer for
    # a band (2^(q+2) of them), then an `irfft` pass over the n rows; none for a zero band.
    # Two B^0_{inf,1} norms of 8 bands (q = -1..6), whose top band is zero on a dealiased
    # state (2 + 4 + 8 + 16 + 32 + 43 + 43 columns), theta, omega and three velocity
    # derivatives; the velocity samples a stepped state kept, a fresh one makes (2 complex)
    "record": (lambda: random_state(128, 1), lambda s: DiagnosticsTracker().record(s),
               {"ifft": (19, 2 * 148 + 5 * 43), "irfft": (19, 19 * 128)}),
    "record-fresh": (lambda: random_state(128, 0), lambda s: DiagnosticsTracker().record(s),
                     {"ifft": (2 * 3 + 19, 2 * dealiased_lines(128) + 2 * 148 + 5 * 43),
                      "irfft": (19, 19 * 128)}),
    # Parseval at p = 2, else one sample per band (q = -1..4 over 2 + 4 + 8 + 16 + 22 + 22
    # columns, kmax = 21; q = 5 is zero) and component
    **{f"besov-{kind}-p{p}-r{r}": (lambda field=field: field(random_state(64, 0)),
                                   lambda f, p=p, r=r: besov_norm(f, BesovSpec(0.0, p, r)),
                                   {"ifft": (6 * comps, 74 * comps), "irfft": (6 * comps, 6 * 64 * comps)}
                                   if p == math.inf else {})
       for kind, field, comps in (("scalar", lambda s: s.theta_hat, 1), ("vector", SimState.velocity, 2))
       for p in (2.0, math.inf) for r in (1.0, math.inf)},
    # Every forward transform outside the step is real: an `rfft` over the n rows, then an `fft`
    # over the columns 0..n/2 (33 at n = 64), or 0..kmax (22) for the kept block alone.
    **{f"{transform.__name__}": (lambda: Grid(64), lambda g, transform=transform: transform(
        g, np.random.default_rng(1).standard_normal((64, 64))), {"rfft": (1, 64), "fft": (1, cols)})
       for transform, cols in ((forward_transform, 33), (dealiased_transform, 22))},
    # two real gradient samples over the kept columns and a dealiased forward transform; the
    # velocity samples are those a stepped state kept
    "advect": (lambda: random_state(64, 1), lambda s: advect(s.physical_velocity(), s.theta_hat),
               {"ifft": (2, 2 * 22), "irfft": (2, 2 * 64), "rfft": (1, 64), "fft": (1, 22)}),
    # theta, R theta, v1 and v2 sampled, and four dealiased forward transforms
    "commutator-riesz": (lambda: random_divfree_velocity(Grid(64), 2.0, 1.0, (3,)),
                         lambda v: commutator_riesz(v, v.x1),
                         {"ifft": (4, 4 * 22), "irfft": (4, 4 * 64),
                          "rfft": (4, 4 * 64), "fft": (4, 4 * 22)}),
    # One sample of each verify suite (count 1): L^2 norms are Parseval sums, so what is left
    # feeds a product, a nonlinear map or a norm with p != 2.  A real sample of a draw is an
    # `ifft` over kmax + 1 = 22 columns; a B^0_{inf,r} norm samples 6 bands (74 columns, as
    # above); forward transforms are as above.
    # commutator-*: theta, R theta, v1, v2 and the bands of theta; 4 forward transforms
    **{f"verify-{suite}": (lambda: EnsembleSpec(seed=0, count=1, n=64),
                           lambda ens, suite=suite: SUITES[suite](ens), want)
       for suite, want in (
           ("commutator-hs", {"ifft": (10, 4 * 22 + 74), "irfft": (10, 10 * 64),
                              "rfft": (4, 4 * 64), "fft": (4, 4 * 22)}),
           ("commutator-bp", {"ifft": (10, 4 * 22 + 74), "irfft": (10, 10 * 64),
                              "rfft": (4, 4 * 64), "fft": (4, 4 * 22)}),
           # f, g and Delta_3 g; the suite's band kernel is one sample over the 33 columns 0..n/2
           ("kernel", {"ifft": (4, 3 * 22 + 33), "irfft": (4, 4 * 64),
                       "rfft": (2, 2 * 64), "fft": (2, 2 * 22)}),
           ("power-map", {"ifft": (1, 22), "irfft": (1, 64), "rfft": (1, 64), "fft": (1, 33)}),  # u, u^3's
           ("log-interp", {}),
           ("gen-bernstein", {"ifft": (2, 2 * 22), "irfft": (2, 2 * 64)}),  # Delta_3 u and |D| Delta_3 u
           # v1, v2, one `advect` (2 gradient samples) and the bands of f
           ("product", {"ifft": (10, 4 * 22 + 74), "irfft": (10, 10 * 64), "rfft": (1, 64), "fft": (1, 22)}),
           # v1, v2, two `advect` calls and the bands of f
           ("block-commutator", {"ifft": (12, 6 * 22 + 74), "irfft": (12, 12 * 64),
                                 "rfft": (2, 2 * 64), "fft": (2, 2 * 22)}),
       )},
}


@pytest.mark.parametrize("row", list(FFT_COUNTS))
def test_numpy_fft_calls(row, fft_calls):
    build, operation, want = FFT_COUNTS[row]
    x = build()
    fft_calls.clear()
    operation(x)
    got = {}
    for name, length, lines in fft_calls:
        assert length == getattr(x, "grid", x).n, (name, length, lines)  # every pass runs along a grid line
        calls, total = got.get(name, (0, 0))
        got[name] = (calls + 1, total + lines)
    assert got == want


FAILURE_KINDS = (BlowUpError, ConfigurationError, InvalidInputError, CheckpointError, OSError)


class TestFailureContract:
    def test_only_cli_main_maps_a_failure_kind_to_an_exit_code(self):
        """In `cli.py` a handler that catches a failure kind (or a subclass, or everything)
        sits in `main`; handlers that convert one error into another, such as
        `_parse_besov`'s `except ValueError`, catch no kind and are allowed anywhere."""
        tree = ast.parse(Path(bqsim.cli.__file__).read_text())
        owner = {id(h): f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                 for h in ast.walk(f) if isinstance(h, ast.ExceptHandler)}
        found = []
        for handler in (h for h in ast.walk(tree) if isinstance(h, ast.ExceptHandler)):
            names = [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(handler.type)
                     if isinstance(n, (ast.Name, ast.Attribute))] if handler.type else ["BaseException"]
            classes = [getattr(bqsim.cli, name, None) or getattr(builtins, name, None) for name in names]
            kinds = sorted({k.__name__ for c in classes if isinstance(c, type) for k in FAILURE_KINDS
                            if issubclass(c, k) or c in (Exception, BaseException)})
            codes = [r.value.value for r in ast.walk(handler)
                     if isinstance(r, ast.Return) and isinstance(r.value, ast.Constant)]
            if kinds:
                found.append((owner.get(id(handler)), kinds, codes))
        assert found == [
            ("main", ["BlowUpError"], [1]),
            ("main", ["CheckpointError", "ConfigurationError", "InvalidInputError", "OSError"], [2]),
        ]
