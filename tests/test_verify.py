"""Tests for the seeded inequality ensembles and their ratio reports."""

import math
import zlib

import numpy as np
import pytest

import oracle
from bqsim import (
    ConfigurationError,
    EnsembleSpec,
    Grid,
    RatioReport,
    SUITES,
    build_filter_bank,
    dealias,
    suite_passes,
    verify_block_commutator,
    verify_commutator_hs,
    verify_generalized_bernstein,
    verify_kernel_commutator,
    verify_product_transport,
)
from bqsim.fields import _half_lattice, random_divfree_velocity, random_scalar_field
from bqsim.verify import KERNEL_RATIO_LIMIT, RHS_FLOOR

SMALL = EnsembleSpec(seed=42, count=4, n=64)


class TestEnsembleSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EnsembleSpec(count=0)
        with pytest.raises(ConfigurationError):
            EnsembleSpec(n=63)
        with pytest.raises(ConfigurationError):
            EnsembleSpec(amplitude=-1.0)
        with pytest.raises(ConfigurationError, match="seed"):
            EnsembleSpec(seed=-1)

    def test_defaults(self):
        ens = EnsembleSpec()
        assert (ens.seed, ens.count, ens.n) == (42, 64, 128)
        assert ens.spectrum_gamma == 2.5


class TestSeededFields:
    def test_fields_are_deterministic(self):
        g = Grid(64)
        a = random_scalar_field(g, 2.5, 1.0, (1, 2, 3))
        b = random_scalar_field(g, 2.5, 1.0, (1, 2, 3))
        assert np.array_equal(a.coeffs, b.coeffs)
        c = random_scalar_field(g, 2.5, 1.0, (1, 2, 4))
        assert not np.array_equal(a.coeffs, c.coeffs)

    def test_refinement_extends_the_same_function(self):
        coarse = random_scalar_field(Grid(64), 2.5, 1.0, (9, 9))
        fine = random_scalar_field(Grid(128), 2.5, 1.0, (9, 9))
        # every mode resolvable at n = 64 keeps its coefficient at n = 128
        for k1, k2 in ((1, 0), (3, 2), (-5, 7), (21, 0), (0, -21)):
            assert fine.coeffs[k1 % 128, k2 % 128] == pytest.approx(
                coarse.coeffs[k1 % 64, k2 % 64], rel=1e-15
            )

    def test_spectrum_envelope(self):
        g = Grid(64)
        f = random_scalar_field(g, 3.0, 1.0, (8, 8))
        # power-law shaping: high modes are strongly suppressed
        low = abs(f.coeffs[1, 0])
        high = abs(f.coeffs[20, 0])
        assert high < low

    def test_a_draw_fills_only_the_lines_dealias_keeps(self):
        """At n = 474 a float mask `<= n / 3.0` dropped the |k| = 158 lines a draw fills."""
        f = random_scalar_field(Grid(474), 2.5, 1.0, (6, 474))
        assert np.array_equal(dealias(f).coeffs, f.coeffs)

    @pytest.mark.parametrize("n", [16, 48, 256])
    def test_cached_scatter_matches_the_per_call_construction(self, n):
        g = Grid(n)
        k1, k2, mag = _half_lattice(int(n / 3.0))
        for gamma, key in ((2.5, (3, n)), (1.5, (4, n)), (2.5, (5, n))):
            draws = np.random.default_rng(key).standard_normal((len(mag), 2))
            c = 0.7 * (draws[:, 0] + 1j * draws[:, 1]) / np.sqrt(2.0) * mag**(-gamma)
            expected = np.zeros((n, n), dtype=complex)
            expected[k1 % n, k2 % n] = c
            expected[-k1 % n, -k2 % n] = np.conj(c)
            assert np.array_equal(random_scalar_field(g, gamma, 0.7, key).coeffs, expected)

    def test_mean_free(self):
        f = random_scalar_field(Grid(64), 2.5, 1.0, (7, 7))
        assert f.coeffs[0, 0] == 0.0


class TestSuites:
    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_small_ensemble_passes(self, name):
        report = SUITES[name](SMALL)
        assert report.suite == name
        assert report.all_finite
        assert suite_passes(report)
        assert len(report.lhs) == SMALL.count

    def test_reports_are_deterministic(self):
        a = verify_commutator_hs(SMALL)
        b = verify_commutator_hs(SMALL)
        assert np.array_equal(a.lhs, b.lhs) and np.array_equal(a.rhs, b.rhs)

    def test_kernel_constant_is_sharp_enough(self):
        report = verify_kernel_commutator(SMALL)
        assert report.max_ratio <= KERNEL_RATIO_LIMIT

    def test_bernstein_constant_is_positive(self):
        report = verify_generalized_bernstein(SMALL)
        assert float(np.min(report.ratios[report.included])) > 0.0

    def test_draw_keys_are_suite_salt_seed_sample_stream(self, monkeypatch):
        import bqsim.verify as verify_module

        draws = []
        for name in ("random_scalar_field", "random_divfree_velocity"):

            def spy(grid, gamma, amplitude, key, name=name, draw=getattr(verify_module, name)):
                draws.append((name, key))
                return draw(grid, gamma, amplitude, key)

            monkeypatch.setattr(verify_module, name, spy)
        ens = EnsembleSpec(seed=7, count=2, n=32)
        verify_kernel_commutator(ens)
        salt = zlib.crc32(b"kernel") & 0x7FFFFFFF
        assert draws == [
            ("random_scalar_field", (salt, 7, i, stream)) for i in (0, 1) for stream in (0, 1)
        ]
        draws.clear()
        verify_product_transport(ens)
        salt = zlib.crc32(b"product") & 0x7FFFFFFF
        velocity, scalar = "random_divfree_velocity", "random_scalar_field"
        assert draws == [
            (velocity, (salt, 7, 0, 10)),
            (scalar, (salt, 7, 0, 0)),
            (velocity, (salt, 7, 1, 10)),
            (scalar, (salt, 7, 1, 0)),
        ]

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            verify_commutator_hs(SMALL, s=1.5)
        with pytest.raises(ConfigurationError):
            verify_product_transport(SMALL, s=0.5)
        with pytest.raises(ConfigurationError):
            verify_block_commutator(SMALL, variant="other")

    def test_block_commutator_b2a_ratios_are_finite(self):
        report = verify_block_commutator(EnsembleSpec(count=2, n=32), variant="b2a")
        assert report.params["variant"] == "b2a"
        assert report.all_finite and report.ratios.size == 2


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suites_match_the_sampled_oracle_formulas(suite, n):
    """Every lhs and rhs, on seeds 0-3, against the oracle's formula for the suite, which samples
    each field on the full plane and takes every L^p norm by quadrature, p = 2 too."""
    grid = Grid(n)
    bank = build_filter_bank(grid)
    bands, salt = [bank.chi, *bank.phi], zlib.crc32(suite.encode()) & 0x7FFFFFFF
    for seed in range(4):
        ens = EnsembleSpec(seed=seed, count=3, n=n)
        report, spectrum = SUITES[suite](ens), (ens.spectrum_gamma, ens.amplitude)
        for i in range(ens.count):
            def scalar(stream=0):
                return random_scalar_field(grid, *spectrum, (salt, seed, i, stream)).coeffs

            def velocity():
                v = random_divfree_velocity(grid, *spectrum, (salt, seed, i, 10))
                return tuple(c.coeffs for c in v.components())

            lhs, rhs = oracle.SUITES[suite](grid, bands, scalar, velocity)
            assert report.lhs[i] == pytest.approx(lhs, rel=1e-12, abs=0), (seed, i)
            assert report.rhs[i] == pytest.approx(rhs, rel=1e-12, abs=0), (seed, i)


class TestRatioReport:
    def make_report(self, lhs, rhs):
        return RatioReport(
            suite="demo", params={"s": 0.5}, lhs=np.array(lhs), rhs=np.array(rhs),
        )

    def test_floor_exclusion(self):
        report = self.make_report([1.0, 2.0, 1e-18], [2.0, 4.0, RHS_FLOOR / 10])
        assert report.excluded_count == 1
        assert report.max_ratio == pytest.approx(0.5)
        assert report.median_ratio == pytest.approx(0.5)
        assert 2 in report.excluded_ids

    def test_all_finite_flags_bad_samples(self):
        good = self.make_report([1.0], [2.0])
        assert good.all_finite
        bad = self.make_report([math.nan], [2.0])
        assert not bad.all_finite
        assert not suite_passes(bad)

    def test_csv_roundtrip(self, tmp_path):
        report = self.make_report([1.0, 3.0, 1e-20], [2.0, 6.0, RHS_FLOOR / 10])
        path = tmp_path / "demo.csv"
        report.write_csv(path, ["seed = 42"])
        text = path.read_text()
        assert text.startswith("#")
        assert "seed = 42" in text
        rows = [line for line in text.splitlines() if line and not line.startswith("#")]
        assert rows[0] == "sample_id,lhs,rhs,ratio"
        assert len(rows) == 4
        cells = rows[1].split(",")
        assert float(cells[1]) == 1.0 and float(cells[3]) == 0.5
        assert rows[3].split(",")[3] == "nan"

    def test_summary_mentions_exclusions(self):
        report = self.make_report([1.0, 1e-20], [2.0, RHS_FLOOR / 10])
        text = report.summary()
        assert "excluded=1" in text
        assert "demo" in text


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_a_sample_checks_no_field(suite, symmetry_checks):
    """Random draws are valid by construction, and every suite trusts what it derives."""
    SUITES[suite](EnsembleSpec(seed=7, count=1, n=32))
    assert symmetry_checks == []
