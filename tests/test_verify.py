"""Tests for the seeded inequality ensembles and their ratio reports."""

import ast
import hashlib
import math
import os
import subprocess
import sys
import threading
import zlib
from pathlib import Path

import numpy as np
import pytest

import bqsim
import bqsim.dynamics
import bqsim.verify
import oracle
from bqsim import (
    ConfigurationError,
    EnsembleSpec,
    Grid,
    InvalidInputError,
    RatioReport,
    SUITES,
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
    bands, salt = oracle.bands(grid), zlib.crc32(suite.encode()) & 0x7FFFFFFF
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

    def test_floor_is_relative_to_the_largest_rhs(self):
        report = self.make_report([1e-20, 2e-20, 1e-38], [2e-20, 4e-20, 4e-20 * RHS_FLOOR])
        assert report.excluded_ids == [2] and report.max_ratio == pytest.approx(0.5)
        assert self.make_report([1.0, 1.0], [0.0, 0.0]).excluded_count == 2
        inf = self.make_report([1.0, 1.0, 1.0], [2.0, math.inf, RHS_FLOOR])
        assert inf.excluded_ids == [2]  # the scale is the largest finite rhs

    def test_summary_mentions_exclusions(self):
        report = self.make_report([1.0, 1e-20], [2.0, RHS_FLOOR / 10])
        text = report.summary()
        assert "excluded=1" in text
        assert "demo" in text


@pytest.mark.parametrize("amplitude", [1e-6, 1e-8, 1e-15])
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verdicts_and_ratios_do_not_depend_on_the_amplitude(suite, amplitude):
    """Every suite is homogeneous in the draws' amplitude.  An absolute rhs floor excluded every
    gen-bernstein and power-map sample at amplitude 1e-6, and every product one at 1e-8."""
    unit = SUITES[suite](EnsembleSpec(seed=5, count=2, n=32))
    small = SUITES[suite](EnsembleSpec(seed=5, count=2, n=32, amplitude=amplitude))
    assert suite_passes(small) == suite_passes(unit)
    assert small.excluded_count == unit.excluded_count == 0
    np.testing.assert_allclose(small.ratios, unit.ratios, rtol=1e-12, atol=0)


def digests(n, count=3):
    """Each suite's sha256 of its lhs and rhs bytes at size n on seed 9."""
    reports = (SUITES[name](EnsembleSpec(seed=9, count=count, n=n)) for name in sorted(SUITES))
    return [hashlib.sha256(r.lhs.tobytes() + r.rhs.tobytes()).hexdigest() for r in reports]


def has_worker():
    return bool(bqsim.dynamics._worker(os.getpid()))


class TestSamplePairs:
    """From `PARALLEL_MIN_N` samples i and i + 1 run on two threads, gathered in index order."""

    def test_paired_samples_equal_one_thread_bit_for_bit(self, monkeypatch):
        paired = digests(192)
        monkeypatch.setattr(bqsim.dynamics, "PARALLEL_MIN_N", 10**9)
        assert paired == digests(192)

    def test_caches_built_by_both_threads_give_the_same_bytes(self, monkeypatch):
        """A fresh interpreter builds the grid's arrays, the filter bank and the draws' lattice
        while the first pair of samples runs."""
        code = "import sys; sys.path[:0] = sys.argv[1:]; import test_verify; print(*test_verify.digests(192))"
        env = {**os.environ, "PYTHONPATH": ""}
        paths = [str(Path(bqsim.__file__).parent.parent), str(Path(__file__).parent)]
        proc = subprocess.run([sys.executable, "-W", "ignore::DeprecationWarning", "-c", code, *paths],
                              capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        monkeypatch.setattr(bqsim.dynamics, "PARALLEL_MIN_N", 10**9)
        assert proc.stdout.split() == digests(192)

    @pytest.mark.parametrize("n, count", [(192, 2), (192, 3), (128, 2)])
    def test_the_worker_runs_the_second_sample_of_each_pair(self, monkeypatch, n, count):
        threads, draw = [], bqsim.verify.random_scalar_field

        def spy(grid, gamma, amplitude, key):
            threads.append((key[2], threading.get_ident()))
            return draw(grid, gamma, amplitude, key)

        monkeypatch.setattr(bqsim.verify, "random_scalar_field", spy)
        verify_kernel_commutator(EnsembleSpec(seed=2, count=count, n=n))
        caller, paired = threading.get_ident(), n >= bqsim.dynamics.PARALLEL_MIN_N and has_worker()
        on_worker = {i for i, t in threads if t != caller}
        assert on_worker == ({1} if paired else set())
        assert {i for i, t in threads if t == caller} == set(range(count)) - on_worker
        assert len({t for _, t in threads}) == (2 if paired else 1)

    @pytest.mark.parametrize("failing", [0, 1])
    def test_a_sample_that_raises_raises_as_on_one_thread(self, monkeypatch, failing):
        draw, raised_on = bqsim.verify.random_scalar_field, []

        def spy(grid, gamma, amplitude, key):
            if key[2] == failing:
                raised_on.append(threading.get_ident())
                raise InvalidInputError(f"sample {failing} has no draw")
            return draw(grid, gamma, amplitude, key)

        monkeypatch.setattr(bqsim.verify, "random_scalar_field", spy)
        ens = EnsembleSpec(seed=2, count=2, n=192)
        with pytest.raises(InvalidInputError, match=f"^sample {failing} has no draw$"):
            verify_kernel_commutator(ens)
        on_worker = failing == 1 and has_worker()
        assert (raised_on != [threading.get_ident()]) == on_worker
        monkeypatch.setattr(bqsim.dynamics, "PARALLEL_MIN_N", 10**9)
        with pytest.raises(InvalidInputError, match=f"^sample {failing} has no draw$"):
            verify_kernel_commutator(ens)


def thread_uses(node, where="<module>"):
    """The innermost def around each name `submit` or `ThreadPoolExecutor` under an AST node:
    an attribute, a name or an import."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = node.name
    names = {getattr(node, "attr", None), getattr(node, "id", None)}
    names |= {getattr(a, "name", a) for a in getattr(node, "names", ())}
    found = {where} if names & {"submit", "ThreadPoolExecutor"} else set()
    for child in ast.iter_child_nodes(node):
        found |= thread_uses(child, where)
    return found


def test_threads_start_only_in_the_one_pair_helper():
    """Every `submit` and `ThreadPoolExecutor` of the program is in `dynamics._pair` or
    `dynamics._worker`: one worker thread, and one way to reach it."""
    found = {(path.stem, where) for path in Path(bqsim.__file__).parent.glob("*.py")
             for where in thread_uses(ast.parse(path.read_text()))}
    assert found == {("dynamics", "_pair"), ("dynamics", "_worker")}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_a_sample_checks_no_field(suite, symmetry_checks):
    """Random draws are valid by construction, and every suite trusts what it derives."""
    SUITES[suite](EnsembleSpec(seed=7, count=1, n=32))
    assert symmetry_checks == []
