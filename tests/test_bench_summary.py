"""The BENCH summary script on hand-made benchmark result records, the artifact digest and cost
of a benchmark pass, and the bqsim names that the benchmark files reach."""

import ast
import importlib
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bqsim

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "bench_summary.py"

ENVIRONMENT = {
    "nproc": 2, "cpu_model": "test cpu", "python": "3.11.7", "numpy": "2.4.6",
    "fft_backend": "pocketfft", "openblas_num_threads": "1", "loadavg_before": [0.5, 0.5, 0.5],
    "loadavg_after": [0.6, 0.5, 0.5], "git_commit": "0123456789abcdef", "src_sha256": "feed",
}
COUNTS = {
    "dynamics.rhs.calls_per_step": 0.0, "fft.calls_per_record": 0.0,
    "fft.calls_per_sample": 9.25, "fft.calls_per_step": 0.0,
    "littlewood_paley.besov_norm.transforms_per_call": 4.5, "runner.adaptive_dt.fft_calls": 0.0,
    "runner.dt_limit.advective": 0.0, "runner.dt_limit.buoyant": 0.0,
    "runner.dt_limit.event": 0.0, "spectral.advect.calls_per_step": 0.0,
    "fft.self_s": 0.25,
}


def record(wall, passes, failures=(), trace=0, **environment):
    metrics = COUNTS if trace else {
        "setup_s": 0.15, "wall_s": wall, "work_per_s": 64.0 / wall, "peak_rss_mb": 80.0 + wall,
    }
    return {
        "workload": "verify-ensemble", "seed": 3, "seconds": 30.0, "trace": trace,
        "reference_seed": True, "environment": {**ENVIRONMENT, **environment},
        "passes": passes, "pass_walls_s": [wall] * passes, "setup_samples_s": [],
        "calibration_s": [0.14] * passes, "failures": list(failures), "metrics": metrics,
    }


def summarise(tmp_path, *records):
    paths = []
    for i, rec in enumerate(records):
        paths.append(tmp_path / f"record{i}.json")
        paths[-1].write_text(json.dumps(rec))
    out = tmp_path / "BENCH.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), *map(str, paths), "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    return proc, (json.loads(out.read_text()) if proc.returncode == 0 else None)


def test_runs_are_summarised_per_workload_and_seed(tmp_path):
    failed = {"argv": ["verify"], "problems": ["max_ratio differs"]}
    proc, bench = summarise(
        tmp_path, record(1.0, 20), record(2.0, 10, [failed]), record(0.0, 4, trace=1)
    )
    assert proc.returncode == 0, proc.stderr
    assert bench["git_commit"] == "0123456789abcdef"
    assert bench["src_sha256"] == "feed"
    assert "--seconds 30 --trace 0" in bench["method"]
    assert "loadavg_before" not in bench["environment"]
    entry = bench["workloads"]["verify-ensemble"]
    seed = entry["seeds"]["3"]
    # 16 ops per pass: 8 suites at n = 128 and 256
    assert (seed["ops_attempted"], seed["ops_failed"]) == (30 * 16, 1)
    wall = seed["end_to_end"]["wall_s"]
    assert wall == {"median": 1.5, "q1": 1.25, "q3": 1.75, "runs": 2}
    assert seed["end_to_end"]["peak_rss_mb"]["median"] == pytest.approx(81.5)
    assert set(seed["end_to_end"]) == {"setup_s", "wall_s", "work_per_s", "peak_rss_mb"}
    counts = entry["traced_counts"]
    assert counts["fft.calls_per_sample"] == 9.25
    assert counts["littlewood_paley.besov_norm.transforms_per_call"] == 4.5
    assert "fft.self_s" not in counts


def test_records_of_two_revisions_are_refused(tmp_path):
    proc, _ = summarise(tmp_path, record(1.0, 20), record(1.1, 20, src_sha256="other"))
    assert proc.returncode != 0
    assert "2 revisions" in proc.stderr


def test_artifact_digest_lists_the_same_bytes_and_the_cost_of_each_pass():
    """A pass writes deterministic artifacts, so byte identity is one `diff` of two listings,
    and each pass reports its wall time, faults and peak RSS on stderr."""
    argv = [sys.executable, str(ROOT / "tools" / "artifact_digest.py"), "--seed", "0",
            "--workload", "diagnose-n128"]
    runs = [subprocess.run(argv + extra, capture_output=True, text=True, timeout=300)
            for extra in ([], ["--passes", "2"])]
    assert [proc.returncode for proc in runs] == [0, 0], [proc.stderr for proc in runs]
    listing = [line.split("  ") for line in runs[0].stdout.splitlines()]
    assert [path for _, path in listing] == ["diagnose-n128/out/diagnostics.csv",
                                             "diagnose-n128/out/final.bqsf"]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest, _ in listing)
    assert runs[1].stdout == runs[0].stdout
    for proc, passes in zip(runs, (1, 2)):
        header, *rows = [line.split() for line in proc.stderr.splitlines()]
        assert header == ["workload", "pass", "wall_s", "minflt", "maxrss_mb"]
        assert [row[:2] for row in rows] == [["diagnose-n128", str(i)] for i in range(passes)]
        for _, _, wall, faults, rss in rows:
            assert float(wall) > 0 and int(faults) >= 0 and float(rss) > 0


@pytest.mark.parametrize("args", [
    ["--seed", "0", "--workload", "solve-n256", "--workload", "verify-ensemble"],
    ["--seed", "4", "--workload", "diagnose-n128"],
    ["--seed", "6", "--workload", "diagnose-n128"],
    ["--seed", "34", "--workload", "diagnose-n128"],
    ["--seed", "36", "--workload", "diagnose-n128"],
], ids=["seed0-solve-verify", "seed4-diagnose", "seed6-diagnose", "seed34-diagnose", "seed36-diagnose"])
def test_artifact_digest_matches_the_stored_reference(args):
    """Every workload's ops match `perfbench/reference.json`: solve-n256 is the one that runs
    the two-thread step, and diagnose-n128 fails at seeds 4 and 6 when `l2_v` moves by 2e-16.
    Seed 34's energy residual failed the 1e-9 gate under a last-bit change of the step's
    sampler, and seed 36's moved the most when the record's Parseval sums took the half
    spectrum."""
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "artifact_digest.py"), *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_artifact_digest_reads_the_peak_rss_of_its_own_process():
    """`maxrss_mb` is `VmHWM`: a process started from a larger one reads its own peak, where
    `ru_maxrss` would also count the pages of the process it was started from."""
    ballast = b"\x01" * (64 * 2**20)  # 64 MB this process touches before it starts the child
    code = "import sys; sys.path.insert(0, sys.argv[1]); import artifact_digest as a; print(a.peak_rss_mb())"
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "tools")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        own = importlib.import_module("artifact_digest").peak_rss_mb()
    finally:
        sys.path.remove(str(ROOT / "tools"))
    assert 0 < float(proc.stdout) < 64 <= own
    del ballast


#: The benchmark files, which a change to bqsim may not edit.
BENCH_FILES = sorted((ROOT / "perfbench").glob("*.py")) + [SCRIPT]
#: Span and metric names that the tracer and `layers.py` make up rather than take from a
#: bqsim function: the methods the tracer wraps by name, each verify sample and suite, and
#: metrics derived from other spans.
MADE_UP = {"diagnostics.record", "verify.write_csv", "verify.sample", "verify.suite",
           "diagnostics.checks", "diagnostics.record_per_step", "runner.dt_limit"}


def layer_modules():
    """`tracer.LAYER_MODULES`: the bqsim modules whose public functions are traced."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    [value] = [node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets] == ["LAYER_MODULES"]]
    return ast.literal_eval(value)


def unresolved_names(path, layers):
    """Every bqsim name `path` imports, reaches as an attribute of bqsim or of a bqsim object
    it bound (`sys.modules["bqsim.verify"]` included), patches through `vars()`, looks up by
    `getattr` or names as a traced span `<module>.<function>`, that bqsim does not have."""
    tree = ast.parse(path.read_text(), str(path))
    bound, missing = {"bqsim": bqsim}, []

    def reach(owner, attr, where, own=False):
        if not (attr in vars(owner) if own else hasattr(owner, attr)):
            missing.append(f"{path.name}:{where.lineno}: {getattr(owner, '__name__', owner)}.{attr}")
            return None
        return getattr(owner, attr)

    def resolve(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute):
            owner = resolve(node.value)
            return None if owner is None else reach(owner, node.attr, node)
        if (isinstance(node, ast.Subscript) and ast.unparse(node.value) == "sys.modules"
                and isinstance(node.slice, ast.Constant)
                and str(node.slice.value).startswith("bqsim.")):
            return reach(bqsim, node.slice.value.split(".", 1)[1], node)
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("bqsim."):
                    reach(bqsim, alias.name.split(".", 1)[1], node)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bqsim":
            module = importlib.import_module(node.module)
            for alias in node.names:
                bound[alias.asname or alias.name] = reach(module, alias.name, node)
        elif isinstance(node, ast.Assign) and [type(t) for t in node.targets] == [ast.Name]:
            if (value := resolve(node.value)) is not None:
                bound[node.targets[0].id] = value
        elif isinstance(node, ast.Call) and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
            owner = resolve(node.args[0])
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if owner is not None and name in ("_patch", "getattr"):
                reach(owner, node.args[1].value, node, own=name == "_patch")
        elif isinstance(node, ast.Attribute):
            resolve(node)
        pairs = []
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and not node.value.endswith(
                (".txt", ".csv")):  # file names such as diagnostics.csv
            match = re.fullmatch(rf"({'|'.join(layers)})\.([a-z_]+)(\..*)?", node.value)
            pairs = [match.group(1, 2)] if match and ".".join(match.group(1, 2)) not in MADE_UP else []
        elif isinstance(node, ast.Tuple) and len(node.elts) == 2:
            values = [getattr(e, "value", None) for e in node.elts]
            pairs = [tuple(values)] if values[0] in layers and isinstance(values[1], str) else []
        for module_name, name in pairs:
            module = importlib.import_module(f"bqsim.{module_name}")
            traced = [attr for attr, fn in vars(module).items() if not attr.startswith("_")
                      and inspect.isfunction(fn) and fn.__module__ == module.__name__]
            if not any(attr == name or name.endswith("_") and attr.startswith(name) for attr in traced):
                missing.append(f"{path.name}:{node.lineno}: span {module_name}.{name}")
    return missing


def test_every_bqsim_name_the_benchmark_reaches_exists():
    """The benchmark files stay as they are while bqsim changes, so a rename in `src/` must
    fail here, not in a benchmark run or as a traced metric that silently reads 0."""
    layers = layer_modules()
    for module in layers:  # as `Tracer.install` does
        importlib.import_module(f"bqsim.{module}")
    missing = [entry for path in BENCH_FILES for entry in unresolved_names(path, layers)]
    assert missing == []
