"""The BENCH summary script on hand-made benchmark result records."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_summary.py"

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
