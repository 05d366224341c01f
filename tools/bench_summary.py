#!/usr/bin/env python3
"""Summarise benchmark result records of one revision into BENCH_<short-sha>.json.

    python3 tools/bench_summary.py RECORD_OR_DIR ... [--out PATH]

Each argument is a result record written by `perfbench/run.py` under
`.perfbench_work/results/`, or a directory of them.  `run.py` names a record
after its workload, seed and trace flag, so a later run overwrites an earlier
one: copy each record aside before the next run of the same seed.

Untraced records (`--trace 0`) give, per workload and seed, the median and
inclusive quartiles of each end-to-end metric over the runs, and the ops
attempted and failed.  A traced record (`--trace 1`) of a workload adds its
hardware-independent counts.  Every record must come from the same commit
and sources.  Without `--out` the summary is written to BENCH_<short-sha>.json
at the repository root.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = ("peak_rss_mb", "setup_s", "wall_s", "work_per_s")
#: Traced metrics that count work; they do not depend on the host's speed.
TRACED_COUNTS = (
    "dynamics.rhs.calls_per_step",
    "fft.calls_per_record",
    "fft.calls_per_sample",
    "fft.calls_per_step",
    "littlewood_paley.besov_norm.transforms_per_call",
    "runner.adaptive_dt.fft_calls",
    "runner.dt_limit.advective",
    "runner.dt_limit.buoyant",
    "runner.dt_limit.event",
    "spectral.advect.calls_per_step",
)
ENVIRONMENT = ("cpu_model", "fft_backend", "nproc", "numpy", "openblas_num_threads", "python")


def ops_per_pass(workload: str) -> int:
    """Ops in one pass: one `bqsim run`, or one `bqsim verify` per suite and grid size."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from bqsim.verify import SUITES

    w = workloads.WORKLOADS[workload]
    return 1 if w.kind == "run" else len(w.sizes) * len(SUITES)


def quartiles(values) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def load_records(paths):
    records = []
    for path in map(Path, paths):
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        records.extend(json.loads(f.read_text()) for f in files)
    if not records:
        raise SystemExit("error: no result records given")
    return records


def summarise(records) -> dict:
    revisions = {(r["environment"]["git_commit"], r["environment"]["src_sha256"]) for r in records}
    if len(revisions) != 1:
        raise SystemExit(f"error: records come from {len(revisions)} revisions: {sorted(revisions)}")
    (commit, sources), = revisions
    untraced = [r for r in records if not r["trace"]]
    seconds = sorted({r["seconds"] for r in untraced})
    out = {
        "environment": {k: records[0]["environment"][k] for k in ENVIRONMENT},
        "git_commit": commit,
        "method": (
            f"python3 perfbench/run.py --workload W --seed S --seconds "
            f"{'/'.join(f'{s:g}' for s in seconds)} --trace 0, run in alternating "
            "parent/change pairs from a clean clone of each commit; times are calibrated "
            "by run.Calibrator; median and inclusive quartiles over runs"
        ),
        "src_sha256": sources,
        "workloads": {},
    }
    runs = {}
    for r in untraced:
        runs.setdefault(r["workload"], {}).setdefault(str(r["seed"]), []).append(r)
    for name in {r["workload"] for r in records}:
        entry = out["workloads"].setdefault(name, {"seeds": {}})
        for seed, group in runs.get(name, {}).items():
            entry["seeds"][seed] = {
                "end_to_end": {m: quartiles([r["metrics"][m] for r in group]) for m in END_TO_END},
                "ops_attempted": sum(r["passes"] for r in group) * ops_per_pass(name),
                "ops_failed": sum(len(r["failures"]) for r in group),
            }
        traced = [r for r in records if r["trace"] and r["workload"] == name]
        if traced:
            entry["traced_counts"] = {k: traced[-1]["metrics"][k] for k in TRACED_COUNTS}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("records", nargs="+", help="result records or directories of them")
    parser.add_argument("--out", help="output path (default: BENCH_<short-sha>.json at the root)")
    args = parser.parse_args(argv)
    summary = summarise(load_records(args.records))
    out = Path(args.out) if args.out else ROOT / f"BENCH_{summary['git_commit'][:7]}.json"
    out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
