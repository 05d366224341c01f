#!/usr/bin/env python3
"""Print the sha256 of every artifact that a benchmark pass writes, and what each pass cost.

    python3 tools/artifact_digest.py --seed 0 [--workload W ...] [--passes P] > digest.txt

For each workload of `perfbench/workloads.py` (or each one named) builds the seed's inputs once,
in a temporary directory, with the bqsim of this checkout's `src/`, and runs P passes (default 1)
in this process.  Stdout lists the first pass's artifacts, one line `<sha256>  <workload>/<path>`
for each `.bqsf` checkpoint, `diagnostics.csv` and verify CSV, in path order; two checkouts
wrote the same bytes when their listings `diff` clean.  Stderr gets one row
`workload pass wall_s minflt maxrss_mb` per pass: its wall seconds, the minor page faults it
took (`ru_minflt`, which show the heap trims and refaults that wall time hides and do not
depend on the host's speed) and the process's peak RSS after it (`VmHWM` of /proc/self/status,
MB: the high-water mark of this process's own pages, where `ru_maxrss` also counts those of the
process it was started from; it is process-wide, so name one workload to read its own).  Each
op is checked as the benchmark checks it, against `perfbench/reference.json` when the seed has
an entry there, and a later pass must write the first pass's bytes; a failure is reported on
stderr and the exit code is 1.
"""

import argparse
import hashlib
import resource
import sys
import tempfile
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def peak_rss_mb() -> float:
    """This process's peak resident set size, MB: `VmHWM` of /proc/self/status."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0  # kB
    raise RuntimeError("/proc/self/status has no VmHWM line")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    parser.add_argument("--passes", type=int, default=1, help="passes per workload, >= 1")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error(f"--passes must be >= 1, got {args.passes}")

    sys.path.insert(0, str(PERFBENCH))
    import run

    run.import_bqsim()
    import bqsim.cli
    import workloads as wl

    names = args.workload or list(wl.WORKLOADS)
    if unknown := sorted(set(names) - set(wl.WORKLOADS)):
        parser.error(f"unknown workload {unknown}; choose from {sorted(wl.WORKLOADS)}")
    reference = wl.load_reference(PERFBENCH / "reference.json")
    failed = False
    print("workload  pass  wall_s  minflt  maxrss_mb", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            w, work = wl.WORKLOADS[name], Path(tmp) / name
            argvs = wl.pass_argvs(w, wl.build_inputs(w, args.seed, work), args.seed, work)
            first_digest = {}
            for i in range(args.passes):
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                t0 = time.perf_counter()
                ops = [wl.call(bqsim.cli.main, op_argv) for op_argv in argvs]
                wall = time.perf_counter() - t0
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
                print(f"{name}  {i}  {wall:.4f}  {faults}  {peak_rss_mb():.2f}", file=sys.stderr)
                for j, op in enumerate(ops):
                    ref = wl.reference_for(w, reference, args.seed, op)
                    for problem in wl.problems(w, op, first_digest.get(j), ref):
                        print(f"op failed: {' '.join(op.argv)}: {problem}", file=sys.stderr)
                        failed = True
                    first_digest.setdefault(j, op.digest)
                if i == 0:
                    for path in sorted(p for p in work.rglob("*") if p.suffix in (".bqsf", ".csv")):
                        digest = hashlib.sha256(path.read_bytes()).hexdigest()
                        print(f"{digest}  {path.relative_to(tmp).as_posix()}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
