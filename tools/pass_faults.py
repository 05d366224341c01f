#!/usr/bin/env python3
"""Print the wall time, minor page faults and peak RSS of each benchmark pass, in-process.

    python3 tools/pass_faults.py --workload verify-ensemble --seed 5 [--passes 8]

Builds the inputs of one workload of `perfbench/workloads.py` for the seed, in a temporary
directory, with the bqsim of this checkout's `src/`, then runs the passes one after another in
this process and prints one line per pass: its wall seconds, the minor page faults it took
(`ru_minflt`) and the process's peak RSS after it (`ru_maxrss`, in MB).  Fault counts show
the heap trims and refaults that wall time alone hides; they do not depend on the host's
speed.  Each op is checked as the benchmark checks it; a failed op is reported on stderr and
the exit code is 1.
"""

import argparse
import resource
import sys
import tempfile
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error(f"--passes must be >= 1, got {args.passes}")

    sys.path.insert(0, str(PERFBENCH))
    import run

    run.import_bqsim()
    import bqsim.cli
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    w = wl.WORKLOADS[args.workload]
    reference = wl.load_reference(PERFBENCH / "reference.json")
    failed = False
    print("pass  wall_s  minflt  maxrss_mb")
    with tempfile.TemporaryDirectory() as tmp:
        inputs = wl.build_inputs(w, args.seed, Path(tmp))
        argvs = wl.pass_argvs(w, inputs, args.seed, Path(tmp))
        for i in range(args.passes):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            ops = [wl.call(bqsim.cli.main, op_argv) for op_argv in argvs]
            wall = time.perf_counter() - t0
            usage = resource.getrusage(resource.RUSAGE_SELF)
            print(f"{i}  {wall:.4f}  {usage.ru_minflt - before}  {usage.ru_maxrss / 1024.0:.2f}")
            for op in ops:
                for problem in wl.problems(w, op, None, wl.reference_for(w, reference, args.seed, op)):
                    print(f"op failed: {' '.join(op.argv)}: {problem}", file=sys.stderr)
                    failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
