#!/usr/bin/env python3
"""Print the sha256 of every artifact that one benchmark pass writes.

    python3 tools/artifact_digest.py --seed 0 [--workload diagnose-n128 ...] > digest.txt

Runs one pass of each workload of `perfbench/workloads.py` (or of the ones named) for the
seed, in a temporary directory, with the bqsim of this checkout's `src/`, and prints one line
`<sha256>  <workload>/<path>` for each `.bqsf` checkpoint, `diagnostics.csv` and verify CSV,
in path order.  Two checkouts wrote the same bytes when their listings `diff` clean.  Each op
is checked as the benchmark checks it, against `perfbench/reference.json` when the seed has
an entry there; a failed op is reported on stderr and the exit code is 1.
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    args = parser.parse_args(argv)

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
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            w, work = wl.WORKLOADS[name], Path(tmp) / name
            inputs = wl.build_inputs(w, args.seed, work)
            for op_argv in wl.pass_argvs(w, inputs, args.seed, work):
                op = wl.call(bqsim.cli.main, op_argv)
                ref = wl.reference_for(w, reference, args.seed, op)
                for problem in wl.problems(w, op, None, ref):
                    print(f"op failed: {' '.join(op_argv)}: {problem}", file=sys.stderr)
                    failed = True
            for path in sorted(p for p in work.rglob("*") if p.suffix in (".bqsf", ".csv")):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {path.relative_to(tmp).as_posix()}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
