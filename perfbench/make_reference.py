#!/usr/bin/env python3
"""Rebuild perfbench/reference.json from one checked pass per workload and seed.

    python3 perfbench/make_reference.py --seeds 0-63

The benchmark compares every op of a later commit with the entry stored here
for its seed (step count, final diagnostics row and check verdicts of a run;
verdict and max/median ratio of each verify suite).  Rebuild it only at a
commit whose outputs are trusted, and say so in the change that does.
"""

import argparse
import json
import sys

import run


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-63", help="e.g. 0-63 or 0,5,9-12")
    args = parser.parse_args()

    run.import_bqsim()
    import bqsim.cli
    import workloads as wl

    reference = {}
    for name, w in wl.WORKLOADS.items():
        for seed in parse_seeds(args.seeds):
            runner = run.Runner(w, seed, run.WORK / "reference" / name, {}, bqsim.cli.main)
            _, ops = runner.one_pass()
            if runner.failures:
                sys.exit(f"{name} seed {seed} failed its checks: {runner.failures}")
            reference.setdefault(name, {})[str(seed)] = wl.reference_entry(w, ops)
            print(f"{name} seed {seed}: {runner.walls[-1]:.2f} s", flush=True)
    path = run.HERE / "reference.json"
    path.write_text(format_reference(reference))
    print(f"wrote {path}")


def format_reference(reference):
    """JSON with one line per workload and seed, so diffs stay readable."""
    blocks = []
    for name, seeds in sorted(reference.items()):
        lines = [f"  {json.dumps(str(seed))}: {json.dumps(seeds[seed], sort_keys=True)}"
                 for seed in sorted(seeds, key=int)]
        blocks.append(f"{json.dumps(name)}: {{\n" + ",\n".join(lines) + "\n}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    main()
