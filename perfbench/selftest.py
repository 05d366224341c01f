#!/usr/bin/env python3
"""Quick self-test of the benchmark at tiny sizes (n=32, a few steps and samples).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json, the glossary and the code name the same metrics
with the same units and that a run emits every one of them; that in every
traced op the self times of the span tree sum to the root span; that the
FFT shim counts a batched transform once with all its elements; and that
the FFT counts equal the hand count from the code: a step makes 34 inverse
+ 8 forward FFTs, adaptive_dt 3 (one for theta, two for the velocity in
cfl_dt), and a record 5 + 2 (qmax + 2) + 4 with qmax = ceil(log2(n/2)) + 1.
When a change to bqsim alters those counts by design, update HAND_COUNT.
Exits 1 if a check fails.
"""

import json
import math
import sys

import run

N = 32
HAND_COUNT = {
    "fft.calls_per_step": 34 + 8,
    "runner.adaptive_dt.fft_calls": 3,
    "fft.calls_per_record": 5 + 2 * (math.ceil(math.log2(N / 2)) + 1 + 2) + 4,
    "dynamics.rhs.calls_per_step": 4,
    "spectral.advect.calls_per_step": 8,
}

failures = []


def check(ok, message):
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def main():
    bqsim = run.import_bqsim()
    import numpy as np

    import layers
    import workloads as wl
    from tracer import PARENT, VALUE, Tracer

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    glossary = json.loads((run.HERE / "glossary.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check(e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches run.END_TO_END")
    check(per_layer == layers.METRICS, "BENCHMARK.json per_layer matches layers.METRICS")
    check({w["name"] for w in bench["workloads"]} == set(wl.WORKLOADS),
          "BENCHMARK.json workloads match workloads.WORKLOADS")
    check(all(glossary["metrics"].get(k, {}).get("unit") == u
              for k, u in {**e2e, **per_layer}.items()),
          "glossary.json gives every metric with its unit")

    originals = (bqsim.spectral.inverse_transform, bqsim.dynamics.inverse_transform,
                 bqsim.verify.SUITES["kernel"], np.fft.ifft2)
    tracer = Tracer()
    tracer.install(bqsim)
    try:
        np.fft.rfft2(np.zeros((3, 8, 8)))
        batched = tracer.spans[-1]
    finally:
        tracer.uninstall()
    check(batched[0] == "fft.rfft2" and batched[VALUE] == (192, 192 * 8 + 3 * 8 * 5 * 16),
          f"a batched rfft2 counts once with all its elements: {batched[0]} {batched[VALUE]}")
    restored = (bqsim.spectral.inverse_transform, bqsim.dynamics.inverse_transform,
                bqsim.verify.SUITES["kernel"], np.fft.ifft2)
    check(all(a is b for a, b in zip(originals, restored)),
          "uninstall restores the original functions")

    tiny = (
        wl.RunWorkload("tiny-solve", n=N, target_dt=0.02, steps=4, diag_cadence=3,
                       checkpoints=1),
        wl.RunWorkload("tiny-diagnose", n=N, target_dt=0.02, steps=3, diag_cadence=1,
                       checkpoints=0),
        wl.VerifyWorkload("tiny-verify", sizes=(N, 2 * N), count=2),
    )
    for w in tiny:
        for trace in (0, 1):
            runner, metrics, tracer = run.measure(
                w, 3, 0.0, trace, run.WORK / "selftest" / w.name, {})
            label = f"{w.name} trace={trace}"
            check(not runner.failures and runner.attempted > 0,
                  f"{label}: {runner.attempted} ops, failures {runner.failures}")
            wanted = set(per_layer) if trace else set(e2e) - {"setup_s"}
            missing = wanted - set(metrics)
            check(not missing, f"{label}: emits every metric (missing {sorted(missing)})")
            check(all(isinstance(v, (int, float)) and math.isfinite(v)
                      for v in metrics.values()), f"{label}: every value is a finite number")
            if not trace:
                continue
            roots = [s for s in tracer.spans if s[PARENT] < 0]
            check(len(roots) == tracer.op + 1
                  and all(s[0] == "cli.main" for s in roots)
                  and sum(s[0] == "cli.main" for s in tracer.spans) == len(roots),
                  f"{label}: one cli.main root span per traced op ({len(roots)})")
            gap = layers.subtree_self_check(tracer.spans)
            check(gap < 1e-9, f"{label}: self times sum to each root span (gap {gap:.2e} s)")
            leaf = next(s for s in tracer.spans if s[0].startswith("fft."))
            leaf[2] += 1.0  # a child that outlasts its parent must show as a gap
            check(layers.subtree_self_check(tracer.spans) > 0.5,
                  f"{label}: the self-time check detects a broken span tree")
            if w.kind == "run":
                for key, expected in HAND_COUNT.items():
                    check(metrics[key] == expected,
                          f"{label}: {key} = {metrics[key]} (hand count {expected})")
                limits = sum(metrics[f"runner.dt_limit.{k}"]
                             for k in ("advective", "buoyant", "event"))
                check(limits >= 1, f"{label}: {limits:g} steps per pass have a dt limit")
            else:
                check(metrics["fft.calls_per_sample"] > 0,
                      f"{label}: fft.calls_per_sample = {metrics['fft.calls_per_sample']:g}")

    setup = run.setup_seconds("diagnose-n128", 3)
    check(len(setup) == run.SETUP_REPEATS and all(t > 0 and c > 0 for t, c in setup),
          f"set-up probes report set-up and calibration times: {setup}")
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
