"""Per-layer metrics computed from the spans of a traced run.

Timings are medians over the traced timing passes; counts come from every
traced pass and repeat exactly for a given seed.  The first traced pass
also digests the input of every inverse transform (for `repeat_ratio`);
digesting costs time that lands in the callers' self time, so that pass is
kept out of the timings.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

import numpy as np

from tracer import NAME, PARENT, VALUE, nearest_ancestors, self_times

SUITE_NAMES = (
    "block-commutator", "commutator-bp", "commutator-hs", "gen-bernstein",
    "kernel", "log-interp", "power-map", "product",
)
VERIFY_SIZES = (128, 256)

#: name -> unit, in report order.
METRICS = {
    "fft.calls_per_step": "count",
    "fft.elements_per_step": "count",
    "fft.bytes_per_step": "bytes",
    "fft.self_s": "s",
    "fft.share": "ratio",
    "fft.calls_per_record": "count",
    "fft.calls_per_sample": "count",
    "spectral.inverse_transform.calls": "count",
    "spectral.inverse_transform.self_s": "s",
    "spectral.inverse_transform.repeat_ratio": "ratio",
    "spectral.hermitian_defect.self_s": "s",
    "spectral.forward_transform.calls": "count",
    "spectral.forward_transform.self_s": "s",
    "spectral.advect.calls_per_step": "count",
    "spectral.advect.self_s": "s",
    "littlewood_paley.besov_norm.calls": "count",
    "littlewood_paley.besov_norm.self_s": "s",
    "littlewood_paley.besov_norm.transforms_per_call": "count",
    "littlewood_paley.commutator_riesz.self_s": "s",
    "littlewood_paley.commutator_block.self_s": "s",
    "fields.random_scalar_field.calls": "count",
    "fields.random_scalar_field.self_s": "s",
    "dynamics.step.p50_ms": "ms",
    "dynamics.step.p90_ms": "ms",
    "dynamics.step.samples": "count",
    "dynamics.rhs.calls_per_step": "count",
    "dynamics.rhs.self_s": "s",
    "runner.adaptive_dt.self_s": "s",
    "runner.adaptive_dt.fft_calls": "count",
    "runner.run.self_s": "s",
    "runner.dt_limit.advective": "count",
    "runner.dt_limit.buoyant": "count",
    "runner.dt_limit.event": "count",
    "diagnostics.record.calls": "count",
    "diagnostics.record.p50_ms": "ms",
    "diagnostics.record.p90_ms": "ms",
    "diagnostics.record.samples": "count",
    "diagnostics.record_per_step": "ratio",
    "diagnostics.checks.self_s": "s",
    "simio.write_checkpoint.calls": "count",
    "simio.write_checkpoint.bytes": "bytes",
    "simio.write_checkpoint.self_s": "s",
    "simio.write_diagnostics_csv.bytes": "bytes",
    "simio.write_diagnostics_csv.self_s": "s",
    **{f"verify.{s}.n{n}.ms_per_sample": "ms" for s in SUITE_NAMES for n in VERIFY_SIZES},
    "phase.stepping_s": "s",
    "phase.diagnostics_s": "s",
    "phase.io_s": "s",
    "phase.orchestration_s": "s",
    "trace.overhead_s": "s",
}

#: Metrics whose value is the self time or call count of the span named by
#: the metric without its suffix; the others are computed one by one below.
_DERIVED = ("fft.self_s", "diagnostics.checks.self_s")
_SELF_METRICS = [m for m in METRICS if m.endswith(".self_s") and m not in _DERIVED]
_CALL_METRICS = [m for m in METRICS if m.endswith(".calls")]

_CONTEXTS = {
    "step": "dynamics.step".__eq__,
    "record": "diagnostics.record".__eq__,
    "adaptive": "runner.adaptive_dt".__eq__,
    "sample": "verify.sample".__eq__,
    "besov": "littlewood_paley.besov_norm".__eq__,
    "suite": lambda name: name.startswith("verify.suite."),
}
_IO = ("simio.write_checkpoint", "simio.write_diagnostics_csv", "simio.read_checkpoint",
       "simio.records_from_csv", "verify.write_csv")


def is_fft(name: str) -> bool:
    return name.startswith("fft.")


def _median(values):
    return statistics.median(values) if values else 0.0


def ratio(a, b):
    return a / b if b else 0.0


def _percentile_ms(durations, q):
    return float(np.percentile(np.asarray(durations) * 1e3, q)) if durations else 0.0


def _pass_totals(spans, lo, hi, duration, self_t):
    """Per-name self time and inclusive time in one pass (no bqsim function
    is recursive, so inclusive times of one name never nest)."""
    self_by, incl_by = defaultdict(float), defaultdict(float)
    for i in range(lo, hi):
        name = spans[i][NAME]
        self_by[name] += self_t[i]
        incl_by[name] += duration[i]
    return self_by, incl_by


def dt_limits(spans, lo, hi, anc):
    """Which limit set each step: compare the step's dt with adaptive_dt's
    result and with the cfl_dt computed inside that adaptive_dt call."""
    counts = Counter()
    adaptive = cfl = None
    for i in range(lo, hi):
        name, value = spans[i][NAME], spans[i][VALUE]
        if name == "runner.adaptive_dt":
            adaptive, cfl = value, None
        elif name == "dynamics.cfl_dt" and anc["adaptive"][i] >= 0:
            cfl = value
        elif name == "dynamics.step" and adaptive is not None:
            if value < adaptive:
                counts["event"] += 1
            elif cfl is not None and cfl <= adaptive:
                counts["advective"] += 1
            else:
                counts["buoyant"] += 1
            adaptive = cfl = None
    return counts


def repeat_ratio(spans, lo, hi, anc):
    """Share of inverse transforms (inside a step, record or verify sample)
    whose input digest was already transformed in the same unit."""
    seen = defaultdict(set)
    total = repeats = 0
    for i in range(lo, hi):
        if spans[i][NAME] != "spectral.inverse_transform" or spans[i][VALUE] is None:
            continue
        unit = max(anc["step"][i], anc["record"][i], anc["sample"][i])
        if unit < 0:
            continue
        total += 1
        digest = spans[i][VALUE]
        if digest in seen[unit]:
            repeats += 1
        seen[unit].add(digest)
    return repeats / total if total else 0.0


def layer_metrics(spans, count_pass, timing_passes, untraced_walls, traced_walls):
    """All per-layer metrics.

    `count_pass` and `timing_passes` are (first span, end span) pairs into
    `spans`; the count pass carries input digests.  The calibrated walls
    of the untraced and traced timing passes give `trace.overhead_s`.
    """
    duration, self_t = self_times(spans)
    anc = nearest_ancestors(spans, _CONTEXTS)
    every = [count_pass] + list(timing_passes)
    timing = list(timing_passes) or [count_pass]
    out = {name: 0.0 for name in METRICS}

    # Counts over every traced pass; identical from pass to pass.
    n_pass = len(every)
    tally = Counter()
    fft_elements = fft_bytes = 0
    limits = Counter()
    for lo, hi in every:
        limits.update(dt_limits(spans, lo, hi, anc))
        for i in range(lo, hi):
            name = spans[i][NAME]
            tally[name] += 1
            if is_fft(name):
                if anc["step"][i] >= 0:
                    tally["fft@step"] += 1
                    fft_elements += spans[i][VALUE][0]
                    fft_bytes += spans[i][VALUE][1]
                if anc["record"][i] >= 0:
                    tally["fft@record"] += 1
                if anc["adaptive"][i] >= 0:
                    tally["fft@adaptive"] += 1
                if anc["besov"][i] >= 0:
                    tally["fft@besov"] += 1
                if anc["suite"][i] >= 0:
                    tally["fft@suite"] += 1
            elif name in ("dynamics.rhs", "spectral.advect") and anc["step"][i] >= 0:
                tally[name + "@step"] += 1
            elif name.startswith("verify.suite."):
                tally["samples"] += spans[i][VALUE][2]

    steps, records = tally["dynamics.step"], tally["diagnostics.record"]
    out["fft.calls_per_step"] = ratio(tally["fft@step"], steps)
    out["fft.elements_per_step"] = ratio(fft_elements, steps)
    out["fft.bytes_per_step"] = ratio(fft_bytes, steps)
    out["fft.calls_per_record"] = ratio(tally["fft@record"], records)
    out["fft.calls_per_sample"] = ratio(tally["fft@suite"], tally["samples"])
    out["spectral.advect.calls_per_step"] = ratio(tally["spectral.advect@step"], steps)
    out["dynamics.rhs.calls_per_step"] = ratio(tally["dynamics.rhs@step"], steps)
    out["runner.adaptive_dt.fft_calls"] = ratio(tally["fft@adaptive"], tally["runner.adaptive_dt"])
    out["littlewood_paley.besov_norm.transforms_per_call"] = ratio(
        tally["fft@besov"], tally["littlewood_paley.besov_norm"])
    out["diagnostics.record_per_step"] = ratio(records, steps)
    for key in ("advective", "buoyant", "event"):
        out[f"runner.dt_limit.{key}"] = limits[key] / n_pass
    for metric in _CALL_METRICS:
        out[metric] = tally[metric.removesuffix(".calls")] / n_pass
    out["spectral.inverse_transform.repeat_ratio"] = repeat_ratio(spans, *count_pass, anc)

    # Timings over the timing passes.
    per_pass = defaultdict(list)
    step_ms, record_ms = [], []
    suite_ms = defaultdict(list)
    for lo, hi in timing:
        self_by, incl_by = _pass_totals(spans, lo, hi, duration, self_t)
        root = sum(duration[i] for i in range(lo, hi) if spans[i][PARENT] < 0)
        fft_self = sum(v for k, v in self_by.items() if is_fft(k))
        per_pass["fft.self_s"].append(fft_self)
        per_pass["fft.share"].append(fft_self / root if root else 0.0)
        for metric in _SELF_METRICS:
            per_pass[metric].append(self_by.get(metric.removesuffix(".self_s"), 0.0))
        checks = sum(v for k, v in incl_by.items() if k.startswith("diagnostics.check_"))
        per_pass["diagnostics.checks.self_s"].append(checks)
        written = Counter()
        stepping = incl_by.get("dynamics.step", 0.0) + incl_by.get("runner.adaptive_dt", 0.0)
        diagnostics = incl_by.get("diagnostics.record", 0.0) + checks
        io_time = sum(incl_by.get(k, 0.0) for k in _IO)
        per_pass["phase.stepping_s"].append(stepping)
        per_pass["phase.diagnostics_s"].append(diagnostics)
        per_pass["phase.io_s"].append(io_time)
        per_pass["phase.orchestration_s"].append(root - stepping - diagnostics - io_time)
        for i in range(lo, hi):
            name = spans[i][NAME]
            if name == "dynamics.step":
                step_ms.append(duration[i])
            elif name == "diagnostics.record":
                record_ms.append(duration[i])
            elif name in ("simio.write_checkpoint", "simio.write_diagnostics_csv"):
                written[name] += spans[i][VALUE]
            elif name.startswith("verify.suite."):
                suite, n, count = spans[i][VALUE]
                suite_ms[f"verify.{suite}.n{n}.ms_per_sample"].append(duration[i] * 1e3 / count)
        for name in ("simio.write_checkpoint", "simio.write_diagnostics_csv"):
            per_pass[f"{name}.bytes"].append(written[name])
    for metric, values in per_pass.items():
        out[metric] = _median(values)
    for metric, values in suite_ms.items():
        if metric in out:
            out[metric] = _median(values)
    out["dynamics.step.p50_ms"] = _percentile_ms(step_ms, 50)
    out["dynamics.step.p90_ms"] = _percentile_ms(step_ms, 90)
    out["dynamics.step.samples"] = len(step_ms)
    out["diagnostics.record.p50_ms"] = _percentile_ms(record_ms, 50)
    out["diagnostics.record.p90_ms"] = _percentile_ms(record_ms, 90)
    out["diagnostics.record.samples"] = len(record_ms)
    out["trace.overhead_s"] = _median(traced_walls) - _median(untraced_walls)
    return out


def subtree_self_check(spans):
    """Largest |root duration - sum of self times in its tree| over roots."""
    duration, self_t = self_times(spans)
    root_of = [-1] * len(spans)
    totals = defaultdict(float)
    for i, s in enumerate(spans):
        root_of[i] = i if s[PARENT] < 0 else root_of[s[PARENT]]
        totals[root_of[i]] += self_t[i]
    return max((abs(totals[r] - duration[r]) for r in totals), default=0.0)

