"""In-memory span tracer that wraps bqsim's public functions from outside.

`Tracer.install()` replaces every module-level binding of each public
function of the bqsim modules (and the numpy.fft entry points) with a
wrapper that records a span: name, start, end, parent span, op id and one
optional value captured by a hook.  The bqsim modules import each other's
names with `from .spectral import ...`, so a function is rebound in every
module namespace that holds it, not only where it is defined.
`Tracer.uninstall()` restores the originals.

Spans live in one list until the run ends; `write_spans` saves them.  A
span's self time is its duration minus the durations of its children (one
thread, so children never overlap).
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import importlib
import inspect
import os
import sys
import time

import numpy as np

#: The bqsim modules whose public functions are layers, in layer order.
LAYER_MODULES = (
    "spectral",
    "littlewood_paley",
    "fields",
    "dynamics",
    "runner",
    "diagnostics",
    "simio",
    "verify",
    "config",
    "cli",
)

#: Every numpy.fft entry point that transforms data (1-D, 2-D and n-D).
FFT_FUNCTIONS = (
    "fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
    "fft2", "ifft2", "rfft2", "irfft2",
    "fftn", "ifftn", "rfftn", "irfftn",
)

NAME, START, END, PARENT, OP, VALUE = range(6)


class Tracer:
    """Records spans while installed; `hash_inputs` adds input digests."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.hash_inputs = False
        self._patches = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, hook=None):
        """Return fn wrapped in a span; hook(args, result) gives its value."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                span[VALUE] = hook(args, result)
            return result

        return traced

    def wrap_op(self, fn):
        """Wrap an op entry point: each call is a root span with a new op id."""
        inner = self.wrap("cli.main", fn)

        @functools.wraps(fn)
        def op(*args, **kwargs):
            self.op += 1
            return inner(*args, **kwargs)

        return op

    # -- installation ------------------------------------------------------

    def install(self, bqsim_package):
        """Wrap the public functions of every layer module and numpy.fft."""
        modules = [importlib.import_module(f"bqsim.{m}") for m in LAYER_MODULES]
        namespaces = modules + [bqsim_package]
        replaced = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__ or id(fn) in replaced:
                    continue
                replaced[id(fn)] = self.wrap(f"{short}.{attr}", fn, self._hook_for(short, attr))
        for ns in namespaces:
            for attr, fn in list(vars(ns).items()):
                if id(fn) in replaced:
                    self._patch(ns, attr, replaced[id(fn)])

        verify = sys.modules["bqsim.verify"]
        for suite, fn in list(verify.SUITES.items()):
            wrapped = self.wrap(f"verify.suite.{suite}", fn, _suite_value(suite))
            self._patch_item(verify.SUITES, suite, wrapped)
        # Samples are the closures a suite hands to verify._collect; wrapping
        # that private helper (when it exists) gives each sample a span.
        collect = getattr(verify, "_collect", None)
        if collect is not None:
            self._patch(verify, "_collect", self._sample_collector(collect))
        report = verify.RatioReport
        self._patch(report, "write_csv",
                    self.wrap("verify.write_csv", report.write_csv, _path_bytes(1)))
        tracker = sys.modules["bqsim.diagnostics"].DiagnosticsTracker
        self._patch(tracker, "record", self.wrap("diagnostics.record", tracker.record))
        for attr in FFT_FUNCTIONS:
            self._patch(np.fft, attr, self.wrap(f"fft.{attr}", getattr(np.fft, attr), _fft_size))

    def uninstall(self):
        for restore in reversed(self._patches):
            restore()
        self._patches.clear()

    def _patch(self, owner, attr, value):
        original = vars(owner)[attr]
        setattr(owner, attr, value)
        self._patches.append(lambda: setattr(owner, attr, original))

    def _patch_item(self, mapping, key, value):
        original = mapping[key]
        mapping[key] = value
        self._patches.append(lambda: mapping.__setitem__(key, original))

    def _sample_collector(self, collect):
        tracer = self

        @functools.wraps(collect)
        def traced_collect(suite, params, ens, one_sample):
            return collect(suite, params, ens, tracer.wrap("verify.sample", one_sample))

        return traced_collect

    def _hook_for(self, module, attr):
        if (module, attr) == ("spectral", "inverse_transform"):
            return self._input_digest
        if (module, attr) == ("dynamics", "step"):
            return lambda args, result: float(args[1])
        if (module, attr) in (("runner", "adaptive_dt"), ("dynamics", "cfl_dt")):
            return lambda args, result: float(result)
        if module == "simio" and attr.startswith("write_"):
            return _path_bytes(0)
        return None

    def _input_digest(self, args, result):
        if not self.hash_inputs:
            return None
        coeffs = np.ascontiguousarray(args[0].coeffs)
        return hashlib.sha1(coeffs.data).digest()

    # -- output ------------------------------------------------------------

    def write_spans(self, path):
        """Save spans as gzipped CSV: id, name, start, end, parent, op (times in s)."""
        base = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,start,end,parent,op\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[NAME]},{s[START] - base:.9f},{s[END] - base:.9f},"
                         f"{s[PARENT]},{s[OP]}\n")


def _fft_size(args, result):
    """(elements, bytes) of one transform: the larger of input and output
    counts the grid points, and input plus output bytes the data touched."""
    data = np.asarray(args[0])
    return (max(data.size, result.size), data.nbytes + result.nbytes)


def _suite_value(suite):
    def hook(args, result):
        ens = args[0]
        return (suite, ens.n, ens.count)

    return hook


def _path_bytes(position):
    def hook(args, result):
        return os.path.getsize(args[position])

    return hook


def self_times(spans):
    """Per-span (duration, self time) lists.

    Self time is the span's duration minus the part of its interval that its
    children cover (their union, clipped to the parent), so the self times
    of a tree sum to its root's duration only when children nest properly.
    """
    duration = [s[END] - s[START] for s in spans]
    covered = [0.0] * len(spans)
    reach = {}
    for s in spans:  # children appear in start order
        p = s[PARENT]
        if p < 0:
            continue
        lo = max(s[START], spans[p][START], reach.get(p, s[START]))
        hi = min(s[END], spans[p][END])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach.get(p, hi), hi)
    return duration, [d - c for d, c in zip(duration, covered)]


def nearest_ancestors(spans, contexts):
    """For each span, its nearest ancestor-or-self matching each context.

    `contexts` maps a label to a predicate on span names.  Returns one index
    list per label, -1 where no span matches.  Parents precede their
    children in the span list, so one forward sweep suffices.
    """
    out = {label: [-1] * len(spans) for label in contexts}
    for i, s in enumerate(spans):
        parent = s[PARENT]
        for label, matches in contexts.items():
            col = out[label]
            if matches(s[NAME]):
                col[i] = i
            elif parent >= 0:
                col[i] = col[parent]
    return out
