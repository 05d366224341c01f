#!/usr/bin/env python3
"""bqsim benchmark: one workload per process, single-threaded.

    python3 perfbench/run.py --workload solve-n256 --seed 1 --seconds 30 --trace 0

Run from the repository root (or any checkout of it).  The program is
imported from `src/` of the checkout and driven in-process through
`bqsim.cli.main`; every call is an op, checked for correctness after the
timed pass it belongs to.  Workloads are defined in `workloads.py`.

With `--trace 0` the last stdout line reports the end-to-end metrics, with
times calibrated against a fixed kernel (see `Calibrator`); with `--trace 1`
it reports the per-layer metrics of `layers.py`, from a run that first times
a few untraced passes (for `trace.overhead_s`) and then traces the rest.  Each run also writes its result, with an environment stamp, and
for traced runs the span table, under `.perfbench_work/results/`.
"""

import os

# Single-threaded: fixed before numpy is imported, here and in the set-up
# probes this process starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

#: Set-up is repeated in this many fresh processes; setup_s is the median.
SETUP_REPEATS = 5
#: Timed passes per run at the least, whatever --seconds says.
MIN_PASSES = 3
#: Traced step samples wanted before a traced run may stop, so that the
#: step p90 has at least ten samples beyond it.
MIN_STEP_SAMPLES = 100
#: Share of a traced run spent on untraced passes (the overhead baseline).
UNTRACED_SHARE = 0.3
#: Calibration kernel: repeats per measurement, and its nominal duration.
CALIBRATION_ROUNDS = 16
CALIBRATION_NOMINAL_S = 0.14
#: No new pass starts after this many seconds of measuring.
HARD_LIMIT_S = 120.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def import_bqsim():
    """Import bqsim from this checkout's src/, or exit with code 2."""
    src = ROOT / "src"
    if not (src / "bqsim" / "__init__.py").is_file():
        sys.stderr.write(f"error: no bqsim sources under {src}\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import bqsim

    if not Path(bqsim.__file__).resolve().is_relative_to(src.resolve()):
        sys.stderr.write(f"error: bqsim imported from {bqsim.__file__}, not {src}\n")
        sys.exit(2)
    return bqsim


def environment(load_before):
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bqsim").glob("*.py")):
        sources.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": "pocketfft" if hasattr(np.fft, "_pocketfft") else "unknown",
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "loadavg_before": load_before,
        "loadavg_after": list(os.getloadavg()),
        "git_commit": commit,
        "src_sha256": sources.hexdigest(),
    }


def setup_probe(workload, seed):
    """Time import + input building in this fresh process, then the
    calibration kernel; print both in seconds."""
    t0 = time.perf_counter()
    import_bqsim()
    import workloads

    workloads.build_inputs(workloads.WORKLOADS[workload], seed,
                           WORK / workload / "setup-probe")
    elapsed = time.perf_counter() - t0
    print(repr(elapsed), repr(Calibrator()()))


def setup_seconds(workload, seed):
    """(set-up, calibration) seconds from SETUP_REPEATS fresh processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, calibration = proc.stdout.split()[-2:]
        times.append((float(elapsed), float(calibration)))
    return times


class Runner:
    """Times passes of one workload and checks every op they contain."""

    def __init__(self, w, seed, work, reference, cli_main):
        import workloads as wl

        self.wl = wl
        self.w = w
        self.seed = seed
        self.reference = reference
        self.cli_main = cli_main
        self.inputs = wl.build_inputs(w, seed, work)
        self.argvs = wl.pass_argvs(w, self.inputs, seed, work)
        self.first_digest = {}
        self.attempted = 0
        self.failures = []
        self.walls = []
        self.work_done = []
        self.calibration = []
        self.calibrate = Calibrator()

    def one_pass(self, main=None):
        """Calibrate, run and time one pass, then check its ops."""
        main = main or self.cli_main
        self.calibration.append(self.calibrate())
        t0 = time.perf_counter()
        ops = [self.wl.call(main, argv) for argv in self.argvs]
        wall = time.perf_counter() - t0
        work = 0
        for i, op in enumerate(ops):
            self.attempted += 1
            ref = self.wl.reference_for(self.w, self.reference, self.seed, op)
            found = self.wl.problems(self.w, op, self.first_digest.get(i), ref)
            if found:
                self.failures.append({"argv": op.argv, "problems": found})
                continue
            self.first_digest.setdefault(i, op.digest)
            work += op.summary["steps"] if self.w.kind == "run" else op.summary["samples"]
        self.walls.append(wall)
        self.work_done.append(work)
        return wall, ops

    def calibrated(self, lo=0, hi=None):
        """Wall times of passes lo..hi at the nominal calibration speed."""
        return [t * CALIBRATION_NOMINAL_S / c
                for t, c in zip(self.walls[lo:hi], self.calibration[lo:hi])]


class Calibrator:
    """Times a fixed kernel shaped like bqsim's work: 256^2 complex FFTs over
    a 16 MB working set, pointwise products, a conjugate-symmetry check and
    some interpreter-bound Python.

    The host's speed drifts by a quarter within minutes (its neighbours
    share it), and the kernel drifts with it.  Times are reported at the
    speed where the kernel takes CALIBRATION_NOMINAL_S, which cancels most
    of the drift while leaving any change in bqsim itself in full.  The FFT
    functions are bound here, before a tracer can wrap them.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.fft2, self.ifft2 = np.fft.fft2, np.fft.ifft2
        rng = np.random.default_rng(0)
        base = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        self.arrays = [base * (k + 1) for k in range(16)]

    def __call__(self) -> float:
        """Seconds the kernel takes now."""
        np, arrays = self.np, self.arrays
        t0 = time.perf_counter()
        for r in range(CALIBRATION_ROUNDS):
            u = [np.real(self.ifft2(arrays[(4 * r + j) % 16])) for j in range(4)]
            w = self.fft2(u[0] * u[1] + u[2] * u[3])
            np.max(np.abs(w - np.conj(np.roll(w[::-1, ::-1], 1, axis=(0, 1)))))
            sum(i * i for i in range(20000))
        return time.perf_counter() - t0


def measure(w, seed, seconds, trace, work, reference):
    """One benchmark run; returns (runner, metrics, tracer or None)."""
    import bqsim.cli
    import layers
    import workloads as wl

    runner = Runner(w, seed, work, reference, bqsim.cli.main)
    start = time.perf_counter()
    if not trace:
        while len(runner.walls) < MIN_PASSES or time.perf_counter() - start < seconds:
            if time.perf_counter() - start > HARD_LIMIT_S:
                break
            runner.one_pass()
        walls = runner.calibrated()
        metrics = {
            "wall_s": wl.median(walls),
            "work_per_s": wl.median([u / t for u, t in zip(runner.work_done, walls)]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return runner, metrics, None

    from tracer import Tracer

    while len(runner.walls) < MIN_PASSES or time.perf_counter() - start < UNTRACED_SHARE * seconds:
        runner.one_pass()
    untraced = runner.calibrated()
    tracer = Tracer()
    tracer.install(sys.modules["bqsim"])
    traced_main = tracer.wrap_op(runner.cli_main)
    try:
        tracer.hash_inputs = True
        lo = len(tracer.spans)
        runner.one_pass(traced_main)
        count_pass = (lo, len(tracer.spans))
        tracer.hash_inputs = False
        timing = []
        while True:
            steps = sum(1 for s in tracer.spans[count_pass[1]:] if s[0] == "dynamics.step")
            elapsed = time.perf_counter() - start
            enough = elapsed >= seconds and (w.kind != "run" or steps >= MIN_STEP_SAMPLES)
            if (timing and enough) or elapsed > HARD_LIMIT_S:
                break
            lo = len(tracer.spans)
            runner.one_pass(traced_main)
            timing.append((lo, len(tracer.spans)))
    finally:
        tracer.uninstall()
    traced = runner.calibrated(len(untraced) + 1)
    metrics = layers.layer_metrics(tracer.spans, count_pass, timing, untraced, traced)
    return runner, metrics, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    load_before = list(os.getloadavg())
    import_bqsim()
    import layers
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    w = wl.WORKLOADS[args.workload]
    reference = wl.load_reference(HERE / "reference.json")

    setup = [] if args.trace else setup_seconds(w.name, args.seed)
    work = WORK / w.name
    runner, metrics, tracer = measure(w, args.seed, args.seconds, args.trace, work, reference)
    units = layers.METRICS if args.trace else END_TO_END
    if not args.trace:
        metrics["setup_s"] = wl.median([t * CALIBRATION_NOMINAL_S / c for t, c in setup])

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_spans(results / f"{stem}-spans.csv.gz")
    failed = len(runner.failures)
    record = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reference_seed": str(args.seed) in reference.get(w.name, {}),
        "environment": environment(load_before),
        "passes": len(runner.walls),
        "pass_walls_s": runner.walls,
        "setup_samples_s": setup,
        "calibration_s": runner.calibration,
        "failures": runner.failures,
        "metrics": {k: metrics[k] for k in units},
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for failure in runner.failures:
        print(f"op failed: {' '.join(failure['argv'])}: {'; '.join(failure['problems'])}")
    print(f"environment: {json.dumps(record['environment'])}")
    print(f"passes: {len(runner.walls)}  reference seed: {record['reference_seed']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
