"""Workloads: seeded inputs, the ops that drive bqsim, and per-op checks.

An op is one in-process call of `bqsim.cli.main`.  A pass is the unit the
benchmark times: one `bqsim run` for the run workloads, or one round of
`bqsim verify` over every suite and grid size for the ensemble workload.

Run workloads normalise the random preset's amplitude so that the first
adaptive step equals `target_dt` for every seed, and stop after `steps`
such steps of simulated time.  Without this the step count per pass would
vary about 2.5x between seeds (the initial CFL step does), and a pass's wall
time would measure the seed rather than the program.  With the adaptive
step the count still varies by about 10% (32-36 of 40 nominal steps at
n=128), so diagnose-n128, whose pass is one record per step, runs a fixed
step of `fixed_dt_share * target_dt` instead (CFL 0.45 at the start; the
velocity of these runs decays).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import re
import statistics
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.fft import ifft2

import bqsim
from bqsim import (
    RECORD_FIELDS,
    biot_savart,
    grid_max_velocity,
    inverse_transform,
    lp_norm,
    make_initial_data,
    parse_config,
    read_checkpoint,
    records_from_csv,
)
from bqsim.verify import SUITES, EnsembleSpec

#: Relative tolerance for floats compared with the stored reference.  Fast
#: paths are held to 1e-12 on a single evaluation; a pass compounds tens of
#: steps or a whole ensemble, so the gate leaves three decades for that.
REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-12
#: Tolerance for norms recomputed here from the final checkpoint.
RECOMPUTE_RTOL = 1e-9

CHECK_NAMES = (
    "max-principle-p2",
    "max-principle-p4",
    "max-principle-pinf",
    "energy-bound",
    "gamma-smoothing",
    "lipschitz-velocity",
)


@dataclass(frozen=True)
class RunWorkload:
    """`bqsim run` on the random preset at alpha = 1, adaptive CFL 0.5."""

    name: str
    n: int
    target_dt: float
    steps: int
    diag_cadence: int
    checkpoints: int
    fixed_dt_share: float | None = None
    kind: str = "run"

    @property
    def dt(self) -> float | None:
        return None if self.fixed_dt_share is None else self.fixed_dt_share * self.target_dt

    @property
    def t_end(self) -> float:
        return self.steps * (self.dt or self.target_dt)


@dataclass(frozen=True)
class VerifyWorkload:
    """`bqsim verify` for every suite at its default parameters, per grid size."""

    name: str
    sizes: tuple
    count: int
    kind: str = "verify"


WORKLOADS = {
    w.name: w
    for w in (
        RunWorkload("solve-n256", n=256, target_dt=0.0035, steps=10,
                    diag_cadence=25, checkpoints=2),
        RunWorkload("diagnose-n128", n=128, target_dt=0.007, steps=40,
                    diag_cadence=1, checkpoints=0, fixed_dt_share=0.9),
        VerifyWorkload("verify-ensemble", sizes=(128, 256), count=4),
    )
}

CFL = 0.5


def run_config_text(w: RunWorkload, seed: int) -> str:
    """Config for one seed, amplitude chosen so the first step is target_dt.

    The first step is min(cfl h / max|v|, cfl sqrt(h / max|theta|)); at
    amplitude A these scale as 1/A and 1/sqrt(A), so A follows in closed form.
    """
    base = (
        f"n = {w.n}\npreset = random\nalpha = 1\ncfl = {CFL}\nseed = {seed}\n"
    )
    probe = make_initial_data(parse_config(base + "t_end = 1\n"))
    h = 2.0 * math.pi / w.n
    advective = CFL * h / grid_max_velocity(biot_savart(probe.omega_hat))
    buoyant = CFL * math.sqrt(h / lp_norm(inverse_transform(probe.theta_hat), math.inf))
    amplitude = float(min(advective / w.target_dt, (buoyant / w.target_dt) ** 2))
    times = ",".join(repr(w.t_end * (i + 1) / (w.checkpoints + 1)) for i in range(w.checkpoints))
    text = base + (
        f"t_end = {w.t_end!r}\namplitude = {amplitude!r}\n"
        f"diag_cadence = {w.diag_cadence}\ncheckpoint_times = {times}\n"
    )
    if w.dt is not None:
        text += f"dt = {w.dt!r}\n"
    make_initial_data(parse_config(text))
    return text


def build_inputs(w, seed: int, work: Path):
    """Set-up of one workload: what a user builds before the first call.

    Run workloads: the seeded config file.  Verify: the ensemble specs, with
    grids, filter banks and the random-field lattice built once per size.
    """
    if w.kind == "run":
        work.mkdir(parents=True, exist_ok=True)
        path = work / "config.txt"
        path.write_text(run_config_text(w, seed))
        return path
    specs = []
    for n in w.sizes:
        ens = EnsembleSpec(seed=seed, count=w.count, n=n)
        grid = bqsim.Grid(n)
        bqsim.build_filter_bank(grid)
        bqsim.random_scalar_field(grid, ens.spectrum_gamma, ens.amplitude, (seed,))
        specs.extend((suite, ens) for suite in sorted(SUITES))
    return specs


# ---------------------------------------------------------------------------
# Ops


@dataclass
class OpResult:
    """What one CLI call returned and produced, as the checks need it."""

    argv: list
    code: int | None
    stdout: str
    error: str | None = None
    summary: dict | None = None
    digest: str = ""


def call(main, argv) -> OpResult:
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            code = main(argv)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return OpResult(argv, None, buf.getvalue(), f"{type(exc).__name__}: {exc}")
    return OpResult(argv, code, buf.getvalue())


def pass_argvs(w, inputs, seed: int, work: Path):
    """The CLI argument lists of one pass."""
    if w.kind == "run":
        return [["run", "--config", str(inputs), "--output-dir", str(work / "out")]]
    return [
        ["verify", "--suite", suite, "--n", str(ens.n), "--count", str(ens.count),
         "--seed", str(seed), "--output-dir", str(work / f"n{ens.n}")]
        for suite, ens in inputs
    ]


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def summarize(w, op: OpResult) -> None:
    """Read the op's printed output and artifacts into op.summary."""
    out = Path(op.argv[op.argv.index("--output-dir") + 1])
    (_summarize_run if w.kind == "run" else _summarize_verify)(op, out)


def _summarize_run(op, out: Path):
    m = re.search(r"advanced to t=\S+ in (\d+) steps", op.stdout)
    verdicts = [line.split(":")[0] for line in op.stdout.splitlines()
                if line.startswith(("PASS ", "FAIL "))]
    records = records_from_csv(out / "diagnostics.csv")
    final = read_checkpoint(out / "final.bqsf")
    artifacts = sorted(out.glob("*.bqsf")) + [out / "diagnostics.csv"]
    op.digest = _digest(artifacts)
    op.summary = {
        "steps": int(m.group(1)) if m else None,
        "verdicts": verdicts,
        "records": len(records),
        "final_row": {k: getattr(records[-1], k) for k in RECORD_FIELDS},
        "checkpoints": len(artifacts) - 1,
        "final_t": final.t,
        "recomputed": _independent_norms(final),
    }


def _independent_norms(state):
    """L2/Linf of theta and L2 of omega from the checkpoint, via numpy only."""
    n = state.grid.n
    cell = (2.0 * math.pi / n) ** 2
    theta = np.real(ifft2(state.theta_hat.coeffs)) * n * n
    omega = np.real(ifft2(state.omega_hat.coeffs)) * n * n
    finite = bool(np.all(np.isfinite(state.theta_hat.coeffs))
                  and np.all(np.isfinite(state.omega_hat.coeffs)))
    return {
        "finite": finite,
        "l2_theta": float(np.sqrt(np.sum(theta * theta) * cell)),
        "linf_theta": float(np.max(np.abs(theta))),
        "l2_omega": float(np.sqrt(np.sum(omega * omega) * cell)),
    }


def _summarize_verify(op, out: Path):
    suite = op.argv[op.argv.index("--suite") + 1]
    path = out / f"{suite}.csv"
    text = path.read_text()
    rows = [line.split(",") for line in text.splitlines()
            if line and not line.startswith(("#", "sample_id"))]
    lhs = np.array([float(r[1]) for r in rows])
    rhs = np.array([float(r[2]) for r in rows])
    ratio = np.array([float(r[3]) for r in rows])
    m = re.search(r"max_ratio=(\S+) median_ratio=(\S+)", text)
    verdict = [line for line in op.stdout.splitlines() if line.startswith(("PASS ", "FAIL "))]
    op.digest = _digest([path])
    op.summary = {
        "suite": suite,
        "samples": len(rows),
        "lhs": lhs,
        "rhs": rhs,
        "ratio": ratio,
        "max_ratio": float(m.group(1)) if m else math.nan,
        "median_ratio": float(m.group(2)) if m else math.nan,
        "verdict": verdict[0] if verdict else None,
    }


# ---------------------------------------------------------------------------
# Checks: every problem found makes the op a failed op


def _close(a, b, rtol=REFERENCE_RTOL, atol=REFERENCE_ATOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def problems(w, op: OpResult, first_digest: str | None, reference: dict | None):
    """Why the op failed; empty when it passed.

    Seed-independent properties are always checked; values stored in the
    reference for this seed are compared when the seed has an entry.
    """
    if op.error is not None:
        return [f"raised {op.error}"]
    if op.code not in (0, 1):
        return [f"exit code {op.code}"]
    found = []
    try:
        summarize(w, op)
    except Exception as exc:  # a missing or unreadable artifact
        return [f"artifacts unreadable: {type(exc).__name__}: {exc}"]
    if first_digest is not None and op.digest != first_digest:
        found.append("artifacts differ from the first pass of this run")
    s = op.summary
    if w.kind == "run":
        found += _run_problems(w, s, reference)
    else:
        found += _verify_problems(w, s, reference, op.code)
    return found


def _run_problems(w, s, ref):
    found = []
    steps = s["steps"]
    if not steps:
        return ["no step count printed"]
    expected_records = 1 + steps // w.diag_cadence + (1 if steps % w.diag_cadence else 0)
    if s["records"] != expected_records:
        found.append(f"{s['records']} diagnostics rows, expected {expected_records}")
    if s["checkpoints"] != w.checkpoints + 1:
        found.append(f"{s['checkpoints']} checkpoints, expected {w.checkpoints + 1}")
    if sorted(v.split()[1] for v in s["verdicts"]) != sorted(CHECK_NAMES):
        found.append(f"unexpected check lines {s['verdicts']}")
    row = s["final_row"]
    if not all(math.isfinite(v) for v in row.values()):
        found.append("non-finite value in the final diagnostics row")
    if not (_close(row["t"], w.t_end) and _close(s["final_t"], w.t_end)):
        found.append(f"final time {row['t']} / {s['final_t']} is not t_end {w.t_end}")
    rec = s["recomputed"]
    if not rec["finite"]:
        found.append("non-finite coefficients in final.bqsf")
    for key in ("l2_theta", "linf_theta", "l2_omega"):
        if not _close(rec[key], row[key], RECOMPUTE_RTOL):
            found.append(f"{key} {row[key]!r} disagrees with the checkpoint ({rec[key]!r})")
    if ref is not None:
        if steps != ref["steps"]:
            found.append(f"{steps} steps, reference {ref['steps']}")
        if s["verdicts"] != ref["verdicts"]:
            found.append(f"verdicts {s['verdicts']}, reference {ref['verdicts']}")
        for key, value in ref["final_row"].items():
            if not _close(row[key], value):
                found.append(f"final {key} {row[key]!r}, reference {value!r}")
    return found


def _verify_problems(w, s, ref, code):
    found = []
    if s["samples"] != w.count:
        found.append(f"{s['samples']} samples, expected {w.count}")
    if not (np.all(np.isfinite(s["lhs"])) and np.all(np.isfinite(s["rhs"]))):
        found.append("non-finite lhs or rhs")
    included = s["rhs"] > bqsim.verify.RHS_FLOOR
    ratio = s["ratio"][included]
    if not np.allclose(ratio, s["lhs"][included] / s["rhs"][included], rtol=1e-15, atol=0):
        found.append("ratio column is not lhs/rhs")
    if ratio.size and not (_close(float(np.max(ratio)), s["max_ratio"], 1e-15, 0.0)
                           and _close(float(np.median(ratio)), s["median_ratio"], 1e-15, 0.0)):
        found.append("summary max/median disagree with the rows")
    if s["verdict"] != ("PASS " if code == 0 else "FAIL ") + s["suite"]:
        found.append(f"verdict line {s['verdict']!r} does not match exit code {code}")
    if ref is not None:
        entry = ref[s["suite"]]
        if s["verdict"] != entry["verdict"]:
            found.append(f"verdict {s['verdict']!r}, reference {entry['verdict']!r}")
        for key in ("max_ratio", "median_ratio"):
            if not _close(s[key], entry[key]):
                found.append(f"{key} {s[key]!r}, reference {entry[key]!r}")
    return found


def reference_entry(w, ops):
    """The values stored in the reference for one pass's ops."""
    if w.kind == "run":
        s = ops[0].summary
        return {"steps": s["steps"], "verdicts": s["verdicts"], "final_row": s["final_row"]}
    out = {}
    for op in ops:
        s = op.summary
        n = op.argv[op.argv.index("--n") + 1]
        out.setdefault(f"n{n}", {})[s["suite"]] = {
            "verdict": s["verdict"],
            "max_ratio": s["max_ratio"],
            "median_ratio": s["median_ratio"],
        }
    return out


def reference_for(w, reference: dict, seed: int, op: OpResult):
    """This op's slice of the stored reference, or None for an unknown seed."""
    entry = reference.get(w.name, {}).get(str(seed))
    if entry is None or w.kind == "run":
        return entry
    return entry[f"n{op.argv[op.argv.index('--n') + 1]}"]


def load_reference(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def median(values):
    return statistics.median(values) if values else math.nan
