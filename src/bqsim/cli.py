"""Command-line entry point.

Subcommands:

    run        advance a configured initial state and run trajectory checks
    verify     run one seeded inequality ensemble and write its ratio CSV
    norms      report the norm table of a checkpointed state
    stability  two-trajectory separation experiment in the weak metric

Exit codes, mapped in `main` alone: 0 success; 1 a check failed or a
trajectory blew up; 2 usage error, bad input, bad checkpoint or unreadable
file.  BQ_OUTPUT_DIR overrides the configured output directory unless
--output-dir is given explicitly.
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys
from dataclasses import fields
from pathlib import Path

from .config import initial_norms, parse_config
from .diagnostics import (
    check_energy,
    check_gamma_smoothing,
    check_lipschitz,
    check_max_principle,
)
from .errors import BlowUpError, CheckpointError, ConfigurationError, InvalidInputError
from .littlewood_paley import BesovSpec, besov_norm
from .runner import GAMMA_FIT_TOL, resolve_output_dir, run, stability_experiment
from .simio import _read_checked
from .spectral import biot_savart, inverse_transform, lp_norm
from .verify import SUITES, EnsembleSpec, suite_passes


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bqsim",
        description="Pseudo-spectral Boussinesq solver and inequality verifier on the torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="advance a configured run to t_end")
    p_run.add_argument("--config", required=True, help="path to a key=value config file")
    p_run.add_argument("--output-dir", default=None, help="override the output directory")
    p_run.add_argument(
        "--resume", default=None, help="checkpoint file to continue from instead of t=0"
    )

    p_verify = sub.add_parser("verify", help="run one inequality ensemble suite")
    p_verify.add_argument("--suite", required=True, choices=sorted(SUITES))
    for f in fields(EnsembleSpec):  # --seed, --count, --n, --spectrum-gamma, --amplitude
        flag = "--" + f.name.replace("_", "-")
        p_verify.add_argument(flag, type=type(f.default), default=f.default)
    p_verify.add_argument("--output-dir", default=None)
    p_verify.add_argument("--s", type=float, default=None, help="regularity index")
    p_verify.add_argument("--p", type=float, default=None, help="Lebesgue exponent")
    p_verify.add_argument("--q", type=int, default=None, help="dyadic block index")
    p_verify.add_argument("--beta", type=float, default=None, help="power-map exponent")
    p_verify.add_argument("--r", type=float, default=None, help="Lebesgue exponent r")
    p_verify.add_argument("--variant", choices=("binf", "b2a"), default=None)

    p_norms = sub.add_parser("norms", help="print the norm table of a checkpoint")
    p_norms.add_argument("--checkpoint", required=True)
    p_norms.add_argument(
        "--besov",
        default=None,
        metavar="s,p,r",
        help="additionally report this Besov norm of vorticity and temperature",
    )

    p_stab = sub.add_parser("stability", help="perturbed-trajectory separation experiment")
    p_stab.add_argument("--config", required=True)
    p_stab.add_argument("--delta", type=float, required=True)
    return parser


def _print_check(report) -> bool:
    verdict = "PASS" if report.passed else "FAIL"
    details = ", ".join(
        f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
        for k, v in report.details.items()
        if isinstance(v, (int, float, str))
    )
    print(f"{verdict} {report.name}: {details}")
    return report.passed


def _read_config(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ConfigurationError(f"config file {path} is not UTF-8 text: {err}") from None
    return parse_config(text)


def _cmd_run(args) -> int:
    config = _read_config(args.config)
    initial = _read_checked(args.resume) if args.resume else None
    result = run(config, output_dir=args.output_dir, initial_state=initial)
    final = result.records[-1]
    print(
        f"advanced to t={result.final_state.t:.6g} in {result.steps_taken} steps"
        f" (n={config.n}, alpha={config.alpha:g})"
    )
    print(f"artifacts in {result.output_dir}")
    checks = [
        check_max_principle(result.records, 2),
        check_max_principle(result.records, 4),
        check_max_principle(result.records, math.inf),
        check_energy(result.records),
        check_gamma_smoothing(result.records),
        check_lipschitz(result.records),
    ]
    passed = all([_print_check(c) for c in checks])
    print(
        f"final norms: l2_v={final.l2_v:.6g} l2_theta={final.l2_theta:.6g}"
        f" l2_omega={final.l2_omega:.6g} l2_gamma={final.l2_gamma:.6g}"
    )
    return 0 if passed else 1


def _cmd_verify(args) -> int:
    ens = EnsembleSpec(**{f.name: getattr(args, f.name) for f in fields(EnsembleSpec)})
    suite_fn = SUITES[args.suite]
    accepted = set(inspect.signature(suite_fn).parameters) - {"ens"}
    kwargs = {}
    for name in ("s", "p", "q", "beta", "r", "variant"):
        value = getattr(args, name)
        if value is None:
            continue
        if name not in accepted:
            raise ConfigurationError(
                f"suite '{args.suite}' does not take parameter --{name}"
            )
        kwargs[name] = value
    report = suite_fn(ens, **kwargs)

    out = resolve_output_dir("out", args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{args.suite}.csv"
    report.write_csv(csv_path, [f"{f.name} = {getattr(ens, f.name)}" for f in fields(ens)])
    print(report.summary())
    print(f"ratio table written to {csv_path}")
    ok = suite_passes(report)
    print(("PASS" if ok else "FAIL") + f" {args.suite}")
    return 0 if ok else 1


def _parse_besov(raw: str) -> BesovSpec:
    parts = raw.split(",")
    if len(parts) != 3:
        raise ConfigurationError(f"--besov expects 's,p,r', got {raw!r}")
    try:
        s, p, r = map(float, parts)
    except ValueError:
        raise ConfigurationError(f"--besov expects numbers 's,p,r', got {raw!r}") from None
    return BesovSpec(s, p, r)


def _cmd_norms(args) -> int:
    spec = _parse_besov(args.besov) if args.besov else None
    state = _read_checked(args.checkpoint)
    table = initial_norms(state)
    omega_phys = inverse_transform(state.omega_hat)
    table["l2_omega"] = lp_norm(omega_phys, 2)
    table["linf_omega"] = lp_norm(omega_phys, math.inf)
    if spec is not None:
        label = f"besov({spec.s:g},{spec.p:g},{spec.r:g})"
        table[f"{label}_omega"] = besov_norm(state.omega_hat, spec)
        table[f"{label}_theta"] = besov_norm(state.theta_hat, spec)
        table[f"{label}_v"] = besov_norm(biot_savart(state.omega_hat), spec)
    print(f"checkpoint: n={state.grid.n} alpha={state.alpha:g} t={state.t:.12g}")
    for key, value in table.items():
        print(f"{key} = {value:.12g}")
    return 0


def _cmd_stability(args) -> int:
    config = _read_config(args.config)
    report = stability_experiment(config, args.delta)
    print(
        f"delta={report.delta:g} -> X_delta(T)={report.x_delta[-1]:.6g},"
        f" X_delta/4(T)={report.x_quarter[-1]:.6g}"
    )
    print(f"separation exponent gamma_fit = {report.gamma_fit:.6g} (1 +- {GAMMA_FIT_TOL:g})")
    ok = abs(report.gamma_fit - 1.0) <= GAMMA_FIT_TOL
    print(("PASS" if ok else "FAIL") + " stability")
    return 0 if ok else 1


_COMMANDS = {
    "run": _cmd_run,
    "verify": _cmd_verify,
    "norms": _cmd_norms,
    "stability": _cmd_stability,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except BlowUpError as err:
        print(f"blow-up detected at t={err.state.t:.6g}: {err}")
        return 1
    except (ConfigurationError, InvalidInputError, CheckpointError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
