"""Acceptance gate: one test per release criterion, at the stated tolerance.

Each test prints a single ``criterion N (<name>): PASS/FAIL`` line with the
measured figures, then asserts.  Criteria that share an expensive simulation
reuse a session-scoped run.  Wall-clock ceilings are part of the criteria and
asserted where stated.
"""

import math
import time

import numpy as np
import pytest

import bqsim as bq
from bqsim.diagnostics import (
    check_energy,
    check_gamma_smoothing,
    check_max_principle,
    linear_gamma_smoothing_integral,
)
from bqsim.dynamics import linear_exact_solution
from bqsim.runner import GAMMA_FIT_TOL, run, stability_experiment
from bqsim.verify import KERNEL_RATIO_LIMIT, SUITES, EnsembleSpec

N = 128


def announce(num, name, passed, detail):
    line = f"criterion {num} ({name}): {'PASS' if passed else 'FAIL'} — {detail}"
    print(line)
    return line


@pytest.fixture(scope="session")
def tg_blob_run():
    """Shared n=128 CFL-0.5 run to t=1 used by the max-principle and energy criteria."""
    cfg = bq.parse_config("n = 128\nt_end = 1.0\npreset = tg-blob\ncfl = 0.5\ndiag_cadence = 1\n")
    start = time.perf_counter()
    result = run(cfg, write_artifacts=False)
    return result, time.perf_counter() - start


def test_criterion_1_spectral_exactness():
    start = time.perf_counter()
    grid = bq.Grid(N)
    x1, x2 = grid.nodes()

    def spectral(samples):
        return bq.forward_transform(grid, samples)

    worst = 0.0
    # Riesz transform of cos x1 is -sin x1.
    got = bq.inverse_transform(bq.riesz(spectral(np.cos(x1))))
    worst = max(worst, float(np.max(np.abs(got + np.sin(x1)))))
    # |D|^alpha on a |k| = 5 mode scales it by 5^alpha.
    mode = spectral(np.cos(3 * x1 + 4 * x2))
    for alpha in (0.5, 1.0, 1.7, 2.0):
        scaled = bq.fractional_dissipation(mode, alpha)
        err = np.max(np.abs(scaled.coeffs - 5.0**alpha * mode.coeffs))
        worst = max(worst, float(err / (5.0**alpha * np.max(np.abs(mode.coeffs)))))
    # Biot-Savart velocity of the shear vorticity sin x1 is (0, -cos x1).
    vel = bq.biot_savart(spectral(np.sin(x1)))
    worst = max(worst, float(np.max(np.abs(bq.inverse_transform(vel.x1)))))
    worst = max(worst, float(np.max(np.abs(bq.inverse_transform(vel.x2) + np.cos(x1)))))
    wall = time.perf_counter() - start

    ok = worst <= 1e-10 and wall < 1.0
    announce(1, "spectral exactness", ok, f"max rel err {worst:.3e} (tol 1e-10), {wall:.2f} s (< 1 s)")
    assert worst <= 1e-10
    assert wall < 1.0


def test_criterion_2_linear_oracle():
    start = time.perf_counter()
    cfg = bq.parse_config(
        "n = 64\nt_end = 1.0\npreset = tg-blob\ndt = 1e-3\namplitude = 1e-8\ndiag_cadence = 1000\n"
    )
    state0 = bq.make_initial_data(cfg)
    result = run(cfg, write_artifacts=False)
    exact = linear_exact_solution(state0.omega_hat, state0.theta_hat, cfg.alpha, cfg.t_end)
    rel_omega = np.linalg.norm(
        result.final_state.omega_hat.coeffs - exact.omega_hat.coeffs
    ) / np.linalg.norm(exact.omega_hat.coeffs)
    rel_theta = np.linalg.norm(
        result.final_state.theta_hat.coeffs - exact.theta_hat.coeffs
    ) / np.linalg.norm(exact.theta_hat.coeffs)
    wall = time.perf_counter() - start

    worst = max(float(rel_omega), float(rel_theta))
    ok = worst <= 1e-6 and wall < 30.0
    announce(2, "linear oracle", ok, f"rel err {worst:.3e} (tol 1e-6), {wall:.1f} s (< 30 s)")
    assert worst <= 1e-6
    assert wall < 30.0


def test_criterion_3_max_principle(tg_blob_run):
    result, run_wall = tg_blob_run
    reports = [check_max_principle(result.records, p) for p in (2, 4, math.inf)]
    drift = max(r.details["drift"] for r in reports)
    ok = all(r.passed for r in reports) and run_wall < 300.0
    announce(3, "maximum principle", ok, f"max L^p drift {drift:.3e} (tol 1e-3), run {run_wall:.1f} s (< 300 s)")
    assert all(r.passed for r in reports)
    assert run_wall < 300.0


def test_criterion_4_energy_bound(tg_blob_run):
    result, _ = tg_blob_run
    report = check_energy(result.records)

    residuals = {}
    for dt in (0.01, 0.005):
        cfg = bq.parse_config(f"n = 64\nt_end = 0.5\npreset = tg-blob\ndt = {dt}\ndiag_cadence = 1\n")
        res = run(cfg, write_artifacts=False)
        residuals[dt] = abs(res.records[-1].energy_residual)
    ratio = residuals[0.01] / residuals[0.005]

    ok = report.passed and ratio >= 3.5
    announce(
        4,
        "energy bound",
        ok,
        f"worst bound excess {report.details['worst_excess']:.3e} (slack 1e-3), "
        f"residual refinement ratio {ratio:.2f} (>= 3.5)",
    )
    assert report.passed
    assert ratio >= 3.5


def test_criterion_5_partition_and_bony():
    start = time.perf_counter()
    grid = bq.Grid(N)
    bank = bq.build_filter_bank(grid)
    fields = [bq.random_scalar_field(grid, 2.5, 1.0, (s, 11)) for s in range(64)]

    worst_partition = 0.0
    for f in fields:
        total = np.zeros_like(f.coeffs)
        for q in range(-1, bank.qmax + 1):
            total += bq.dyadic_block(f, q).coeffs
        err = np.max(np.abs(total - f.coeffs)) / np.max(np.abs(f.coeffs))
        worst_partition = max(worst_partition, float(err))

    worst_bony = 0.0
    for u, w in zip(fields, fields[1:] + fields[:1]):
        low, high, resonant = bq.bony_decompose(u, w)
        product = bq.dealias(
            bq.forward_transform(grid, bq.inverse_transform(u) * bq.inverse_transform(w))
        )
        err = np.max(np.abs(low.coeffs + high.coeffs + resonant.coeffs - product.coeffs))
        worst_bony = max(worst_bony, float(err / np.max(np.abs(product.coeffs))))
    wall = time.perf_counter() - start

    ok = worst_partition <= 1e-12 and worst_bony <= 1e-10 and wall < 60.0
    announce(
        5,
        "partition of unity / paraproduct reconstruction",
        ok,
        f"partition {worst_partition:.3e} (tol 1e-12), reconstruction {worst_bony:.3e} (tol 1e-10), "
        f"{wall:.1f} s (< 60 s)",
    )
    assert worst_partition <= 1e-12
    assert worst_bony <= 1e-10
    assert wall < 60.0


def test_criterion_6_inequality_suites():
    start = time.perf_counter()
    failures = []
    lines = []
    for name in sorted(SUITES):
        reports = {n: SUITES[name](EnsembleSpec(seed=42, count=64, n=n)) for n in (128, 256)}
        coarse, fine = reports[128], reports[256]
        if not (coarse.all_finite and fine.all_finite):
            failures.append(f"{name}: non-finite ratio")
        drift = abs(fine.max_ratio - coarse.max_ratio) / coarse.max_ratio
        if drift > 0.20:
            failures.append(f"{name}: refinement drift {drift:.3f} > 0.20")
        if name == "kernel" and fine.max_ratio > KERNEL_RATIO_LIMIT:
            failures.append(f"kernel: max ratio {fine.max_ratio:.4f} > {KERNEL_RATIO_LIMIT}")
        if name == "gen-bernstein" and min(coarse.min_ratio, fine.min_ratio) <= 0.0:
            failures.append("gen-bernstein: nonpositive ratio")
        lines.append(f"{name} {coarse.max_ratio:.3g}->{fine.max_ratio:.3g}")
    wall = time.perf_counter() - start

    ok = not failures and wall < 900.0
    announce(
        6,
        "inequality suites",
        ok,
        f"max ratios n=128->256: {'; '.join(lines)}; {wall:.0f} s (< 900 s)"
        + (f"; failures: {failures}" if failures else ""),
    )
    assert not failures, failures
    assert wall < 900.0


def test_criterion_7_gamma_smoothing_contrast():
    """Gamma = omega - R theta is smoothed by damped transport; omega is not.

    At alpha = 1 the buoyancy forcing cancels in Gamma's equation, so Gamma is
    transported and damped by |D|, and S_Gamma(t) = int_0^t ||Gamma||^2_(H^1/2)
    saturates at the free-damping level S_lin(t) of
    `linear_gamma_smoothing_integral`.  The exponential form of the a-priori
    bound is an upper envelope of S_Gamma, not a curve to fit, so its
    log-linear R^2 is reported but not gated.  Gates:

    * the fitted envelope bounds every sample of S_Gamma from above;
    * max_t |S_Gamma - S_lin| <= 0.1 S_lin(T);
    * the share of S_Gamma gained over the late half, from the first record at
      or after T/2 to T, is <= 0.1, while that share of S_omega is >= 0.25.

    The source paper does not fix these tolerances.  They are set from the
    measured run: deviation 0.039 (0.014 at cfl 0.25, so most of it is the
    trapezoid rule on the cadence points), late shares 0.024 for Gamma and
    0.577 for omega.  Computing Gamma as omega + R theta (deviation 33.9, late
    share 0.52) or as omega (6.55, 0.58) fails both gates, as does the
    subcritical run at alpha = 0.5, where buoyancy no longer cancels (3.37, 0.61).
    """
    cfg = bq.parse_config("n = 128\nt_end = 2.0\npreset = blob\ndiag_cadence = 1\n")
    state0 = bq.make_initial_data(cfg)
    # Gamma_0 from its definition, so a faulty `gamma` cannot move the oracle
    gamma0 = state0.omega_hat - bq.riesz(state0.theta_hat)
    result = run(cfg, write_artifacts=False)
    report = check_gamma_smoothing(result.records)
    gamma_fit = report.details["gamma_fit"]
    omega_fit = report.details["omega_fit"]

    t = np.array([r.t for r in result.records])
    s_gamma = np.array([r.hhalf_gamma_sq_cum for r in result.records])
    s_omega = np.array([r.hhalf_omega_sq_cum for r in result.records])
    s_lin = np.array([linear_gamma_smoothing_integral(gamma0, ti) for ti in t])
    deviation = float(np.max(np.abs(s_gamma - s_lin)) / s_lin[-1])
    late = int(np.searchsorted(t, 0.5 * t[-1]))
    late_gamma = float(1.0 - s_gamma[late] / s_gamma[-1])
    late_omega = float(1.0 - s_omega[late] / s_omega[-1])
    # the lifted envelope touches its worst sample, so allow for rounding there
    envelope_bounds = bool(np.all(gamma_fit.evaluate(t) >= s_gamma * (1.0 - 1e-12)))

    ok = (
        report.passed
        and envelope_bounds
        and deviation <= 0.1
        and late_gamma <= 0.1
        and late_omega >= 0.25
    )
    detail = (
        f"|S_Gamma - S_lin| {deviation:.3f} S_lin(T) (tol 0.1); late-half share "
        f"S_Gamma {late_gamma:.3f} (<= 0.1), S_omega {late_omega:.3f} (>= 0.25); "
        f"S_omega/S_Gamma {s_omega[-1] / s_gamma[-1]:.2f} at T = {t[-1]:.2f}; "
        f"envelope bounds S_Gamma: {envelope_bounds}; log-linear R^2 {gamma_fit.r_squared:.3f} (not gated)"
    )
    announce(7, "smoothing contrast", ok, detail)
    assert report.passed, f"check_gamma_smoothing failed: {report.details}"
    assert omega_fit.form == "exponential"  # the comparison curve is part of the report
    assert envelope_bounds, f"fitted exponential envelope dips below S_Gamma; {detail}"
    assert deviation <= 0.1, f"S_Gamma departs from the free-damping integral; {detail}"
    assert late_gamma <= 0.1, f"S_Gamma still grows over the late half; {detail}"
    assert late_omega >= 0.25, f"S_omega saturates like S_Gamma, no contrast; {detail}"


def test_criterion_8_stability():
    cfg = bq.parse_config("n = 128\nt_end = 1.0\npreset = tg-blob\ndiag_cadence = 1\n")
    report = stability_experiment(cfg, 1e-4)

    linear_cfg = bq.parse_config("n = 64\nt_end = 1.0\npreset = zero\ndiag_cadence = 1\n")
    linear = stability_experiment(linear_cfg, 1e-6)
    x = np.asarray(linear.x_delta)
    monotone = bool(np.all(np.diff(x) <= 1e-6 * x[0]))

    # a Lipschitz flow map separates the delta and delta/4 runs 4-fold: the fit reads 1
    ok = abs(report.gamma_fit - 1.0) <= GAMMA_FIT_TOL and monotone
    announce(
        8,
        "stability / continuous dependence",
        ok,
        f"fitted Holder exponent {report.gamma_fit:.3f} (1 +- {GAMMA_FIT_TOL}), linear-regime separation "
        f"{x[0]:.2e} -> {x[-1]:.2e} non-increasing (slack 1e-6)",
    )
    assert abs(report.gamma_fit - 1.0) <= GAMMA_FIT_TOL, report.gamma_fit
    assert monotone


def test_criterion_9_determinism_and_io(tmp_path):
    text = "n = 64\nt_end = 0.3\npreset = tg-blob\ndiag_cadence = 2\ncheckpoint_times = 0.15\n"
    cfg = bq.parse_config(text)
    first = run(cfg, output_dir=str(tmp_path / "a"))
    second = run(cfg, output_dir=str(tmp_path / "b"))

    identical = True
    for name in ["diagnostics.csv", "final.bqsf", "checkpoint_000.bqsf"]:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        identical = identical and a == b

    mid = bq.read_checkpoint(str(tmp_path / "a" / "checkpoint_000.bqsf"))
    resumed = run(cfg, output_dir=str(tmp_path / "c"), initial_state=mid)
    base = first.final_state
    scale = float(np.max(np.abs(base.omega_hat.coeffs)))
    resume_err = max(
        float(np.max(np.abs(resumed.final_state.omega_hat.coeffs - base.omega_hat.coeffs))),
        float(np.max(np.abs(resumed.final_state.theta_hat.coeffs - base.theta_hat.coeffs))),
    ) / scale

    ok = identical and resume_err <= 1e-12 and resumed.final_state.t == base.t
    announce(
        9,
        "determinism and IO",
        ok,
        f"artifacts byte-identical: {identical}; resume deviation {resume_err:.2e} (tol 1e-12)",
    )
    assert identical
    assert resumed.final_state.t == base.t
    assert resume_err <= 1e-12
