"""A full simulation: config file -> run -> diagnostics -> trajectory checks.

A buoyant temperature blob is dropped into a Taylor-Green vortex and evolved
to t = 1 under critical dissipation.  The run writes the same artifacts the
command-line interface produces (CSV time series + binary checkpoints), and
the trajectory checks verify the a-priori bounds the scheme is supposed to
respect: temperature maximum principles, the linear-in-time velocity growth
bound, smoothing of the damped combination, and finite Lipschitz budgets.
Run with: python3 demos/03_simulation_run.py
"""

import atexit
import math
import shutil
import tempfile
from pathlib import Path

import bqsim as bq

config_text = """
# buoyant blob in a background vortex
n = 96
t_end = 1.0
preset = tg-blob
alpha = 1.0
cfl = 0.5
diag_cadence = 2
checkpoint_times = 0.5
"""

cfg = bq.parse_config(config_text)
print("=== parsed configuration ===")
print(bq.config_echo(cfg))

print("=== initial norms ===")
state0 = bq.make_initial_data(cfg)
for name, value in bq.initial_norms(state0).items():
    print(f"  {name:18s} = {value:.6f}")

outdir = Path(tempfile.mkdtemp(prefix="bqsim_demo_"))
atexit.register(shutil.rmtree, outdir, ignore_errors=True)
result = bq.run(cfg, output_dir=str(outdir))
print()
print(f"=== run finished: {result.steps_taken} adaptive steps, {len(result.records)} records ===")
print(f"artifacts: {sorted(p.name for p in outdir.iterdir())}")

print()
print("=== diagnostic time series (selected columns) ===")
print(f"{'t':>6s} {'||v||_2':>10s} {'||theta||_inf':>13s} {'||omega||_2':>11s} "
      f"{'||Gamma||_2':>11s} {'int ||Gamma||^2':>15s}")
for rec in result.records[:: max(1, len(result.records) // 10)]:
    print(f"{rec.t:6.3f} {rec.l2_v:10.6f} {rec.linf_theta:13.6f} {rec.l2_omega:11.6f} "
          f"{rec.l2_gamma:11.6f} {rec.hhalf_gamma_sq_cum:15.6f}")

print()
print("=== trajectory checks ===")
checks = [
    bq.check_max_principle(result.records, 2),
    bq.check_max_principle(result.records, 4),
    bq.check_max_principle(result.records, math.inf),
    bq.check_energy(result.records),
    bq.check_gamma_smoothing(result.records),
    bq.check_lipschitz(result.records),
]
for report in checks:
    print(f"  {report.name:18s} {'pass' if report.passed else 'FAIL'}")
smoothing = checks[4]
print(f"  smoothing contrast: damped-combination integral {smoothing.details['final_gamma_integral']:.4f}"
      f" vs vorticity integral {smoothing.details['final_omega_integral']:.4f}")

print()
print("=== checkpoint round-trip ===")
mid = bq.read_checkpoint(str(outdir / "checkpoint_000.bqsf"))
print(f"checkpoint at t = {mid.t}: resuming to t_end reproduces the final state")
resumed = bq.run(cfg, output_dir=str(outdir / "resume"), initial_state=mid)
diff = abs(resumed.records[-1].l2_omega - result.records[-1].l2_omega)
print(f"|final ||omega||_2 (resumed) - (uninterrupted)| = {diff:.3e}")

print()
print("=== the CSV round-trips to identical records ===")
records = bq.records_from_csv(str(outdir / "diagnostics.csv"))
print(f"read back {len(records)} records; first/last t = {records[0].t}, {records[-1].t}")
