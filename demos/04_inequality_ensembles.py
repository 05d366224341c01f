"""Ensemble verification of the harmonic-analysis inequalities.

Each suite draws seeded random fields, evaluates both sides of one
inequality per sample, and reports the worst ratio.  The inequalities hold
with unspecified constants, so the meaningful signals are: every ratio is
finite, the worst case is stable when the resolution doubles (the constant
does not blow up with n), and for the sharp kernel bound the ratio stays
below 1 + a discretization allowance.  Run with:
python3 demos/04_inequality_ensembles.py
"""

import time

from bqsim.verify import SUITES, EnsembleSpec, suite_passes

DESCRIPTIONS = {
    "commutator-hs": "Riesz-transport commutator in the Sobolev-product norm",
    "commutator-bp": "Riesz-transport commutator in Besov/product form",
    "kernel": "single-band commutator against the kernel's first moment",
    "power-map": "fractional power map between Besov spaces",
    "log-interp": "logarithmic interpolation between Besov levels",
    "gen-bernstein": "generalized Bernstein inequality for fractional dissipation",
    "product": "product/transport estimate in mixed Besov norms",
    "block-commutator": "blockwise transport commutator with Lipschitz velocity",
}

print("=== 16-sample ensembles at n = 64 and n = 128 ===")
print(f"{'suite':>18s} {'max@64':>10s} {'max@128':>10s} {'drift':>7s} {'excl':>5s} {'pass':>5s} {'sec':>5s}")
for name in sorted(SUITES):
    start = time.perf_counter()
    coarse = SUITES[name](EnsembleSpec(seed=42, count=16, n=64))
    fine = SUITES[name](EnsembleSpec(seed=42, count=16, n=128))
    wall = time.perf_counter() - start
    drift = abs(fine.max_ratio - coarse.max_ratio) / coarse.max_ratio
    ok = suite_passes(coarse) and suite_passes(fine)
    print(f"{name:>18s} {coarse.max_ratio:10.4g} {fine.max_ratio:10.4g} {drift:7.2%} "
          f"{coarse.excluded_count:5d} {'yes' if ok else 'NO':>5s} {wall:5.1f}")

print()
print("suite guide:")
for name in sorted(DESCRIPTIONS):
    print(f"  {name:>18s}: {DESCRIPTIONS[name]}")

print()
print("=== one report in detail ===")
report = SUITES["kernel"](EnsembleSpec(seed=42, count=16, n=64))
print(report.summary())
print("the kernel suite carries an absolute gate: the sampled constant may not exceed 1.05,")
print(f"and the worst sampled ratio here is {report.max_ratio:.4f}")
print()
print("every report can be persisted and audited as CSV (one row per sample):")
print("  report.write_csv(path) -> sample_id, lhs, rhs, ratio (nan if excluded) + '# summary' line")
