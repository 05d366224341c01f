"""Continuous dependence, Osgood bounds, and the linear smoothing oracle.

Three short studies:
 1. Gronwall and log-Osgood upper bounds for integral inequalities -- the
    quantitative engines behind uniqueness-style estimates.
 2. The closed-form smoothing integral of the damped combination in the
    linear regime, reproduced by the time stepper.
 3. A stability experiment: two nonlinear runs from initial data delta apart
    stay close, with a fitted Holder exponent of 1 (a Lipschitz flow map).
Run with: python3 demos/05_stability_and_bounds.py
"""

import math

import numpy as np

import bqsim as bq

print("=== 1. Osgood bounds ===")
t = np.linspace(0.0, 1.0, 101)
rate = np.ones_like(t)
gronwall = bq.osgood_bound(0.5, t, rate, mu="gronwall")
print(f"linear modulus (Gronwall): a=0.5, gamma=1 -> bound(1) = {gronwall[-1]:.6f} (exact 0.5 e = {0.5 * math.e:.6f})")
a = 1e-6
log_bound = bq.osgood_bound(a, t, rate, mu="log")
exact = a ** math.exp(-1.0) * math.exp(1.0 - math.exp(-1.0))
print(f"log modulus r(1-log r):    a=1e-6      -> bound(1) = {log_bound[-1]:.6e} (exact {exact:.6e})")
print("the log modulus turns an exponentially small initial size into a Holder-type")
print(f"dependence: bound(1)/a = {log_bound[-1] / a:.3g}, versus {gronwall[-1] / 0.5:.3g} for Gronwall")

print()
print("=== 2. linear smoothing oracle ===")
# With the velocity frozen to zero, each mode of the damped combination
# decays like exp(-|k| t), so its cumulative homogeneous H^(1/2) integral
# has a closed form the solver must reproduce.
cfg = bq.parse_config("n = 64\nt_end = 1.0\npreset = blob\namplitude = 1e-8\ndt = 2e-3\ndiag_cadence = 1\n")
state0 = bq.make_initial_data(cfg)
gamma0 = bq.gamma(state0)
closed = bq.linear_gamma_smoothing_integral(gamma0, 1.0) / 1e-16  # undo amplitude^2
result = bq.run(cfg, write_artifacts=False)
measured = result.records[-1].hhalf_gamma_sq_cum / 1e-16
print(f"closed-form integral (unit amplitude): {closed:.8f}")
print(f"simulated integral   (unit amplitude): {measured:.8f}")
print(f"relative difference: {abs(measured - closed) / closed:.3e}")

print()
print("=== 3. nonlinear stability experiment ===")
cfg = bq.parse_config("n = 64\nt_end = 1.0\npreset = tg-blob\ndiag_cadence = 1\n")
report = bq.stability_experiment(cfg, 1e-4)
print(f"separation X(t) = ||theta1-theta2||_(B^-1_(2,inf)) + ||v1-v2||_(B^0_(2,inf))")
print(f"delta = {report.delta:.1e}:   X(0) = {report.x_delta[0]:.3e} -> X(1) = {report.x_delta[-1]:.3e}")
print(f"delta/4 = {report.delta / 4:.1e}: X(0) = {report.x_quarter[0]:.3e} -> X(1) = {report.x_quarter[-1]:.3e}")
print(f"fitted Holder exponent gamma = {report.gamma_fit:.4f}  (Lipschitz dependence <=> |gamma - 1| <= {bq.runner.GAMMA_FIT_TOL})")
print(f"final-separation contraction: X(1)/X(0) = {report.x_delta[-1] / report.x_delta[0]:.4f}")
