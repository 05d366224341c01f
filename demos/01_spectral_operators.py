"""Tour of the spectral core: transforms, multipliers, and Biot-Savart.

Everything lives on the 2-pi periodic square with integer wavevectors, so
trigonometric fields have closed-form images under every operator here.
Each section applies an operator and compares against the hand-computed
answer.  Run with: python3 demos/01_spectral_operators.py
"""

import numpy as np

import bqsim as bq

grid = bq.Grid(128)
x1, x2 = grid.nodes()


def spectral(samples):
    return bq.forward_transform(grid, samples)


def err(a, b):
    return float(np.max(np.abs(a - b)))


print("=== transforms round-trip ===")
f = spectral(np.cos(3 * x1) * np.sin(2 * x2))
back = bq.inverse_transform(f)
print(f"n = {grid.n}, round-trip max error = {err(back, np.cos(3 * x1) * np.sin(2 * x2)):.3e}")

print()
print("=== derivative and dissipation multipliers ===")
# d/dx1 cos(3 x1) = -3 sin(3 x1)  (axis 0 is the x1 direction)
d1 = bq.inverse_transform(bq.partial_derivative(spectral(np.cos(3 * x1)), 0))
print(f"d/dx1 cos(3x1)  vs -3 sin(3x1):   {err(d1, -3 * np.sin(3 * x1)):.3e}")
# |D|^alpha acts on the |k| = 5 mode cos(3 x1 + 4 x2) as multiplication by 5^alpha
mode = spectral(np.cos(3 * x1 + 4 * x2))
for alpha in (0.5, 1.0, 2.0):
    out = bq.inverse_transform(bq.fractional_dissipation(mode, alpha))
    print(f"|D|^{alpha} on |k|=5 mode vs 5^{alpha} * mode: {err(out, 5.0**alpha * np.cos(3 * x1 + 4 * x2)):.3e}")

print()
print("=== Riesz transform d1/|D| ===")
# On cos(k x1) the symbol i k1/|k| evaluates to +/- i, so R cos = -sin.
for k in (1, 3, 7):
    out = bq.inverse_transform(bq.riesz(spectral(np.cos(k * x1))))
    print(f"R cos({k}x1) vs -sin({k}x1): {err(out, -np.sin(k * x1)):.3e}")
# Modes transverse to x1 are annihilated (k1 = 0).
out = bq.inverse_transform(bq.riesz(spectral(np.cos(4 * x2))))
print(f"R cos(4x2) vs 0:           {err(out, 0.0):.3e}")

print()
print("=== Biot-Savart: velocity from vorticity ===")
# The shear vorticity sin x1 induces v = (0, -cos x1).
v = bq.biot_savart(spectral(np.sin(x1)))
print(f"v1 vs 0:        {err(bq.inverse_transform(v.x1), 0.0):.3e}")
print(f"v2 vs -cos x1:  {err(bq.inverse_transform(v.x2), -np.cos(x1)):.3e}")
# The recovered velocity is divergence-free and curl inverts the map.
div = bq.inverse_transform(bq.divergence(v))
back = bq.inverse_transform(bq.curl(v))
print(f"div v:          {err(div, 0.0):.3e}")
print(f"curl v vs omega: {err(back, np.sin(x1)):.3e}")

print()
print("=== norms with closed forms ===")
sin_field = bq.inverse_transform(spectral(np.sin(3 * x1)))
print(f"||sin 3x1||_L2 = {bq.lp_norm(sin_field, 2):.15f}  (exact pi*sqrt(2) = {np.pi * np.sqrt(2):.15f})")
print(f"||sin 3x1||_H1 (homog) = {bq.sobolev_norm(spectral(np.sin(3 * x1)), 1.0, homogeneous=True):.12f}"
      f"  (exact 3 pi sqrt(2) = {3 * np.pi * np.sqrt(2):.12f})")
# the shear flow v = (0, -cos x1) has a single nonzero derivative, d1 v2 = sin x1
shear = bq.biot_savart(spectral(np.sin(x1)))
print(f"max |grad v| of the shear flow = {bq.max_gradient(shear):.12f}  (exact 1)")

print()
print("=== dealiasing (2/3 rule) ===")
# Products of resolved modes can alias onto low modes; the 2/3-rule mask
# keeps max(|k1|,|k2|) <= n/3 so quadratic products are alias-free.
high = spectral(np.cos((grid.n // 3 + 5) * x1))
kept = bq.dealias(high)
print(f"energy beyond the 2/3 cutoff after dealias: {np.max(np.abs(kept.coeffs)):.3e}")
low = bq.dealias(spectral(np.cos(5 * x1)))
print(f"mode inside the cutoff is untouched: {err(low.coeffs, spectral(np.cos(5 * x1)).coeffs):.3e}")
