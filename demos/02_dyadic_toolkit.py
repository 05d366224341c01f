"""Tour of the dyadic toolkit: blocks, Besov norms, paraproducts, commutators.

The filter bank splits a field into frequency octaves with smooth annular
cutoffs that sum to one.  On single-frequency fields every quantity here has
a closed form, which makes the machinery easy to sanity-check by eye.
Run with: python3 demos/02_dyadic_toolkit.py
"""

import math

import numpy as np

import bqsim as bq

grid = bq.Grid(128)
bank = bq.build_filter_bank(grid)
x1, x2 = grid.nodes()


def spectral(samples):
    return bq.forward_transform(bq.PhysicalField(grid, samples))


print("=== the filter bank ===")
print(f"n = {grid.n}: inhomogeneous blocks q = -1 (low ball) .. q = {bank.qmax}")
print("each annular cutoff phi_q lives on 2^q < |k| < 2^(q+2) and equals 1 at |k| = 2^(q+1)")

print()
print("=== partition of unity ===")
f = bq.random_scalar_field(grid, 2.5, 1.0, (7, 0))
total = np.zeros_like(f.coeffs)
for q in range(-1, bank.qmax + 1):
    total += bq.dyadic_block(f, q).coeffs
print(f"sum of all blocks vs field: {np.max(np.abs(total - f.coeffs)):.3e}")

print()
print("=== where single frequencies land ===")
# A pure |k| = 2^(q+1) mode sits entirely in band q.
for k in (2, 8, 32):
    mode = spectral(np.sin(k * x1))
    qs, norms = bq.band_lp_norms(mode, 2.0)
    hot = [int(q) for q, v in zip(qs, norms) if v > 1e-12]
    print(f"sin({k}x1): active bands {hot} with L2 mass {[f'{norms[q + 1]:.4f}' for q in hot]}")

print()
print("=== Besov norms ===")
# For a single active band the Besov norm is just the weighted block norm,
# so B^s_(2,r) of sin(8 x1) equals 2^(2s) * pi*sqrt(2) for every r.
mode = spectral(np.sin(8 * x1))
for s in (0.0, 0.5, 1.0):
    val = bq.besov_norm(mode, bq.BesovSpec(s, 2.0, 1.0))
    print(f"B^{s}_(2,1) of sin(8x1) = {val:.6f}   (2^(2s) pi sqrt2 = {2**(2 * s) * math.pi * math.sqrt(2):.6f})")
# The ell^r aggregation across bands: two equal-mass bands give 2, sqrt(2), 1
# times the single-band value for r = 1, 2, inf.
two = spectral(np.sin(8 * x1) + np.sin(32 * x2))
for r, label in ((1.0, "r=1"), (2.0, "r=2"), (math.inf, "r=inf")):
    print(f"B^0_(2,{label}) of sin(8x1)+sin(32x2) = {bq.besov_norm(two, bq.BesovSpec(0.0, 2.0, r)):.6f}")

print()
print("=== paraproduct split of a product ===")
u = bq.random_scalar_field(grid, 3.0, 1.0, (11, 0))
w = bq.random_scalar_field(grid, 3.0, 1.0, (12, 0))
low, high, resonant = bq.bony_decompose(u, w)
product = bq.dealias(spectral(bq.inverse_transform(u).samples * bq.inverse_transform(w).samples))
recon = low.coeffs + high.coeffs + resonant.coeffs
print(f"low-freq(u) x high(w) part:  L2 = {bq.lp_norm(bq.inverse_transform(low), 2):.6f}")
print(f"high(u) x low-freq(w) part:  L2 = {bq.lp_norm(bq.inverse_transform(high), 2):.6f}")
print(f"resonant (comparable bands): L2 = {bq.lp_norm(bq.inverse_transform(resonant), 2):.6f}")
print(f"three parts resum the dealiased product to {np.max(np.abs(recon - product.coeffs)):.3e}")

print()
print("=== commutators vanish for constant transport ===")
# [R, v.grad] and [block, v.grad] measure how transport interacts with the
# frequency localization; both are identically zero when v is constant.
const_v = bq.VectorField(spectral(np.ones_like(x1)), spectral(np.ones_like(x1)))
theta = bq.random_scalar_field(grid, 2.5, 1.0, (13, 0))
comm = bq.commutator_riesz(const_v, theta)
print(f"|[R, v.grad] theta| for constant v: {np.max(np.abs(comm.x1.coeffs)):.3e}, "
      f"{np.max(np.abs(comm.x2.coeffs)):.3e}")
block_comm = bq.commutator_block(const_v, theta, 3)
print(f"|[block_3, v.grad] theta| for constant v: {np.max(np.abs(block_comm.coeffs)):.3e}")

print()
print("=== band kernels ===")
# Each block is a convolution against a smooth kernel; its Fourier samples
# reproduce the annular multiplier.
kernel = bq.band_kernel(grid, 2)
print(f"band-2 kernel: real, mass {bq.integrate(kernel):.3e}, peak {np.max(kernel.samples):.4f}")
