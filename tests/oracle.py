"""The full-plane complex reference the tests compare bqsim against, on plain (n, n) arrays.

It uses numpy and a `Grid`'s lattice arrays (`k1_odd`, `k2_odd`, `kmag`, `inv_ksq`,
`dealias_keep`) and nothing else of bqsim, and it is the one test module that calls
`numpy.fft` (test_spectral.py's `TestTransformLayer` keeps it so).
"""

import numpy as np


def ifft2(c):
    """Samples of the Fourier-series coefficients c."""
    n = c.shape[0]
    return np.real(np.fft.ifft2(c)) * (n * n)


def irfft2(c):
    """Samples of the full-plane coefficients c by numpy's `irfft2` of columns 0..n/2, each
    column transformed (bqsim's sampler skips the ones that hold zeros)."""
    n = c.shape[0]
    return np.fft.irfft2(c[:, : n // 2 + 1], (n, n)) * (n * n)


def fft2(samples):
    """Fourier-series coefficients of the samples."""
    n = samples.shape[0]
    return np.fft.fft2(samples) / (n * n)


def dealiased_fft2(grid, samples):
    """`fft2` with the 2/3 rule: +0 on every line max(|k1|, |k2|) > n // 3."""
    return np.where(grid.dealias_keep, fft2(samples), 0)


def hermitian_completion(c):
    """Columns 0..n/2 of c, then their conjugate mirror coeff(-k) = conj(coeff(k))."""
    n = c.shape[0]
    mirror = np.conj(c.take(-np.arange(n), axis=0)[:, n // 2 - 1 : 0 : -1])
    return np.concatenate([c[:, : n // 2 + 1], mirror], axis=1)


def rolled_defect(c):
    """Max |c - conj(c(-k))| over the full plane by its rolled mirror, relative to max |c|."""
    scale = float(np.max(np.abs(c)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(c - np.conj(np.roll(c[::-1, ::-1], 1, axis=(0, 1)))))) / scale


def riesz(grid, c):
    """First Riesz transform: multiplier i k1 / |k|, 0 at k = 0 and on k1 = -n/2."""
    with np.errstate(divide="ignore", invalid="ignore"):
        mult = 1j * grid.k1_odd / grid.kmag
    mult[0, 0] = 0.0
    return c * mult


def commutator_riesz(grid, v, theta):
    """R(v_i theta) - v_i R(theta) for each velocity component v_i, products dealiased."""
    th, rth = ifft2(theta), ifft2(riesz(grid, theta))
    return [riesz(grid, dealiased_fft2(grid, ifft2(vi) * th)) - dealiased_fft2(grid, ifft2(vi) * rth)
            for vi in v]


def velocity(grid, omega):
    """Samples of the Biot-Savart velocity (i k2, -i k1) omega / |k|^2."""
    return (ifft2(omega * (1j * grid.k2_odd * grid.inv_ksq)),
            ifft2(omega * (-1j * grid.k1_odd * grid.inv_ksq)))


def advect(grid, v, f):
    """Dealiased v . grad f of velocity samples v and coefficients f."""
    return dealiased_fft2(grid, v[0] * ifft2(f * (1j * grid.k1_odd)) + v[1] * ifft2(f * (1j * grid.k2_odd)))


def rhs(grid, w, th):
    v = velocity(grid, w)
    return -advect(grid, v, w) + th * (1j * grid.k1_odd), -advect(grid, v, th)


def step(grid, w0, th0, dt, alpha=1.0):
    """Integrating-factor RK4, E = exp(-|k|^alpha dt): w1 = E w0 + dt/6 (E n1 + 2 E^1/2 (n2 + n3) + n4)."""
    e_half = np.exp(-0.5 * dt * grid.kmag**alpha)
    e_full = e_half * e_half
    n1w, n1t = rhs(grid, w0, th0)
    n2w, n2t = rhs(grid, (w0 + (0.5 * dt) * n1w) * e_half, th0 + (0.5 * dt) * n1t)
    n3w, n3t = rhs(grid, w0 * e_half + (0.5 * dt) * n2w, th0 + (0.5 * dt) * n2t)
    n4w, n4t = rhs(grid, w0 * e_full + dt * (n3w * e_half), th0 + dt * n3t)
    w1 = w0 * e_full + (dt / 6.0) * (n1w * e_full + 2.0 * ((n2w + n3w) * e_half) + n4w)
    return w1, th0 + (dt / 6.0) * (n1t + 2.0 * (n2t + n3t) + n4t)
