"""The full-plane complex reference the tests compare bqsim against, on plain (n, n) arrays.

It uses numpy and a `Grid`'s multiplier arrays (`k1`, `k2`, `k1_odd`, `k2_odd`, `kmag`,
`inv_ksq`) and nothing else of bqsim (a random draw takes its ring-ordered lattice as given);
the 2/3 rule it builds from n alone (`keep_mask`), so a wrong `Grid` truncation parts bqsim
from the oracle.  It is the one test module that calls `numpy.fft`
(test_spectral.py's `TestTransformLayer` keeps it so).
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


def keep_mask(n):
    """The 2/3 rule on the integer lattice in FFT layout: True where max(|k1|, |k2|) <= n // 3."""
    k = np.minimum(np.arange(n), n - np.arange(n))  # |k| of each index
    return np.maximum(k[:, None], k[None, :]) <= n // 3


def dealias(c):
    """c with +0 on every line max(|k1|, |k2|) > n // 3."""
    return np.where(keep_mask(c.shape[0]), c, 0)


def dealiased_fft2(samples):
    """`fft2` with the 2/3 rule."""
    return dealias(fft2(samples))


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


def transition(r):
    """The bank's smooth transition g: 1 for r <= 1, 0 for r >= 2, the exp(-1/t) blend between."""
    out = np.where(r <= 1.0, 1.0, 0.0)
    t = r[(r > 1.0) & (r < 2.0)]
    upper, lower = np.exp(-1.0 / (2.0 - t)), np.exp(-1.0 / (t - 1.0))
    out[(r > 1.0) & (r < 2.0)] = upper / (upper + lower)
    return out


def bands(grid, homogeneous=False):
    """The band multipliers q = -1, 0, ..., ceil(log2(n/2)) on the whole plane: g(|k|), or the
    annulus g(|k|) - g(2 |k|) when homogeneous, then g(|k| / 2^(q+1)) - g(|k| / 2^q)."""
    n = grid.kmag.shape[0]
    g = [transition(grid.kmag / 2.0**q) for q in range(int(np.ceil(np.log2(n / 2))) + 2)]
    low = g[0] - transition(2.0 * grid.kmag) if homogeneous else g[0]
    return [low] + [high - below for below, high in zip(g, g[1:])]


def riesz(grid, c):
    """First Riesz transform: multiplier i k1 / |k|, 0 at k = 0 and on k1 = -n/2."""
    with np.errstate(divide="ignore", invalid="ignore"):
        mult = 1j * grid.k1_odd / grid.kmag
    mult[0, 0] = 0.0
    return c * mult


def commutator_riesz(grid, v, theta):
    """R(v_i theta) - v_i R(theta) for each velocity component v_i, products dealiased."""
    th, rth = ifft2(theta), ifft2(riesz(grid, theta))
    return [riesz(grid, dealiased_fft2(ifft2(vi) * th)) - dealiased_fft2(ifft2(vi) * rth) for vi in v]


def velocity(grid, omega):
    """Samples of the Biot-Savart velocity (i k2, -i k1) omega / |k|^2."""
    return (ifft2(omega * (1j * grid.k2_odd * grid.inv_ksq)),
            ifft2(omega * (-1j * grid.k1_odd * grid.inv_ksq)))


def advect(grid, v, f):
    """Dealiased v . grad f of velocity samples v and coefficients f."""
    return dealiased_fft2(v[0] * ifft2(f * (1j * grid.k1_odd)) + v[1] * ifft2(f * (1j * grid.k2_odd)))


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


def scalar_draw(lattice, n, gamma, amplitude, key):
    """A random draw on the whole plane: unit complex Gaussians times |k|^(-gamma) on the
    lattice modes (k1, k2, |k|), in its order, their conjugates on -k."""
    k1, k2, mag = lattice
    draws = np.random.default_rng(key).standard_normal((len(mag), 2))
    c = amplitude * (draws[:, 0] + 1j * draws[:, 1]) / np.sqrt(2.0) * mag ** (-gamma)
    coeffs = np.zeros((n, n), dtype=complex)
    coeffs[k1 % n, k2 % n] = c
    coeffs[-k1 % n, -k2 % n] = np.conj(c)
    return coeffs


def leray(grid, c1, c2):
    """c - k (k . c) / |k|^2 by the full wavevector, its Nyquist components kept."""
    kdotc = grid.k1 * c1 + grid.k2 * c2
    return c1 - grid.k1 * kdotc * grid.inv_ksq, c2 - grid.k2 * kdotc * grid.inv_ksq


def _lp(a, p):
    """`lp_norm` of samples a by its quadrature: max |a| at p = inf, else (sum |a|^p area)^(1/p)."""
    a = np.abs(a)
    if p == np.inf:
        return float(np.max(a))
    return float((np.sum(a**p) * (2.0 * np.pi / a.shape[0]) ** 2) ** (1.0 / p))


def _weighted_sq(grid, c, s):
    """(2 pi)^2 sum_(k != 0) |k|^(2 s) |c(k)|^2: a squared homogeneous H^s norm."""
    w2s = np.where(grid.kmag > 0, grid.kmag, 1.0) ** (2.0 * s) * (grid.kmag > 0)
    return float((2.0 * np.pi) ** 2 * np.sum(w2s * np.abs(c) ** 2))


def record_integrands(grid, bands, w, th, alpha=1.0, omega_lr=3.0):
    """A diagnostics record of the dealiased state (w, th) by the full-plane formulas it was
    first written with: (its columns that do not integrate in time, the integrands of those
    that do).  `bands` are the inhomogeneous band multipliers; the kinetic energy is the L^2
    norm of the complex-path velocity samples, summed as `lp_norm` sums it."""
    v_hat = (w * (1j * grid.k2_odd * grid.inv_ksq), w * (-1j * grid.k1_odd * grid.inv_ksq))
    v = tuple(ifft2(c) for c in v_hat)
    a = np.abs(np.hypot(*v))
    l2_v = float((np.sum(a**2) * (2.0 * np.pi / a.shape[0]) ** 2) ** (1.0 / 2))
    theta, omega = ifft2(th), irfft2(w)
    gamma = w - riesz(grid, th)
    grads = [ifft2(c * (1j * k)) for c in v_hat for k in (grid.k1_odd, grid.k2_odd)]
    besov = [sum(_lp(irfft2(c * mult), np.inf) for mult in bands) for c in (w, th)]
    columns = {
        "l2_v": l2_v, "l2_theta": _lp(theta, 2), "l4_theta": _lp(theta, 4),
        "linf_theta": _lp(theta, np.inf), "l2_omega": _lp(omega, 2), "lr_omega": _lp(omega, omega_lr),
        "l2_gamma": _lp(irfft2(gamma), 2), "besov_theta": besov[1],
    }
    integrands = {
        "hhalf_v_sq": sum(_weighted_sq(grid, c, 0.5) for c in v_hat),
        "hhalf_gamma_sq": _weighted_sq(grid, gamma, 0.5),
        "hhalf_omega_sq": _weighted_sq(grid, w, 0.5),
        "besov_omega": besov[0],
        "lip_v": max(_lp(d, np.inf) for d in grads),
        "energy": 0.5 * l2_v**2,
        "dissipation": sum(_weighted_sq(grid, c, 0.5 * alpha) for c in v_hat),
        "buoyancy_power": float(np.sum(theta * v[1]) * (2.0 * np.pi / a.shape[0]) ** 2),
    }
    return columns, integrands


#: Running-integral column -> its integrand (trapezoid rule over the records' times).
RUNNING = {"hhalf_v_sq_cum": "hhalf_v_sq", "hhalf_gamma_sq_cum": "hhalf_gamma_sq",
           "hhalf_omega_sq_cum": "hhalf_omega_sq", "besov_omega_cum": "besov_omega", "V_t": "lip_v"}


def records(grid, bands, states, alpha=1.0, omega_lr=3.0):
    """The record columns of each dealiased state (t, w, th) in turn, with the running integrals
    and the energy residual dE/dt + dissipation - buoyancy power between records, and each
    record's kinetic energy."""
    out, prev = [], None
    for t, w, th in states:
        columns, now = record_integrands(grid, bands, w, th, alpha, omega_lr)
        if prev is None:
            cums, residual = dict.fromkeys(RUNNING, 0.0), 0.0
        else:
            dt = t - prev[0]
            cums = {col: prev[2][col] + 0.5 * dt * (prev[1][key] + now[key]) for col, key in RUNNING.items()}
            residual = ((now["energy"] - prev[1]["energy"]) / dt
                        + 0.5 * (now["dissipation"] + prev[1]["dissipation"])
                        - 0.5 * (now["buoyancy_power"] + prev[1]["buoyancy_power"]))
        out.append({"t": t, **columns, **cums, "lip_v": now["lip_v"], "energy_residual": residual,
                    "energy": now["energy"]})
        prev = (t, now, cums)
    return out


# ---------------------------------------------------------------------------
# The verifier's suites, each sample's lhs and rhs by the sampled formulas they were first
# written with: every L^p norm, p = 2 included, is the quadrature of full-plane samples.

def _magnitude(samples):
    """A scalar's samples, or the pointwise Euclidean magnitude of a vector's."""
    return samples[0] if len(samples) == 1 else np.hypot(*samples)


def sobolev(grid, cs, s, homogeneous=False):
    """(2 pi) (sum_k w(k) |c(k)|^2)^(1/2) summed over the arrays cs, with w = (1 + |k|^2)^s, or
    |k|^(2 s) and 0 at k = 0."""
    if homogeneous:
        return float(np.sqrt(sum(_weighted_sq(grid, c, s) for c in cs)))
    w2s = (1.0 + grid.kmag**2) ** s
    return float(2.0 * np.pi * np.sqrt(sum(np.sum(w2s * np.abs(c) ** 2) for c in cs)))


def besov(bands, cs, s, p, r):
    """l^r over the bands q = -1, 0, ... of 2^(q s) ||Delta_q f||_p, each band sampled."""
    terms = np.array([2.0 ** (q * s) * _lp(_magnitude([ifft2(c * mult) for c in cs]), p)
                      for q, mult in enumerate(bands, start=-1)])
    return float(np.max(terms)) if r == np.inf else float(np.sum(terms**r) ** (1.0 / r))


def gradient_lp(grid, v, p):
    """L^p norm of the pointwise Frobenius magnitude of the sampled velocity gradient."""
    derivs = [ifft2(c * (1j * k)) for c in v for k in (grid.k1_odd, grid.k2_odd)]
    return _lp(np.sqrt(sum(d * d for d in derivs)), p)


def _l2(cs):
    return _lp(_magnitude([ifft2(c) for c in cs]), 2)


def commutator_hs(grid, bands, scalar, velocity, s=0.5):
    v, th = velocity(), scalar()
    lhs = sobolev(grid, commutator_riesz(grid, v, th), s)
    return lhs, gradient_lp(grid, v, 2) * besov(bands, [th], s - 1.0, np.inf, 2.0) + _l2(v) * _l2([th])


def commutator_bp(grid, bands, scalar, velocity, p=2.0):
    v, th = velocity(), scalar()
    comm = commutator_riesz(grid, v, th)
    div = comm[0] * (1j * grid.k1_odd) + comm[1] * (1j * grid.k2_odd)
    rhs = gradient_lp(grid, v, p) * besov(bands, [th], 0.0, np.inf, np.inf) + _l2(v) * _l2([th])
    return besov(bands, [div], 0.0, p, np.inf), rhs


def kernel(grid, bands, scalar, velocity, q=3, p=2.0):
    n, mult = grid.k1.shape[0], bands[q + 1]
    xc = np.mod(2.0 * np.pi * np.arange(n) / n + np.pi, 2.0 * np.pi) - np.pi
    band_kernel = ifft2(mult.astype(complex) / (2.0 * np.pi) ** 2)
    xh_l1 = float(np.sum(np.hypot(xc[:, None], xc[None, :]) * np.abs(band_kernel)) * (2.0 * np.pi / n) ** 2)
    f, g = scalar(0), scalar(1)
    fp, gp = ifft2(f), ifft2(g)
    conv_fg = ifft2(mult * dealiased_fft2(fp * gp))
    f_convg = ifft2(dealiased_fft2(fp * ifft2(mult * g)))
    grad = np.hypot(ifft2(f * (1j * grid.k1_odd)), ifft2(f * (1j * grid.k2_odd)))
    return _lp(conv_fg - f_convg, p), xh_l1 * _lp(grad, p) * _lp(gp, np.inf)


def power_map(grid, bands, scalar, velocity, beta=4.0, s=0.5):
    u = scalar()
    up = ifft2(u)
    powered = np.sign(up) * np.abs(up) ** (beta - 1.0)
    lhs = sobolev(grid, [fft2(powered)], s, homogeneous=True)
    rhs = _lp(up, 2.0 * beta) ** (beta - 2.0) * sobolev(grid, [u], s + 1.0 - 2.0 / beta, homogeneous=True)
    return lhs, rhs


def log_interp(grid, bands, scalar, velocity):
    v = velocity()
    lhs, weak = _l2(v), besov(bands, v, 0.0, 2.0, np.inf)
    if weak <= 1e-14 * lhs:
        return lhs, 0.0
    return lhs, weak * np.log(np.e + sobolev(grid, v, 1.0) / weak)


def gen_bernstein(grid, bands, scalar, velocity, q=3, r=3.0):
    uq = bands[q + 1] * scalar()
    up, dissip = ifft2(uq), ifft2(grid.kmag * uq)
    lhs = float(np.sum(dissip * np.sign(up) * np.abs(up) ** (r - 1.0)) * (2.0 * np.pi / up.shape[0]) ** 2)
    return lhs, 2.0**q * _lp(up, r) ** r


def product(grid, bands, scalar, velocity, s=-0.5):
    v = velocity()
    vp, f = tuple(ifft2(c) for c in v), scalar()
    lhs = besov(bands, [advect(grid, vp, f)], s, 2.0, np.inf)
    return lhs, _lp(np.hypot(*vp), 2) * besov(bands, [f], 1.0 + s, np.inf, 1.0)


def block_commutator(grid, bands, scalar, velocity, q=3, p=2.0):
    v, f = velocity(), scalar()
    vp, mult = tuple(ifft2(c) for c in v), bands[q + 1]
    comm = mult * advect(grid, vp, f) - advect(grid, vp, mult * f)
    return _lp(ifft2(comm), p), gradient_lp(grid, v, p) * besov(bands, [f], 0.0, np.inf, np.inf)


#: Suite name -> its sample at the suite's default parameters: (grid, bands, scalar(stream),
#: velocity()) -> (lhs, rhs), the draws as coefficient arrays and `bands` the inhomogeneous
#: band multipliers.
SUITES = {
    "commutator-hs": commutator_hs, "commutator-bp": commutator_bp, "kernel": kernel,
    "power-map": power_map, "log-interp": log_interp, "gen-bernstein": gen_bernstein,
    "product": product, "block-commutator": block_commutator,
}
