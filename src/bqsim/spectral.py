"""Spectral grid, transforms, and Fourier-multiplier operators on [0, 2pi)^2.

Conventions
-----------
Fields live on a uniform n-by-n grid over the periodic box of side 2*pi.
Wavevectors are integers k = (k1, k2) with each component in [-n/2, n/2),
stored in standard FFT layout along both axes.  The forward transform
divides by n^2, so spectral coefficients are Fourier-series coefficients:

    f(x) = sum_k  coeff(k) * exp(i k . x)

Real fields therefore carry the conjugate symmetry coeff(-k) = conj(coeff(k))
(indices taken modulo n).  An operator checks each field its caller hands it
once (`_check_real`) and samples what it derives from it by multipliers
unchecked: real even multipliers (bands, |k|^s) keep the symmetry exactly, and
imaginary ones odd in k_j (d/dx_j, Riesz in k1) keep it off the line k_j = -n/2,
whose antisymmetric part `_real_samples(c, axis=j)` drops.  `advect` takes v
physical, sampled once per state (`SimState.physical_velocity`) or caller, and
trusts f, as `grid_max_velocity` trusts v.  Operators that divide by |k| map
k = 0 to 0.  Sampling is one half-spectrum `irfft2` (`_real_samples`) except on
the complex path, whose last bits feed the trajectory or the energy residual
(E1 - E0) / dt, which magnifies them about 10^7-fold: `_samples` for the step's
stages and `advect`, `SimState.physical_velocity`, `grid_max_velocity` (it sets
the benchmark's run amplitudes), the record's theta samples (buoyancy power) and
`adaptive_dt`'s max|theta| (the buoyant limit can set dt), and `forward_transform`.

`Grid` keeps the wavevector arrays and the alpha-independent multipliers
(Riesz, 1/|k|^2, the dealiasing mask) and no more: `verify` builds a fresh
grid for every suite call, so each further n-by-n array kept on a grid raises
the peak memory of a run.  `kmag_power` and `forcing_mult` build the alpha
ones on request (`kmag_power` returns `kmag` itself at alpha = 1);
`partial_derivative`, `biot_savart` and `leray_project` form their
multipliers per call; the dyadic bands live in each grid's cached filter bank
(`littlewood_paley.build_filter_bank`).

Norms are torus norms: `lp_norm` uses grid quadrature with cell area
(2*pi/n)^2 and `sobolev_norm` carries the matching Parseval factor, so
``lp_norm(f, 2) == sobolev_norm(fft(f), 0)`` up to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidInputError, NonFiniteError

#: Relative tolerance on conjugate symmetry accepted by `_check_real`.
HERMITIAN_TOL = 1e-12
HERMITIAN_ABS_FLOOR = 1e-11


class Grid:
    """Uniform n-by-n collocation grid with precomputed wavevector arrays."""

    def __init__(self, n: int):
        n = int(n)
        if n % 2 != 0 or n < 16:
            raise ConfigurationError(f"grid size n must be even and >= 16, got {n}")
        self.n = n
        self.cell_area = (2.0 * np.pi / n) ** 2
        k = np.fft.fftfreq(n, d=1.0 / n)  # exact integers as floats
        self.k1 = k[:, None]
        self.k2 = k[None, :]
        self.kmag = np.hypot(np.broadcast_to(self.k1, (n, n)), np.broadcast_to(self.k2, (n, n)))
        with np.errstate(divide="ignore"):
            inv = 1.0 / (self.k1**2 + self.k2**2)
        inv[0, 0] = 0.0
        self.inv_ksq = inv
        self.riesz_mult = self.forcing_mult(1.0)
        # 2/3-rule mask: keep max(|k1|, |k2|) <= n/3, zero everything above.
        self.dealias_keep = np.maximum(np.abs(self.k1), np.abs(self.k2)) <= n / 3.0
        self.x = 2.0 * np.pi * np.arange(n) / n

    def kmag_power(self, alpha: float) -> np.ndarray:
        """The |k|^alpha multiplier for alpha in (0, 2]; `kmag` itself at alpha = 1."""
        if not 0.0 < alpha <= 2.0:
            raise ConfigurationError(f"alpha must lie in (0, 2], got {alpha}")
        return self.kmag if alpha == 1.0 else self.kmag**alpha

    def forcing_mult(self, alpha: float) -> np.ndarray:
        """Buoyancy forcing i*k1/|k|^alpha, zero mode -> 0; Riesz at alpha = 1."""
        with np.errstate(divide="ignore", invalid="ignore"):
            mult = 1j * self.k1 / self.kmag_power(alpha)
        mult[0, 0] = 0.0
        return mult

    def nodes(self):
        """Return coordinate arrays X1, X2 of shape (n, n), 'ij' indexed."""
        return np.meshgrid(self.x, self.x, indexing="ij")

    def __eq__(self, other):
        return isinstance(other, Grid) and other.n == self.n

    def __hash__(self):
        return hash(("Grid", self.n))

    def __repr__(self):
        return f"Grid(n={self.n})"


@dataclass
class PhysicalField:
    """Real samples of a scalar field at the grid nodes."""

    grid: Grid
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.shape != (self.grid.n, self.grid.n):
            raise InvalidInputError(
                f"samples shape {self.samples.shape} does not match grid n={self.grid.n}"
            )


@dataclass
class SpectralField:
    """Fourier-series coefficients of a real scalar field, FFT layout."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != (self.grid.n, self.grid.n):
            raise InvalidInputError(
                f"coeffs shape {self.coeffs.shape} does not match grid n={self.grid.n}"
            )

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    def _check_same_grid(self, other):
        if self.grid != other.grid:
            raise InvalidInputError("fields live on different grids")

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_grid(other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_grid(other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.coeffs)

    def __mul__(self, scalar) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


@dataclass
class VectorField:
    """Two-component field; both components physical or both spectral."""

    x1: object
    x2: object

    @property
    def grid(self) -> Grid:
        return self.x1.grid

    def components(self):
        return (self.x1, self.x2)


def apply_multiplier(f: SpectralField, mult: np.ndarray) -> SpectralField:
    """Multiply coefficients by an array-valued Fourier multiplier."""
    return SpectralField(f.grid, f.coeffs * mult)


def forward_transform(f: PhysicalField) -> SpectralField:
    """FFT with the 1/n^2 normalization; rejects non-finite samples."""
    if not np.all(np.isfinite(f.samples)):
        raise NonFiniteError("physical samples contain non-finite values")
    n = f.grid.n
    return SpectralField(f.grid, np.fft.fft2(f.samples) / (n * n))


def hermitian_defect(f: SpectralField) -> float:
    """Max deviation from coeff(-k) == conj(coeff(k)), relative to the field size."""
    c, n = f.coeffs, f.grid.n
    scale = float(np.max(np.abs(c)))
    if scale == 0.0:
        return 0.0
    # Rows 0..n/2 meet every pair (k, -k), and |a - conj(b)| is the same double as
    # |b - conj(a)|: the half plane gives the full-plane max, NaN and inf included.
    minus = -np.arange(n)  # the index of -k in FFT layout
    mirrored = c.take(minus[: n // 2 + 1], axis=0).take(minus, axis=1)
    return float(np.max(np.abs(c[: n // 2 + 1] - np.conj(mirrored)))) / scale


def _check_real(f: SpectralField) -> None:
    """Raise InvalidInputError unless f holds finite, conjugate-symmetric coefficients.

    Asymmetry must be significant both relative to the field and in absolute
    terms: fields produced by near-cancelling differences (commutators) or by
    dyadic bands that annihilate the input inherit round-off noise from their
    O(1) ancestors, which is asymmetric but physically meaningless.
    """
    defect = hermitian_defect(f)  # NaN whenever a coefficient is non-finite
    if math.isnan(defect) and not np.all(np.isfinite(f.coeffs)):
        raise InvalidInputError("spectral coefficients contain non-finite values")
    if defect > HERMITIAN_TOL and float(np.max(np.abs(f.coeffs))) * defect > HERMITIAN_ABS_FLOOR:
        raise InvalidInputError(
            f"conjugate symmetry broken: relative defect {defect:.3e} exceeds {HERMITIAN_TOL:.1e}"
        )


def _samples(f: SpectralField) -> np.ndarray:
    return np.real(np.fft.ifft2(f.coeffs)) * (f.grid.n * f.grid.n)


def _real_samples(c: np.ndarray, axis: int = 1) -> np.ndarray:
    """Samples of c by one `irfft2`, real along `axis`, that reads indices 0..n/2 on it;
    on the line k_axis = -n/2 it keeps the symmetric part alone, as `np.real(ifft2)` does."""
    n = c.shape[0]
    half = np.s_[:, : n // 2 + 1] if axis else np.s_[: n // 2 + 1]
    return np.fft.irfft2(c[half], (n, n), axes=(1 - axis, axis)) * (n * n)


def inverse_transform(f: SpectralField) -> PhysicalField:
    """Inverse FFT to real samples; rejects non-finite or asymmetric coefficients."""
    _check_real(f)
    return PhysicalField(f.grid, _real_samples(f.coeffs))


def partial_derivative(f: SpectralField, axis: int) -> SpectralField:
    """Derivative along axis 0 or 1 via the i*k_axis multiplier."""
    if axis not in (0, 1):
        raise ConfigurationError(f"axis must be 0 or 1, got {axis}")
    k = f.grid.k1 if axis == 0 else f.grid.k2
    return apply_multiplier(f, 1j * k)


def gradient(f: SpectralField) -> VectorField:
    return VectorField(partial_derivative(f, 0), partial_derivative(f, 1))


def fractional_dissipation(f: SpectralField, alpha: float) -> SpectralField:
    """Apply |D|^alpha, i.e. the |k|^alpha multiplier (zero mode -> 0)."""
    return apply_multiplier(f, f.grid.kmag_power(alpha))


def riesz(f: SpectralField) -> SpectralField:
    """First Riesz transform d1/|D|: multiplier i*k1/|k|, zero mode -> 0."""
    return apply_multiplier(f, f.grid.riesz_mult)


def biot_savart(omega: SpectralField) -> VectorField:
    """Divergence-free velocity with the given vorticity (spectral components).

    v = grad^perp of the streamfunction solving Laplace psi = omega, so
    v1 = i k2 w / |k|^2 and v2 = -i k1 w / |k|^2.  The vorticity must be
    mean-free; the k = 0 velocity mode is set to zero.
    """
    g = omega.grid
    scale = float(np.max(np.abs(omega.coeffs)))
    if abs(omega.coeffs[0, 0]) > 1e-12 * max(scale, 1.0):
        raise InvalidInputError(
            f"vorticity has nonzero mean {omega.coeffs[0, 0]:.3e}; velocity is undefined"
        )
    v1 = apply_multiplier(omega, 1j * g.k2 * g.inv_ksq)
    v2 = apply_multiplier(omega, -1j * g.k1 * g.inv_ksq)
    return VectorField(v1, v2)


def divergence(v: VectorField) -> SpectralField:
    return partial_derivative(v.x1, 0) + partial_derivative(v.x2, 1)


def curl(v: VectorField) -> SpectralField:
    """Scalar curl d1 v2 - d2 v1."""
    return partial_derivative(v.x2, 0) - partial_derivative(v.x1, 1)


def leray_project(v: VectorField) -> VectorField:
    """Remove the gradient part: v - k (k . v) / |k|^2 in Fourier space."""
    g = v.grid
    kdotv = g.k1 * v.x1.coeffs + g.k2 * v.x2.coeffs
    return VectorField(
        SpectralField(g, v.x1.coeffs - g.k1 * kdotv * g.inv_ksq),
        SpectralField(g, v.x2.coeffs - g.k2 * kdotv * g.inv_ksq),
    )


def to_physical(v: VectorField) -> VectorField:
    return VectorField(inverse_transform(v.x1), inverse_transform(v.x2))


def dealias(f: SpectralField) -> SpectralField:
    """Zero all coefficients with max(|k1|, |k2|) > n/3 (idempotent)."""
    return apply_multiplier(f, f.grid.dealias_keep)


def advect(v: VectorField, f: SpectralField) -> SpectralField:
    """Dealiased advection term v . grad f for a divergence-free velocity.

    v is physical (`to_physical`, `SimState.physical_velocity`), so it is transformed
    once for all the fields it advects.  The spectral gradient of f goes to physical
    space unchecked (trusted to be real), times v, transformed back and dealiased.
    """
    g = f.grid
    if not all(isinstance(c, PhysicalField) and c.grid == g for c in v.components()):
        raise InvalidInputError("advect needs a physical velocity on the grid of f")
    f1, f2 = _samples(partial_derivative(f, 0)), _samples(partial_derivative(f, 1))
    product = PhysicalField(g, v.x1.samples * f1 + v.x2.samples * f2)
    return dealias(forward_transform(product))


def lp_norm(f, p) -> float:
    """Lebesgue norm by grid quadrature; accepts a scalar or vector field.

    For p = inf this is the grid max of |f|; otherwise
    (sum |f|^p * cell_area)^(1/p).  Vector fields use the pointwise
    Euclidean magnitude.
    """
    if isinstance(f, VectorField):
        mag = np.hypot(f.x1.samples, f.x2.samples)
        f = PhysicalField(f.grid, mag)
    if not (p == math.inf or p >= 1):
        raise ConfigurationError(f"Lebesgue exponent p must satisfy p >= 1, got {p}")
    a = np.abs(f.samples)
    if p == math.inf:
        return float(np.max(a))
    with np.errstate(over="ignore"):
        total = np.sum(a**p) * f.grid.cell_area
    top = _rescale_by(total, a)
    if top:
        return float(top * (np.sum((a / top) ** p) * f.grid.cell_area) ** (1.0 / p))
    return float(total ** (1.0 / p))


def _rescale_by(total: float, a: np.ndarray) -> float:
    """max(a) if the power sum `total` of a >= 0 overflowed or fell below the normal doubles
    while a is finite and nonzero (the norm then scales a by it first), else 0."""
    if np.finfo(float).tiny <= total < math.inf or not np.all(np.isfinite(a)):
        return 0.0
    return float(np.max(a))


def sobolev_norm(f: SpectralField, s: float, homogeneous: bool = False) -> float:
    """Sobolev norm from weighted coefficients, consistent with lp_norm.

    Inhomogeneous weight (1 + |k|^2)^(1/2); homogeneous weight |k| with the
    zero mode dropped.  The 2*pi box factor makes s = 0 agree with the L2
    grid quadrature (Parseval).
    """
    g = f.grid
    mag = np.abs(f.coeffs)
    if homogeneous:
        w2s = np.zeros_like(g.kmag)
        nz = g.kmag > 0
        w2s[nz] = g.kmag[nz] ** (2.0 * s)
    else:
        w2s = (1.0 + g.kmag**2) ** s
    with np.errstate(over="ignore"):
        total = np.sum(w2s * mag**2)
    top = _rescale_by(total, mag)
    if top:
        return float(2.0 * np.pi * top * np.sqrt(np.sum(w2s * (mag / top) ** 2)))
    return float(2.0 * np.pi * np.sqrt(total))


def grid_max_velocity(v: VectorField) -> float:
    """Grid max of |v| from spectral components, trusted to be real (unchecked)."""
    return float(np.max(np.hypot(_samples(v.x1), _samples(v.x2))))


def _gradient_samples(v: VectorField):
    """Yield the four velocity-derivative samples d_j v_i, checking each v_i once."""
    for comp in v.components():
        _check_real(comp)
        for axis in (0, 1):
            yield _real_samples(partial_derivative(comp, axis).coeffs, axis)


def max_gradient(v: VectorField) -> float:
    """Grid max over all four velocity-derivative samples."""
    return max([0.0] + [float(np.max(np.abs(d))) for d in _gradient_samples(v)])


def gradient_lp_norm(v: VectorField, p) -> float:
    """L^p norm of the pointwise Frobenius magnitude of the velocity gradient."""
    acc = sum(d * d for d in _gradient_samples(v))
    return lp_norm(PhysicalField(v.grid, np.sqrt(acc)), p)


def vector_sobolev_norm(v: VectorField, s: float, homogeneous: bool = False) -> float:
    return float(
        np.hypot(sobolev_norm(v.x1, s, homogeneous), sobolev_norm(v.x2, s, homogeneous))
    )


def integrate(f: PhysicalField) -> float:
    """Box integral by grid quadrature."""
    return float(np.sum(f.samples) * f.grid.cell_area)
