"""Spectral grid, transforms, and Fourier-multiplier operators on [0, 2pi)^2.

Conventions
-----------
Fields live on a uniform n-by-n grid over the periodic box of side 2*pi.
Wavevectors are integers k = (k1, k2) with each component in [-n/2, n/2),
stored exactly (as floats) in standard FFT layout along both axes; the 2/3 rule
keeps max(|k1|, |k2|) <= `Grid.kmax` = n // 3.  The forward transform
divides by n^2, so spectral coefficients are Fourier-series coefficients:

    f(x) = sum_k  coeff(k) * exp(i k . x)

Real fields therefore carry the conjugate symmetry coeff(-k) = conj(coeff(k)) (indices taken modulo
n).  Samples are plain (n, n) float arrays, a vector's a pair (v1, v2) of them; `VectorField` holds
two spectral components on one grid, checked when it is built.  Samples from outside (the forward
transforms, `lp_norm`, `integrate`) are checked where they enter: shape (`_square`), finiteness.
The `SpectralField` constructor checks finiteness and this symmetry once (`_check_real`) on a
read-only copy of its coefficients; operators trust every field and wrap what they derive unchecked
(`_wrap`): sums, real scalars, transforms of real samples, real even multipliers (bands, |k|^s) and
odd ones (d/dx_j, Riesz, Biot-Savart), which vanish on their Nyquist line k_j = -n/2
(`Grid.k1_odd`, `Grid.k2_odd`).  `read_checkpoint` and random draws check finiteness only
(`simio._read_checked` adds the symmetry).  Operators that divide by |k| map k = 0 to 0.

Transforms run on the real path: `_real_samples` runs `irfft2`'s two passes, the `ifft` over
columns 0..kmax alone when those beyond are zero and none for a zero field (numpy's bytes but for
the sign of a zero sample), and `_forward` runs `rfft2`'s, the `fft` over columns 0..n/2 (0..kmax
for the kept block alone), and fills the other columns by conjugate symmetry.  The complex path
runs `ifft2`'s and `fft2`'s passes on the kept block, the coefficients |k_j| <= kmax in FFT layout
of size 2 kmax + 1 (`Grid.block`, scattered into +0.0 by `Grid.plane`, as `dealias` does).  It is
the trajectory's alone, as the energy residual (E1 - E0) / dt magnifies its last bits about
10^7-fold: the step's `_advect`, and `_samples` for `SimState.physical_velocity`,
`SimState.physical_temperature` (the buoyant limit of `adaptive_dt`) and `grid_max_velocity` (the
benchmark's run amplitudes).  From n = 160 (`dynamics.PARALLEL_MIN_N`) the step's stage halves and
the verifier's sample pairs run on two threads (`dynamics._pair`), same bytes.

`Grid(n)` returns the live grid of size n when there is one (a weak table finds it), so all callers
share one grid per n while any of them holds it; each grid's cached filter bank
(`littlewood_paley.build_filter_bank`), home of the dyadic bands, holds it for the process, as do
its Sobolev weights' cache.  A grid builds its lattice and kept lines at once, and its n-by-n
multipliers (|k|, 1/|k|^2, Riesz), the kept block's k_j, 1/|k|^2, i k_j and Biot-Savart
multipliers and its Sobolev weights on first read, keeping each: they are built once per n (a
weight once per n, s and kind).  As every user of n shares them, every array a grid holds is
read-only.  `kmag_power` and `forcing_mult` build the alpha ones on request, and operators form
their products of those arrays per call.

Norms are torus norms; two helpers take every power sum, scaled by its max first when it leaves the
normal doubles (`_rescale_by`).  `_weighted_lr` sums terms >= 0: `lp_norm`'s samples (cell area
(2*pi/n)^2, n their own) and `littlewood_paley`'s band norms and time series.  `_parseval` sums
coefficients on the half spectrum, with the matching factor 2 pi, so
``lp_norm(inverse_transform(f), 2) == sobolev_norm(f, 0)`` up to roundoff, for every L^2 norm of a
field: `sobolev_norm`, `gradient_lp_norm` and `band_lp_norms` at p = 2, the record's but its
kinetic energy (`lp_norm` of the complex-path velocity samples) and
`linear_gamma_smoothing_integral`.  Of arrays of n rows (a plane, or its columns 0..n/2 alone) it
reads columns 0..n/2, each column 0 < j < n/2 counted twice for its mirror n - j (Nyquist once).
"""

from __future__ import annotations

import functools
import math
import numbers
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidInputError, NonFiniteError

#: Relative tolerance on conjugate symmetry accepted by `_check_real`.
HERMITIAN_TOL = 1e-12
HERMITIAN_ABS_FLOOR = 1e-11


class _OnePerSize(type):
    """`Grid(n)` is the live grid of size n when there is one, so what a grid builds on first
    read is built once per n for as long as anything holds it."""

    _live = weakref.WeakValueDictionary()

    def __call__(cls, n):
        grid = cls._live.get(n) if isinstance(n, numbers.Real) else None
        if grid is None:
            grid = super().__call__(n)
            cls._live[grid.n] = grid
        return grid


class Grid(metaclass=_OnePerSize):
    """Uniform n-by-n collocation grid with its wavevector arrays; one live instance per n."""

    def __init__(self, n: int):
        if not isinstance(n, numbers.Real) or n % 2 != 0 or n < 16:
            raise ConfigurationError(f"grid size n must be an even integer >= 16, got {n!r}")
        self.n = n = int(n)
        # exact integers, FFT layout
        k = _read_only(np.r_[0 : n // 2, -(n // 2) : 0].astype(float))
        self.k1 = k[:, None]
        self.k2 = k[None, :]
        k_odd = _read_only(np.where(k == -n // 2, 0.0, k))
        self.k1_odd, self.k2_odd = k_odd[:, None], k_odd[None, :]
        # 2/3 rule: keep max(|k1|, |k2|) <= kmax, the lines `kept` along each axis.
        self.kmax = m = n // 3
        self.kept = (slice(None, m + 1), slice(n - m, None))
        # (plane, block) slices of the kept block's quadrants (size 2m + 1), columns 0..m first
        lines = list(zip(self.kept, (slice(None, m + 1), slice(m + 1, None))))
        self.quadrants = [((r, k), (br, bk)) for k, bk in lines for r, br in lines]
        self.x = _read_only(2.0 * np.pi * np.arange(n) / n)

    @functools.cached_property
    def kmag(self) -> np.ndarray:
        return _read_only(np.hypot(self.k1, self.k2))

    @functools.cached_property
    def inv_ksq(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            inv = 1.0 / (self.k1**2 + self.k2**2)
        inv[0, 0] = 0.0
        return _read_only(inv)

    @functools.cached_property
    def block_k(self) -> tuple:
        """The kept block's k1 (a column), k2 (a row) and 1/|k|^2."""
        k1 = _read_only(self.block(np.broadcast_to(self.k1_odd, (self.n, self.n)))[:, :1])
        return k1, k1.T, _read_only(self.block(self.inv_ksq))

    @functools.cached_property
    def block_mults(self) -> tuple:
        """Kept blocks of i k1 and i k2 (a column and a row) and (i k2, -i k1) / |k|^2, each formed
        as `partial_derivative` or `biot_savart` forms it."""
        k1, k2, inv_ksq = self.block_k
        return tuple(map(_read_only, (1j * k1, 1j * k2, 1j * k2 * inv_ksq, -1j * k1 * inv_ksq)))

    def block(self, c: np.ndarray) -> np.ndarray:
        """The kept (2m + 1)^2 block of an (n, n) array, m = kmax."""
        b = np.empty((2 * self.kmax + 1,) * 2, c.dtype)
        for plane, block in self.quadrants:
            b[block] = c[plane]
        return b

    def plane(self, b: np.ndarray, half: bool = False) -> np.ndarray:
        """The (n, n) array (or its columns 0..kmax) with block b on the kept lines, else +0.0."""
        a = np.zeros((self.n, self.kmax + 1 if half else self.n), b.dtype)
        for plane, block in self.quadrants[: 2 if half else 4]:
            a[plane] = b[block]
        return a

    @functools.cached_property
    def riesz_mult(self) -> np.ndarray:
        return _read_only(self.forcing_mult(1.0))

    def kmag_power(self, alpha: float) -> np.ndarray:
        """The |k|^alpha multiplier for alpha in (0, 2]; `kmag` itself at alpha = 1."""
        if not 0.0 < alpha <= 2.0:
            raise ConfigurationError(f"alpha must lie in (0, 2], got {alpha}")
        return self.kmag if alpha == 1.0 else self.kmag**alpha

    def forcing_mult(self, alpha: float) -> np.ndarray:
        """Buoyancy forcing i*k1/|k|^alpha, zero mode -> 0; Riesz at alpha = 1."""
        with np.errstate(divide="ignore", invalid="ignore"):
            mult = 1j * self.k1_odd / self.kmag_power(alpha)
        mult[0, 0] = 0.0
        return mult

    @functools.lru_cache(maxsize=32)
    def sobolev_weight(self, s: float, homogeneous: bool) -> np.ndarray:
        """`sobolev_norm`'s weight (1 + |k|^2)^(s/2), or |k|^s but 0 at k = 0, on columns 0..n/2."""
        k = self.kmag[:, : self.n // 2 + 1]
        with np.errstate(divide="ignore"):
            w = k**s if homogeneous else (1.0 + k**2) ** (0.5 * s)
        w[0, 0] = 0.0 if homogeneous else 1.0
        return _read_only(w)

    def nodes(self):
        """Return coordinate arrays X1, X2 of shape (n, n), 'ij' indexed."""
        return np.meshgrid(self.x, self.x, indexing="ij")

    def __reduce__(self):  # a copy or an unpickled grid is the live one
        return Grid, (self.n,)

    def __repr__(self):
        return f"Grid(n={self.n})"


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, made read-only: a grid's arrays are shared by every user of its n."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SpectralField:
    """Fourier-series coefficients of a real scalar field, FFT layout; valid and read-only."""

    grid: Grid
    coeffs: np.ndarray
    __array_ufunc__ = None  # numpy operators defer to ours, which take real scalars only

    def __post_init__(self):
        coeffs, n = np.array(self.coeffs, dtype=complex), self.grid.n  # a copy
        if coeffs.shape != (n, n):
            raise InvalidInputError(f"coeffs shape {coeffs.shape} does not match grid n={n}")
        _check_real(coeffs)
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    def _same_grid(self, other) -> Grid:
        if self.grid != other.grid:
            raise InvalidInputError("fields live on different grids")
        return self.grid

    def __add__(self, other: "SpectralField") -> "SpectralField":
        return _wrap(self._same_grid(other), self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return _wrap(self._same_grid(other), self.coeffs - other.coeffs)

    def __neg__(self) -> "SpectralField":
        return _wrap(self.grid, -self.coeffs)

    def __mul__(self, scalar) -> "SpectralField":
        if not isinstance(scalar, numbers.Real):
            return NotImplemented
        return _wrap(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


def _wrap(grid: Grid, coeffs: np.ndarray) -> SpectralField:
    """Fresh coefficients derived from valid fields by a symmetry-preserving operation."""
    f = object.__new__(SpectralField)
    coeffs.flags.writeable = False
    vars(f).update(grid=grid, coeffs=coeffs)
    return f


@dataclass(frozen=True)
class VectorField:
    """Two spectral components on one grid; their samples are a pair of arrays (`to_physical`)."""

    x1: SpectralField
    x2: SpectralField

    def __post_init__(self):
        if not (isinstance(self.x1, SpectralField) and isinstance(self.x2, SpectralField)):
            raise InvalidInputError("a VectorField holds two SpectralFields")
        self.x1._same_grid(self.x2)

    @property
    def grid(self) -> Grid:
        return self.x1.grid

    def components(self):
        return (self.x1, self.x2)


def _components(f) -> tuple:
    return f.components() if isinstance(f, VectorField) else (f,)


def _apply_multiplier(f: SpectralField, mult: np.ndarray) -> SpectralField:
    """Multiply coefficients by a real even or Nyquist-zeroed odd Fourier multiplier."""
    return _wrap(f.grid, f.coeffs * mult)


def _square(samples, n=None) -> np.ndarray:
    """Samples from outside as an (n, n) float array, n the grid's or, if None, any."""
    a = np.asarray(samples, dtype=np.float64)
    if not (a.ndim == 2 and a.shape[0] == a.shape[1] > 0) or n not in (None, a.shape[0]):
        want = "(n, n)" if n is None else f"({n}, {n})"
        raise InvalidInputError(f"samples must be an {want} array, got shape {a.shape}")
    return a


def _cell_area(a: np.ndarray) -> float:
    return (2.0 * np.pi / a.shape[0]) ** 2


def _forward(grid: Grid, samples, block=False) -> np.ndarray:
    """Coefficients of (n, n) real samples by `rfft2`'s passes, the second over columns 0..n/2,
    or 0..kmax for the kept block alone, the other columns by conjugate symmetry."""
    samples, m = _square(samples, grid.n), grid.kmax
    _check_samples(samples)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan fail a finiteness check later
        a = np.fft.rfft(samples, axis=1)[:, : m + 1 if block else None]
        a = np.fft.fft(a, axis=0, out=a)
    a = np.concatenate([a[rows] for rows in grid.kept]) if block else a
    a /= grid.n * grid.n
    mirrored = a[-np.arange(len(a)), (m if block else grid.n // 2 - 1) : 0 : -1]
    return np.concatenate([a, np.conj(mirrored)], axis=1)


def forward_transform(grid: Grid, samples) -> SpectralField:
    """FFT of (n, n) real samples with the 1/n^2 normalization; rejects non-finite samples."""
    return _wrap(grid, _forward(grid, samples))


def dealiased_transform(grid: Grid, samples) -> SpectralField:
    """`dealias(forward_transform(grid, samples))`, transforming only the kept columns."""
    return _wrap(grid, grid.plane(_forward(grid, samples, True)))


def hermitian_defect(c: np.ndarray) -> float:
    """Max deviation of an (n, n) array from coeff(-k) == conj(coeff(k)), relative to its size."""
    n = c.shape[0]
    scale = float(np.max(np.abs(c)))
    if scale == 0.0:
        return 0.0
    # Rows 0..n/2 meet every pair (k, -k), and |a - conj(b)| is the same double as
    # |b - conj(a)|: the half plane gives the full-plane max, NaN and inf included.
    minus = -np.arange(n)  # the index of -k in FFT layout
    mirrored = c.take(minus[: n // 2 + 1], axis=0).take(minus, axis=1)
    return float(np.max(np.abs(c[: n // 2 + 1] - np.conj(mirrored)))) / scale


def _check_samples(*samples, result: float = math.nan) -> float:
    """result, or NonFiniteError when it is not finite (none is given) and a sample is not."""
    if not (math.isfinite(result) or all(np.all(np.isfinite(a)) for a in samples)):
        raise NonFiniteError("physical samples contain non-finite values")
    return result


def _check_finite(a: np.ndarray) -> None:
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("spectral coefficients contain non-finite values")


def _check_real(c: np.ndarray) -> None:
    """Raise InvalidInputError unless c holds finite, conjugate-symmetric coefficients; both
    tolerances must be exceeded, as stepped states and user arrays carry round-off asymmetry."""
    _check_finite(c)  # first: the defect of an inf at a self-conjugate mode is inf - inf
    defect = hermitian_defect(c)
    if defect > HERMITIAN_TOL and float(np.max(np.abs(c))) * defect > HERMITIAN_ABS_FLOOR:
        raise InvalidInputError(
            f"conjugate symmetry broken: relative defect {defect:.3e} exceeds {HERMITIAN_TOL:.1e}"
        )


def _samples(b: np.ndarray, g: Grid) -> np.ndarray:
    """Complex-path samples of the kept block b on g by `ifft2`'s passes, the first on its rows."""
    a = g.plane(b)
    for rows in g.kept:
        np.fft.ifft(a[rows], axis=1, out=a[rows])
    return np.real(np.fft.ifft(a, axis=0, out=a)) * (g.n * g.n)


def _real_samples(c: np.ndarray, g: Grid) -> np.ndarray:
    """Samples of c's columns 0..n/2 (zeros beyond a narrower c) by `irfft2`'s two passes, the
    `ifft` over columns 0..kmax alone when those beyond are zero, and none when all are."""
    n, m = g.n, g.kmax + 1
    c = c[:, : n // 2 + 1]
    if c.shape[1] <= m or not c[:, m:].any():  # each element is scanned once
        c = c[:, :m]
        if not c.any():
            return np.zeros((n, n))
    s = np.fft.irfft(np.fft.ifft(c, axis=0), n, axis=1)
    s *= n * n
    return s


def inverse_transform(f: SpectralField) -> np.ndarray:
    """Inverse FFT to the (n, n) real samples."""
    return _real_samples(f.coeffs, f.grid)


def partial_derivative(f: SpectralField, axis: int) -> SpectralField:
    """Derivative along axis 0 or 1 via the i*k_axis multiplier (0 on k_axis = -n/2)."""
    if axis not in (0, 1):
        raise ConfigurationError(f"axis must be 0 or 1, got {axis}")
    k = f.grid.k1_odd if axis == 0 else f.grid.k2_odd
    return _apply_multiplier(f, 1j * k)


def gradient(f: SpectralField) -> VectorField:
    return VectorField(partial_derivative(f, 0), partial_derivative(f, 1))


def fractional_dissipation(f: SpectralField, alpha: float) -> SpectralField:
    """Apply |D|^alpha, i.e. the |k|^alpha multiplier (zero mode -> 0)."""
    return _apply_multiplier(f, f.grid.kmag_power(alpha))


def riesz(f: SpectralField) -> SpectralField:
    """First Riesz transform d1/|D|: multiplier i*k1/|k|, zero mode -> 0."""
    return _apply_multiplier(f, f.grid.riesz_mult)


def biot_savart(omega: SpectralField) -> VectorField:
    """Divergence-free velocity with the given vorticity (spectral components).

    v = grad^perp of the streamfunction solving Laplace psi = omega, so
    v1 = i k2 w / |k|^2 and v2 = -i k1 w / |k|^2.  The vorticity must be
    mean-free; the k = 0 velocity mode is set to zero.
    """
    g = omega.grid
    _check_mean_free(omega)
    v1 = _apply_multiplier(omega, 1j * g.k2_odd * g.inv_ksq)
    v2 = _apply_multiplier(omega, -1j * g.k1_odd * g.inv_ksq)
    return VectorField(v1, v2)


def _check_mean_free(omega: SpectralField) -> None:
    """Raise InvalidInputError unless the vorticity's mean is zero up to round-off: one
    coefficient is read unless |omega(0, 0)| > 1e-12."""
    mean = abs(omega.coeffs[0, 0])
    if mean > 1e-12 and mean > 1e-12 * max(float(np.max(np.abs(omega.coeffs))), 1.0):
        raise InvalidInputError(
            f"vorticity has nonzero mean {omega.coeffs[0, 0]:.3e}; velocity is undefined"
        )


def divergence(v: VectorField) -> SpectralField:
    return partial_derivative(v.x1, 0) + partial_derivative(v.x2, 1)


def curl(v: VectorField) -> SpectralField:
    """Scalar curl d1 v2 - d2 v1."""
    return partial_derivative(v.x2, 0) - partial_derivative(v.x1, 1)


def leray_project(v: VectorField) -> VectorField:
    """Remove the gradient part v - k (k . v) / |k|^2, k's Nyquist components zeroed."""
    g, h = v.grid, v.grid.n // 2
    inv_ksq = g.inv_ksq.copy()
    inv_ksq[h], inv_ksq[:, h] = inv_ksq[0], inv_ksq[:, 0]
    projected = _leray(v.x1.coeffs, v.x2.coeffs, g.k1_odd, g.k2_odd, inv_ksq)
    return VectorField(*(_wrap(g, c) for c in projected))


def _leray(c1: np.ndarray, c2: np.ndarray, k1, k2, inv_ksq) -> tuple:
    """The components c - k (k . c) / |k|^2 of (c1, c2), on the plane or the kept block."""
    kdotv = k1 * c1 + k2 * c2
    return c1 - k1 * kdotv * inv_ksq, c2 - k2 * kdotv * inv_ksq


def to_physical(v: VectorField) -> tuple:
    """The samples (v1, v2) of both components."""
    return inverse_transform(v.x1), inverse_transform(v.x2)


def dealias(f: SpectralField) -> SpectralField:
    """Zero all coefficients with max(|k1|, |k2|) > `Grid.kmax` (idempotent): +0.0 there."""
    return _wrap(f.grid, f.grid.plane(f.grid.block(f.coeffs)))


def advect(v: tuple, f: SpectralField) -> SpectralField:
    """Dealiased advection term v . grad f of f's dealiased part, for a divergence-free velocity.

    v is the pair of velocity samples (`to_physical`, `SimState.physical_velocity`), so it
    is transformed once for all the fields it advects.  The spectral gradient of f's kept block
    is sampled (`_real_samples`), times v, transformed back (`_forward`) and dealiased.
    """
    g = f.grid
    if not (isinstance(v, tuple) and len(v) == 2
            and all(isinstance(c, np.ndarray) and c.shape == (g.n, g.n) for c in v)):
        raise InvalidInputError("advect needs velocity samples (v1, v2) on the grid of f")
    b = g.block(f.coeffs)
    d = [_real_samples(g.plane(b * ik, True), g) for ik in g.block_mults[:2]]
    return _wrap(g, g.plane(_forward(g, _dot(v, *d), True)))


def _advect(g: Grid, v: tuple, b: np.ndarray) -> np.ndarray:
    """The step's `advect` on the complex path, from f's kept block b to that of v . grad f."""
    a = _dot(v, *(_samples(b * ik, g) for ik in g.block_mults[:2]))
    _check_samples(a)
    a = a.astype(complex)
    with np.errstate(over="ignore", invalid="ignore"):
        np.fft.fft(a, axis=1, out=a)
        for cols in g.kept:
            np.fft.fft(a[:, cols], axis=0, out=a[:, cols])
    a = g.block(a)
    a /= g.n * g.n
    return a


def _dot(v: tuple, d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """v1 d1 + v2 d2, formed in place of d1 and d2: IEEE products commute, so d1 * v1 is v1 * d1."""
    return np.add(np.multiply(d1, v[0], out=d1), np.multiply(d2, v[1], out=d2), out=d1)


def lp_norm(f, p) -> float:
    """Lebesgue norm by grid quadrature of (n, n) samples, or of a pair (v1, v2) of them.

    For p = inf this is the grid max of |f|; otherwise (sum |f|^p * cell area)^(1/p)
    with cell area (2 pi / n)^2.  A pair uses the pointwise Euclidean magnitude.  Non-finite samples
    raise NonFiniteError, looked for only when the norm is not finite (an overflow gives inf).
    """
    if not (p == math.inf or p >= 1):
        raise ConfigurationError(f"Lebesgue exponent p must satisfy p >= 1, got {p}")
    pair = isinstance(f, tuple) and len(f) == 2
    a = _square(f[0] if pair else f)
    a = np.hypot(a, _square(f[1], len(a))) if pair else np.abs(a)  # a hypot is >= 0 already
    return _check_samples(*(f if pair else [a]), result=_weighted_lr(a, p, _cell_area(a)))


def _weighted_lr(terms: np.ndarray, r: float, weight=1.0) -> float:
    """(sum weight * terms^r)^(1/r) of terms >= 0, or max(terms) at r = inf: a scalar weight
    multiplies the sum, an array one each term.  The terms are scaled by their max first when
    the power sum leaves the normal doubles."""
    if r == math.inf:
        return float(np.max(terms))

    def power_sum(t):
        return np.sum(t**r) * weight if np.isscalar(weight) else np.sum(weight * t**r)

    with np.errstate(over="ignore"):
        total = power_sum(terms)
    top = _rescale_by(total, terms)
    if top:
        return float(top * power_sum(terms / top) ** (1.0 / r))
    return float(total ** (1.0 / r))


def _rescale_by(total: float, a: np.ndarray) -> float:
    """max(a) if the power sum `total` of a >= 0 overflowed or fell below the normal doubles
    while a is finite and nonzero (the norm then scales a by it first), else 0."""
    if np.finfo(float).tiny <= total < math.inf or not np.all(np.isfinite(a)):
        return 0.0
    return float(np.max(a))


def sobolev_norm(f, s: float, homogeneous: bool = False) -> float:
    """Sobolev norm of a field, or of a vector's two components together, by `_parseval`:
    inhomogeneous weight (1 + |k|^2)^(s/2), none at s = 0, or homogeneous weight |k|^s with the
    zero mode dropped.  At s = 0 it is `lp_norm` of the samples (the 2 pi box factor)."""
    if not math.isfinite(s):
        raise ConfigurationError(f"Sobolev index s must be finite, got {s}")
    w = None if s == 0 and not homogeneous else f.grid.sobolev_weight(s, homogeneous)
    return float(_parseval([c.coeffs for c in _components(f)], [w])[0])


vector_sobolev_norm = sobolev_norm


def _parseval(cs: list, mults: list) -> np.ndarray:
    """The L^2 norms 2 pi (sum_k m(k)^2 sum_c |c(k)|^2)^(1/2) of m(D) f, f the field (or vector)
    of the coefficient arrays cs, for each m (even in k) in mults (None for 1), with |c|^2 = re^2
    + im^2, on columns 0..n/2 of arrays of n rows (0 < j < n/2 twice), each m read on its columns
    (a narrower band is 0 beyond); scaled by max |c| first only when the largest sum leaves the
    normal doubles."""
    h = len(cs[0]) // 2 + 1
    cs = [c[:, :h] for c in cs]

    def sums(cs):
        with np.errstate(over="ignore", invalid="ignore"):  # inf * 0: rescaled below
            power = cs[0].real**2  # each |c|^2 and m^2 |c|^2 in one array, in the plain order
            power += cs[0].imag**2
            for c in cs[1:]:
                power += c.real**2 + c.imag**2
            power[:, 1 : h - 1] *= 2.0

            def weighted(m):
                m = m[:, : power.shape[1]]
                out = np.multiply(m, m, out=np.empty((len(power), m.shape[1])))
                return np.multiply(out, power[:, : m.shape[1]], out=out)
            return np.array([np.sum(power if m is None else weighted(m)) for m in mults])

    totals = sums(cs)
    if not np.finfo(float).tiny <= np.max(totals) < math.inf:
        top = _rescale_by(np.max(totals), np.array([np.max(np.abs(c)) for c in cs]))
        if top:
            return 2.0 * np.pi * top * np.sqrt(sums([c / top for c in cs]))
    return 2.0 * np.pi * np.sqrt(totals)


def grid_max_velocity(v: VectorField) -> float:
    """Grid max of |v| from the kept blocks of its spectral components."""
    return float(np.max(np.hypot(*(_samples(v.grid.block(c.coeffs), v.grid) for c in v.components()))))


def _gradient_samples(v: VectorField):
    """The four velocity-derivative samples d_j v_i, one at a time."""
    return (inverse_transform(partial_derivative(c, a)) for c in v.components() for a in (0, 1))


def max_gradient(v: VectorField) -> float:
    """Grid max over all four velocity-derivative samples."""
    return max([0.0] + [float(np.max(np.abs(d))) for d in _gradient_samples(v)])


def gradient_lp_norm(v: VectorField, p) -> float:
    """L^p norm of the pointwise Frobenius magnitude of the velocity gradient; at p = 2 by
    Parseval, (sum_j ||k_j v||^2)^(1/2) with k_j zero on its Nyquist line, as the samples have it."""
    if p == 2:
        g, cs = v.grid, [c.coeffs for c in v.components()]
        return float(np.hypot(*_parseval(cs, [np.broadcast_to(g.k1_odd, g.kmag.shape), g.k2_odd])))
    acc = sum(d * d for d in _gradient_samples(v))
    return lp_norm(np.sqrt(acc), p)


def integrate(samples) -> float:
    """Box integral of (n, n) samples by grid quadrature; non-finite samples as in `lp_norm`."""
    a = _square(samples)
    return _check_samples(a, result=float(np.sum(a) * _cell_area(a)))
