"""Property-based tests for algebraic invariants of the core operators."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from bqsim import (
    BesovSpec,
    Grid,
    SimState,
    besov_norm,
    bony_decompose,
    build_filter_bank,
    cfl_dt,
    dealias,
    dyadic_block,
    forward_transform,
    inverse_transform,
    lp_norm,
    osgood_bound,
    partial_derivative,
    read_checkpoint,
    riesz,
    sobolev_norm,
    write_checkpoint,
)
from bqsim.fields import random_scalar_field
from bqsim.spectral import hermitian_defect

GRID = Grid(32)
BANK = build_filter_bank(GRID)

keys = st.tuples(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1))
scalars = st.floats(-5.0, 5.0, allow_nan=False).filter(lambda x: abs(x) > 1e-3)
samples_arrays = hnp.arrays(
    dtype=np.float64,
    shape=(32, 32),
    elements=st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False, width=32),
)


def seeded(key, gamma=2.0):
    return random_scalar_field(GRID, gamma, 1.0, key)


@settings(max_examples=25, deadline=None)
@given(samples_arrays)
def test_transform_roundtrip(samples):
    back = inverse_transform(forward_transform(GRID, samples))
    assert np.max(np.abs(back - samples)) < 1e-9 * max(1.0, np.max(np.abs(samples)))


@settings(max_examples=25, deadline=None)
@given(keys, keys, scalars, scalars)
def test_riesz_is_linear(key_f, key_g, a, b):
    f, g = seeded(key_f), seeded(key_g)
    combo = riesz(f * a + g * b)
    split = riesz(f) * a + riesz(g) * b
    assert np.max(np.abs(combo.coeffs - split.coeffs)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(keys)
def test_dealias_is_idempotent_and_commutes_with_derivative(key):
    f = seeded(key)
    once = dealias(f)
    twice = dealias(once)
    assert np.array_equal(once.coeffs, twice.coeffs)
    a = partial_derivative(dealias(f), 0)
    b = dealias(partial_derivative(f, 0))
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-14


@settings(max_examples=25, deadline=None)
@given(keys)
def test_parseval(key):
    f = seeded(key)
    phys = inverse_transform(f)
    assert lp_norm(phys, 2) == np.float64(sobolev_norm(f, 0.0)) or (
        abs(lp_norm(phys, 2) - sobolev_norm(f, 0.0)) < 1e-10 * max(1.0, sobolev_norm(f, 0.0))
    )


@settings(max_examples=25, deadline=None)
@given(keys)
def test_seeded_fields_are_hermitian_and_mean_free(key):
    f = seeded(key)
    assert hermitian_defect(f.coeffs) < 1e-13
    assert f.coeffs[0, 0] == 0.0


@settings(max_examples=15, deadline=None)
@given(keys)
def test_dyadic_blocks_resum(key):
    f = seeded(key)
    total = np.zeros_like(f.coeffs)
    for q in range(BANK.qmin, BANK.qmax + 1):
        total = total + dyadic_block(f, q).coeffs
    scale = max(1.0, float(np.max(np.abs(f.coeffs))))
    assert np.max(np.abs(total - f.coeffs)) < 1e-12 * scale


@settings(max_examples=10, deadline=None)
@given(keys, keys)
def test_bony_parts_sum_to_dealiased_product(key_u, key_w):
    u, w = seeded(key_u), seeded(key_w, gamma=1.5)
    t_uw, t_wu, remainder = bony_decompose(u, w)
    product = dealias(
        forward_transform(GRID, inverse_transform(u) * inverse_transform(w))
    )
    total = t_uw.coeffs + t_wu.coeffs + remainder.coeffs
    scale = max(1.0, float(np.max(np.abs(product.coeffs))))
    assert np.max(np.abs(total - product.coeffs)) < 1e-11 * scale


@settings(max_examples=25, deadline=None)
@given(keys, scalars)
def test_lp_norm_absolute_homogeneity(key, c):
    f = inverse_transform(seeded(key))
    scaled = f * c
    for p in (1.0, 2.0, 4.0, math.inf):
        assert lp_norm(scaled, p) == np.float64(abs(c)) * lp_norm(f, p) or abs(
            lp_norm(scaled, p) - abs(c) * lp_norm(f, p)
        ) < 1e-10 * max(1.0, lp_norm(f, p))


@settings(max_examples=25, deadline=None)
@given(keys, keys)
def test_besov_triangle_inequality(key_f, key_g):
    f, g = seeded(key_f), seeded(key_g)
    spec = BesovSpec(0.5, 2.0, 2.0)
    both = besov_norm(f + g, spec)
    assert both <= besov_norm(f, spec) + besov_norm(g, spec) + 1e-10


@settings(max_examples=25, deadline=None)
@given(keys, st.floats(0.0, 2.0, allow_nan=False))
def test_homogeneous_sobolev_below_inhomogeneous(key, s):
    f = seeded(key)
    assert sobolev_norm(f, s, homogeneous=True) <= sobolev_norm(f, s) + 1e-12


@settings(max_examples=25, deadline=None)
@given(
    st.floats(0.0, 10.0, allow_nan=False),
    st.lists(st.floats(0.0, 3.0, allow_nan=False), min_size=2, max_size=12),
)
def test_gronwall_bound_starts_at_a_and_grows(a, gammas):
    t = np.linspace(0.0, 1.0, len(gammas))
    bound = osgood_bound(a, t, np.array(gammas), mu="gronwall")
    assert bound[0] == a
    assert np.all(np.diff(bound) >= -1e-12 * max(1.0, a))


@settings(max_examples=15, deadline=None)
@given(
    keys,
    keys,
    st.floats(0.0, 100.0, allow_nan=False),
    st.floats(0.25, 2.0, allow_nan=False),
)
def test_checkpoint_roundtrip_is_bitwise(tmp_path_factory, key_w, key_t, t, alpha):
    state = SimState(t, seeded(key_w), seeded(key_t), alpha)
    path = tmp_path_factory.mktemp("ckpt") / "state.bqsf"
    write_checkpoint(path, state)
    back = read_checkpoint(path)
    assert back.t == t and back.alpha == alpha
    assert np.array_equal(back.omega_hat.coeffs, state.omega_hat.coeffs)
    assert np.array_equal(back.theta_hat.coeffs, state.theta_hat.coeffs)


@settings(max_examples=20, deadline=None)
@given(keys, st.floats(0.1, 4.0, allow_nan=False))
def test_cfl_scales_inversely_with_velocity(key, factor):
    base = SimState(0.0, seeded(key), seeded((key[0], key[1] + 1)), 1.0)
    faster = SimState(0.0, base.omega_hat * factor, base.theta_hat, 1.0)
    a, b = cfl_dt(base), cfl_dt(faster)
    assert b == np.float64(a / factor) or abs(b - a / factor) < 1e-9 * a
