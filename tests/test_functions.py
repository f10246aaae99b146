"""Scalar entropy weights and their divided differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sobolev_lab import ContractViolationError, DomainError, function_from_spec
from sobolev_lab.functions import (_GL_S, _GL_W, BREGMAN_NEAR, bregman_gap,
                                  divided_diff_grid, log_fn, power, xlogx)

positive = st.floats(min_value=1e-3, max_value=1e3,
                     allow_nan=False, allow_infinity=False)


def divided_diff(f, order, x, y):
    """The scalar divided difference f^[order](x, y), from the grid."""
    return float(divided_diff_grid(f, order, [float(x)], [float(y)])[0, 0])


def test_divided_diff_square_order1():
    # (9 - 1)/(3 - 1) = 4
    assert divided_diff(power(2.0), 1, 1.0, 3.0) == 4.0


def test_divided_diff_order2_on_the_diagonal():
    p, x = 1.5, 2.0
    got = divided_diff(power(p), 2, x, x)
    assert got == pytest.approx(p * (p - 1.0) * x ** (p - 2.0), rel=1e-13)


def test_divided_diff_xlogx_near_degenerate():
    # f'(x) = ln x + 1; the pair falls into the midpoint branch
    got = divided_diff(xlogx(), 1, 2.0, 2.0 + 1e-12)
    assert got == pytest.approx(math.log(2.0) + 1.0, abs=1e-9)


@given(x=positive, y=positive)
@settings(max_examples=80, deadline=None)
def test_divided_diff_of_square_is_the_sum(x, y):
    # both branches agree: (x^2 - y^2)/(x - y) = x + y = 2 * midpoint
    got = divided_diff(power(2.0), 1, x, y)
    assert got == pytest.approx(x + y, rel=1e-9, abs=1e-12)


@given(x=positive, y=positive)
@settings(max_examples=50, deadline=None)
def test_divided_diff_symmetry_is_exact(x, y):
    f = xlogx()
    assert divided_diff(f, 1, x, y) == divided_diff(f, 1, y, x)


@pytest.mark.parametrize("f", [xlogx(), power(1.5), power(0.5), log_fn()],
                         ids=lambda f: f.label)
def test_finite_difference_consistency(f):
    for x in np.logspace(-3, 2, 25):
        h = 1e-6 * (1.0 + x)
        fd = (f(x + h) - f(x - h)) / (2.0 * h)
        d = f.eval_order(x, 1)
        assert abs(fd - d) <= 1e-5 * (1.0 + abs(d))


def test_convexity_flags_match_second_derivative():
    grid = np.logspace(-2, 2, 40)
    for f in (xlogx(), power(1.5), power(2.0)):
        assert f.convex
        assert np.all(f.eval_order(grid, 2) >= 0.0)
    for f in (power(0.5), log_fn()):
        assert not f.convex
        assert np.all(f.eval_order(grid, 2) <= 0.0)


def test_power_exponent_domain():
    for bad in (0.0, -1.0, 2.5):
        with pytest.raises(ContractViolationError):
            power(bad)


def test_zero_handling():
    assert xlogx()(0.0) == 0.0
    assert power(1.5).eval_order(0.0, 1) == 0.0
    with pytest.raises(DomainError):
        xlogx().eval_order(0.0, 1)
    with pytest.raises(DomainError):
        log_fn()(0.0)


def test_negative_arguments_rejected():
    with pytest.raises(DomainError):
        power(1.5)(-0.1)


def test_spec_roundtrip():
    for f in (xlogx(), power(1.25), log_fn()):
        back = function_from_spec(f.to_spec())
        assert back.label == f.label
    with pytest.raises(ContractViolationError):
        function_from_spec({"tag": "exp"})


def test_bregman_gap_against_mpmath():
    # both branches, including the quadrature right below the switch at
    # |x - y| = 0.05 y and gaps small enough to cancel the three terms
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    rel = np.array([1e-12, -1e-9, 1e-6, -1e-3, 0.049, -0.049, 0.051, 0.5, 3.0, -0.9])
    for f, F in ((power(1.5), lambda t: t ** mp.mpf(1.5)),
                 (xlogx(), lambda t: t * mp.log(t))):
        for y in (1e-6, 0.3, 7.0):
            x = y * (1.0 + rel)
            got = bregman_gap(f, x, np.full(x.shape, y))
            for xi, gi in zip(x, got):
                X, Y = mp.mpf(float(xi)), mp.mpf(y)
                exact = F(X) - F(Y) - mp.diff(F, Y) * (X - Y)
                assert abs(gi - exact) <= 1e-12 * abs(exact)


def test_bregman_gap_needs_the_derivative_at_y():
    with pytest.raises(DomainError):
        bregman_gap(xlogx(), 1.0, 0.0)
    assert bregman_gap(power(1.5), 4.0, 0.0) == pytest.approx(8.0, rel=1e-15)


def test_divided_diff_grid_over_stacked_blocks():
    rng = np.random.default_rng(0)
    xs = rng.uniform(0.1, 3.0, (5, 3))
    ys = rng.uniform(0.1, 3.0, (5, 3))
    grid = divided_diff_grid(power(1.5), 2, xs, ys)
    assert grid.shape == (5, 3, 3)
    for s in range(5):
        assert np.array_equal(grid[s], divided_diff_grid(power(1.5), 2, xs[s], ys[s]))


def test_eval_order_keeps_its_refusals_next_to_the_positive_fast_path():
    # an all-positive input returns fn(x) at once; a negative entry, and a
    # zero where the order has no value at zero, still refuse
    with pytest.raises(DomainError):
        power(1.5).eval_order(np.array([2.0, 1.0, -1e-300]), 0)
    with pytest.raises(DomainError):
        xlogx().eval_order(np.array([[2.0, 0.0], [1.0, 3.0]]), 1)
    with pytest.raises(DomainError):
        power(0.5).eval_order(np.array([0.0, 4.0]), 1)
    assert np.array_equal(xlogx().eval_order(np.array([0.0, 2.0]), 0),
                          [0.0, 2.0 * math.log(2.0)])
    for shape in [(0,), (3, 0)]:
        got = xlogx().eval_order(np.empty(shape), 1)
        assert isinstance(got, np.ndarray) and got.shape == shape


def _gap_reference(f, x, y):
    """bregman_gap's formula at one pair, evaluated on its own."""
    d = x - y
    if abs(d) < BREGMAN_NEAR * y:
        return d * d * float(f.eval_order(y + d * _GL_S, 2) @ _GL_W)
    return float(f(np.array([x]))[0] - f(np.array([y]))[0]
                 - f.eval_order(np.array([y]), 1)[0] * d)


def _masked_gap(f, x, y):
    """bregman_gap by boolean masks: each branch on its own pairs only."""
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    d = x - y
    near = np.abs(d) < BREGMAN_NEAR * y
    out = np.empty(d.shape)
    dn = d[near]
    out[near] = dn * dn * (f.eval_order(y[near][:, None] + dn[:, None] * _GL_S, 2)
                           @ _GL_W)
    xf, yf = x[~near], y[~near]
    out[~near] = f(xf) - f(yf) - f.eval_order(yf, 1) * (xf - yf)
    return out


@pytest.mark.parametrize("f", [power(1.5), xlogx()], ids=["power", "xlogx"])
@pytest.mark.parametrize("rel", [
    [0.5, -0.3, 2.0, -0.9], [1e-9, -0.01, 0.049, -0.04],
    [0.5, 1e-9, -0.3, 0.03]], ids=["far", "near", "mixed"])
def test_bregman_gap_matches_an_elementwise_reference(f, rel):
    # on flat pairs and on the (k, 1) by (1, k) grid of block_bregman: bit
    # for bit the masked route, and each pair's formula on its own up to the
    # summation order of the 8-node quadrature (exactly on far pairs)
    y = np.array([0.2, 0.7, 1.3, 3.0])
    x = y * (1.0 + np.array(rel))
    for xs, ys in [(x, y), (x[:, None], y[None, :])]:
        got = bregman_gap(f, xs, ys)
        assert np.array_equal(got, _masked_gap(f, xs, ys))
        X, Y = np.broadcast_arrays(xs, ys)
        want = np.vectorize(lambda a, b: _gap_reference(f, a, b))(X, Y)
        far = np.abs(X - Y) >= BREGMAN_NEAR * Y
        assert np.array_equal(got[far], want[far])
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("f", [power(1.5), xlogx(), log_fn()],
                         ids=lambda f: f.label)
def test_divided_diff_grid_of_one_vector_equals_that_of_a_copy(f, order):
    # ys is xs evaluates f^(order-1) once and transposes it
    lam = np.random.default_rng(1).uniform(0.1, 3.0, (5, 3))
    lam[2, 1] = lam[2, 0]
    lam[4, 2] = lam[4, 0] * (1.0 + 1e-12)
    got = divided_diff_grid(f, order, lam, lam)
    assert np.array_equal(got, divided_diff_grid(f, order, lam, lam.copy()))
