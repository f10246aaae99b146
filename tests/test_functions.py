"""Scalar entropy weights and their divided differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sobolev_lab import ContractViolationError, DomainError, function_from_spec
from sobolev_lab.functions import (bregman_gap, divided_diff, divided_diff_grid,
                                  log_fn, power, xlogx)

positive = st.floats(min_value=1e-3, max_value=1e3,
                     allow_nan=False, allow_infinity=False)


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
        d = f.deriv(x)
        assert abs(fd - d) <= 1e-5 * (1.0 + abs(d))


def test_convexity_flags_match_second_derivative():
    grid = np.logspace(-2, 2, 40)
    for f in (xlogx(), power(1.5), power(2.0)):
        assert f.convex
        assert np.all(f.deriv2(grid) >= 0.0)
    for f in (power(0.5), log_fn()):
        assert not f.convex
        assert np.all(f.deriv2(grid) <= 0.0)


def test_power_exponent_domain():
    for bad in (0.0, -1.0, 2.5):
        with pytest.raises(ContractViolationError):
            power(bad)


def test_zero_handling():
    assert xlogx()(0.0) == 0.0
    assert power(1.5).deriv(0.0) == 0.0
    with pytest.raises(DomainError):
        xlogx().deriv(0.0)
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
