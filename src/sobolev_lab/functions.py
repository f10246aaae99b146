"""Scalar convex-function descriptors and divided differences.

A descriptor carries f, f', f'' as vectorized callables on the strictly
positive axis together with the values (if any) that extend them to zero.
Divided differences switch to the derivative at the midpoint whenever the two
arguments fall inside the same relative cluster, which keeps the Schur
multiplier kernels stable across eigenvalue crossings; the Bregman gap
switches to an integral of f'' when its two arguments are close.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import DEFAULT_CLUSTER_TOL, check_spec
from .errors import ContractViolationError, DomainError

# the Bregman gap integrates f'' where |x - y| < BREGMAN_NEAR * y
BREGMAN_NEAR = 0.05
# 8-point Gauss-Legendre rule for int_0^1 (1 - s) g(s) ds: nodes on [0, 1]
# and weights with the (1 - s) factor folded in
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL_S = 0.5 * (_GL_NODES + 1.0)
_GL_W = 0.5 * _GL_WEIGHTS * (1.0 - _GL_S)


@dataclass(frozen=True)
class ScalarFunctionDescriptor:
    label: str
    order_fns: tuple
    zero_values: tuple = (None, None, None)
    convex: bool = False
    p: float = None

    def eval_order(self, x, order):
        """Vectorized f, f' or f'' with explicit handling of the origin."""
        if order not in (0, 1, 2):
            raise ContractViolationError("order must be 0, 1 or 2")
        fn = self.order_fns[order]
        if fn is None:
            raise DomainError(f"{self.label} has no derivative of order {order}")
        x = np.asarray(x, dtype=float)
        if np.any(x < 0.0):
            raise DomainError(f"{self.label} evaluated at a negative argument")
        at_zero = x == 0.0
        if not at_zero.any():
            return fn(x)
        zv = self.zero_values[order]
        if zv is None:
            raise DomainError(
                f"{self.label} order {order} is undefined at 0; request an epsilon floor")
        out = np.empty(x.shape, dtype=float)
        out[at_zero] = zv
        if (~at_zero).any():
            out[~at_zero] = fn(x[~at_zero])
        return out

    def __call__(self, x):
        return self.eval_order(x, 0)

    def deriv(self, x):
        return self.eval_order(x, 1)

    def deriv2(self, x):
        return self.eval_order(x, 2)

    def to_spec(self):
        if self.p is None:
            return {"tag": self.label}
        return {"tag": self.label.split("(")[0], "p": float(self.p)}


def xlogx():
    """f(x) = x log x with the 0 log 0 = 0 convention."""
    return ScalarFunctionDescriptor(
        label="xlogx",
        order_fns=(lambda x: x * np.log(x), lambda x: np.log(x) + 1.0, lambda x: 1.0 / x),
        zero_values=(0.0, None, None),
        convex=True,
    )


def power(p):
    """f(x) = x^p for p in (0, 2]; convex exactly when p >= 1."""
    p = float(p)
    if not 0.0 < p <= 2.0:
        raise ContractViolationError("power exponent must lie in (0, 2]")
    if p == 1.0:
        zero1 = 1.0
    elif p > 1.0:
        zero1 = 0.0
    else:
        zero1 = None
    if p == 2.0:
        zero2 = 2.0
    else:
        zero2 = None
    return ScalarFunctionDescriptor(
        label=f"power({p:g})",
        order_fns=(
            lambda x: x ** p,
            lambda x: p * x ** (p - 1.0),
            lambda x: p * (p - 1.0) * x ** (p - 2.0),
        ),
        zero_values=(0.0, zero1, zero2),
        convex=p >= 1.0,
        p=p,
    )


def log_fn():
    """f(x) = log x, used as a kernel building block (not an entropy weight)."""
    return ScalarFunctionDescriptor(
        label="log",
        order_fns=(np.log, lambda x: 1.0 / x, lambda x: -1.0 / (x * x)),
        zero_values=(None, None, None),
        convex=False,
    )


# each function tag: its builder and the fields its spec adds to "tag"
_FUNCTION_SPECS = {
    "xlogx": (xlogx, {}),
    "power": (power, {"p": "number"}),
    "log": (log_fn, {}),
}


def function_from_spec(spec):
    """Rebuild a descriptor from its spec (round-trips to_spec)."""
    tag = spec.get("tag") if isinstance(spec, dict) else None
    if not isinstance(tag, str) or tag not in _FUNCTION_SPECS:
        raise ContractViolationError(f"unknown function tag in spec {spec!r}")
    build, fields = _FUNCTION_SPECS[tag]
    check_spec(spec, {"tag": "string", **fields})
    return build(*(spec[key] for key in fields))


def divided_diff_grid(f, order, xs, ys, tol=DEFAULT_CLUSTER_TOL):
    """Matrix of divided differences f^[order] over the grid xs x ys.

    order 1 is (f(x)-f(y))/(x-y), order 2 the same applied to f'; entries with
    |x-y| <= tol*(1+max(|x|,|y|)) use the next derivative at the midpoint.
    Leading axes of xs and ys broadcast, so stacked (m, k) eigenvalue arrays
    give one (m, k, k) grid per block.
    """
    if order not in (1, 2):
        raise ContractViolationError("divided differences support orders 1 and 2")
    X = np.asarray(xs, dtype=float)[..., :, None]
    Y = np.asarray(ys, dtype=float)[..., None, :]
    denom = X - Y
    near = np.abs(denom) <= tol * (1.0 + np.maximum(np.abs(X), np.abs(Y)))
    mid = 0.5 * (X + Y)
    fallback = f.eval_order(np.broadcast_to(mid, denom.shape).copy(), order)
    fx = f.eval_order(np.broadcast_to(X, denom.shape).copy(), order - 1)
    fy = f.eval_order(np.broadcast_to(Y, denom.shape).copy(), order - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        quot = (fx - fy) / denom
    return np.where(near, fallback, quot)


def bregman_gap(f, x, y):
    """f(x) - f(y) - f'(y)(x - y), elementwise over broadcast arrays.

    Where |x - y| < BREGMAN_NEAR * y it is computed as
    (x - y)^2 int_0^1 (1 - s) f''(y + s(x - y)) ds by Gauss-Legendre
    quadrature, which keeps full relative accuracy where the three terms
    cancel; elsewhere the three terms are summed directly.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(y, dtype=float))
    d = x - y
    near = np.abs(d) < BREGMAN_NEAR * y
    out = np.empty(d.shape)
    if near.any():
        dn = d[near]
        nodes = y[near][:, None] + dn[:, None] * _GL_S
        out[near] = dn * dn * (f.eval_order(nodes, 2) @ _GL_W)
    far = ~near
    if far.any():
        xf, yf = x[far], y[far]
        out[far] = (f.eval_order(xf, 0) - f.eval_order(yf, 0)
                    - f.eval_order(yf, 1) * (xf - yf))
    return out


def divided_diff(f, order, x, y, tol=DEFAULT_CLUSTER_TOL):
    """Scalar divided difference with the midpoint-derivative degenerate branch."""
    return float(divided_diff_grid(f, order, [float(x)], [float(y)], tol)[0, 0])
