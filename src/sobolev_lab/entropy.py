"""Bregman-type relative entropies, Fisher forms and monotone metrics.

All quantities are scalar functionals built from the weighted trace of the
underlying algebra: the relative entropy is the Bregman gap of tau(f(.)),
the Fisher information contracts a generator or derivation against f'(rho)
or the second divided-difference multiplier, and the monotone metric pairs
two tangent directions through a kernel operator integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (AlgebraElement, WeightedAlgebra, _positive_eigh, inner,
                      stack_adjoint, stack_function)
from .doi import DEFAULT_KERNEL_FLOOR, schur_q
from .errors import AlgebraMismatchError, ContractViolationError
from .functions import bregman_gap, divided_diff_grid


@dataclass(frozen=True)
class EntropyValue:
    """Scalar entropy with the label of its function."""

    value: float
    f: str


def block_bregman(f, lam, U, mu, V, kernel_rule=False):
    """Per-block tr(f(rho) - f(sigma) - f'(sigma)(rho - sigma)) from stacked
    eigenpairs (lam, U) of rho and (mu, V) of sigma.

    Summed as sum_ij |<u_i, v_j>|^2 B_f(lam_i, mu_j) with the Bregman gap
    B_f of functions.bregman_gap, so no two O(1) traces are subtracted.
    With kernel_rule, pairs with mu_j = 0 contribute f(lam_i) - f(0): for a
    conditional expectation ker(E rho) lies in ker(rho), so the linear term
    vanishes there even where f'(0) is undefined.
    """
    overlap = np.abs(stack_adjoint(U) @ V) ** 2
    if kernel_rule and (mu == 0.0).any():
        X = np.broadcast_to(lam[..., :, None], overlap.shape)
        Y = np.broadcast_to(mu[..., None, :], overlap.shape)
        zero = Y == 0.0
        gaps = np.empty(overlap.shape)
        gaps[zero] = f.eval_order(X[zero], 0) - f.eval_order(np.zeros(1), 0)
        gaps[~zero] = bregman_gap(f, X[~zero], Y[~zero])
    else:
        gaps = bregman_gap(f, lam[..., :, None], mu[..., None, :])
    return np.sum(overlap * gaps, axis=(-2, -1))


def _bregman_sum(f, algebra, rho_groups, sigma_groups, kernel_rule=False):
    """tau(f(rho) - f(sigma) - f'(sigma)(rho - sigma)) from the grouped
    eigenpairs of rho and sigma."""
    weights = np.asarray(algebra.weights, dtype=float)
    total = 0.0
    for (idx, lam, U), (_, mu, V) in zip(rho_groups, sigma_groups):
        per_block = block_bregman(f, lam, U, mu, V, kernel_rule)
        total += float(weights[idx] @ per_block) / U.shape[-1]
    return total


def bregman(f, rho, sigma):
    """d^f(rho || sigma) = tau(f(rho) - f(sigma) - (rho - sigma) f'(sigma)).

    sigma must be nonsingular wherever f' blows up at 0, otherwise a
    DomainError propagates from the scalar catalog.
    """
    if rho.algebra != sigma.algebra:
        raise AlgebraMismatchError("bregman arguments live on different algebras")
    value = _bregman_sum(f, rho.algebra, _positive_eigh(rho), _positive_eigh(sigma))
    return EntropyValue(value, f.label)


def entropy_vs_subalgebra(f, rho, expectation):
    """d^f_K(rho) = tau(f(rho) - f(E rho)) for the conditional expectation E.

    Computed as the Bregman sum d^f(rho || E rho), which equals it because
    tau(f'(E rho)(rho - E rho)) = 0 for f'(E rho) in the range of E; near
    the fixed points it keeps the digits that the difference of the two
    traces loses.  Non-hermitian input and genuinely negative eigenvalues
    are refused.
    """
    value, _ = _subalgebra_entropy(f, rho, _positive_eigh(rho), expectation)
    return EntropyValue(value, f.label)


def _subalgebra_entropy(f, rho, rho_groups, expectation):
    """entropy_vs_subalgebra's value from the grouped eigenpairs of rho,
    with the grouped eigenpairs of E rho that it computes."""
    e_groups = _positive_eigh(expectation.apply(rho).hermitian_part())
    return (_bregman_sum(f, rho.algebra, rho_groups, e_groups, kernel_rule=True),
            e_groups)


def _fisher_form(generator, f, rho, rho_groups):
    """(I, a, f'(rho)) with I = tau(a f'(rho)) and a = (id - E)(A rho), from
    the grouped eigenpairs of rho; f'(rho) comes as one stack per dim group.

    E A = 0, so a = A(rho) in exact arithmetic; the projection drops the
    roundoff of A(rho) in the range of E, which the O(1) mean of f'(rho)
    would multiply while I itself is second order near the fixed points.
    """
    a_rho = generator.apply(rho)
    a = a_rho - generator.expectation.apply(a_rho)
    w = np.asarray(rho.algebra.weights, dtype=float)
    total, dfs = 0.0, []
    for (idx, lam, U), x in zip(rho_groups, a.stacks):
        df = stack_function(U, f.eval_order(lam, 1))
        total += float(np.real(np.einsum("s,sab,sba->", w[idx], x, df))) / U.shape[-1]
        dfs.append(df)
    return total, a, dfs


def fisher_generator(generator, f, rho):
    """I^f_A(rho) = tau(A(rho) f'(rho)) for a faithful state rho, evaluated
    as tau((id - E)(A rho) f'(rho)) with E the generator's expectation."""
    return _fisher_form(generator, f, rho, _positive_eigh(rho))[0]


def monotone_metric(F, rho, sigma, a, b):
    """gamma^F_{rho,sigma}(a, b) = <a, Q_F^{rho,sigma}(b)>_tau."""
    return inner(a, schur_q(F, rho, sigma, b))


# -- derivations ---------------------------------------------------------------

class DerivationHandle:
    """First-order difference structure feeding the derivation Fisher form.

    A handle maps elements of a source algebra into a target algebra carrying
    one site per elementary move; left_sites/right_sites name, per target
    site, the source sites whose spectral data multiplies from the left and
    right.  For commutator derivations the target is the source itself.
    """

    def __init__(self, source, target, apply_fn, left_sites, right_sites,
                 involution, pair_rates=None, rate_norm=None):
        self.source = source
        self.target = target
        self._apply_fn = apply_fn
        self.left_sites = tuple(left_sites)
        self.right_sites = tuple(right_sites)
        self._involution = involution
        self.pair_rates = None if pair_rates is None else tuple(pair_rates)
        self.rate_norm = rate_norm

    def apply(self, x):
        if x.algebra != self.source:
            raise AlgebraMismatchError("derivation argument on the wrong algebra")
        return self._apply_fn(x)

    def involution(self, xi):
        """The antilinear J with delta(x*) = J(delta(x))."""
        return self._involution(xi)

    def target_weights(self, weights=None):
        """Per-target-site trace weights, optionally for overridden source weights."""
        if weights is None:
            return np.asarray(self.target.weights, dtype=float)
        w = np.asarray(weights, dtype=float)
        if w.shape != (self.source.n_sites,):
            raise ContractViolationError("override weights must give one value per source site")
        if self.pair_rates is None:
            if self.target is not self.source and self.target != self.source:
                raise ContractViolationError(
                    "weight override needs the move structure of a difference derivation")
            return w
        return np.array([w[s] * r / self.rate_norm
                         for s, r in zip(self.left_sites, self.pair_rates)])


def commutator_derivation(v):
    """delta(x) = v x - x v for hermitian v; J(xi) = -xi*."""
    if not v.is_hermitian():
        raise ContractViolationError("commutator derivations require a hermitian generator")
    alg = v.algebra
    sites = tuple(range(alg.n_sites))

    def ap(x):
        return v @ x - x @ v

    def J(xi):
        return -xi.adjoint()

    return DerivationHandle(alg, alg, ap, sites, sites, J)


def difference_derivation_from_moves(algebra, moves):
    """Difference derivation for a move list [(src, tgt, rate), ...].

    The target algebra has one site per move with weight mu(src)*rate/Z and
    the derivation scales differences by sqrt(Z/2), which makes
    tau_target(delta(x)* delta(y)) equal the Dirichlet form of the associated
    jump generator.
    """
    moves = [(int(s), int(t), float(r)) for (s, t, r) in moves]
    if not moves:
        raise ContractViolationError("a difference derivation needs at least one move")
    mu = algebra.weights
    dims = algebra.dims
    Z = sum(mu[s] * r for s, t, r in moves)
    c = math.sqrt(Z / 2.0)
    labels, tdims, tweights = [], [], []
    for idx, (s, t, r) in enumerate(moves):
        if dims[s] != dims[t]:
            raise ContractViolationError("moves must connect sites of equal dim")
        labels.append(("move", idx, algebra.labels[s], algebra.labels[t]))
        tdims.append(dims[s])
        tweights.append(mu[s] * r / Z)
    target = WeightedAlgebra(tuple(labels), tuple(tdims), tuple(tweights))
    left = tuple(s for s, t, r in moves)
    right = tuple(t for s, t, r in moves)
    rates = tuple(r for s, t, r in moves)

    def ap(x):
        return AlgebraElement(target, [c * (x.blocks[s] - x.blocks[t])
                                       for s, t, r in moves])

    def J(xi):
        return xi.adjoint()

    return DerivationHandle(algebra, target, ap, left, right, J,
                            pair_rates=rates, rate_norm=Z)


def fisher_derivation(delta, f, rho, weights=None):
    """I^f_delta(rho) = <delta(rho), Q^rho_{f^[2]} delta(rho)>_target.

    The multiplier uses the spectral data of rho lifted into the target
    algebra: the left spectrum comes from the move's source site and the
    right spectrum from its destination site.  Passing weights evaluates the
    same nonnegative per-site density against a different trace on the
    source, which is what the change-of-measure comparisons need.
    """
    groups = [(np.maximum(lam, DEFAULT_KERNEL_FLOOR), U) for _, lam, U in _positive_eigh(rho)]
    slots = rho.algebra.site_slots
    xi = delta.apply(rho)
    nu = delta.target_weights(weights)
    total = 0.0
    for (k, moves), xs in zip(delta.target.dim_groups, xi.stacks):
        # every source site of a dim-k target site lies in the dim-k group
        lam, U = groups[slots[delta.left_sites[moves[0]]][0]]
        left = [slots[delta.left_sites[t]][1] for t in moves]
        right = [slots[delta.right_sites[t]][1] for t in moves]
        m = divided_diff_grid(f, 2, lam[left], lam[right])
        w = stack_adjoint(U[left]) @ xs @ U[right]
        total += float(nu[moves] @ np.sum(m * np.abs(w) ** 2, axis=(-2, -1))) / k
    return total
