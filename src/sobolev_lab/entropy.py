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

from .algebra import (AlgebraElement, WeightedAlgebra, eigh, floored_eigenvalues,
                      grouped_eigh, inner, stack_adjoint, stack_function)
from .doi import DEFAULT_KERNEL_FLOOR, schur_q
from .errors import AlgebraMismatchError, ContractViolationError
from .functions import bregman_gap, divided_diff_grid

DEFAULT_EPSILON = 1e-8


@dataclass(frozen=True)
class EntropyValue:
    """Scalar entropy with the epsilon-floor it was computed at."""

    value: float
    epsilon: float
    f: str

    def to_json(self):
        return {"value": float(self.value), "epsilon": float(self.epsilon), "f": self.f}


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
    X = np.broadcast_to(lam[..., :, None], overlap.shape)
    Y = np.broadcast_to(mu[..., None, :], overlap.shape)
    zero = (Y == 0.0) if kernel_rule else np.zeros(overlap.shape, dtype=bool)
    gaps = np.empty(overlap.shape)
    if zero.any():
        gaps[zero] = f.eval_order(X[zero], 0) - f.eval_order(np.zeros(1), 0)
    gaps[~zero] = bregman_gap(f, X[~zero], Y[~zero])
    return np.sum(overlap * gaps, axis=(-2, -1))


def _bregman_trace(f, rho, sigma, shift=0.0, kernel_rule=False):
    """tau(f(rho) - f(s) - f'(s)(rho - s)) for s = sigma + shift*1, with one
    batched eigendecomposition per dim group of each argument."""
    mu_w = np.asarray(rho.algebra.weights, dtype=float)
    total = 0.0
    for (idx, lam, U), (_, mu, V) in zip(grouped_eigh(rho), grouped_eigh(sigma)):
        per_block = block_bregman(f, lam, U, mu + shift, V, kernel_rule)
        total += float(mu_w[idx] @ per_block) / U.shape[-1]
    return total


def bregman(f, rho, sigma, epsilon=0.0):
    """d^f(rho || sigma + eps*1) = tau(f(rho) - f(sig_eps) - (rho - sig_eps) f'(sig_eps)).

    With eps = 0 the second argument must be nonsingular wherever f' blows up,
    otherwise a DomainError propagates from the scalar catalog.
    """
    if rho.algebra != sigma.algebra:
        raise AlgebraMismatchError("bregman arguments live on different algebras")
    if epsilon < 0.0:
        raise ContractViolationError("epsilon must be nonnegative")
    return EntropyValue(_bregman_trace(f, rho, sigma, shift=epsilon),
                        float(epsilon), f.label)


def entropy_vs_subalgebra(f, rho, expectation):
    """d^f_K(rho) = tau(f(rho) - f(E rho)) for the conditional expectation E.

    Computed as the Bregman sum d^f(rho || E rho), which equals it because
    tau(f'(E rho)(rho - E rho)) = 0 for f'(E rho) in the range of E; near
    the fixed points it keeps the digits that the difference of the two
    traces loses.  Non-hermitian input and genuinely negative eigenvalues
    are refused.
    """
    e_rho = expectation.apply(rho).hermitian_part()
    return EntropyValue(_bregman_trace(f, rho, e_rho, kernel_rule=True),
                        0.0, f.label)


def _fisher_at_shift(a_rho, groups, f, shift):
    w = np.asarray(a_rho.algebra.weights, dtype=float)
    total = 0.0
    for idx, lam, U in groups:
        df = stack_function(U, f.eval_order(lam + shift, 1))
        a = np.stack([a_rho.blocks[s] for s in idx])
        total += float(np.real(np.einsum("s,sab,sba->", w[idx], a, df))) / U.shape[-1]
    return total


def fisher_generator(generator, f, rho, epsilon=0.0):
    """I^f_A(rho) = tau(A(rho) f'(rho + eps*1)).

    For singular rho and eps > 0 the value is Richardson-extrapolated from
    evaluations at eps and eps/4 (first-order model in eps); nonsingular
    states are evaluated literally at the requested shift.
    """
    if epsilon < 0.0:
        raise ContractViolationError("epsilon must be nonnegative")
    a_rho = generator.apply(rho)
    groups = grouped_eigh(rho)
    if epsilon == 0.0:
        return _fisher_at_shift(a_rho, groups, f, 0.0)
    if min(float(lam[:, 0].min()) for _, lam, _ in groups) > 0.0:
        return _fisher_at_shift(a_rho, groups, f, epsilon)
    v_eps = _fisher_at_shift(a_rho, groups, f, epsilon)
    v_quarter = _fisher_at_shift(a_rho, groups, f, epsilon / 4.0)
    return (4.0 * v_quarter - v_eps) / 3.0


def monotone_metric(F, rho, sigma, a, b):
    """gamma^F_{rho,sigma}(a, b) = <a, Q_F^{rho,sigma}(b)>_tau."""
    spec_rho = eigh(rho)
    spec_sigma = eigh(sigma)
    return inner(a, schur_q(F, spec_rho, spec_sigma, b))


# -- derivations ---------------------------------------------------------------

class DerivationHandle:
    """First-order difference structure feeding the derivation Fisher form.

    A handle maps elements of a source algebra into a target algebra carrying
    one site per elementary move; left_sites/right_sites name, per target
    site, the source sites whose spectral data multiplies from the left and
    right.  For commutator derivations the target is the source itself.
    """

    def __init__(self, kind, source, target, apply_fn, left_sites, right_sites,
                 involution, pair_rates=None, rate_norm=None):
        self.kind = kind
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

    return DerivationHandle("commutator", alg, alg, ap, sites, sites, J)


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

    return DerivationHandle("difference", algebra, target, ap, left, right, J,
                            pair_rates=rates, rate_norm=Z)


def fisher_derivation(delta, f, rho, weights=None, cluster_tol=None):
    """I^f_delta(rho) = <delta(rho), Q^rho_{f^[2]} delta(rho)>_target.

    The multiplier uses the spectral data of rho lifted into the target
    algebra: the left spectrum comes from the move's source site and the
    right spectrum from its destination site.  Passing weights evaluates the
    same nonnegative per-site density against a different trace on the
    source, which is what the change-of-measure comparisons need.
    """
    from .algebra import DEFAULT_CLUSTER_TOL
    tol = DEFAULT_CLUSTER_TOL if cluster_tol is None else cluster_tol
    spec = eigh(rho, cluster_tol=tol)
    lams = floored_eigenvalues(spec, floor=DEFAULT_KERNEL_FLOOR)
    xi = delta.apply(rho)
    nu = delta.target_weights(weights)
    total = 0.0
    for t_idx, (ls, rs) in enumerate(zip(delta.left_sites, delta.right_sites)):
        m = divided_diff_grid(f, 2, lams[ls], lams[rs], tol)
        w = spec.vectors[ls].conj().T @ xi.blocks[t_idx] @ spec.vectors[rs]
        val = float(np.sum(m * np.abs(w) ** 2))
        total += float(nu[t_idx]) * val / delta.target.dims[t_idx]
    return float(total)
