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
                      inner, matrix_function, pair_trace, trace)
from .doi import DEFAULT_KERNEL_FLOOR, schur_q
from .errors import AlgebraMismatchError, ContractViolationError
from .functions import divided_diff_grid

DEFAULT_EPSILON = 1e-8


@dataclass(frozen=True)
class EntropyValue:
    """Scalar entropy with the epsilon-floor it was computed at."""

    value: float
    epsilon: float
    f: str

    def to_json(self):
        return {"value": float(self.value), "epsilon": float(self.epsilon), "f": self.f}


def bregman(f, rho, sigma, epsilon=0.0):
    """d^f(rho || sigma + eps*1) = tau(f(rho) - f(sig_eps) - (rho - sig_eps) f'(sig_eps)).

    With eps = 0 the second argument must be nonsingular wherever f' blows up,
    otherwise a DomainError propagates from the scalar catalog.
    """
    if rho.algebra != sigma.algebra:
        raise AlgebraMismatchError("bregman arguments live on different algebras")
    if epsilon < 0.0:
        raise ContractViolationError("epsilon must be nonnegative")
    spec_rho = eigh(rho)
    spec_sigma = eigh(sigma)
    f_rho = trace(matrix_function(f, spec_rho))
    f_sigma = trace(matrix_function(f, spec_sigma, shift=epsilon))
    df_sigma = matrix_function(f, spec_sigma, order=1, shift=epsilon)
    gap = rho - sigma
    if epsilon:
        gap = gap - rho.algebra.scalar(epsilon)
    value = f_rho - f_sigma - pair_trace(gap, df_sigma)
    return EntropyValue(float(value.real), float(epsilon), f.label)


def entropy_vs_subalgebra(f, rho, expectation):
    """d^f_K(rho) = tau(f(rho) - f(E rho)) for the conditional expectation E."""
    e_rho = expectation.apply(rho).hermitian_part()
    value = trace(matrix_function(f, rho)) - trace(matrix_function(f, e_rho))
    return EntropyValue(float(value.real), 0.0, f.label)


def _fisher_at_shift(a_rho, spec, f, shift):
    df = matrix_function(f, spec, order=1, shift=shift)
    return float(pair_trace(a_rho, df).real)


def fisher_generator(generator, f, rho, epsilon=0.0):
    """I^f_A(rho) = tau(A(rho) f'(rho + eps*1)).

    For singular rho and eps > 0 the value is Richardson-extrapolated from
    evaluations at eps and eps/4 (first-order model in eps); nonsingular
    states are evaluated literally at the requested shift.
    """
    if epsilon < 0.0:
        raise ContractViolationError("epsilon must be nonnegative")
    a_rho = generator.apply(rho)
    spec = eigh(rho)
    floored = floored_eigenvalues(spec)
    min_eig = min(float(lam[0]) for lam in floored)
    if epsilon == 0.0:
        return _fisher_at_shift(a_rho, spec, f, 0.0)
    if min_eig > 0.0:
        return _fisher_at_shift(a_rho, spec, f, epsilon)
    v_eps = _fisher_at_shift(a_rho, spec, f, epsilon)
    v_quarter = _fisher_at_shift(a_rho, spec, f, epsilon / 4.0)
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
