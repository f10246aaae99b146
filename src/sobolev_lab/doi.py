"""Two-variable kernels, Schur-multiplier operator integrals and cone tests.

For commuting left/right spectral data the double operator integral of a
kernel F against states (rho, sigma) acts per block as

    Q_F(a) = U_rho (M o (U_rho* a U_sigma)) U_sigma*,   M_ij = F(s_i, t_j),

with o the Hadamard product.  Positivity-ordering statements between such
operators become PSD comparisons of their matrices in the orthonormal
tau-basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (DEFAULT_CLUSTER_TOL, AlgebraElement, WeightedAlgebra,
                      _positive_eigh, make_rng, random_positive, stack_adjoint)
from .channels import random_mixed_unitary
from .errors import AlgebraMismatchError, ContractViolationError, DomainError
from .functions import divided_diff_grid

DEFAULT_KERNEL_FLOOR = 1e-12
# cone_test's default site dims and channel environment dims
CONE_DIMS = (2, 3, 4)
CONE_ENV_DIMS = (1, 2, 4)


class TwoVariableKernel:
    """Kernel F(x, y) on the positive quadrant with its evaluation grid."""

    def __init__(self, label, gram_fn, floor=DEFAULT_KERNEL_FLOOR):
        self.label = label
        self._gram_fn = gram_fn
        self.floor = float(floor)

    def gram(self, xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        out = np.asarray(self._gram_fn(xs, ys), dtype=float)
        if out.shape != (xs.size, ys.size):
            raise ContractViolationError("kernel gram has wrong shape")
        return out

    def __repr__(self):
        return f"<TwoVariableKernel {self.label}>"

    # -- constructors ------------------------------------------------------

    @classmethod
    def diff_quot1(cls, f, tol=DEFAULT_CLUSTER_TOL):
        """(f(x)-f(y))/(x-y) with the derivative on near-degenerate pairs."""
        return cls(f"diffquot1[{f.label}]",
                   lambda xs, ys: divided_diff_grid(f, 1, xs, ys, tol))


# -- named kernels -----------------------------------------------------------

def log_difference():
    """(log x - log y)/(x - y)."""
    from .functions import log_fn
    return TwoVariableKernel.diff_quot1(log_fn())


def power_difference(p):
    """(x^p - y^p)/(x - y) for p in (0, 1)."""
    from .functions import power
    if not 0.0 < p < 1.0:
        raise ContractViolationError("power-difference kernels use p in (0, 1)")
    return TwoVariableKernel.diff_quot1(power(p))


# -- operator integrals -------------------------------------------------------

def _kernel_groups(F, rho, sigma):
    """(site indices, grams (g, k, k), U_rho, U_sigma) per dim group, the
    grams of F over the spectra floored at F.floor; F.gram takes one
    block's grids at a time."""
    if rho.algebra != sigma.algebra:
        raise AlgebraMismatchError("states live on different algebras")
    out = []
    for (idx, lam, U), (_, mu, V) in zip(_positive_eigh(rho), _positive_eigh(sigma)):
        s, t = np.maximum(lam, F.floor), np.maximum(mu, F.floor)
        out.append((idx, np.array([F.gram(x, y) for x, y in zip(s, t)]), U, V))
    return out


def schur_q(F, rho, sigma, a):
    """Apply the Schur-multiplier operator integral of F at (rho, sigma) to a,
    one batched product per dim group."""
    if a.algebra != rho.algebra:
        raise AlgebraMismatchError("states and argument live on different algebras")
    return AlgebraElement._of(a.algebra, tuple(
        U @ (M * (stack_adjoint(U) @ b @ V)) @ stack_adjoint(V)
        for (_, M, U, V), b in zip(_kernel_groups(F, rho, sigma), a.stacks)))


def superoperator_matrix(F, rho, sigma):
    """Dense matrix of Q_F at (rho, sigma) on row-major matrix-unit coefficients.

    Returns the direct sum over sites; the matrix is identical in the
    orthonormal tau-basis because the within-site scale factors cancel.
    """
    alg = rho.algebra
    out = np.zeros((alg.coeff_dim, alg.coeff_dim), dtype=complex)
    for idx, M, U, V in _kernel_groups(F, rho, sigma):
        g, k = U.shape[:2]
        # kron(U_s, conj(V_s)) for every block s of the group
        W = (U[:, :, None, :, None] * V.conj()[:, None, :, None, :]).reshape(g, k * k, k * k)
        blocks = (W * M.reshape(g, 1, k * k)) @ stack_adjoint(W)
        for s, block in zip(idx, blocks):
            off = alg.offsets[s]
            out[off:off + k * k, off:off + k * k] = block
    return out


def homogeneity_check(F, lambdas, grid):
    """True iff lambda*F(lambda x, lambda y) <= F(x, y) + 1e-12 on the grid."""
    grid = np.asarray(sorted(float(g) for g in grid), dtype=float)
    if np.any(grid <= 0.0):
        raise ContractViolationError("homogeneity grid must be strictly positive")
    base = F.gram(grid, grid)
    for lam in lambdas:
        lam = float(lam)
        if lam <= 0.0:
            raise ContractViolationError("homogeneity scalings must be strictly positive")
        scaled = lam * F.gram(lam * grid, lam * grid)
        if np.any(scaled > base + 1e-12):
            return False
    return True


# -- cone membership -----------------------------------------------------------

@dataclass
class ConeTestReport:
    kernel: str
    side: str
    trials: int
    dims: tuple
    env_dims: tuple
    seed: int
    worst_min_eig: float
    worst_margin: float
    violations: list = field(default_factory=list)
    n_errors: int = 0
    verdict: str = "pass"

    def to_json(self):
        return {
            "kernel": self.kernel,
            "side": self.side,
            "trials": int(self.trials),
            "dims": [int(d) for d in self.dims],
            "min_eig": float(self.worst_min_eig),
            "violations": [{"seed": int(v["seed"]), "dim": int(v["dim"]),
                            "min_eig": float(v["min_eig"])} for v in self.violations],
            "verdict": self.verdict,
        }


def cone_test(F, side="plus", trials=100, dims=CONE_DIMS, env_dims=CONE_ENV_DIMS,
              seed=0):
    """Monte Carlo PSD-ordering test of the two cone inequalities.

    side "plus" checks  S(Q_F^{rho,sigma}) - B* S(Q_F^{b rho, b sigma}) B >= 0,
    side "minus" checks S(Q_F^{b rho, b sigma}) - B S(Q_F^{rho,sigma}) B* >= 0,
    where B is the channel matrix in the orthonormal tau-basis of a single
    site.  Sampled maps are mixtures of env_dim Haar unitaries: unital CPTP,
    the class the semigroup applications use.  Unitality is not cosmetic:
    the plus-cone property of shifted-argument kernels (power differences
    included) needs b(x + t1) = b(x) + t1, and non-unital CPTP maps admit
    genuine counterexamples.  A trial violates when the minimal eigenvalue
    of the symmetrized difference drops below -1e-8 * (1 + gram norm).
    """
    if side not in ("plus", "minus"):
        raise ContractViolationError("side must be 'plus' or 'minus'")
    combos = [(d, e) for d in dims for e in env_dims]
    worst_min_eig = np.inf
    worst_margin = np.inf
    violations = []
    n_errors = 0
    for t in range(trials):
        d, e = combos[t % len(combos)]
        rng = make_rng(seed, t)
        alg = WeightedAlgebra.full_matrix(d)
        try:
            rho = random_positive(alg, floor=1e-4, seed=rng)
            sigma = random_positive(alg, floor=1e-4, seed=rng)
            beta = random_mixed_unitary(d, e, rng)
            b_rho = beta.apply(rho).hermitian_part()
            b_sigma = beta.apply(sigma).hermitian_part()
            s_in = superoperator_matrix(F, rho, sigma)
            s_out = superoperator_matrix(F, b_rho, b_sigma)
            B = beta.matrix()
            if side == "plus":
                delta = s_in - B.conj().T @ s_out @ B
            else:
                delta = s_out - B @ s_in @ B.conj().T
            h = 0.5 * (delta + delta.conj().T)
            min_eig = float(np.linalg.eigvalsh(h)[0])
            gram_norm = max(float(np.linalg.norm(s_in, 2)), float(np.linalg.norm(s_out, 2)))
            tol = 1e-8 * (1.0 + gram_norm)
            margin = min_eig + tol
            worst_min_eig = min(worst_min_eig, min_eig)
            worst_margin = min(worst_margin, margin)
            if min_eig < -tol:
                violations.append({"seed": t, "dim": d, "env_dim": e,
                                   "min_eig": min_eig, "tolerance": tol})
        except (np.linalg.LinAlgError, DomainError):
            n_errors += 1
    if violations:
        verdict = "fail"
    elif n_errors:
        verdict = "inconclusive"
    else:
        verdict = "pass"
    return ConeTestReport(kernel=F.label, side=side, trials=trials, dims=tuple(dims),
                          env_dims=tuple(env_dims), seed=seed,
                          worst_min_eig=float(worst_min_eig),
                          worst_margin=float(worst_margin),
                          violations=violations, n_errors=n_errors, verdict=verdict)
