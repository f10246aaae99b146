"""Variational constant estimates and slack-based inequality checks.

The reported constant is always the minimum Fisher-to-entropy ratio over a
concrete set of evaluated states, so it is an upper estimate by construction;
documented lower bounds come from the bracket table for the built-in walks.
Check verdicts are derived from the recorded signed slacks and never set
independently, so a report cannot claim a pass while holding a violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (AlgebraElement, WeightedAlgebra, _positive_eigh,
                      element_to_json, make_rng, matrix_function, p_norm,
                      random_positive, stack_adjoint, stack_function)
from .entropy import (_fisher_form, _subalgebra_entropy, bregman,
                      entropy_vs_subalgebra, fisher_generator)
from .errors import (ContractViolationError, DegenerateStateError, DomainError,
                     NumericalContractError)
from .functions import divided_diff_grid, power
from .models import (ConditionalExpectation, _base_spec, ampliate_generator,
                     bernoulli_laplace, martingale_subalgebra_expectations,
                     random_transposition, semigroup_apply)

DEFAULT_T_GRID = (0.0, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0)
DENOMINATOR_FLOOR = 1e-12
# L-BFGS-B's relative-decrease stop; scipy's default (2.2e-9) stops k=2
# searches measurably above their k=1 values
LBFGS_FTOL = 1e-12
# L-BFGS-B's projected-gradient stop
LBFGS_GTOL = 1e-9
# searched states are G G* + STATE_FLOOR*1, so they stay faithful
STATE_FLOOR = 1e-8
# the perturbative scan: sizes of the steps off the identity, and how many
# gap eigen-directions it follows
CURVE_EPS = tuple(np.logspace(-4.7, -1.0, 12))
MAX_DIRECTIONS = 8


def minimize(fun, x0, **options):
    """scipy.optimize.minimize(fun, x0, **options), imported at the first
    call: only the constant search needs scipy, and its import is most of
    the start-up time of every other command."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(fun, x0, **options)


def worker_count():
    """1: the search runs its restarts in the calling thread.  The name stays
    only for the benchmark tracer's lookup and goes with ROADMAP item 1's
    benchmark change."""
    return 1


def parallel_map(fn, items):
    """[fn(it) for it in items].  The name stays only for the benchmark
    tracer's span and goes with ROADMAP item 1's benchmark change."""
    return [fn(it) for it in items]


# -- reports -------------------------------------------------------------------

def _fails(record, tol_abs, tol_rel):
    """A record fails unless slack >= -(absolute + relative * scale); a NaN
    slack therefore fails."""
    allowed = tol_abs + tol_rel * float(record.get("scale", 0.0))
    return not record["slack"] >= -allowed


@dataclass(frozen=True)
class CheckReport:
    """Signed-slack record batch with a derived verdict.

    A record fails unless slack >= -(absolute + relative * scale), so a NaN
    slack fails; the verdict is "fail" exactly when some record fails.
    Informational reports keep the honest verdict but are not gated on by
    the suite aggregate.
    """

    check_id: str
    trials: int
    tolerance: tuple
    records: tuple
    verdict: str
    informational: bool = False
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict == "pass" and self.violations:
            raise ContractViolationError(
                "a report cannot claim pass while holding a violation record")

    @classmethod
    def from_records(cls, check_id, records, tol_abs, tol_rel, trials=None,
                     informational=False, meta=None):
        records = tuple(dict(r) for r in records)
        bad = any(_fails(r, tol_abs, tol_rel) for r in records)
        return cls(check_id=str(check_id),
                   trials=int(trials if trials is not None else len(records)),
                   tolerance=(float(tol_abs), float(tol_rel)),
                   records=records,
                   verdict="fail" if bad else "pass",
                   informational=bool(informational),
                   meta=dict(meta or {}))

    @property
    def worst_slack(self):
        return min((float(r["slack"]) for r in self.records), default=0.0)

    @property
    def violations(self):
        ta, tr = self.tolerance
        return tuple(r for r in self.records if _fails(r, ta, tr))

    def to_json(self):
        return {
            "check": self.check_id,
            "trials": self.trials,
            "tolerance": {"absolute": self.tolerance[0],
                          "relative": self.tolerance[1]},
            "worst_slack": float(self.worst_slack),
            "verdict": self.verdict,
            "informational": self.informational,
            "records": [dict(r) for r in self.records],
            "meta": dict(self.meta),
        }


@dataclass(frozen=True)
class CertificationResult:
    """Outcome of a constant search: an upper estimate plus its witness."""

    model: dict
    f: dict
    ampliation: int
    estimated_lambda: float
    witness: dict
    witness_ratio: float
    n_restarts: int
    n_samples: int
    n_rejected: int
    restart_values: tuple
    bracket: tuple
    seed: int

    def to_json(self):
        return {
            "model": self.model,
            "f": self.f,
            "ampliation": self.ampliation,
            "estimated_lambda": float(self.estimated_lambda),
            "witness": self.witness,
            "witness_ratio": float(self.witness_ratio),
            "n_restarts": self.n_restarts,
            "n_samples": self.n_samples,
            "n_rejected": self.n_rejected,
            "restart_values": [None if v is None else float(v)
                               for v in self.restart_values],
            "bracket": None if self.bracket is None else [float(b) for b in self.bracket],
            "seed": self.seed,
        }


@dataclass(frozen=True)
class OptimizerBudget:
    restarts: int = 32
    iterations: int = 2000
    seed: int = 0


# -- the ratio -----------------------------------------------------------------

def _ratio_terms(A, f, rho):
    """(R, D, eigenpairs of rho, eigenpairs of E rho, a, f'(rho)) at rho.

    R = I/D with D = entropy_vs_subalgebra(f, rho, A.expectation) and
    I = fisher_generator(A, f, rho), both from one eigendecomposition of rho;
    a = (id - E)(A rho) is A(rho) as the Fisher form uses it.  The
    eigenpairs come grouped as algebra.eigh gives them and f'(rho) as one
    stack per dim group.
    """
    groups = _positive_eigh(rho)
    den, e_groups = _subalgebra_entropy(f, rho, groups, A.expectation)
    if not den > DENOMINATOR_FLOOR:
        raise DegenerateStateError(
            f"entropy denominator {den:.3e} is below {DENOMINATOR_FLOOR:.0e}")
    num, a, fps = _fisher_form(A, f, rho, groups)
    return num / den, den, groups, e_groups, a, fps


def sobolev_ratio(A, f, rho):
    """Fisher information over relative entropy to the fixed-point algebra,
    fisher_generator(A, f, rho) / entropy_vs_subalgebra(f, rho, A.expectation).

    Both terms are computed as those functions compute them, from one shared
    eigendecomposition of rho.  States whose entropy denominator sits at or
    below 1e-12 are rejected as degenerate rather than returned as huge
    unstable quotients.
    """
    return _ratio_terms(A, f, rho)[0]


def _search_state(algebra, x):
    """G and rho = G G* + STATE_FLOOR*1 for the real coordinates x of G
    (real parts, then imaginary parts); rho is exactly hermitian."""
    m, k = algebra.n_sites, algebra.uniform_dim
    n = x.size // 2
    G = (x[:n] + 1j * x[n:]).reshape(m, k, k)
    S = G @ stack_adjoint(G)
    S = 0.5 * (S + stack_adjoint(S)) + STATE_FLOOR * np.eye(k)
    return G, AlgebraElement._of(algebra, (S,))


def _ratio_and_gradient(A, f, x):
    """sobolev_ratio at the search state of x, and its gradient in x.

    With the eigenpairs (lam, U) of rho and (mu, V) of E rho that the ratio
    was computed from, and a = A(rho) as _ratio_terms returns it:
    grad I = A(f'(rho)) + U (f'^[1] o U* a U) U* (Daleckii-Krein),
    grad D = f'(rho) - f'(E rho), M = (grad I - R grad D)/D, and the
    gradient in (Re G, Im G) is 2 (w_s/k) (M_h G)_s with M_h the hermitian
    part of M.  Uniform block dims only.
    """
    alg = A.algebra
    G, rho = _search_state(alg, x)
    R, den, [(_, lam, U)], [(_, mu, V)], a, [fp] = _ratio_terms(A, f, rho)
    Uh = stack_adjoint(U)
    dk = divided_diff_grid(f, 2, lam, lam)
    a_fp = A.map_stacks((fp,))[0]
    grad_i = a_fp + U @ (dk * (Uh @ a.stacks[0] @ U)) @ Uh
    grad_d = fp - stack_function(V, f.eval_order(mu, 1))
    M = (grad_i - R * grad_d) / den
    wk = np.asarray(alg.weights, dtype=float) / alg.uniform_dim
    N = (2.0 * wk)[:, None, None] * ((0.5 * (M + stack_adjoint(M))) @ G)
    return R, np.concatenate([N.real.ravel(), N.imag.ravel()])


def known_bracket(A, f):
    """Tabulated (lower, upper) constants for the built-in walks, else None.

    Uppers are twice the exact spectral gap; lowers hold for the power family
    on (1, 2) and for the entropy of x log x.
    """
    spec = _base_spec(A)
    if spec is None:
        return None
    model = spec.get("model")
    if f.label == "xlogx":
        low = {"random_transposition": 1.0, "bernoulli_laplace": 0.5,
               "depolarizing": 1.0}.get(model)
    elif f.p is not None and 1.0 < float(f.p) < 2.0:
        p = float(f.p)
        low = {"random_transposition": p, "bernoulli_laplace": p / 2.0,
               "depolarizing": p}.get(model)
    else:
        return None
    if low is None:
        return None
    upper = {"random_transposition": 4.0, "bernoulli_laplace": 2.0,
             "depolarizing": 2.0}[model]
    return (float(low), float(upper))


# -- constant search -----------------------------------------------------------

def estimate_constant(A, f, ampliation=1, budget=None):
    """Search for the optimal decay constant of A against the entropy of f.

    Two ingredients: a perturbative scan on both sides of the identity along
    the gap eigenvectors that the generator's form gives (which pins the
    small-perturbation value, an upper bound of twice the gap), and L-BFGS-B
    descent on sobolev_ratio with its analytic Daleckii-Krein gradient from
    budget.restarts seeded random interior states.  Every scan state and
    each restart's end point is evaluated through sobolev_ratio, and the
    reported estimate is the minimum of those values, so the witness
    reproduces it exactly.  The restarts run in order in the calling thread.
    No dense generator data is built, so the search runs past
    MAX_DENSE_COEFF_DIM.  Block dims must be uniform.
    """
    budget = budget or OptimizerBudget()
    Ak = ampliate_generator(A, int(ampliation))
    alg = Ak.algebra
    if alg.uniform_dim is None:
        raise ContractViolationError("the constant search needs uniform block dims")
    counters = {"samples": 0, "rejected": 0}
    best = [math.inf, None]  # (value, state)

    def evaluate(state):
        counters["samples"] += 1
        try:
            val = sobolev_ratio(Ak, f, state)
        except (DegenerateStateError, DomainError):
            counters["rejected"] += 1
            return None
        if val < best[0]:
            best[:] = [val, state]
        return val

    # perturbative scan on both sides of the identity
    one = alg.identity()
    for phi in Ak.gap_directions(MAX_DIRECTIONS):
        for eps in CURVE_EPS:
            for sign in (1.0, -1.0):
                state = one + phi * (sign * float(eps))
                if state.min_eigenvalue() >= 1e-8:
                    evaluate(state)

    def objective(x):
        counters["samples"] += 1
        try:
            return _ratio_and_gradient(Ak, f, x)
        except (DegenerateStateError, DomainError):
            counters["rejected"] += 1
            return 1e6, np.zeros_like(x)

    def descend(ridx):
        x0 = make_rng(budget.seed, 7, ridx).standard_normal(2 * alg.coeff_dim) * 0.5
        res = minimize(objective, x0, method="L-BFGS-B", jac=True,
                       options={"maxiter": budget.iterations,
                                "gtol": LBFGS_GTOL,
                                "ftol": LBFGS_FTOL})
        return np.asarray(res.x, dtype=float)

    restart_values = [evaluate(_search_state(alg, x)[1])
                      for x in parallel_map(descend, range(budget.restarts))]

    est, witness = best
    if witness is None:
        raise DegenerateStateError("every evaluated state was rejected")
    check = sobolev_ratio(Ak, f, witness)
    if abs(check - est) > 1e-8 * (1.0 + abs(est)):
        raise NumericalContractError(
            f"witness ratio {check!r} does not reproduce the estimate {est!r} "
            f"(model {A.spec!r}, ampliation {int(ampliation)}, "
            f"f {f.to_spec()!r}, seed {budget.seed})")

    return CertificationResult(
        model=A.spec, f=f.to_spec(), ampliation=int(ampliation),
        estimated_lambda=float(est), witness=element_to_json(witness),
        witness_ratio=float(check), n_restarts=int(budget.restarts),
        n_samples=counters["samples"], n_rejected=counters["rejected"],
        restart_values=tuple(restart_values), bracket=known_bracket(Ak, f),
        seed=int(budget.seed))


# -- decay and replay checks ---------------------------------------------------

def decay_check(A, f, lam, states, t_grid=None):
    """Entropy decay along the semigroup at rate lam.

    slack(t) = exp(-lam t) d(rho) - d(T_t rho); a shortfall beyond
    1e-9 * d(rho) fails.
    """
    t_grid = DEFAULT_T_GRID if t_grid is None else tuple(float(t) for t in t_grid)
    states = list(states)
    E = A.expectation
    records = []
    for sd, rho in enumerate(states):
        d0 = entropy_vs_subalgebra(f, rho, E).value
        for t in t_grid:
            rt = semigroup_apply(A, t, rho).hermitian_part()
            dt = entropy_vs_subalgebra(f, rt, E).value
            bound = math.exp(-lam * t) * d0
            records.append({"seed": sd, "t": t, "value": dt, "bound": bound,
                            "slack": bound - dt, "scale": d0})
    return CheckReport.from_records(
        "entropy_decay", records, 0.0, 1e-9, trials=len(states),
        meta={"lambda": float(lam), "f": f.to_spec(), "model": A.spec,
              "t_grid": list(t_grid)})


def fisher_decay_check(A, f, lam, states, t_grid=None):
    """Fisher information decay at rate lam, reported but never asserted:
    the slack is informational since no such constant is certified here."""
    t_grid = DEFAULT_T_GRID if t_grid is None else tuple(float(t) for t in t_grid)
    states = list(states)
    records = []
    for sd, rho in enumerate(states):
        i0 = fisher_generator(A, f, rho)
        for t in t_grid:
            rt = semigroup_apply(A, t, rho).hermitian_part()
            it = fisher_generator(A, f, rt)
            bound = math.exp(-lam * t) * i0
            records.append({"seed": sd, "t": t, "value": it, "bound": bound,
                            "slack": bound - it, "scale": i0})
    return CheckReport.from_records(
        "fisher_decay", records, 0.0, 1e-9, trials=len(states),
        informational=True,
        meta={"lambda": float(lam), "f": f.to_spec(), "model": A.spec,
              "t_grid": list(t_grid)})


def pnorm_decay_check(A, p, lam, states, t_grid=None, certified=None):
    """Return-to-average norm decay implied by a certified entropy constant.

    Requires p in (1, 2) and 2*lam at or below a certified lower bound for
    the power-p constant of A (the tabulated one when none is passed).
    The bound is exp(-lam t) sqrt(2/(p(p-1))) |rho|_p^{1-p/2}
    (|rho|_p^p - |E rho|_p^p)^{1/2}.
    """
    p = float(p)
    if not 1.0 < p < 2.0:
        raise DomainError("p must lie in (1, 2)")
    if certified is None:
        bracket = known_bracket(A, power(p))
        certified = None if bracket is None else bracket[0]
    if certified is None:
        raise ContractViolationError(
            "no certified constant available; pass certified= explicitly")
    if 2.0 * lam > float(certified) + 1e-12:
        raise ContractViolationError(
            "2*lam exceeds the certified lower bound for this walk")
    t_grid = DEFAULT_T_GRID if t_grid is None else tuple(float(t) for t in t_grid)
    states = list(states)
    E = A.expectation
    records = []
    for sd, rho in enumerate(states):
        e_rho = E.apply(rho).hermitian_part()
        np_rho = p_norm(rho, p)
        np_e = p_norm(e_rho, p)
        const = (math.sqrt(2.0 / (p * (p - 1.0)))
                 * np_rho ** (1.0 - p / 2.0)
                 * math.sqrt(max(np_rho ** p - np_e ** p, 0.0)))
        for t in t_grid:
            rt = semigroup_apply(A, t, rho).hermitian_part()
            lhs = p_norm(rt - e_rho, p)
            rhs = math.exp(-lam * t) * const
            records.append({"seed": sd, "t": t, "value": lhs, "bound": rhs,
                            "slack": rhs - lhs, "scale": rhs})
    # absolute floor absorbs roundoff when rho is already averaged (bound 0)
    return CheckReport.from_records(
        "pnorm_decay", records, 1e-12, 1e-9, trials=len(states),
        meta={"lambda": float(lam), "p": p, "model": A.spec,
              "certified": float(certified), "t_grid": list(t_grid)})


def lemma_rtl_check(n=2, matrix_dim=1, p=1.5, trials=100, seed=0):
    """Pair-energy bound for the block average over n uniform sites.

    For positive f the entropy gap tau(f^p) - tau((Ef)^p) stays below the
    unordered-pair average (1/(2 n^2)) sum_{x,y} of the normalized block
    trace of (f_x - f_y)(f_x^{p-1} - f_y^{p-1}).
    """
    p = float(p)
    if not 1.0 < p < 2.0:
        raise DomainError("p must lie in (1, 2)")
    alg = WeightedAlgebra.block_sites(n, matrix_dim)
    E = ConditionalExpectation.from_partition(alg, (tuple(range(n)),))
    fp = power(p)
    records = []
    for trial in range(int(trials)):
        fel = random_positive(alg, floor=1e-3, seed=make_rng(seed, 11, trial))
        lhs = entropy_vs_subalgebra(fp, fel, E).value
        pow_blocks = matrix_function(power(p - 1.0), fel).blocks
        rhs = 0.0
        for x in range(n):
            for y in range(n):
                d1 = fel.blocks[x] - fel.blocks[y]
                d2 = pow_blocks[x] - pow_blocks[y]
                rhs += float(np.trace(d1 @ d2).real) / matrix_dim
        rhs /= 2.0 * n * n
        records.append({"seed": trial, "value": lhs, "bound": rhs,
                        "slack": rhs - lhs, "scale": 1.0 + rhs})
    return CheckReport.from_records(
        "lemma_rtl", records, 0.0, 1e-9, trials=trials,
        meta={"n": int(n), "matrix_dim": int(matrix_dim), "p": p})


def martingale_recursion_replay(family, n, p=1.5, r=1, matrix_dim=1,
                                trials=20, seed=0):
    """Two-step entropy decomposition along pinned-coordinate subalgebras.

    For the transposition walk on n letters the conditioned parts obey
    mean_i d(f || E_i f) <= (n-2)/((n-1) p) I and the averaged parts obey
    mean_i d(E_i f || E f) <= I/(n p).  For the occupancy walk on n sites
    the conditioned constant is ((n-2)/(n-1)) (2/p) and the averaged parts
    are bounded in full sum: sum_i d(E_i f || E f) <= (2/p) I.
    """
    p = float(p)
    if not 1.0 < p < 2.0:
        raise DomainError("p must lie in (1, 2)")
    fp = power(p)
    if family == "rt":
        A = random_transposition(n, matrix_dim)
        c_cond = (n - 2.0) / ((n - 1.0) * p)
        c_avg = 1.0 / (n * p)
        sum_avg = False
    elif family == "bl":
        A = bernoulli_laplace(n, r, matrix_dim)
        c_cond = ((n - 2.0) / (n - 1.0)) * (2.0 / p)
        c_avg = 2.0 / p
        sum_avg = True
    else:
        raise ContractViolationError("family must be 'rt' or 'bl'")
    pinned = martingale_subalgebra_expectations(A)
    E = A.expectation
    records = []
    for trial in range(int(trials)):
        fel = random_positive(A.algebra, floor=1e-3, seed=make_rng(seed, 13, trial))
        fisher = fisher_generator(A, fp, fel)
        ef = E.apply(fel).hermitian_part()
        d_cond = [entropy_vs_subalgebra(fp, fel, Ei).value for Ei in pinned]
        d_avg = [bregman(fp, Ei.apply(fel).hermitian_part(), ef).value
                 for Ei in pinned]
        lhs1 = sum(d_cond) / len(pinned)
        rhs1 = c_cond * fisher
        lhs2 = sum(d_avg) if sum_avg else sum(d_avg) / len(pinned)
        rhs2 = c_avg * fisher
        records.append({"seed": trial, "part": "conditioned", "value": lhs1,
                        "bound": rhs1, "slack": rhs1 - lhs1, "scale": 1.0 + rhs1})
        records.append({"seed": trial, "part": "averaged", "value": lhs2,
                        "bound": rhs2, "slack": rhs2 - lhs2, "scale": 1.0 + rhs2})
    return CheckReport.from_records(
        f"martingale_{family}", records, 0.0, 1e-9, trials=trials,
        meta={"family": family, "n": int(n), "p": p, "r": int(r),
              "matrix_dim": int(matrix_dim)})
