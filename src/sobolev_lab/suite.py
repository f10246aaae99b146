"""Batch verification suite: named checks over every in-scope inequality.

Each check builds its own models and random data from an explicit seed and
returns a CheckReport; suite_run dispatches a config of check entries and the
aggregate verdict is a pass exactly when every non-informational check
passes.  Reports are deterministic functions of (config, seed).
"""

from __future__ import annotations

import csv
import io
import os
import tempfile

import numpy as np

from .algebra import (AlgebraElement, WeightedAlgebra, inner, make_rng,
                      matrix_function, pair_trace, random_element,
                      random_positive, trace)
from .certify import (CheckReport, OptimizerBudget, decay_check,
                      estimate_constant, fisher_decay_check, lemma_rtl_check,
                      martingale_recursion_replay, pnorm_decay_check,
                      sobolev_ratio)
from .channels import random_mixed_unitary
from .doi import (TwoVariableKernel, cone_test, homogeneity_check,
                  log_difference, power_difference, schur_q)
from .entropy import (bregman, difference_derivation_from_moves,
                      entropy_vs_subalgebra, fisher_derivation,
                      fisher_generator, monotone_metric)
from .errors import ContractViolationError, DegenerateStateError
from .functions import power, xlogx
from .models import (ConditionalExpectation, ampliate_generator,
                     bernoulli_laplace, depolarizing, graph_laplacian,
                     random_transposition, semigroup_apply, tensor_generator)


def _alternating_f(i):
    return xlogx() if i % 2 == 0 else power(1.5)


# -- individual checks -----------------------------------------------------------

def check_gap(seed=0):
    """Exact spectral gaps of the built-in walks."""
    cases = [
        (random_transposition(3), 2.0, "rt3"),
        (random_transposition(4), 2.0, "rt4"),
        (bernoulli_laplace(3, 1), 1.0, "bl31"),
        (bernoulli_laplace(4, 2), 1.0, "bl42"),
        (depolarizing(ConditionalExpectation.full_average(
            WeightedAlgebra.full_matrix(2))), 1.0, "dep2"),
    ]
    records = []
    for i, (A, exact, tag) in enumerate(cases):
        g = A.gap()
        records.append({"seed": i, "model": tag, "value": g,
                        "slack": -abs(g - exact), "scale": 0.0})
    return CheckReport.from_records("gap", records, 1e-9, 0.0,
                                    meta={"seed": seed})


def check_estimate_bracket(seed=0, restarts=8, iterations=500):
    """Constant estimates stay inside the tabulated brackets (light budget)."""
    budget = OptimizerBudget(restarts=restarts, iterations=iterations, seed=seed)
    jobs = [
        (random_transposition(3), power(1.5), 1),
        (bernoulli_laplace(3, 1), power(1.5), 1),
        (random_transposition(3), xlogx(), 1),
    ]
    records = []
    for i, (A, f, k) in enumerate(jobs):
        res = estimate_constant(A, f, ampliation=k, budget=budget)
        low, high = res.bracket
        est = res.estimated_lambda
        base = {"seed": i, "model": A.spec["model"], "f": f.label, "k": k,
                "value": est, "scale": 0.0}
        records.append(dict(base, part="lower", slack=est - low))
        records.append(dict(base, part="upper", slack=high - est))
    return CheckReport.from_records(
        "estimate_bracket", records, 1e-6, 0.0,
        meta={"seed": seed, "restarts": restarts, "iterations": iterations})


def check_cone_membership(seed=0, trials=60, side="plus"):
    """PSD-ordering membership for the catalog kernels."""
    kernels = [log_difference(), power_difference(0.5)]
    records = []
    for F in kernels:
        rep = cone_test(F, side=side, trials=trials, seed=seed)
        records.append({"seed": seed, "kernel": rep.kernel,
                        "value": rep.worst_min_eig,
                        "slack": float(rep.worst_margin), "scale": 0.0})
        for v in rep.violations:
            records.append({"seed": v["seed"], "kernel": rep.kernel,
                            "value": v["min_eig"],
                            "slack": v["min_eig"] + v["tolerance"],
                            "scale": 0.0})
    return CheckReport.from_records(
        "cone_membership", records, 0.0, 0.0, trials=trials * len(kernels),
        meta={"seed": seed, "side": side})


def check_dpi(seed=0, trials=40):
    """Data processing: divergence to a fixed scalar never grows under a
    unital channel."""
    records = []
    for trial in range(int(trials)):
        d = 3 if trial % 2 == 0 else 4
        f = _alternating_f(trial // 2)
        rng = make_rng(seed, 17, trial)
        alg = WeightedAlgebra.full_matrix(d)
        rho = random_positive(alg, floor=1e-3, seed=rng)
        sigma = alg.scalar(0.5 + float(rng.random()))
        phi = random_mixed_unitary(d, 3, rng)
        before = bregman(f, rho, sigma).value
        after = bregman(f, phi.apply(rho).hermitian_part(),
                        phi.apply(sigma).hermitian_part()).value
        records.append({"seed": trial, "dim": d, "f": f.label, "value": after,
                        "slack": before - after, "scale": 0.0})
    return CheckReport.from_records("dpi", records, 1e-9, 0.0, trials=trials,
                                    meta={"seed": seed})


def check_depolarizing_identity(seed=0, trials=40):
    """Fisher information of x - E(x) splits into the two one-sided
    divergences between rho and E(rho)."""
    algebras = [WeightedAlgebra.full_matrix(4), WeightedAlgebra.block_sites(4, 2)]
    records = []
    for trial in range(int(trials)):
        alg = algebras[trial % 2]
        f = _alternating_f(trial // 2)
        E = ConditionalExpectation.full_average(alg)
        A = depolarizing(E)
        rho = random_positive(alg, floor=1e-3, seed=make_rng(seed, 19, trial))
        fisher = fisher_generator(A, f, rho)
        e_rho = E.apply(rho).hermitian_part()
        d1 = bregman(f, rho, e_rho).value
        d2 = bregman(f, e_rho, rho).value
        gap = abs(fisher - d1 - d2)
        records.append({"seed": trial, "f": f.label, "value": fisher,
                        "slack": -gap, "scale": 1.0 + abs(fisher)})
    return CheckReport.from_records("depolarizing_identity", records, 0.0, 1e-8,
                                    trials=trials, meta={"seed": seed})


def check_entropy_pythagoras(seed=0, trials=50):
    """Exact additivity d(rho||sigma) = d_K(rho) + d(E rho||sigma) for
    sigma inside the fixed subalgebra of a block partition."""
    alg = WeightedAlgebra.block_sites(4, 2)
    E = ConditionalExpectation.from_partition(alg, ((0, 1), (2, 3)))
    records = []
    for trial in range(int(trials)):
        f = _alternating_f(trial)
        rng = make_rng(seed, 23, trial)
        rho = random_positive(alg, floor=1e-3, seed=rng)
        sigma = E.apply(random_positive(alg, floor=1e-3, seed=rng)).hermitian_part()
        total = bregman(f, rho, sigma).value
        inside = entropy_vs_subalgebra(f, rho, E).value
        tail = bregman(f, E.apply(rho).hermitian_part(), sigma).value
        records.append({"seed": trial, "f": f.label, "value": total,
                        "slack": -abs(total - inside - tail), "scale": 0.0})
    return CheckReport.from_records("entropy_pythagoras", records, 1e-10, 0.0,
                                    trials=trials, meta={"seed": seed})


def check_entropy_infimum(seed=0, trials=30, n_sigmas=5):
    """d_K(rho) is attained at E(rho) and never beaten by other states in K."""
    alg = WeightedAlgebra.block_sites(4, 2)
    E = ConditionalExpectation.from_partition(alg, ((0, 1), (2, 3)))
    records = []
    for trial in range(int(trials)):
        f = _alternating_f(trial)
        rng = make_rng(seed, 29, trial)
        rho = random_positive(alg, floor=1e-3, seed=rng)
        d_k = entropy_vs_subalgebra(f, rho, E).value
        at_e = bregman(f, rho, E.apply(rho).hermitian_part()).value
        records.append({"seed": trial, "part": "attained", "f": f.label,
                        "value": at_e, "slack": -abs(at_e - d_k), "scale": 0.0})
        for j in range(int(n_sigmas)):
            sigma = E.apply(random_positive(alg, floor=1e-3, seed=rng)).hermitian_part()
            val = bregman(f, rho, sigma).value
            records.append({"seed": trial, "part": f"dominates_{j}",
                            "f": f.label, "value": val,
                            "slack": val - d_k, "scale": 0.0})
    return CheckReport.from_records("entropy_infimum", records, 1e-10, 0.0,
                                    trials=trials, meta={"seed": seed})


def _builtin_models():
    # conductance 1/4 against uniform site weight 1/4 gives unit jump rates,
    # keeping the generator spectrum O(1) for finite-difference probes
    ring = np.zeros((4, 4))
    for i in range(4):
        ring[i, (i + 1) % 4] = ring[(i + 1) % 4, i] = 0.25
    return [
        ("rt3", random_transposition(3)),
        ("bl31", bernoulli_laplace(3, 1)),
        ("dep_m3", depolarizing(ConditionalExpectation.full_average(
            WeightedAlgebra.full_matrix(3)))),
        ("ring4", graph_laplacian(ring)),
    ]


def _entropy_slope(A, f, E, rho, c, step):
    """Central difference of the entropy along the semigroup at time c."""
    up = entropy_vs_subalgebra(
        f, semigroup_apply(A, c + step, rho).hermitian_part(), E).value
    down = entropy_vs_subalgebra(
        f, semigroup_apply(A, c - step, rho).hermitian_part(), E).value
    return (up - down) / (2.0 * step)


def check_gradient_identity(seed=0, instances=12, h=1e-4, t_grid=(0.0, 0.1, 1.0)):
    """The entropy along the semigroup has derivative minus the Fisher
    information; verified by the Richardson extrapolation of the central
    differences at steps h and h/2, which cancels their O(h^2) error."""
    if not h > 0:
        raise ContractViolationError("the difference step h must be positive")
    models = _builtin_models()
    records = []
    for i in range(int(instances)):
        tag, A = models[i % len(models)]
        f = _alternating_f(i // len(models))
        rho = random_positive(A.algebra, floor=1e-3, seed=make_rng(seed, 31, i))
        E = A.expectation
        for t in t_grid:
            c = max(float(t), float(h))
            diff = (4.0 * _entropy_slope(A, f, E, rho, c, 0.5 * h)
                    - _entropy_slope(A, f, E, rho, c, h)) / 3.0
            fisher = fisher_generator(
                A, f, semigroup_apply(A, c, rho).hermitian_part())
            records.append({"seed": i, "model": tag, "f": f.label, "t": c,
                            "value": diff, "slack": -abs(diff + fisher),
                            "scale": 1.0 + abs(fisher)})
    return CheckReport.from_records("gradient_identity", records, 0.0, 1e-5,
                                    trials=instances,
                                    meta={"seed": seed, "h": float(h)})


def _seeded_states(A, n_states, seed, key):
    return [random_positive(A.algebra, floor=1e-3, seed=make_rng(seed, key, i))
            for i in range(n_states)]


def check_entropy_decay(seed=0, n_states=8):
    """Entropy decay at the tabulated rates, scalar and 2-ampliated."""
    jobs = [
        (random_transposition(3), power(1.5), 1.5),
        (random_transposition(3), xlogx(), 1.0),
        (bernoulli_laplace(3, 1), power(1.5), 0.75),
    ]
    records = []
    trials = 0
    for j, (A, f, lam) in enumerate(jobs):
        for k in (1, 2):
            Ak = ampliate_generator(A, k)
            states = _seeded_states(Ak, int(n_states), seed, 37 + j)
            rep = decay_check(Ak, f, lam, states)
            trials += len(states)
            for r in rep.records:
                records.append(dict(r, model=A.spec["model"], f=f.label, k=k,
                                    lam=lam))
    return CheckReport.from_records("entropy_decay", records, 0.0, 1e-9,
                                    trials=trials, meta={"seed": seed})


def check_fisher_decay(seed=0, n_states=5):
    """Fisher decay profile at the entropy rate; informational."""
    A = random_transposition(3)
    f = power(1.5)
    states = _seeded_states(A, int(n_states), seed, 41)
    rep = fisher_decay_check(A, f, 1.5, states)
    return CheckReport.from_records("fisher_decay", rep.records, 0.0, 1e-9,
                                    trials=len(states), informational=True,
                                    meta={"seed": seed, "lambda": 1.5})


def check_pnorm_decay(seed=0, n_states=10, p=1.5):
    """Norm return-to-average bound driven by the certified constant."""
    A = random_transposition(3)
    states = _seeded_states(A, int(n_states), seed, 43)
    rep = pnorm_decay_check(A, p, p / 2.0, states)
    return CheckReport.from_records("pnorm_decay", rep.records, 0.0, 1e-9,
                                    trials=len(states),
                                    meta={"seed": seed, "p": float(p)})


def check_lemma_rtl(seed=0, trials=40, n=3, matrix_dim=2, p=1.5):
    return lemma_rtl_check(n=n, matrix_dim=matrix_dim, p=p, trials=trials,
                           seed=seed)


def check_martingale_rt(seed=0, trials=15, n=3, p=1.5, matrix_dim=1):
    return martingale_recursion_replay("rt", n, p=p, matrix_dim=matrix_dim,
                                       trials=trials, seed=seed)


def check_martingale_bl(seed=0, trials=15, n=3, r=1, p=1.5, matrix_dim=1):
    return martingale_recursion_replay("bl", n, p=p, r=r,
                                       matrix_dim=matrix_dim,
                                       trials=trials, seed=seed)


def _pair_energy(rho, sigma, p):
    dpow = (matrix_function(power(p - 1.0), rho)
            - matrix_function(power(p - 1.0), sigma))
    return float(pair_trace(rho - sigma, dpow).real)


def check_rtc_convexity(seed=0, trials=50, p=1.5):
    """Midpoint joint convexity of (rho, sigma) -> tau[(rho - sigma)
    (rho^{p-1} - sigma^{p-1})]."""
    alg = WeightedAlgebra.full_matrix(4)
    records = []
    for trial in range(int(trials)):
        rng = make_rng(seed, 47, trial)
        r1 = random_positive(alg, floor=1e-3, seed=rng)
        s1 = random_positive(alg, floor=1e-3, seed=rng)
        r2 = random_positive(alg, floor=1e-3, seed=rng)
        s2 = random_positive(alg, floor=1e-3, seed=rng)
        mid = _pair_energy(0.5 * (r1 + r2), 0.5 * (s1 + s2), p)
        avg = 0.5 * (_pair_energy(r1, s1, p) + _pair_energy(r2, s2, p))
        records.append({"seed": trial, "value": mid, "slack": avg - mid,
                        "scale": 1.0 + abs(avg)})
    return CheckReport.from_records("rtc_convexity", records, 1e-10, 1e-10,
                                    trials=trials,
                                    meta={"seed": seed, "p": float(p)})


def check_gamma_convexity(seed=0, trials=40):
    """Midpoint joint convexity of the metric pairing for catalog kernels
    that pass the homogeneity gate on scalings 0.5 and 2."""
    catalog = [log_difference(), power_difference(0.5), power_difference(0.25)]
    grid = np.linspace(0.2, 3.0, 8)
    gated = [F for F in catalog if homogeneity_check(F, (0.5, 2.0), grid)]
    skipped = [F.label for F in catalog if F not in gated]
    alg = WeightedAlgebra.full_matrix(3)
    records = []
    for trial in range(int(trials)):
        F = gated[trial % len(gated)]
        rng = make_rng(seed, 53, trial)
        a = random_element(alg, rng, hermitian=True)
        r1 = random_positive(alg, floor=1e-3, seed=rng)
        s1 = random_positive(alg, floor=1e-3, seed=rng)
        r2 = random_positive(alg, floor=1e-3, seed=rng)
        s2 = random_positive(alg, floor=1e-3, seed=rng)
        g1 = float(monotone_metric(F, r1, s1, a, a).real)
        g2 = float(monotone_metric(F, r2, s2, a, a).real)
        gm = float(monotone_metric(F, 0.5 * (r1 + r2), 0.5 * (s1 + s2),
                                   a, a).real)
        avg = 0.5 * (g1 + g2)
        records.append({"seed": trial, "kernel": F.label, "value": gm,
                        "slack": avg - gm, "scale": 1.0 + abs(avg)})
    return CheckReport.from_records(
        "gamma_convexity", records, 1e-10, 1e-10, trials=trials,
        meta={"seed": seed, "gated_out": skipped})


def _random_connected_adjacency(rng, m):
    W = np.zeros((m, m))
    for i in range(m):
        j = (i + 1) % m
        w = 0.5 + float(rng.random())
        W[i, j] = W[j, i] = w
    i, j = sorted(rng.choice(m, size=2, replace=False))
    W[i, j] = W[j, i] = W[i, j] + 0.5 + float(rng.random())
    return W


def check_change_of_measure(seed=0, trials=30, ratio_caps=(2.0, 10.0)):
    """Trace-change comparisons on weighted 4-point spaces.

    Lemma level: the derivation Fisher form scales at least by the smallest
    weight ratio, the divergence at most by the largest.  Ratio level: each
    sampled ratio under the first trace dominates (low/high) times the
    sampled infimum under the second.
    """
    if not ratio_caps:
        raise ContractViolationError("ratio_caps must name at least one cap")
    m = 4
    records = []
    ratio_pool = []
    for trial in range(int(trials)):
        cap = ratio_caps[trial % len(ratio_caps)]
        f = power(1.5) if trial % 2 == 0 else xlogx()
        rng = make_rng(seed, 59, trial)
        w2 = 0.2 + rng.random(m)
        w2 = w2 / w2.sum()
        factors = cap ** rng.uniform(-1.0, 1.0, size=m)
        w1 = w2 * factors
        w1 = w1 / w1.sum()
        rn = w1 / w2
        c_low, c_high = float(rn.min()), float(rn.max())
        W = _random_connected_adjacency(rng, m)
        A2 = graph_laplacian(W, site_weights=[float(x) for x in w2])
        A1 = graph_laplacian(W, site_weights=[float(x) for x in w1])
        alg2, alg1 = A2.algebra, A1.algebra
        delta = difference_derivation_from_moves(alg2, A2.moves)
        rho = random_positive(alg2, floor=1e-3, seed=rng)
        i2 = fisher_derivation(delta, f, rho)
        i1 = fisher_derivation(delta, f, rho, weights=w1)
        records.append({"seed": trial, "part": "fisher", "f": f.label,
                        "value": i1, "slack": i1 - c_low * i2,
                        "scale": 1.0 + abs(c_low * i2)})
        sigma = random_positive(alg2, floor=1e-3, seed=rng)
        d1 = bregman(f, AlgebraElement(alg1, rho.blocks),
                     AlgebraElement(alg1, sigma.blocks)).value
        d2 = bregman(f, rho, sigma).value
        records.append({"seed": trial, "part": "divergence", "f": f.label,
                        "value": d1, "slack": c_high * d2 - d1,
                        "scale": 1.0 + abs(c_high * d2)})
        try:
            r1 = sobolev_ratio(A1, f, AlgebraElement(alg1, rho.blocks))
            r2 = sobolev_ratio(A2, f, rho)
        except DegenerateStateError:
            continue
        ratio_pool.append((trial, r1, r2, c_low / c_high, f.label))
    if ratio_pool:
        inf2 = min(r2 for _, _, r2, _, _ in ratio_pool)
        for trial, r1, _, factor, flabel in ratio_pool:
            records.append({"seed": trial, "part": "ratio", "f": flabel,
                            "value": r1, "slack": r1 - factor * inf2,
                            "scale": 1.0 + abs(factor * inf2)})
    return CheckReport.from_records(
        "change_of_measure", records, 0.0, 1e-10, trials=trials,
        meta={"seed": seed, "ratio_caps": list(ratio_caps)})


def check_daleckii_krein(seed=0, trials=30):
    """Commutators pass through the spectral multiplier of the first
    divided difference: [v, f(rho)] = Q([v, rho])."""
    alg = WeightedAlgebra.full_matrix(4)
    fns = [power(2.0), power(1.5), xlogx()]
    records = []
    for trial in range(int(trials)):
        f = fns[trial % len(fns)]
        F = TwoVariableKernel.diff_quot1(f)
        rng = make_rng(seed, 61, trial)
        rho = random_positive(alg, floor=1e-3, seed=rng)
        v = random_element(alg, rng, hermitian=True)
        f_rho = matrix_function(f, rho)
        lhs = v @ f_rho - f_rho @ v
        rhs = schur_q(F, rho, rho, v @ rho - rho @ v)
        defect = (lhs - rhs).norm()
        scale = 1.0 + v.norm() * f_rho.norm()
        records.append({"seed": trial, "f": f.label, "value": defect,
                        "slack": -defect, "scale": scale})
    return CheckReport.from_records("daleckii_krein", records, 0.0, 1e-8,
                                    trials=trials, meta={"seed": seed})


def check_tensorization(seed=0, trials=60, lower=1.5):
    """Sampled ratios on a product walk never drop below the smaller of the
    two factor lower bounds."""
    T = tensor_generator(
        random_transposition(3),
        depolarizing(ConditionalExpectation.full_average(
            WeightedAlgebra.full_matrix(2))))
    f = power(1.5)
    records = []
    rejected = 0
    for trial in range(int(trials)):
        rho = random_positive(T.algebra, floor=1e-4,
                              seed=make_rng(seed, 67, trial))
        try:
            ratio = sobolev_ratio(T, f, rho)
        except DegenerateStateError:
            rejected += 1
            continue
        records.append({"seed": trial, "value": ratio,
                        "slack": ratio - float(lower), "scale": 0.0})
    return CheckReport.from_records(
        "tensorization", records, 1e-6, 0.0, trials=trials,
        meta={"seed": seed, "lower": float(lower), "rejected": rejected})


def check_semigroup_positivity(seed=0, n_states=6, t_grid=(0.1, 1.0)):
    """The semigroup keeps states positive and fixes the identity."""
    records = []
    for tag, A in _builtin_models():
        one = A.algebra.identity()
        for t in t_grid:
            drift = (semigroup_apply(A, t, one) - one).norm()
            records.append({"seed": -1, "model": tag, "part": "unital",
                            "t": t, "value": drift, "slack": -drift,
                            "scale": 1.0})
        for i in range(int(n_states)):
            rho = random_positive(A.algebra, rank_fraction=0.75,
                                  seed=make_rng(seed, 71, i))
            for t in t_grid:
                lam_min = semigroup_apply(A, t, rho).hermitian_part().min_eigenvalue()
                records.append({"seed": i, "model": tag, "part": "positive",
                                "t": t, "value": lam_min, "slack": lam_min,
                                "scale": 1.0 + rho.op_norm()})
    return CheckReport.from_records("semigroup_positivity", records, 0.0, 1e-10,
                                    trials=n_states, meta={"seed": seed})


def check_generator_contracts(seed=0, n_probes=5):
    """Structural identities of the built-in generators and expectations."""
    records = []
    for tag, A in _builtin_models():
        alg = A.algebra
        E = A.expectation
        one = alg.identity()
        records.append({"seed": -1, "model": tag, "part": "kills_identity",
                        "value": 0.0, "slack": -A.apply(one).norm(),
                        "scale": 1.0})
        for i in range(int(n_probes)):
            rng = make_rng(seed, 73, i)
            x = random_element(alg, rng)
            y = random_element(alg, rng)
            ex = E.apply(x)
            scale = 1.0 + x.norm() + y.norm()
            records.append({"seed": i, "model": tag, "part": "idempotent",
                            "value": 0.0,
                            "slack": -(E.apply(ex) - ex).norm(), "scale": scale})
            records.append({"seed": i, "model": tag, "part": "selfadjoint_e",
                            "value": 0.0,
                            "slack": -abs(inner(ex, y) - inner(x, E.apply(y))),
                            "scale": scale})
            records.append({"seed": i, "model": tag, "part": "trace_preserving",
                            "value": 0.0,
                            "slack": -abs(trace(ex) - trace(x)), "scale": scale})
            records.append({"seed": i, "model": tag, "part": "fixes_range_e",
                            "value": 0.0,
                            "slack": -A.apply(ex).norm(), "scale": scale})
            ax = A.apply(x)
            records.append({"seed": i, "model": tag, "part": "selfadjoint_a",
                            "value": 0.0,
                            "slack": -abs(inner(ax, y) - inner(x, A.apply(y))),
                            "scale": scale})
            dirichlet = float(inner(x, ax).real)
            records.append({"seed": i, "model": tag, "part": "dirichlet",
                            "value": dirichlet, "slack": dirichlet,
                            "scale": 1.0 + x.norm() ** 2})
    return CheckReport.from_records("generator_contracts", records, 0.0, 1e-10,
                                    trials=n_probes, meta={"seed": seed})


# -- registry and driver ---------------------------------------------------------

CHECKS = {
    "gap": check_gap,
    "estimate_bracket": check_estimate_bracket,
    "cone_membership": check_cone_membership,
    "dpi": check_dpi,
    "depolarizing_identity": check_depolarizing_identity,
    "entropy_pythagoras": check_entropy_pythagoras,
    "entropy_infimum": check_entropy_infimum,
    "gradient_identity": check_gradient_identity,
    "entropy_decay": check_entropy_decay,
    "fisher_decay": check_fisher_decay,
    "pnorm_decay": check_pnorm_decay,
    "lemma_rtl": check_lemma_rtl,
    "martingale_rt": check_martingale_rt,
    "martingale_bl": check_martingale_bl,
    "rtc_convexity": check_rtc_convexity,
    "gamma_convexity": check_gamma_convexity,
    "change_of_measure": check_change_of_measure,
    "daleckii_krein": check_daleckii_krein,
    "tensorization": check_tensorization,
    "semigroup_positivity": check_semigroup_positivity,
    "generator_contracts": check_generator_contracts,
}


def suite_run(config=None):
    """Run the configured checks and return their reports in order.

    config = {"seed": int, "checks": [id or {"id": ..., params...}, ...]};
    omitted checks default to the full registry.  Unknown ids or parameters
    are rejected before any check runs.
    """
    config = {} if config is None else dict(config)
    unknown = set(config) - {"seed", "checks"}
    if unknown:
        raise ContractViolationError(f"unknown suite config keys: {sorted(unknown)}")
    seed = int(config.get("seed", 0))
    entries = config.get("checks")
    if entries is None:
        entries = list(CHECKS)
    parsed = []
    for entry in entries:
        if isinstance(entry, str):
            cid, params = entry, {}
        elif isinstance(entry, dict):
            params = dict(entry)
            cid = params.pop("id", None)
        else:
            raise ContractViolationError("check entries must be ids or objects")
        if cid not in CHECKS:
            raise ContractViolationError(f"unknown check id: {cid!r}")
        params.setdefault("seed", seed)
        parsed.append((cid, params))
    reports = []
    for cid, params in parsed:
        try:
            reports.append(CHECKS[cid](**params))
        except TypeError as exc:
            raise ContractViolationError(
                f"bad parameters for check {cid!r}: {exc}") from None
    return reports


def suite_verdict(reports):
    """Aggregate verdict: pass iff every non-informational check passes."""
    for rep in reports:
        if not rep.informational and rep.verdict != "pass":
            return "fail"
    return "pass"


def _model_label(spec):
    if spec is None:
        return ""
    if isinstance(spec, str):
        return spec
    model = spec.get("model", "")
    if model == "ampliation":
        return f"amp{spec['factor']}:{_model_label(spec['base'])}"
    if model == "tensor":
        inner_labels = ",".join(_model_label(s) for s in spec["factors"])
        return f"tensor({inner_labels})"
    params = spec.get("params", {})
    args = ",".join(f"{k}={v}" for k, v in sorted(params.items())
                    if not isinstance(v, (list, dict)))
    return f"{model}({args})" if args else model


CSV_HEADER = ("check_id", "model", "f", "p", "k", "seed", "value", "slack",
              "verdict")


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def csv_text(rows, header=CSV_HEADER):
    """CSV text of a header and rows: floats at 12 significant digits, None
    as an empty cell."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(value) for value in row])
    return buf.getvalue()


def _atomic_write(path, text):
    """Write text to path by replacing it with a finished temporary file in
    the same directory, so a reader never sees a partial file.  The file
    gets the mode a plain open gives (0666 less the umask), not mkstemp's
    0600."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            umask = os.umask(0)  # read by setting; restored at once
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _report_rows(reports):
    """CSV rows of the reports: one per record, under CSV_HEADER."""
    rows = []
    for rep in reports:
        meta = rep.meta
        f_spec = meta.get("f")
        if isinstance(f_spec, dict):
            f_label = f_spec.get("tag", "")
            p_meta = f_spec.get("p")
        else:
            f_label = f_spec or ""
            p_meta = meta.get("p")
        k_meta = meta.get("k", meta.get("matrix_dim", meta.get("ampliation")))
        for r in rep.records:
            rows.append([
                rep.check_id,
                _model_label(r.get("model", _model_label(meta.get("model")))),
                r.get("f", f_label), r.get("p", p_meta), r.get("k", k_meta),
                r.get("seed"), r.get("value"), r.get("slack"), rep.verdict])
    return rows


def reports_to_csv(reports, path):
    """Tabular export: one row per record, 12 significant digits."""
    _atomic_write(path, csv_text(_report_rows(reports)))
    return path
