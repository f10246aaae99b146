"""Each benchmark reference agrees with the program on a tiny case and
rejects a perturbed value.

    python3 -m pytest -q perfbench/test_references.py
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402
import worker  # noqa: E402  (puts src/ on sys.path)

import sobolev_lab as sl  # noqa: E402
from sobolev_lab.functions import power, xlogx  # noqa: E402

FUNCS = [("power", 1.5, power(1.5)), ("xlogx", None, xlogx())]


def _walk(walk, k=1):
    if walk == "rt":
        return sl.random_transposition(3, k), 3, None
    return sl.bernoulli_laplace(4, 2, k), 4, 2


def _state(A, seed=0):
    rng = np.random.default_rng(seed)
    rho = ref.random_state(rng, A.algebra.n_sites, A.algebra.uniform_dim)
    return rho, sl.AlgebraElement(A.algebra, list(rho))


def _accepts_and_rejects(value, expected, tol):
    chk = worker.Checker()
    assert chk.near(value, expected, tol, "value")
    assert not chk.near(value + 10 * tol, expected, tol, "perturbed")


@pytest.mark.parametrize("walk", ["rt", "bl"])
def test_site_matrix_from_moves(walk):
    A, n, r = _walk(walk)
    L = ref.site_matrix(walk, ref.walk_labels(walk, n, r), n)
    assert np.array_equal(L, A.site_matrix)
    assert ref.gap(L) == pytest.approx(ref.EXACT_GAP[walk], abs=1e-9)
    wrong = L.copy()
    wrong[0, 1] += 1e-3
    wrong[0, 0] -= 1e-3
    assert not np.allclose(wrong, A.site_matrix, rtol=0, atol=1e-9)


@pytest.mark.parametrize("walk", ["rt", "bl"])
def test_semigroup_against_expm(walk):
    A, n, r = _walk(walk, 2)
    L = ref.site_matrix(walk, ref.walk_labels(walk, n, r), n)
    rho, x = _state(A)
    for t in (0.0, 0.3, 2.0):
        got = np.stack(sl.semigroup_apply(A, t, x).blocks)
        assert np.allclose(got, ref.semigroup(L, t, rho), rtol=0, atol=1e-12)
    got = np.stack(sl.semigroup_apply(A, 0.3 + 1e-6, x).blocks)
    assert not np.allclose(got, ref.semigroup(L, 0.3, rho), rtol=0, atol=1e-12)


@pytest.mark.parametrize("tag,p,f", FUNCS)
@pytest.mark.parametrize("walk", ["rt", "bl"])
def test_entropy_and_fisher(walk, tag, p, f):
    A, n, r = _walk(walk, 2)
    L = ref.site_matrix(walk, ref.walk_labels(walk, n, r), n)
    rho, x = _state(A, 1)
    d = sl.entropy_vs_subalgebra(f, x, A.expectation).value
    _accepts_and_rejects(d, ref.entropy(tag, p, rho), 1e-9 * (1.0 + d))
    i = sl.fisher_generator(A, f, x)
    _accepts_and_rejects(i, ref.fisher(tag, p, L, rho), 1e-8 * (1.0 + i))


def test_entropy_keeps_accuracy_near_the_fixed_points():
    # two scalar sites at 1 +- e: d = ((1+e)^p + (1-e)^p)/2 - 1 exactly,
    # whose series is sum_j binom(p, 2j) e^(2j)
    p, e = 1.5, 1e-5
    exact = 0.0
    for j in range(1, 8):
        c = math.prod((p - i) / (i + 1) for i in range(2 * j))
        exact += c * e ** (2 * j)
    rho = np.array([[[1.0 + e]], [[1.0 - e]]], dtype=complex)
    assert ref.entropy("power", p, rho) == pytest.approx(exact, rel=1e-9)
    # the pair form of the Fisher form: one move each way at rate 1
    L = np.array([[1.0, -1.0], [-1.0, 1.0]])
    fisher = 2 * e * p * ((1 + e) ** (p - 1) - (1 - e) ** (p - 1)) / 2
    assert ref.fisher("power", p, L, rho) == pytest.approx(fisher, rel=1e-9)


def test_witness_reevaluation():
    A, _, _ = _walk("rt")
    res = sl.estimate_constant(A, power(1.5), 1,
                               sl.OptimizerBudget(restarts=2, iterations=60))
    chk = worker.Checker()
    rel, reproduced = worker.check_estimate(chk, res.to_json(), "power", 1.5,
                                            "rt3")
    assert reproduced and rel == res.estimated_lambda / 4.0
    bad = res.to_json()
    bad["estimated_lambda"] *= 1.0 + 1e-6
    assert not worker.check_estimate(chk, bad, "power", 1.5, "perturbed")[1]
    bad["estimated_lambda"] = 4.1
    worker.check_estimate(chk, bad, "power", 1.5, "outside")
    assert chk.problems == ["outside: estimate 4.1 outside [1.5, 4.0]"]


def test_cli_state_matches_program_sampler():
    A = sl.bernoulli_laplace(4, 2, 2)
    got = np.stack(sl.random_positive(A.algebra, floor=1e-3,
                                      seed=sl.make_rng(5, 3, 2)).blocks)
    assert np.array_equal(worker.program_state(5, 2, 6, 2), got)
    assert not np.array_equal(worker.program_state(5, 3, 6, 2), got)
