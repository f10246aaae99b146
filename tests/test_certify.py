"""Constant estimation, decay checks, and the replayed proof inequalities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sobolev_lab import (
    AlgebraElement,
    CheckReport,
    ConditionalExpectation,
    ContractViolationError,
    DegenerateStateError,
    DomainError,
    OptimizerBudget,
    WeightedAlgebra,
    ampliate_generator,
    bernoulli_laplace,
    decay_check,
    depolarizing,
    entropy_vs_subalgebra,
    estimate_constant,
    fisher_decay_check,
    fisher_generator,
    known_bracket,
    lemma_rtl_check,
    make_rng,
    martingale_recursion_replay,
    model_from_spec,
    pnorm_decay_check,
    random_positive,
    random_transposition,
    sobolev_ratio,
)
from sobolev_lab.algebra import element_from_json
from sobolev_lab.certify import _RatioEngine, worker_count
from sobolev_lab.functions import power, xlogx

LIGHT = OptimizerBudget(restarts=6, iterations=400, seed=0)


# -- the ratio -----------------------------------------------------------------

def test_ratio_of_depolarizer_is_at_least_one():
    alg = WeightedAlgebra.full_matrix(3)
    A = depolarizing(ConditionalExpectation.full_average(alg))
    for s in range(25):
        rho = random_positive(alg, floor=1e-3, seed=make_rng(60, s))
        assert sobolev_ratio(A, xlogx(), rho) >= 1.0 - 1e-8


def test_ratio_of_depolarizer_dominates_p():
    alg = WeightedAlgebra.block_sites(4, 2)
    A = depolarizing(ConditionalExpectation.full_average(alg))
    p = 1.5
    for s in range(25):
        rho = random_positive(alg, floor=1e-3, seed=make_rng(61, s))
        assert sobolev_ratio(A, power(p), rho) >= p - 1e-8


@given(c=st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=30, deadline=None)
def test_ratio_scale_invariance_for_powers(c):
    A = random_transposition(3)
    rho = random_positive(A.algebra, floor=1e-3, seed=9)
    base = sobolev_ratio(A, power(1.5), rho)
    assert sobolev_ratio(A, power(1.5), rho * c) == pytest.approx(base, abs=1e-10)


def test_ratio_rejects_fixed_points():
    A = random_transposition(3)
    rho = A.expectation.apply(random_positive(A.algebra, floor=1e-2, seed=1))
    with pytest.raises(DegenerateStateError):
        sobolev_ratio(A, power(1.5), rho.hermitian_part())


def test_ratio_near_the_identity_against_mpmath():
    # rho_s = 1 + 1e-5 x_s: entropy and Fisher form are ~1e-11 while their
    # terms are O(1); a 50-digit evaluation of the same float state
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    A = bernoulli_laplace(4, 2)
    m = A.algebra.n_sites
    rho = 1.0 + 1e-5 * np.random.default_rng(0).standard_normal(m)
    state = A.algebra.from_scalars(rho)
    r = [mp.mpf(float(v)) for v in rho]
    mean = mp.fsum(r) / m
    Lr = [mp.fsum(mp.mpf(float(A.site_matrix[s, t])) * r[t] for t in range(m))
          for s in range(m)]
    for f, F, dF in ((power(1.5), lambda t: t ** mp.mpf(1.5),
                      lambda t: mp.mpf(1.5) * mp.sqrt(t)),
                     (xlogx(), lambda t: t * mp.log(t), lambda t: mp.log(t) + 1)):
        entropy = mp.fsum(F(v) for v in r) / m - F(mean)
        fisher = mp.fsum(lv * dF(v) for lv, v in zip(Lr, r)) / m
        exact = float(fisher / entropy)
        assert sobolev_ratio(A, f, state) == pytest.approx(exact, rel=1e-9)


# -- the search engine -----------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("f", [power(1.5), xlogx()], ids=["power", "xlogx"])
@pytest.mark.parametrize("walk", ["rt3", "bl31"])
def test_engine_gradient_matches_finite_differences(walk, f, k):
    A = random_transposition(3) if walk == "rt3" else bernoulli_laplace(3, 1)
    Ak = ampliate_generator(A, k)
    engine = _RatioEngine(Ak, f, 1e-8)
    x = make_rng(70, k).standard_normal(2 * engine.m * k * k) * 0.5
    value, grad = engine.value_and_grad(x)
    state = AlgebraElement.from_stacked(Ak.algebra, engine.state(x))
    assert value == pytest.approx(sobolev_ratio(Ak, f, state.hermitian_part()),
                                  rel=1e-12)

    def central(i, h):
        e = np.zeros_like(x)
        e[i] = h
        return (engine.value_and_grad(x + e)[0]
                - engine.value_and_grad(x - e)[0]) / (2.0 * h)

    # Richardson extrapolation of the central difference, O(h^4)
    h = 1e-4
    fd = np.array([(4.0 * central(i, h / 2) - central(i, h)) / 3.0
                   for i in range(x.size)])
    assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(grad)


# -- brackets ------------------------------------------------------------------

def test_known_brackets():
    assert known_bracket(random_transposition(3), power(1.5)) == (1.5, 4.0)
    assert known_bracket(random_transposition(3), xlogx()) == (1.0, 4.0)
    assert known_bracket(bernoulli_laplace(3, 1), power(1.5)) == (0.75, 2.0)
    assert known_bracket(ring4_model(), power(1.5)) is None
    assert known_bracket(random_transposition(3), power(0.5)) is None


def ring4_model():
    from sobolev_lab import graph_laplacian
    W = np.zeros((4, 4))
    for i in range(4):
        W[i, (i + 1) % 4] = W[(i + 1) % 4, i] = 0.25
    return graph_laplacian(W)


# -- estimation ------------------------------------------------------------------

def test_estimate_lands_in_the_bracket():
    res = estimate_constant(random_transposition(3), power(1.5), budget=LIGHT)
    assert 1.5 - 1e-6 <= res.estimated_lambda <= 4.0 + 1e-6
    assert res.bracket == (1.5, 4.0)
    assert res.n_restarts == LIGHT.restarts


def test_estimate_witness_reproduces_the_value():
    res = estimate_constant(random_transposition(3), power(1.5), budget=LIGHT)
    A = random_transposition(3)
    rho = element_from_json(res.witness, A.algebra)
    again = sobolev_ratio(A, power(1.5), rho)
    assert abs(again - res.estimated_lambda) <= 1e-8 * (1.0 + abs(again))


def test_estimate_witness_reproduces_under_ampliation():
    from sobolev_lab import ampliate_generator
    res = estimate_constant(bernoulli_laplace(3, 1), power(1.25), ampliation=2,
                            budget=LIGHT)
    B = ampliate_generator(bernoulli_laplace(3, 1), 2)
    rho = element_from_json(res.witness, B.algebra)
    again = sobolev_ratio(B, power(1.25), rho)
    assert abs(again - res.estimated_lambda) <= 1e-8 * (1.0 + abs(again))
    assert res.ampliation == 2


def test_estimate_is_deterministic():
    a = estimate_constant(random_transposition(3), power(1.5), budget=LIGHT)
    b = estimate_constant(random_transposition(3), power(1.5), budget=LIGHT)
    assert a.estimated_lambda == b.estimated_lambda
    assert a.witness == b.witness
    assert a.restart_values == b.restart_values


def test_estimate_rejects_almost_nothing():
    res = estimate_constant(random_transposition(3), xlogx(), budget=LIGHT)
    assert res.n_rejected <= 0.01 * res.n_samples


@pytest.mark.parametrize("walk,f", [
    ("rt3", power(1.5)), ("rt3", xlogx()), ("bl31", power(1.25))],
    ids=["rt3-power1.5", "rt3-xlogx", "bl31-power1.25"])
def test_ampliated_estimate_is_not_above_the_unampliated(walk, f):
    # the k=1 states lift into the k=2 algebra with the same ratio
    A = random_transposition(3) if walk == "rt3" else bernoulli_laplace(3, 1)
    base = min(estimate_constant(A, f, budget=OptimizerBudget(
        restarts=LIGHT.restarts, iterations=LIGHT.iterations, seed=seed)
    ).estimated_lambda for seed in (0, 1))
    lifted = estimate_constant(A, f, ampliation=2, budget=LIGHT)
    assert lifted.estimated_lambda <= base * (1.0 + 1e-9)


def test_estimate_model_roundtrip():
    res = estimate_constant(bernoulli_laplace(3, 1), power(1.5), budget=LIGHT)
    rebuilt = model_from_spec(res.model)
    assert rebuilt.spec == res.model


# -- decay checks ------------------------------------------------------------------

def test_decay_slack_zero_at_time_zero():
    A = random_transposition(3)
    states = [random_positive(A.algebra, floor=1e-3, seed=s) for s in range(3)]
    rep = decay_check(A, power(1.5), 1.5, states, t_grid=(0.0,))
    assert rep.verdict == "pass"
    assert all(abs(r["slack"]) <= 1e-12 for r in rep.records)


def test_decay_with_tabulated_constants():
    A = random_transposition(3, matrix_dim=2)
    states = [random_positive(A.algebra, floor=1e-3, seed=make_rng(62, s))
              for s in range(10)]
    assert decay_check(A, power(1.5), 1.5, states).verdict == "pass"
    assert decay_check(A, xlogx(), 1.0, states).verdict == "pass"
    B = bernoulli_laplace(4, 2)
    states_b = [random_positive(B.algebra, floor=1e-3, seed=make_rng(63, s))
                for s in range(10)]
    assert decay_check(B, power(1.5), 0.75, states_b).verdict == "pass"


def test_fisher_decay_is_informational():
    A = random_transposition(3)
    states = [random_positive(A.algebra, floor=1e-3, seed=s) for s in range(3)]
    rep = fisher_decay_check(A, power(1.5), 1.5, states)
    assert rep.informational


def test_pnorm_decay_passes_for_the_walk():
    A = random_transposition(3)
    states = [random_positive(A.algebra, floor=1e-3, seed=make_rng(64, s))
              for s in range(10)]
    rep = pnorm_decay_check(A, 1.5, 0.75, states)
    assert rep.verdict == "pass"


def test_pnorm_decay_trivial_on_fixed_points():
    A = random_transposition(3)
    rho = A.expectation.apply(random_positive(A.algebra, floor=1e-2, seed=2))
    rep = pnorm_decay_check(A, 1.5, 0.75, [rho.hermitian_part()], t_grid=(0.0, 1.0))
    assert rep.verdict == "pass"
    assert all(abs(r["value"]) <= 1e-12 and abs(r["bound"]) <= 1e-12
               for r in rep.records)


def test_pnorm_decay_input_contracts():
    A = random_transposition(3)
    states = [random_positive(A.algebra, floor=1e-2, seed=3)]
    with pytest.raises(DomainError):
        pnorm_decay_check(A, 2.5, 0.5, states)
    with pytest.raises(ContractViolationError):
        pnorm_decay_check(A, 1.5, 1.0, states)  # 2 lam above the certified bound
    ring = ring4_model()
    ring_states = [random_positive(ring.algebra, floor=1e-2, seed=3)]
    rep = pnorm_decay_check(ring, 1.5, 0.2, ring_states, certified=0.4)
    assert rep.meta["certified"] == 0.4


# -- replayed lemmas ------------------------------------------------------------------

def test_pair_energy_bound_hand_oracle():
    """n = 2 scalar values (2, 0), p = 3/2: gap sqrt(2) - 1 under bound sqrt(2)/2."""
    alg = WeightedAlgebra.commutative(2)
    E = ConditionalExpectation.from_partition(alg, ((0, 1),))
    f = alg.from_scalars([2.0, 0.0])
    lhs = entropy_vs_subalgebra(power(1.5), f, E).value
    assert lhs == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)
    rhs = (1.0 / 8.0) * 2.0 * (2.0 - 0.0) * (2.0 ** 0.5 - 0.0)
    assert rhs == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)
    assert lhs <= rhs


@pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 1)])
def test_pair_energy_bound_sweep(n, k):
    rep = lemma_rtl_check(n=n, matrix_dim=k, p=1.5, trials=25, seed=0)
    assert rep.verdict == "pass"


def test_pair_energy_bound_p_domain():
    with pytest.raises(DomainError):
        lemma_rtl_check(p=2.5)


def test_martingale_replay_transposition():
    rep = martingale_recursion_replay("rt", 3, p=1.5, trials=50, seed=0)
    assert rep.verdict == "pass"
    parts = {r["part"] for r in rep.records}
    assert parts == {"conditioned", "averaged"}


def test_martingale_replay_occupancy():
    rep = martingale_recursion_replay("bl", 3, p=1.5, r=1, trials=50, seed=0)
    assert rep.verdict == "pass"


def test_martingale_replay_rejects_unknown_family():
    with pytest.raises(ContractViolationError):
        martingale_recursion_replay("ising", 3)


def test_constant_functions_sit_at_zero():
    # every term of the split vanishes on scalars
    A = random_transposition(3, matrix_dim=2)
    rho = A.algebra.scalar(0.7)
    assert abs(fisher_generator(A, power(1.5), rho)) <= 1e-14
    assert entropy_vs_subalgebra(power(1.5), rho, A.expectation).value <= 1e-14


# -- report plumbing --------------------------------------------------------------------

def test_report_verdict_follows_the_tolerance():
    records = [{"seed": 0, "slack": -0.5, "scale": 1.0}]
    rep = CheckReport.from_records("demo", records, 1.0, 0.0)
    assert rep.verdict == "pass"
    rep = CheckReport.from_records("demo", records, 0.1, 0.1)
    assert rep.verdict == "fail"
    assert rep.worst_slack == -0.5


def test_report_cannot_claim_pass_with_violations():
    with pytest.raises(ContractViolationError):
        CheckReport(check_id="demo", trials=1, tolerance=(0.0, 0.0),
                    records=({"seed": 0, "slack": -1.0, "scale": 1.0},),
                    verdict="pass")


def test_report_json_shape():
    rep = CheckReport.from_records("demo", [{"seed": 0, "slack": 0.1, "scale": 1.0}],
                                   1e-9, 0.0, meta={"note": "x"})
    payload = rep.to_json()
    assert payload["check"] == "demo"
    assert payload["tolerance"] == {"absolute": 1e-9, "relative": 0.0}
    assert payload["verdict"] == "pass"
    assert payload["meta"] == {"note": "x"}


def test_worker_count_env_override(monkeypatch):
    monkeypatch.setenv("SOBOLEV_LAB_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("SOBOLEV_LAB_THREADS", "0")
    assert worker_count() == 1
