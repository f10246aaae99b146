"""Constant estimation, decay checks, and the replayed proof inequalities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sobolev_lab import (
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
    tensor_generator,
)
from sobolev_lab.algebra import AlgebraElement, element_from_json, tensor_element
from sobolev_lab.certify import _ratio_and_gradient, _search_state, worker_count
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


MP_FUNCTIONS = (
    (power(1.5), lambda mp, t: t ** mp.mpf(1.5), lambda mp, t: mp.mpf(1.5) * mp.sqrt(t)),
    (xlogx(), lambda mp, t: t * mp.log(t), lambda mp, t: mp.log(t) + 1),
)


def _mp_fisher_and_entropy(mp, values, a_values, F, dF):
    """(I, D) of a state on equal-weight sites, or of a state on M_d with an
    action that commutes with unitary conjugation, from its site values or
    eigenvalues and the action's image of them."""
    n = len(values)
    mean = mp.fsum(values) / n
    fisher = mp.fsum(a * dF(mp, v) for a, v in zip(a_values, values)) / n
    entropy = mp.fsum(F(mp, v) for v in values) / n - F(mp, mean)
    return fisher, entropy


def _mp_depolarizer_terms(mp, rho):
    """Eigenvalues of a hermitian float matrix at the working precision,
    and their image under id - tau(.)1."""
    M = mp.matrix([[mp.mpc(complex(v).real, complex(v).imag) for v in row]
                   for row in rho])
    ev = [mp.re(e) for e in mp.eighe(M)[0]]
    mean = mp.fsum(ev) / len(ev)
    return ev, [v - mean for v in ev]


def _depolarizer(d):
    return depolarizing(ConditionalExpectation.full_average(
        WeightedAlgebra.full_matrix(d)))


def test_ratio_near_the_identity_against_mpmath():
    # states at spread 1e-5 about a multiple of the identity: entropy and
    # Fisher form are ~1e-10 while their terms are O(1); a 50-digit
    # evaluation of the same float state
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    A = bernoulli_laplace(4, 2)
    m = A.algebra.n_sites
    rho = 1.0 + 1e-5 * np.random.default_rng(0).standard_normal(m)
    r = [mp.mpf(float(v)) for v in rho]
    Lr = [mp.fsum(mp.mpf(float(A.site_matrix[s, t])) * r[t] for t in range(m))
          for s in range(m)]
    cases = [(A, A.algebra.from_scalars(rho), r, Lr)]
    # the depolarizers on M_2 and M_3: their ratio depends on the
    # eigenvalues only, and at these seeds tau(A(rho)) carries a roundoff
    # that f'(rho) would multiply without the projection
    for d, seed in ((2, 4), (2, 5), (3, 1), (3, 4)):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        state = (0.5 + 3.0 * rng.random()) * (np.eye(d) + 0.5e-5 * (X + X.conj().T))
        state = 0.5 * (state + state.conj().T)
        Ad = _depolarizer(d)
        cases.append((Ad, AlgebraElement(Ad.algebra, [state]),
                      *_mp_depolarizer_terms(mp, state)))
    for Ac, state, values, a_values in cases:
        for f, F, dF in MP_FUNCTIONS:
            fisher, entropy = _mp_fisher_and_entropy(mp, values, a_values, F, dF)
            assert fisher_generator(Ac, f, state) == pytest.approx(
                float(fisher), rel=1e-9)
            assert sobolev_ratio(Ac, f, state) == pytest.approx(
                float(fisher / entropy), rel=1e-9)


@pytest.mark.parametrize("f_index", [0, 1], ids=["power", "xlogx"])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("d", [2, 3])
def test_depolarizer_witness_against_mpmath(d, seed, f_index):
    # the k=1 search's witness on M_d: its reported ratio is its true ratio
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    f, F, dF = MP_FUNCTIONS[f_index]
    A = _depolarizer(d)
    res = estimate_constant(A, f, budget=OptimizerBudget(
        restarts=4, iterations=300, seed=seed))
    rho = element_from_json(res.witness, A.algebra).blocks[0]
    fisher, entropy = _mp_fisher_and_entropy(
        mp, *_mp_depolarizer_terms(mp, rho), F, dF)
    assert res.estimated_lambda == pytest.approx(float(fisher / entropy), rel=1e-9)


def test_ratio_eigendecomposes_rho_once(monkeypatch):
    # one eigendecomposition of rho, shared by entropy and Fisher form, and
    # one of E rho
    import sobolev_lab.algebra as algebra_mod
    calls = []
    original = algebra_mod.eigh

    def counted(x):
        calls.append(x)
        return original(x)

    monkeypatch.setattr(algebra_mod, "eigh", counted)
    A = random_transposition(3, 2)
    rho = random_positive(A.algebra, floor=1e-3, seed=4)
    sobolev_ratio(A, power(1.5), rho)
    assert len(calls) == 2


def test_ratio_and_gradient_makes_few_scalar_calls(monkeypatch):
    # at a state with no near Bregman pair, f, f' and f'' are called seven
    # times: f(rho), f(E rho) and f'(E rho) in the entropy, f'(rho) in the
    # Fisher form, f'' at the midpoints and f' on the eigenvalues once in the
    # divided differences, and f'(E rho) in the entropy's gradient
    from sobolev_lab.algebra import _positive_eigh
    from sobolev_lab.functions import BREGMAN_NEAR, ScalarFunctionDescriptor
    Ak = ampliate_generator(random_transposition(3), 2)
    x = make_rng(71, 4).standard_normal(2 * Ak.algebra.coeff_dim) * 0.5
    rho = _search_state(Ak.algebra, x)[1]
    [(_, lam, _)] = _positive_eigh(rho)
    [(_, mu, _)] = _positive_eigh(Ak.expectation.apply(rho).hermitian_part())
    gap = np.abs(lam[..., :, None] - mu[..., None, :])
    assert not (gap < BREGMAN_NEAR * mu[..., None, :]).any()
    calls = []
    original = ScalarFunctionDescriptor.eval_order

    def counted(self, x, order):
        calls.append(order)
        return original(self, x, order)

    monkeypatch.setattr(ScalarFunctionDescriptor, "eval_order", counted)
    _ratio_and_gradient(Ak, power(1.5), x)
    assert len(calls) <= 7


def _dep(d):
    return depolarizing(ConditionalExpectation.full_average(
        WeightedAlgebra.full_matrix(d)))


@pytest.mark.parametrize("f", [power(1.5), xlogx()], ids=["power", "xlogx"])
@pytest.mark.parametrize("build", [
    lambda: (random_transposition(3), _dep(2)),
    lambda: (random_transposition(2), bernoulli_laplace(3, 1)),
    lambda: (_dep(2), _dep(3)),
], ids=["rt3_x_dep2", "rt2_x_bl31", "dep2_x_dep3"])
def test_tensor_ratio_of_an_embedded_factor_state(build, f):
    # A2(1) = 0 and (E1 (x) E2)(rho1 (x) 1) = E1 rho1 (x) 1, so a factor
    # state embedded next to the identity keeps its ratio exactly; the same
    # holds for 1 (x) rho2
    A1, A2 = build()
    T = tensor_generator(A1, A2)
    rho1 = random_positive(A1.algebra, floor=1e-3, seed=make_rng(62, 1))
    rho2 = random_positive(A2.algebra, floor=1e-3, seed=make_rng(62, 2))
    for A, rho, embedded in [
            (A1, rho1, tensor_element(rho1, A2.algebra.identity(), T.algebra)),
            (A2, rho2, tensor_element(A1.algebra.identity(), rho2, T.algebra))]:
        assert sobolev_ratio(T, f, embedded) == pytest.approx(
            sobolev_ratio(A, f, rho), rel=1e-12, abs=0.0)


# -- the search objective --------------------------------------------------------

def _model(walk):
    if walk == "rt3":
        return random_transposition(3)
    if walk == "bl31":
        return bernoulli_laplace(3, 1)
    # a callable action; ampliated, a lifted expectation
    return depolarizing(ConditionalExpectation.full_average(
        WeightedAlgebra.commutative(3)))


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("f", [power(1.5), xlogx()], ids=["power", "xlogx"])
@pytest.mark.parametrize("walk", ["rt3", "bl31", "dep3"])
def test_engine_gradient_matches_finite_differences(walk, f, k):
    Ak = ampliate_generator(_model(walk), k)
    x = make_rng(70, k).standard_normal(2 * Ak.algebra.coeff_dim) * 0.5
    value, grad = _ratio_and_gradient(Ak, f, x)
    assert value == sobolev_ratio(Ak, f, _search_state(Ak.algebra, x)[1])

    def central(i, h):
        e = np.zeros_like(x)
        e[i] = h
        return (_ratio_and_gradient(Ak, f, x + e)[0]
                - _ratio_and_gradient(Ak, f, x - e)[0]) / (2.0 * h)

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


def test_nan_slack_fails_and_infinite_slack_passes():
    nan = {"seed": 0, "slack": math.nan, "scale": 1.0}
    rep = CheckReport.from_records("demo", [nan], 1.0, 1.0)
    assert rep.verdict == "fail"
    assert len(rep.violations) == 1
    # cone_test reports an infinite margin when no trial ran
    rep = CheckReport.from_records("demo", [dict(nan, slack=math.inf)], 0.0, 0.0)
    assert rep.verdict == "pass"


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


def test_search_ignores_the_old_thread_variable(monkeypatch):
    """SOBOLEV_LAB_THREADS no longer sizes a pool: the restarts run in the
    calling thread whatever it holds, a non-integer included."""
    A = random_transposition(3)
    budget = OptimizerBudget(restarts=2, iterations=5, seed=0)

    def run():
        return estimate_constant(A, power(1.5), ampliation=2, budget=budget).to_json()

    monkeypatch.delenv("SOBOLEV_LAB_THREADS", raising=False)
    expected = run()
    for value in ("3", "abc"):
        monkeypatch.setenv("SOBOLEV_LAB_THREADS", value)
        assert run() == expected
        assert worker_count() == 1
