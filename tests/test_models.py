"""Built-in generators: walks, depolarizers, graph Laplacians, semigroups."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sobolev_lab import (
    ConditionalExpectation,
    ContractViolationError,
    WeightedAlgebra,
    ampliate_generator,
    bernoulli_laplace,
    bregman,
    depolarizing,
    entropy_vs_subalgebra,
    graph_laplacian,
    inner,
    make_rng,
    martingale_subalgebra_expectations,
    model_from_spec,
    random_positive,
    random_transposition,
    semigroup_apply,
    tensor_generator,
    trace,
)
from sobolev_lab.algebra import ampliate, random_element, tensor_element
from sobolev_lab.functions import power
from sobolev_lab.models import DEFAULT_GAP_TOL

seeds = st.integers(min_value=0, max_value=10_000)


def ring4(w=0.25, k=1):
    W = np.zeros((4, 4))
    for i in range(4):
        W[i, (i + 1) % 4] = W[(i + 1) % 4, i] = w
    return graph_laplacian(W, matrix_dim=k)


# -- random transposition walk ---------------------------------------------------

def test_transposition_two_letters_is_twice_i_minus_e():
    A = random_transposition(2)
    np.testing.assert_allclose(A.plain_matrix(), [[1.0, -1.0], [-1.0, 1.0]],
                               atol=1e-13)
    lam = np.linalg.eigvalsh(A.orth_matrix())
    np.testing.assert_allclose(lam, [0.0, 2.0], atol=1e-12)


def test_transposition_gap_is_two():
    assert random_transposition(3).gap() == pytest.approx(2.0, abs=1e-9)


def test_transposition_kills_constants():
    A = random_transposition(3, matrix_dim=2)
    one = A.algebra.identity()
    assert A.apply(one).norm() <= 1e-12


def test_transposition_letter_range():
    with pytest.raises(ContractViolationError):
        random_transposition(6)
    with pytest.raises(ContractViolationError):
        random_transposition(1)


# -- occupancy walk ----------------------------------------------------------------

def test_occupancy_single_particle_is_i_minus_e():
    A = bernoulli_laplace(3, 1)
    assert A.algebra.n_sites == 3
    np.testing.assert_allclose(A.plain_matrix(),
                               np.eye(3) - np.full((3, 3), 1.0 / 3.0), atol=1e-13)
    # r and n - r give the same walk up to configuration labels
    B = bernoulli_laplace(3, 2)
    np.testing.assert_allclose(sorted(np.linalg.eigvalsh(B.orth_matrix())),
                               sorted(np.linalg.eigvalsh(A.orth_matrix())),
                               atol=1e-12)


def test_occupancy_row_sums_vanish():
    L = bernoulli_laplace(3, 1).plain_matrix()
    np.testing.assert_allclose(L.sum(axis=1), 0.0, atol=1e-13)


def test_occupancy_gap_against_dense_eigensolve():
    A = bernoulli_laplace(4, 2)
    lam = np.linalg.eigvalsh(0.5 * (A.orth_matrix() + A.orth_matrix().conj().T))
    oracle = float(min(v for v in lam if v > 1e-9))
    assert A.gap() == pytest.approx(oracle, abs=5e-10)


def test_occupancy_parameter_domain():
    with pytest.raises(ContractViolationError):
        bernoulli_laplace(3, 3)
    with pytest.raises(ContractViolationError):
        bernoulli_laplace(9, 4)  # 126 configurations


# -- depolarizing ---------------------------------------------------------------------

def test_depolarizing_recenters_at_the_trace():
    alg = WeightedAlgebra.full_matrix(3)
    A = depolarizing(ConditionalExpectation.full_average(alg))
    x = random_element(alg, seed=1)
    got = A.apply(x)
    want = x - alg.scalar(trace(x))
    assert got.allclose(want, atol=1e-12)


def test_depolarizing_is_idempotent():
    alg = WeightedAlgebra.block_sites(3, 2)
    A = depolarizing(ConditionalExpectation.full_average(alg))
    x = random_element(alg, seed=2)
    assert (A.apply(A.apply(x)) - A.apply(x)).norm() <= 1e-12
    lam = np.linalg.eigvalsh(A.orth_matrix())
    assert np.all((np.abs(lam) <= 1e-12) | (np.abs(lam - 1.0) <= 1e-12))


# -- graph Laplacian -----------------------------------------------------------------

def test_complete_graph_is_a_multiple_of_i_minus_e():
    n = 4
    W = np.ones((n, n)) - np.eye(n)
    A = graph_laplacian(W)
    lam = np.linalg.eigvalsh(A.orth_matrix())
    np.testing.assert_allclose(lam, [0.0] + [n * n] * (n - 1), atol=1e-10)


def test_two_cycle_eigenvalues():
    w = 0.7
    A = graph_laplacian([[0.0, w], [w, 0.0]])
    lam = np.linalg.eigvalsh(A.orth_matrix())
    np.testing.assert_allclose(lam, [0.0, 2.0 * w / 0.5], atol=1e-12)


def test_graph_rejects_asymmetric_weights():
    with pytest.raises(ContractViolationError):
        graph_laplacian([[0.0, 1.0], [0.5, 0.0]])


def test_graph_rejects_self_loops():
    with pytest.raises(ContractViolationError):
        graph_laplacian([[0.1, 1.0], [1.0, 0.0]])


@given(s1=seeds, s2=seeds)
@settings(max_examples=25, deadline=None)
def test_graph_is_tau_self_adjoint(s1, s2):
    A = graph_laplacian([[0.0, 0.3, 0.0], [0.3, 0.0, 0.5], [0.0, 0.5, 0.0]],
                        site_weights=(0.5, 0.3, 0.2), matrix_dim=2)
    x = random_element(A.algebra, seed=s1)
    y = random_element(A.algebra, seed=s2)
    assert abs(inner(A.apply(x), y) - inner(x, A.apply(y))) <= 1e-10


# -- generator contracts ----------------------------------------------------------------

@pytest.mark.parametrize("A", [random_transposition(3, 2), bernoulli_laplace(4, 2),
                               ring4(k=2)],
                         ids=["rt3", "bl42", "ring4"])
def test_generator_invariants(A):
    lam = np.linalg.eigvalsh(0.5 * (A.orth_matrix() + A.orth_matrix().conj().T))
    assert lam[0] >= -1e-10
    E = A.expectation
    one = A.algebra.identity()
    assert E.apply(one).allclose(one, atol=1e-12)
    rho = random_positive(A.algebra, seed=3)
    assert E.apply(rho).hermitian_part().min_eigenvalue() >= -1e-10
    x = random_element(A.algebra, seed=4)
    y = random_element(A.algebra, seed=5)
    lhs = E.apply(x @ E.apply(y))
    rhs = E.apply(x) @ E.apply(y)
    assert (lhs - rhs).norm() <= 1e-9 * (1.0 + rhs.norm())


@pytest.mark.parametrize("k", [1, 2])
def test_fixed_point_space_has_dim_k_squared(k):
    A = random_transposition(3, matrix_dim=k)
    lam = np.linalg.eigvalsh(0.5 * (A.orth_matrix() + A.orth_matrix().conj().T))
    assert int(np.sum(lam <= 1e-9)) == k * k


# -- semigroup ------------------------------------------------------------------------

def test_semigroup_at_time_zero():
    A = ring4()
    x = random_element(A.algebra, seed=6)
    assert semigroup_apply(A, 0.0, x).allclose(x, atol=1e-12)


def test_semigroup_rejects_negative_times():
    A = ring4()
    with pytest.raises(ContractViolationError):
        semigroup_apply(A, -0.1, A.algebra.identity())


@given(s=st.floats(min_value=0.0, max_value=2.0),
       t=st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=25, deadline=None)
def test_semigroup_law(s, t):
    A = random_transposition(3)
    x = random_element(A.algebra, seed=7)
    two_step = semigroup_apply(A, s, semigroup_apply(A, t, x))
    one_step = semigroup_apply(A, s + t, x)
    assert (two_step - one_step).norm() <= 1e-10 * (1.0 + x.norm())


def test_semigroup_matches_expm_of_the_site_matrix():
    # a non-hermitian complex element, so both the real and the imaginary
    # part of its coefficients go through the real eigenvectors
    from scipy.linalg import expm
    A = random_transposition(3, matrix_dim=2)
    x = random_element(A.algebra, seed=9)
    assert np.abs(np.imag(x.stacks[0])).max() > 0.1
    t = 0.7
    expected = np.tensordot(expm(-t * A.site_matrix), x.stacks[0], axes=(1, 0))
    got = semigroup_apply(A, t, x).stacks[0]
    assert np.abs(got - expected).max() <= 1e-12 * (1.0 + np.abs(expected).max())


def test_semigroup_converges_to_the_expectation():
    A = ring4(k=2)
    x = random_element(A.algebra, seed=8)
    t = 40.0
    drift = (semigroup_apply(A, t, x) - A.expectation.apply(x)).norm()
    assert drift <= np.exp(-A.gap() * t) * x.norm() + 1e-12


def test_semigroup_preserves_positivity():
    A = bernoulli_laplace(4, 2, matrix_dim=2)
    for s in range(20):
        rho = random_positive(A.algebra, seed=make_rng(50, s))
        out = semigroup_apply(A, 0.3, rho).hermitian_part()
        assert out.min_eigenvalue() >= -1e-10 * (1.0 + rho.norm())


def test_semigroup_is_completely_positive():
    # one ampliation step catches merely-positive evolutions
    A = ampliate_generator(random_transposition(3), 2)
    for s in range(20):
        rho = random_positive(A.algebra, seed=make_rng(51, s))
        out = semigroup_apply(A, 0.5, rho).hermitian_part()
        assert out.min_eigenvalue() >= -1e-10 * (1.0 + rho.norm())


# -- site spectra ---------------------------------------------------------------------

def _weighted_triangle_k2():
    W = [[0.0, 1.0, 0.5], [1.0, 0.0, 2.0], [0.5, 2.0, 0.0]]
    return graph_laplacian(W, site_weights=[0.2, 0.3, 0.5], matrix_dim=2)


SITE_MODELS = [_weighted_triangle_k2,
               lambda: ampliate_generator(random_transposition(3), 2)]


@pytest.mark.parametrize("build", SITE_MODELS, ids=["graph_weighted_k2", "rt3_amp2"])
def test_site_semigroup_matches_dense_expm(build):
    from scipy.linalg import expm
    A = build()
    x = random_element(A.algebra, seed=12)
    assert np.abs(x.stacks[0] - np.conj(np.swapaxes(x.stacks[0], 1, 2))).max() > 0.1
    for t in (0.0, 0.35, 3.0):
        v = A.algebra.vec(x, orthonormal=False)
        expected = A.algebra.unvec(expm(-t * A.plain_matrix()) @ v,
                                   orthonormal=False).stacks[0]
        got = semigroup_apply(A, t, x).stacks[0]
        assert np.abs(got - expected).max() <= 1e-12 * (1.0 + np.abs(expected).max())


@pytest.mark.parametrize("build", SITE_MODELS, ids=["graph_weighted_k2", "rt3_amp2"])
def test_site_gap_matches_dense_spectrum(build):
    A = build()
    lam = np.linalg.eigvalsh(A.orth_matrix())
    assert A.gap() == pytest.approx(float(lam[lam > DEFAULT_GAP_TOL][0]), abs=1e-12)


def test_rt5_k6_runs_without_dense_data():
    from scipy.linalg import expm
    from sobolev_lab.models import MAX_DENSE_COEFF_DIM
    A = random_transposition(5, matrix_dim=6)
    assert A.algebra.coeff_dim > MAX_DENSE_COEFF_DIM
    assert A.gap() == pytest.approx(2.0, abs=1e-9)
    x = random_element(A.algebra, seed=13)
    t = 0.4
    expected = np.tensordot(expm(-t * A.site_matrix), x.stacks[0], axes=(1, 0))
    got = semigroup_apply(A, t, x).stacks[0]
    assert np.abs(got - expected).max() <= 1e-12 * (1.0 + np.abs(expected).max())
    with pytest.raises(ContractViolationError, match="dense spectral data refused"):
        A.spectral()


@pytest.mark.parametrize("site_matrix,message", [
    ([[-1.0, 1.0], [1.0, -1.0]], "negative mode"),
    ([[1.0, -1.0], [0.0, 0.0]], "not self-adjoint"),
], ids=["negative_mode", "not_self_adjoint"])
@pytest.mark.parametrize("k", [1, 3])
def test_site_spectrum_refusals(site_matrix, message, k):
    from sobolev_lab import GeneratorHandle
    from sobolev_lab.errors import NumericalContractError
    A = GeneratorHandle(WeightedAlgebra.block_sites(2, k), site_matrix=site_matrix)
    with pytest.raises(NumericalContractError, match=message):
        A.gap()
    with pytest.raises(NumericalContractError, match=message):
        semigroup_apply(A, 0.1, A.algebra.identity())
    # the dense path refuses it with the same words
    with pytest.raises(NumericalContractError, match=message):
        A.spectral()


def _dep(alg):
    return depolarizing(ConditionalExpectation.full_average(alg))


def _rt3_x_dep2():
    return tensor_generator(random_transposition(3),
                            _dep(WeightedAlgebra.full_matrix(2)))


def _dep_mixed():
    # the depolarizer of a scalar site and an M_2 site
    return _dep(WeightedAlgebra.build([("a", 1), ("b", 2)]))


# the depolarizer and tensor forms, and the ampliations that map them to
# themselves: ampliate(dep) is a depolarizer, ampliate(tensor) a tensor;
# the mixed models put block dims 1 and 2 side by side in one factor
STRUCTURED_MODELS = {
    "dep_m3": lambda: _dep(WeightedAlgebra.full_matrix(3)),
    "dep_blocks42": lambda: _dep(WeightedAlgebra.block_sites(4, 2)),
    "dep2_amp3": lambda: ampliate_generator(_dep(WeightedAlgebra.full_matrix(2)), 3),
    "rt3_x_dep2": _rt3_x_dep2,
    "rt2_x_bl31": lambda: tensor_generator(random_transposition(2),
                                           bernoulli_laplace(3, 1)),
    "rt3_x_dep2_amp2": lambda: ampliate_generator(_rt3_x_dep2(), 2),
    "dep_mixed_amp2": lambda: ampliate_generator(_dep_mixed(), 2),
    "rt2_x_dep_mixed": lambda: tensor_generator(random_transposition(2), _dep_mixed()),
    "dep_mixed_x_dep_mixed": lambda: tensor_generator(_dep_mixed(), _dep_mixed()),
    "rt3_x_dep2_x_dep_mixed": lambda: tensor_generator(_rt3_x_dep2(), _dep_mixed()),
}


@pytest.mark.parametrize("tag", list(STRUCTURED_MODELS))
def test_structured_semigroup_matches_dense_expm(tag):
    from scipy.linalg import expm
    A = STRUCTURED_MODELS[tag]()
    x = random_element(A.algebra, seed=21)
    v = A.algebra.vec(x, orthonormal=False)
    for t in (0.3, 2.0):
        expected = expm(-t * A.plain_matrix()) @ v
        got = A.algebra.vec(semigroup_apply(A, t, x), orthonormal=False)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("tag", list(STRUCTURED_MODELS))
def test_structured_gap_matches_dense_spectrum(tag):
    A = STRUCTURED_MODELS[tag]()
    lam = np.linalg.eigvalsh(A.orth_matrix())
    assert A.gap() == pytest.approx(float(lam[lam > DEFAULT_GAP_TOL][0]), abs=1e-10)
    assert A.gap() == pytest.approx(A.exact_gap, abs=1e-10)


@pytest.mark.parametrize("tag", list(STRUCTURED_MODELS))
def test_structured_expectation_is_a_conditional_expectation(tag):
    A = STRUCTURED_MODELS[tag]()
    E = A.expectation
    alg = A.algebra
    rng = make_rng(22, 0)
    x, y, u, w = (random_element(alg, rng) for _ in range(4))
    ex = E.apply(x)
    scale = 1.0 + x.norm() + y.norm()
    assert (E.apply(ex) - ex).norm() <= 1e-12 * scale
    assert abs(trace(ex) - trace(x)) <= 1e-12 * scale
    assert E.apply(alg.identity()).allclose(alg.identity(), atol=1e-12)
    assert abs(inner(ex, y) - inner(x, E.apply(y))) <= 1e-12 * scale ** 2
    assert A.apply(ex).norm() <= 1e-12 * scale
    # a bimodule map over its range: E(a x b) = a E(x) b for a, b = E(.)
    a, b = E.apply(u), E.apply(w)
    lhs = E.apply(a @ x @ b)
    rhs = a @ ex @ b
    assert (lhs - rhs).norm() <= 1e-11 * (1.0 + rhs.norm())


def test_expectation_refused_when_none_was_given():
    from sobolev_lab import GeneratorHandle
    A = GeneratorHandle(WeightedAlgebra.block_sites(2, 1),
                        site_matrix=[[1.0, -1.0], [-1.0, 1.0]])
    with pytest.raises(ContractViolationError, match="fixed-point expectation"):
        A.expectation


@pytest.mark.parametrize("E", [
    ConditionalExpectation.from_partition(WeightedAlgebra.block_sites(3, 1),
                                          [[0], [1], [2]]),
    ConditionalExpectation.full_average(WeightedAlgebra.block_sites(1, 1)),
], ids=["singleton_cells", "one_scalar_site"])
def test_identity_expectation_has_no_depolarizer(E):
    with pytest.raises(ContractViolationError, match="identity"):
        depolarizing(E)


def _refuse_dense_data(monkeypatch):
    from sobolev_lab import GeneratorHandle

    def refuse(self):
        raise AssertionError("dense generator data built")

    monkeypatch.setattr(GeneratorHandle, "plain_matrix", refuse)
    monkeypatch.setattr(GeneratorHandle, "spectral", refuse)


@pytest.mark.parametrize("build", [lambda: random_transposition(4, matrix_dim=4),
                                   lambda: bernoulli_laplace(4, 2, matrix_dim=2),
                                   *STRUCTURED_MODELS.values()],
                         ids=["rt4_k4", "bl42_k2", *STRUCTURED_MODELS])
def test_decay_path_builds_no_dense_data(build, monkeypatch):
    from sobolev_lab import decay_check, fisher_decay_check
    from sobolev_lab.functions import xlogx

    _refuse_dense_data(monkeypatch)
    A = build()
    assert A.gap() == pytest.approx(A.exact_gap, abs=1e-9)
    states = [random_positive(A.algebra, floor=1e-3, seed=make_rng(52, s))
              for s in range(2)]
    for f in (power(1.5), xlogx()):
        assert decay_check(A, f, 0.5, states).verdict == "pass"
        fisher_decay_check(A, f, 0.5, states)


# the search runs on uniform block dims only
UNIFORM_MODELS = [tag for tag, build in STRUCTURED_MODELS.items()
                  if build().algebra.uniform_dim is not None]


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("tag", UNIFORM_MODELS)
def test_ratio_path_builds_no_dense_data(tag, k, monkeypatch):
    from sobolev_lab import OptimizerBudget, estimate_constant, sobolev_ratio
    from sobolev_lab.certify import _ratio_and_gradient
    from sobolev_lab.functions import xlogx

    _refuse_dense_data(monkeypatch)
    A = ampliate_generator(STRUCTURED_MODELS[tag](), k)
    rho = random_positive(A.algebra, floor=1e-3, seed=make_rng(53, k))
    x = make_rng(54, k).standard_normal(2 * A.algebra.coeff_dim)
    for f in (power(1.5), xlogx()):
        assert np.isfinite(sobolev_ratio(A, f, rho))
        value, grad = _ratio_and_gradient(A, f, x)
        assert np.isfinite(value) and np.all(np.isfinite(grad))
    # the whole search, its scan along the gap directions included
    res = estimate_constant(STRUCTURED_MODELS[tag](), power(1.5), k,
                            OptimizerBudget(restarts=1, iterations=5))
    assert np.isfinite(res.estimated_lambda)
    assert res.estimated_lambda == res.witness_ratio


WALKS = {"rt3": lambda: random_transposition(3), "rt4": lambda: random_transposition(4),
         "bl31": lambda: bernoulli_laplace(3, 1), "bl42": lambda: bernoulli_laplace(4, 2),
         "ring4_k2": lambda: ring4(k=2)}


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("tag", [*UNIFORM_MODELS, *WALKS])
def test_gap_directions_lie_in_the_gap_eigenspace(tag, k):
    from sobolev_lab.certify import MAX_DIRECTIONS
    A = ampliate_generator({**STRUCTURED_MODELS, **WALKS}[tag](), k)
    gap = A.gap()
    phis = A.gap_directions(MAX_DIRECTIONS)
    assert 1 <= len(phis) <= MAX_DIRECTIONS
    for phi in phis:
        for b in phi.blocks:
            defect = np.linalg.norm(b - b.conj().T)
            assert defect <= 1e-14 * (1.0 + np.linalg.norm(b))
        assert inner(phi, phi) == pytest.approx(1.0, abs=1e-12)
        assert A.expectation.apply(phi).norm() <= 1e-12
        assert (A.apply(phi) - phi * gap).norm() <= 1e-10


@pytest.mark.parametrize("build,factors", [
    (lambda: (random_transposition(3), _dep(WeightedAlgebra.full_matrix(2))), (2,)),
    (lambda: (_dep(WeightedAlgebra.full_matrix(2)),) * 2, (1, 2)),
], ids=["rt3_x_dep2_gaps_differ", "dep2_x_dep2_gaps_tie"])
def test_tensor_directions_come_from_the_factors_at_the_gap(build, factors):
    A1, A2 = build()
    one1, one2 = A1.algebra.identity(), A2.algebra.identity()
    of_factor = {1: [tensor_element(x, one2) for x in A1.gap_directions(8)],
                 2: [tensor_element(one1, y) for y in A2.gap_directions(8)]}
    got = tensor_generator(A1, A2).gap_directions(8)
    expected = [x for which in factors for x in of_factor[which]]
    assert len(got) == len(expected)
    for x, y in zip(got, expected):
        assert x.allclose(y, atol=1e-15)


# -- ampliation and tensoring ------------------------------------------------------------

def test_ampliation_factor_one_is_the_same_object():
    A = random_transposition(3)
    assert ampliate_generator(A, 1) is A


def test_ampliation_preserves_spectrum_with_multiplicity():
    A = ring4()
    B = ampliate_generator(A, 2)
    lam_a = np.linalg.eigvalsh(0.5 * (A.orth_matrix() + A.orth_matrix().conj().T))
    lam_b = np.linalg.eigvalsh(0.5 * (B.orth_matrix() + B.orth_matrix().conj().T))
    np.testing.assert_allclose(lam_b, np.sort(np.repeat(lam_a, 4)), atol=1e-10)
    assert B.gap() == pytest.approx(A.gap(), abs=1e-12)


def test_ampliation_commutes_with_the_lift():
    A = bernoulli_laplace(3, 1, matrix_dim=2)
    B = ampliate_generator(A, 3)
    x = random_element(A.algebra, seed=9)
    lhs = B.apply(ampliate(x, 3))
    rhs = ampliate(A.apply(x), 3)
    assert (lhs - rhs).norm() <= 1e-13 * (1.0 + x.norm())


def test_tensor_gap_is_the_minimum():
    A1 = random_transposition(3)  # gap 2
    A2 = depolarizing(ConditionalExpectation.full_average(WeightedAlgebra.full_matrix(2)))
    T = tensor_generator(A1, A2)  # gap 1
    assert T.gap() == pytest.approx(1.0, abs=1e-9)


def test_tensor_semigroup_factorizes_on_product_states():
    A1 = random_transposition(3)
    A2 = depolarizing(ConditionalExpectation.full_average(WeightedAlgebra.full_matrix(2)))
    T = tensor_generator(A1, A2)
    x = random_positive(A1.algebra, seed=10)
    y = random_positive(A2.algebra, seed=11)
    t = 0.7
    lhs = semigroup_apply(T, t, tensor_element(x, y, T.algebra))
    rhs = tensor_element(semigroup_apply(A1, t, x), semigroup_apply(A2, t, y),
                         T.algebra)
    assert (lhs - rhs).norm() <= 1e-9 * (1.0 + rhs.norm())


def test_tensor_expectation_factorizes():
    A1 = bernoulli_laplace(3, 1)
    A2 = depolarizing(ConditionalExpectation.full_average(WeightedAlgebra.full_matrix(2)))
    T = tensor_generator(A1, A2)
    x = random_positive(A1.algebra, seed=12)
    y = random_positive(A2.algebra, seed=13)
    lhs = T.expectation.apply(tensor_element(x, y, T.algebra))
    rhs = tensor_element(A1.expectation.apply(x), A2.expectation.apply(y), T.algebra)
    assert (lhs - rhs).norm() <= 1e-10 * (1.0 + rhs.norm())


# -- martingale structure -----------------------------------------------------------------

def test_pinned_expectations_are_conditional_expectations():
    A = random_transposition(3, matrix_dim=2)
    pinned = martingale_subalgebra_expectations(A)
    assert len(pinned) == 3
    one = A.algebra.identity()
    E = A.expectation
    x = random_element(A.algebra, seed=14)
    for Ei in pinned:
        assert Ei.apply(one).allclose(one, atol=1e-12)
        tower = E.apply(Ei.apply(x))
        assert (tower - E.apply(x)).norm() <= 1e-10 * (1.0 + x.norm())


def test_pinned_expectations_satisfy_martingale_split():
    A = bernoulli_laplace(3, 1, matrix_dim=2)
    f = power(1.5)
    sigma = A.expectation.apply(
        random_positive(A.algebra, floor=1e-2, seed=15)).hermitian_part()
    for Ei in martingale_subalgebra_expectations(A):
        for s in range(5):
            rho = random_positive(A.algebra, floor=1e-3, seed=make_rng(52, s))
            total = bregman(f, rho, sigma).value
            split = (entropy_vs_subalgebra(f, rho, Ei).value
                     + bregman(f, Ei.apply(rho).hermitian_part(), sigma).value)
            assert total == pytest.approx(split, abs=1e-10)


def test_pinned_expectation_index_checked():
    with pytest.raises(ContractViolationError):
        martingale_subalgebra_expectations(ring4())


# -- declarative specs ----------------------------------------------------------------------

@pytest.mark.parametrize("A", [
    random_transposition(3, 2),
    bernoulli_laplace(4, 2),
    ampliate_generator(random_transposition(3), 2),
    graph_laplacian([[0.0, 0.25], [0.25, 0.0]], site_weights=(0.5, 0.5)),
    tensor_generator(random_transposition(2), bernoulli_laplace(3, 1)),
], ids=["rt", "bl", "amp", "graph", "tensor"])
def test_model_spec_roundtrip_is_idempotent(A):
    B = model_from_spec(A.spec)
    assert B.spec == A.spec
    assert B.algebra.dims == A.algebra.dims


def test_model_spec_rejects_unknown_tags():
    with pytest.raises(ContractViolationError):
        model_from_spec({"model": "glauber", "params": {}})


def test_site_matrix_rows_must_sum_to_zero():
    from sobolev_lab import GeneratorHandle
    with pytest.raises(ContractViolationError):
        GeneratorHandle(WeightedAlgebra.block_sites(2, 1),
                        site_matrix=[[1.0, -0.5], [-0.5, 1.0]])


def test_site_action_keeps_its_digits_near_constants():
    # near = 1 + e x is held exactly as 1 + (near - 1), and L kills the 1,
    # so the action is L (near - 1) to the last digit of the small part
    A = bernoulli_laplace(4, 2, 2)
    x = random_positive(A.algebra, floor=1e-3, seed=3)
    e = 1e-7
    near = A.algebra.identity() + x * e
    got = np.stack(A.apply(near).blocks)
    small = near.stacks[0] - np.eye(2)
    expected = np.tensordot(A.site_matrix, small, axes=(1, 0))
    assert np.allclose(got, expected, rtol=0, atol=1e-13 * e)
