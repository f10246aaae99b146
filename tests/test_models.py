"""Built-in generators: walks, depolarizers, graph Laplacians, semigroups."""

import csv

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
    spectral_gap,
    tensor_generator,
    trace,
)
from sobolev_lab.algebra import ampliate, random_element, tensor_element
from sobolev_lab.functions import power
from sobolev_lab.models import export_matrix_csv

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
    assert np.abs(np.imag(x.stacked())).max() > 0.1
    t = 0.7
    expected = np.tensordot(expm(-t * A.site_matrix), x.stacked(), axes=(1, 0))
    got = semigroup_apply(A, t, x).stacked()
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
    assert spectral_gap(T) == pytest.approx(1.0, abs=1e-9)


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
    A = random_transposition(3)
    with pytest.raises(ContractViolationError):
        martingale_subalgebra_expectations(A, site_index=3)
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


def test_export_matrix_csv_roundtrip(tmp_path):
    A = ring4()
    path = tmp_path / "generator.csv"
    export_matrix_csv(A, path)
    with open(path, newline="") as fh:
        rows = [[float(v) for v in row] for row in csv.reader(fh)]
    m = len(rows)
    M = np.array([[complex(row[2 * j], row[2 * j + 1]) for j in range(m)]
                  for row in rows])
    assert np.linalg.norm(M - A.orth_matrix()) <= 1e-9 * (1.0 + np.linalg.norm(M))


def test_site_matrix_rows_must_sum_to_zero():
    from sobolev_lab import GeneratorHandle
    with pytest.raises(ContractViolationError):
        GeneratorHandle(WeightedAlgebra.commutative(2),
                        site_matrix=[[1.0, -0.5], [-0.5, 1.0]])


def test_site_action_keeps_its_digits_near_constants():
    # near = 1 + e x is held exactly as 1 + (near - 1), and L kills the 1,
    # so the action is L (near - 1) to the last digit of the small part
    A = bernoulli_laplace(4, 2, 2)
    x = random_positive(A.algebra, floor=1e-3, seed=3)
    e = 1e-7
    near = A.algebra.identity() + x * e
    got = np.stack(A.apply(near).blocks)
    small = near.stacked() - np.eye(2)
    expected = np.tensordot(A.site_matrix, small, axes=(1, 0))
    assert np.allclose(got, expected, rtol=0, atol=1e-13 * e)
