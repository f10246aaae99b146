"""Schur-multiplier operator integrals, kernels, and cone membership."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sobolev_lab import (
    ContractViolationError,
    TwoVariableKernel,
    WeightedAlgebra,
    cone_test,
    homogeneity_check,
    log_difference,
    make_rng,
    matrix_function,
    power_difference,
    random_positive,
    schur_q,
    superoperator_matrix,
)
from sobolev_lab.algebra import AlgebraElement, random_element
from sobolev_lab.doi import fisher_kernel
from sobolev_lab.functions import power, xlogx

seeds = st.integers(min_value=0, max_value=10_000)


def m2_state(d1, d2):
    alg = WeightedAlgebra.full_matrix(2)
    return AlgebraElement(alg, [np.diag([float(d1), float(d2)]).astype(complex)])


# -- schur_q ---------------------------------------------------------------------

def test_constant_kernel_acts_as_identity():
    alg = WeightedAlgebra.full_matrix(3)
    rho = random_positive(alg, seed=1)
    a = random_element(alg, seed=2)
    out = schur_q(TwoVariableKernel.constant(1.0), rho, rho, a)
    assert out.allclose(a, atol=1e-12)


def test_perspective_of_identity_is_left_multiplication():
    alg = WeightedAlgebra.full_matrix(3)
    rho = random_positive(alg, floor=0.1, seed=3)
    sigma = random_positive(alg, floor=0.1, seed=4)
    a = random_element(alg, seed=5)
    F = TwoVariableKernel.perspective(power(1.0))
    out = schur_q(F, rho, sigma, a)
    assert out.allclose(rho @ a, atol=1e-10)


def test_hand_schur_multiplication():
    # rho = sigma = diag(1, 2), f = x^2: F(1, 2) = 3 scales the off-diagonal
    rho = m2_state(1, 2)
    a = AlgebraElement(rho.algebra, [np.array([[0, 1], [1, 0]], dtype=complex)])
    out = schur_q(TwoVariableKernel.diff_quot1(power(2.0)), rho, rho, a)
    np.testing.assert_allclose(out.blocks[0], [[0, 3], [3, 0]], atol=1e-13)


def test_hermiticity_preserved_on_equal_states():
    alg = WeightedAlgebra.build([("a", 2), ("b", 3)])
    rho = random_positive(alg, floor=1e-2, seed=6)
    a = random_element(alg, seed=7, hermitian=True)
    for F in (log_difference(), power_difference(0.5), fisher_kernel(power(1.5))):
        out = schur_q(F, rho, rho, a)
        assert out.is_hermitian(tol=1e-12)


def test_cluster_continuity():
    """A 1e-12 split of a degenerate eigenvalue barely moves the output."""
    alg = WeightedAlgebra.full_matrix(3)
    a = random_element(alg, seed=8)
    F = TwoVariableKernel.diff_quot1(xlogx())
    out = []
    for bump in (0.0, 1e-12):
        rho = AlgebraElement(alg, [np.diag([1.0, 1.0 + bump, 2.0]).astype(complex)])
        out.append(schur_q(F, rho, rho, a))
    assert (out[0] - out[1]).norm() <= 1e-6 * a.norm()


# -- superoperator matrices --------------------------------------------------------

def test_superoperator_of_constant_one():
    alg = WeightedAlgebra.full_matrix(3)
    rho = random_positive(alg, seed=9)
    S = superoperator_matrix(TwoVariableKernel.constant(1.0), rho, rho)
    assert np.linalg.norm(S - np.eye(9)) <= 1e-12


def test_superoperator_spectrum_on_diagonal_states():
    rho = m2_state(1, 2)
    sigma = m2_state(3, 5)
    F = log_difference()
    S = superoperator_matrix(F, rho, sigma)
    expected = sorted(F(x, y) for x in (1, 2) for y in (3, 5))
    np.testing.assert_allclose(sorted(np.linalg.eigvalsh((S + S.conj().T) / 2)),
                               expected, atol=1e-12)


@given(s=seeds)
@settings(max_examples=20, deadline=None)
def test_inverse_kernel_inverts_the_matrix(s):
    alg = WeightedAlgebra.full_matrix(3)
    rho = random_positive(alg, floor=0.05, seed=s)
    F = log_difference()
    S = superoperator_matrix(F, rho, rho)
    S_inv = superoperator_matrix(F.inverse(), rho, rho)
    assert np.linalg.norm(S_inv - np.linalg.inv(S)) <= 1e-9 * np.linalg.norm(S_inv)


def test_inverse_kernel_roundtrip_on_elements():
    alg = WeightedAlgebra.full_matrix(4)
    rho = random_positive(alg, floor=0.05, seed=10)
    a = random_element(alg, seed=11)
    F = fisher_kernel(power(1.5))
    back = schur_q(F.inverse(), rho, rho, schur_q(F, rho, rho, a))
    assert (back - a).norm() <= 1e-9 * (1.0 + a.norm())


def test_daleckii_krein_identity():
    """[v, f(rho)] = Q_{f^[1]}([v, rho]) for the first difference quotient."""
    alg = WeightedAlgebra.full_matrix(4)
    for i, f in enumerate((power(2.0), power(1.5), xlogx())):
        for j in range(10):
            rho = random_positive(alg, floor=1e-3, seed=make_rng(20, i, j))
            v = random_element(alg, seed=make_rng(21, i, j), hermitian=True)
            f_rho = matrix_function(f, rho)
            lhs = v @ f_rho - f_rho @ v
            rhs = schur_q(TwoVariableKernel.diff_quot1(f), rho, rho,
                          v @ rho - rho @ v)
            assert (lhs - rhs).norm() <= 1e-8 * (1.0 + v.norm() * f_rho.norm())


# -- homogeneity -------------------------------------------------------------------

def test_homogeneity_of_power_fisher_kernels():
    grid = np.linspace(0.2, 3.0, 8)
    lambdas = (0.25, 0.5, 0.9, 1.0)
    for p in (1.25, 1.5, 1.75):
        assert homogeneity_check(fisher_kernel(power(p)), lambdas, grid)


def test_homogeneity_of_constant():
    assert homogeneity_check(TwoVariableKernel.constant(1.0), (0.5, 1.0),
                             np.linspace(0.5, 2.0, 5))


def test_homogeneity_fails_for_inverse_product():
    F = TwoVariableKernel("1/(xy)", lambda xs, ys: 1.0 / (xs[:, None] * ys[None, :]))
    assert not homogeneity_check(F, (0.5,), np.linspace(0.5, 2.0, 5))


# -- cone membership ----------------------------------------------------------------

def test_cone_log_difference_passes():
    rep = cone_test(log_difference(), side="plus", trials=40, seed=0)
    assert rep.verdict == "pass"
    assert rep.violations == []


def test_cone_power_difference_passes():
    rep = cone_test(power_difference(0.5), side="plus", trials=40, seed=0)
    assert rep.verdict == "pass"


def test_cone_search_finds_sum_kernel_counterexample():
    # x + y is not monotone under channel compression; the search should
    # produce witnesses (frozen outcome for this seed and trial count)
    F = TwoVariableKernel("x+y", lambda xs, ys: xs[:, None] + ys[None, :],
                          floor=0.0)
    rep = cone_test(F, side="plus", trials=200, seed=0)
    assert rep.worst_min_eig < -1e-6
    assert rep.verdict == "fail"
    assert len(rep.violations) > 0


def test_cone_report_json_shape():
    rep = cone_test(log_difference(), side="plus", trials=6, seed=3)
    payload = rep.to_json()
    assert set(payload) == {"kernel", "side", "trials", "dims", "min_eig",
                            "violations", "verdict"}
    assert payload["side"] == "plus"
    assert payload["trials"] == 6
    assert isinstance(payload["min_eig"], float)


def test_power_difference_exponent_domain():
    with pytest.raises(ContractViolationError):
        power_difference(1.0)
    with pytest.raises(ContractViolationError):
        power_difference(0.0)
