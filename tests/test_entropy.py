"""Bregman entropies, Fisher information, monotone metrics, derivations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sobolev_lab import (
    AlgebraMismatchError,
    ConditionalExpectation,
    ContractViolationError,
    DerivationHandle,
    DomainError,
    TwoVariableKernel,
    WeightedAlgebra,
    bregman,
    depolarizing,
    difference_derivation_from_moves,
    entropy_vs_subalgebra,
    fisher_derivation,
    fisher_generator,
    graph_laplacian,
    log_difference,
    make_rng,
    monotone_metric,
    power_difference,
    random_mixed_unitary,
    random_positive,
    trace,
)
from sobolev_lab.algebra import (AlgebraElement, _positive_eigh, matrix_function,
                                 random_element, stack_adjoint)
from sobolev_lab.entropy import block_bregman
from sobolev_lab.functions import bregman_gap, divided_diff_grid, power, xlogx

seeds = st.integers(min_value=0, max_value=10_000)


def two_point():
    return WeightedAlgebra.block_sites(2, 1)


def m4():
    return WeightedAlgebra.full_matrix(4)


# -- bregman -----------------------------------------------------------------

def test_bregman_vanishes_at_equal_arguments():
    rho = random_positive(m4(), floor=1e-2, seed=1)
    for f in (xlogx(), power(1.5)):
        assert bregman(f, rho, rho).value == pytest.approx(0.0, abs=1e-12)


def test_bregman_xlogx_two_point_oracle():
    """rho = (2, 0), sigma = (1, 1), uniform weights: the divergence is ln 2."""
    alg = two_point()
    rho = AlgebraElement(alg, np.reshape([2.0, 0.0], (-1, 1, 1)))
    sigma = AlgebraElement(alg, np.reshape([1.0, 1.0], (-1, 1, 1)))
    got = bregman(xlogx(), rho, sigma)
    assert got.value == pytest.approx(math.log(2.0), abs=1e-12)
    assert got.f == "xlogx"


def test_bregman_power_closed_form():
    # tau(rho^p - sigma^p - p (rho - sigma) sigma^(p-1))
    alg = m4()
    p = 1.5
    for s in range(10):
        rho = random_positive(alg, floor=1e-3, seed=make_rng(30, s))
        sigma = random_positive(alg, floor=1e-3, seed=make_rng(31, s))
        direct = (trace(matrix_function(power(p), rho))
                  - trace(matrix_function(power(p), sigma))
                  - p * trace((rho - sigma) @ matrix_function(power(p - 1.0), sigma))).real
        assert bregman(power(p), rho, sigma).value == pytest.approx(direct, abs=1e-10)


def test_bregman_refuses_singular_sigma():
    alg = two_point()
    rho = AlgebraElement(alg, np.reshape([1.0, 1.0], (-1, 1, 1)))
    sigma = AlgebraElement(alg, np.reshape([2.0, 0.0], (-1, 1, 1)))
    with pytest.raises(DomainError, match="faithful"):
        bregman(xlogx(), rho, sigma)


def test_bregman_input_checks():
    rho = random_positive(m4(), floor=0.1, seed=2)
    other = random_positive(WeightedAlgebra.full_matrix(3), floor=0.1, seed=3)
    with pytest.raises(AlgebraMismatchError):
        bregman(xlogx(), rho, other)


@given(s1=seeds, s2=seeds)
@settings(max_examples=40, deadline=None)
def test_bregman_nonnegative_and_faithful(s1, s2):
    alg = WeightedAlgebra.block_sites(2, 2)
    rho = random_positive(alg, floor=1e-3, seed=s1)
    sigma = random_positive(alg, floor=1e-3, seed=s2)
    d = bregman(xlogx(), rho, sigma).value
    assert d >= -1e-10
    if (rho - sigma).norm() > 1e-4:
        assert d > 1e-10


# -- entropy against a subalgebra ------------------------------------------------

def test_subalgebra_entropy_zero_on_the_range():
    alg = WeightedAlgebra.block_sites(4, 2)
    E = ConditionalExpectation.from_partition(alg, ((0, 1), (2, 3)))
    rho = E.apply(random_positive(alg, floor=1e-2, seed=5)).hermitian_part()
    assert entropy_vs_subalgebra(xlogx(), rho, E).value == pytest.approx(0.0, abs=1e-12)


def test_subalgebra_entropy_power_identity():
    alg = WeightedAlgebra.block_sites(4, 2)
    E = ConditionalExpectation.from_partition(alg, ((0, 1), (2, 3)))
    p = 1.75
    for s in range(10):
        rho = random_positive(alg, floor=1e-3, seed=make_rng(32, s))
        erho = E.apply(rho).hermitian_part()
        direct = (trace(matrix_function(power(p), rho))
                  - trace(matrix_function(power(p), erho))).real
        assert entropy_vs_subalgebra(power(p), rho, E).value == pytest.approx(
            direct, abs=1e-12)


def test_subalgebra_entropy_matches_bregman():
    # the linear Bregman term vanishes against the conditional expectation
    alg = WeightedAlgebra.block_sites(3, 2)
    E = ConditionalExpectation.from_partition(alg, ((0, 1), (2,)))
    for s in range(15):
        rho = random_positive(alg, floor=1e-3, seed=make_rng(33, s))
        erho = E.apply(rho).hermitian_part()
        for f in (xlogx(), power(1.25)):
            a = entropy_vs_subalgebra(f, rho, E).value
            b = bregman(f, rho, erho).value
            assert a == pytest.approx(b, abs=1e-10)


def test_subalgebra_entropy_on_a_singular_average():
    # every block diag(a_s, 0): E rho is singular, and the pairs against its
    # kernel contribute f(lam) - f(0), which needs no f'(0)
    from sobolev_lab import ampliate_generator, random_transposition
    A = ampliate_generator(random_transposition(3), 2)
    a = [0.5, 1.0, 1.5, 2.0, 3.0, 4.0]
    rho = AlgebraElement(A.algebra, [np.diag([v, 0.0]) for v in a])
    # the values of tau(f(rho)) - tau(f(E rho)) as two traces
    for f, expected in ((xlogx(), 0.18093054806389264),
                        (power(1.5), 0.18705729138802796)):
        got = entropy_vs_subalgebra(f, rho, A.expectation).value
        assert got == pytest.approx(expected, rel=0, abs=1e-12)


def _masked_block_bregman(f, lam, U, mu, V, kernel_rule):
    """block_bregman by boolean masks over the whole grid of pairs."""
    overlap = np.abs(stack_adjoint(U) @ V) ** 2
    X = np.broadcast_to(lam[..., :, None], overlap.shape)
    Y = np.broadcast_to(mu[..., None, :], overlap.shape)
    zero = (Y == 0.0) if kernel_rule else np.zeros(overlap.shape, dtype=bool)
    gaps = np.empty(overlap.shape)
    gaps[zero] = f(X[zero]) - f(np.zeros(1))
    gaps[~zero] = bregman_gap(f, X[~zero], Y[~zero])
    return np.sum(overlap * gaps, axis=(-2, -1))


@pytest.mark.parametrize("f", [power(1.5), xlogx()], ids=["power", "xlogx"])
@pytest.mark.parametrize("state", ["random", "near_identity", "singular_average"])
def test_block_bregman_equals_the_masked_route(f, state):
    # without a zero eigenvalue of E rho (or without the kernel rule) the
    # gaps come from the broadcast eigenvalue grids, bit for bit the same
    from sobolev_lab import ampliate_generator, random_transposition
    A = ampliate_generator(random_transposition(3), 2)
    if state == "singular_average":
        rho = AlgebraElement(A.algebra, [np.diag([v, 0.0])
                                         for v in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)])
    else:
        rho = random_positive(A.algebra, floor=1e-3, seed=5)
        if state == "near_identity":
            rho = A.algebra.identity() + rho * 0.01
    [(_, lam, U)] = _positive_eigh(rho)
    [(_, mu, V)] = _positive_eigh(A.expectation.apply(rho).hermitian_part())
    assert (mu == 0.0).any() == (state == "singular_average")
    for kernel_rule in (True, False):
        if state == "singular_average" and not kernel_rule and f.label == "xlogx":
            # f'(0) is undefined: both routes refuse
            for route in (block_bregman, _masked_block_bregman):
                with pytest.raises(DomainError):
                    route(f, lam, U, mu, V, kernel_rule)
            continue
        assert np.array_equal(block_bregman(f, lam, U, mu, V, kernel_rule),
                              _masked_block_bregman(f, lam, U, mu, V, kernel_rule))


def test_subalgebra_entropy_refuses_bad_input():
    alg = WeightedAlgebra.block_sites(2, 2)
    E = ConditionalExpectation.from_partition(alg, ((0, 1),))
    skew = AlgebraElement(alg, [np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2)])
    with pytest.raises(ContractViolationError):
        entropy_vs_subalgebra(power(1.5), skew, E)
    negative = AlgebraElement(alg, np.reshape([-1.0, 1.0], (-1, 1, 1)) * np.eye(2))
    with pytest.raises(ContractViolationError):
        entropy_vs_subalgebra(power(1.5), negative, E)


def test_martingale_additivity():
    """d(rho || sigma) = d_K(rho) + d(E rho || sigma) for sigma inside K."""
    alg = WeightedAlgebra.block_sites(6, 2)
    E = ConditionalExpectation.from_partition(alg, ((0, 1, 2), (3, 4, 5)))
    for s in range(20):
        rho = random_positive(alg, floor=1e-3, seed=make_rng(34, s))
        sigma = E.apply(random_positive(alg, floor=1e-2, seed=make_rng(35, s)))
        sigma = sigma.hermitian_part()
        for f in (xlogx(), power(1.5)):
            total = bregman(f, rho, sigma).value
            split = (entropy_vs_subalgebra(f, rho, E).value
                     + bregman(f, E.apply(rho).hermitian_part(), sigma).value)
            assert total == pytest.approx(split, abs=1e-10)


def test_subalgebra_entropy_is_the_infimum():
    alg = WeightedAlgebra.block_sites(4, 2)
    E = ConditionalExpectation.from_partition(alg, ((0, 1), (2, 3)))
    rho = random_positive(alg, floor=1e-3, seed=6)
    dk = entropy_vs_subalgebra(power(1.5), rho, E).value
    for s in range(12):
        sigma = E.apply(random_positive(alg, floor=1e-2, seed=make_rng(36, s)))
        assert dk <= bregman(power(1.5), rho, sigma.hermitian_part()).value + 1e-10


# -- Fisher information -----------------------------------------------------------

def test_fisher_zero_at_fixed_points():
    alg = WeightedAlgebra.block_sites(4, 2)
    A = depolarizing(ConditionalExpectation.full_average(alg))
    rho = A.expectation.apply(random_positive(alg, floor=1e-2, seed=7)).hermitian_part()
    assert abs(fisher_generator(A, power(1.5), rho)) <= 1e-12


def test_fisher_power_closed_form():
    # I^p_A(rho) = p tau(A(rho) rho^(p-1))
    alg = m4()
    A = depolarizing(ConditionalExpectation.full_average(alg))
    p = 1.5
    for s in range(10):
        rho = random_positive(alg, floor=1e-3, seed=make_rng(37, s))
        direct = p * trace(A.apply(rho) @ matrix_function(power(p - 1.0), rho)).real
        assert fisher_generator(A, power(p), rho) == pytest.approx(direct, abs=1e-10)


def test_fisher_nonnegative_sweep():
    alg = WeightedAlgebra.block_sites(3, 2)
    A = depolarizing(ConditionalExpectation.full_average(alg))
    for s in range(100):
        rho = random_positive(alg, floor=1e-4, seed=make_rng(38, s))
        assert fisher_generator(A, power(1.5), rho) >= -1e-10


def test_depolarizing_fisher_identity():
    """I_{I-E} splits into the two relative entropies across E."""
    alg = m4()
    A = depolarizing(ConditionalExpectation.full_average(alg))
    for s in range(20):
        rho = random_positive(alg, floor=1e-3, seed=make_rng(39, s))
        erho = A.expectation.apply(rho).hermitian_part()
        for f in (xlogx(), power(1.5)):
            lhs = fisher_generator(A, f, rho)
            rhs = bregman(f, rho, erho).value + bregman(f, erho, rho).value
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))


# -- derivations --------------------------------------------------------------------

def adjoint(x):
    return AlgebraElement(x.algebra, [b.conj().T for b in x.blocks])


def commutator_derivation(v):
    """delta(x) = v x - x v, its target the source algebra: each site is a
    move from itself to itself of rate 1."""
    alg = v.algebra
    sites = tuple(range(alg.n_sites))
    return DerivationHandle(alg, alg, lambda x: v @ x - x @ v, sites, sites,
                            (1.0,) * alg.n_sites, 1.0)


def test_difference_derivation_star_preserving():
    ring = np.zeros((4, 4))
    for i in range(4):
        ring[i, (i + 1) % 4] = ring[(i + 1) % 4, i] = 0.25
    A = graph_laplacian(ring)
    delta = difference_derivation_from_moves(A.algebra, A.moves)
    x = random_element(A.algebra, seed=12)
    star = delta.apply(adjoint(x))
    assert (star - adjoint(delta.apply(x))).norm() <= 1e-9


def test_zero_commutator_gives_zero_fisher():
    alg = m4()
    delta = commutator_derivation(alg.zero())
    rho = random_positive(alg, floor=1e-2, seed=13)
    assert fisher_derivation(delta, power(1.5), rho) == 0.0


def test_commutator_fisher_index_sum_oracle():
    """Diagonal rho: I = (1/d) sum f2(l_i, l_j) |v_ij|^2 (l_j - l_i)^2."""
    alg = m4()
    lam = np.array([0.3, 0.7, 1.1, 2.0])
    rho = AlgebraElement(alg, [np.diag(lam).astype(complex)])
    v = random_element(alg, seed=14, hermitian=True)
    delta = commutator_derivation(v)
    for f in (xlogx(), power(1.5)):
        got = fisher_derivation(delta, f, rho)
        want = 0.0
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                f2 = ((f.eval_order(lam[i], 1) - f.eval_order(lam[j], 1))
                      / (lam[i] - lam[j]))
                want += f2 * abs(v.blocks[0][i, j]) ** 2 * (lam[j] - lam[i]) ** 2
        want /= 4.0
        assert got == pytest.approx(want, rel=1e-10)


def test_derivation_fisher_matches_generator_fisher():
    ring = np.zeros((4, 4))
    for i in range(4):
        ring[i, (i + 1) % 4] = ring[(i + 1) % 4, i] = 0.25
    A = graph_laplacian(ring, matrix_dim=2)
    delta = difference_derivation_from_moves(A.algebra, A.moves)
    for s in range(10):
        rho = random_positive(A.algebra, floor=1e-3, seed=make_rng(40, s))
        for f in (xlogx(), power(1.75)):
            a = fisher_derivation(delta, f, rho)
            b = fisher_generator(A, f, rho)
            assert abs(a - b) <= 1e-8 * (1.0 + abs(b))


def test_commutator_fisher_equals_monotone_metric():
    alg = m4()
    rho = random_positive(alg, floor=1e-2, seed=15)
    v = random_element(alg, seed=16, hermitian=True)
    delta = commutator_derivation(v)
    xi = delta.apply(rho)
    f = power(1.5)
    F2 = TwoVariableKernel("f2", lambda xs, ys: divided_diff_grid(f, 2, xs, ys))
    gamma = monotone_metric(F2, rho, rho, xi, xi)
    assert fisher_derivation(delta, f, rho) == pytest.approx(gamma.real, abs=1e-10)
    assert abs(gamma.imag) <= 1e-12


# -- monotone metrics ----------------------------------------------------------------

def test_metric_with_constant_kernel_is_the_inner_product():
    alg = WeightedAlgebra.full_matrix(3)
    rho = random_positive(alg, floor=1e-2, seed=17)
    sigma = random_positive(alg, floor=1e-2, seed=18)
    a = random_element(alg, seed=19)
    b = random_element(alg, seed=20)
    from sobolev_lab import inner
    one = TwoVariableKernel("1", lambda xs, ys: np.ones((xs.size, ys.size)))
    got = monotone_metric(one, rho, sigma, a, b)
    assert got == pytest.approx(inner(a, b), abs=1e-12)


def test_metric_contracts_under_mixed_unitary_channels():
    for i in range(25):
        d = 3 + i % 2
        alg = WeightedAlgebra.full_matrix(d)
        ch = random_mixed_unitary(d, 1 + i % 3, make_rng(41, i))
        rho = random_positive(alg, floor=1e-3, seed=make_rng(42, i))
        sigma = random_positive(alg, floor=1e-3, seed=make_rng(43, i))
        a = random_element(alg, seed=make_rng(44, i), hermitian=True)
        for F in (log_difference(), power_difference(0.5)):
            before = monotone_metric(F, rho, sigma, a, a).real
            after = monotone_metric(F, ch.apply(rho).hermitian_part(),
                                    ch.apply(sigma).hermitian_part(),
                                    ch.apply(a), ch.apply(a)).real
            assert after <= before + 1e-8 * (1.0 + abs(before))


# -- data processing -------------------------------------------------------------------

def test_data_processing_with_scalar_reference():
    for i in range(30):
        d = 3 + i % 2
        alg = WeightedAlgebra.full_matrix(d)
        ch = random_mixed_unitary(d, 3, make_rng(45, i))
        rho = random_positive(alg, floor=1e-3, seed=make_rng(46, i))
        sigma = alg.scalar(0.5 + (i % 5) * 0.3)
        for f in (xlogx(), power(1.5)):
            before = bregman(f, rho, sigma).value
            after = bregman(f, ch.apply(rho).hermitian_part(),
                            ch.apply(sigma).hermitian_part()).value
            assert after <= before + 1e-9


# -- change of measure -------------------------------------------------------------------

def test_pointwise_fisher_and_entropy_reweighting():
    """c2 I_2 <= I_1 and d_1 <= c1 d_2 when c2 <= w1/w2 <= c1."""
    w2 = np.array([0.1, 0.2, 0.3, 0.4])
    w1 = np.array([0.2, 0.1, 0.35, 0.35])
    ratio = w1 / w2
    c1, c2 = float(ratio.max()), float(ratio.min())
    W = np.array([[0.0, 0.3, 0.0, 0.2],
                  [0.3, 0.0, 0.25, 0.0],
                  [0.0, 0.25, 0.0, 0.15],
                  [0.2, 0.0, 0.15, 0.0]])
    A2 = graph_laplacian(W, site_weights=w2, matrix_dim=2)
    delta = difference_derivation_from_moves(A2.algebra, A2.moves)
    alg2 = A2.algebra
    alg1 = WeightedAlgebra(alg2.labels, alg2.dims, tuple(w1))
    f = power(1.5)
    for s in range(25):
        rho = random_positive(alg2, floor=1e-3, seed=make_rng(47, s))
        sigma = random_positive(alg2, floor=1e-3, seed=make_rng(48, s))
        i2 = fisher_derivation(delta, f, rho)
        i1 = fisher_derivation(delta, f, rho, weights=w1)
        assert c2 * i2 <= i1 + 1e-10 * (1.0 + abs(i1))
        assert i1 <= c1 * i2 + 1e-10 * (1.0 + abs(i1))
        d2 = bregman(f, rho, sigma).value
        d1 = bregman(f, AlgebraElement(alg1, rho.blocks),
                     AlgebraElement(alg1, sigma.blocks)).value
        assert d1 <= c1 * d2 + 1e-10 * (1.0 + abs(d1))
        assert c2 * d2 <= d1 + 1e-10 * (1.0 + abs(d1))
