"""Weighted block algebras: trace, spectral calculus, ampliation, sampling."""

import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from sobolev_lab import (
    ContractViolationError,
    WeightedAlgebra,
    eigh,
    inner,
    make_rng,
    matrix_function,
    pair_trace,
    random_element,
    random_positive,
    trace,
)
from sobolev_lab.algebra import (
    AlgebraElement,
    ampliate,
    element_from_json,
    element_to_json,
    p_norm,
    stack_function,
)
from sobolev_lab.functions import power, xlogx

seeds = st.integers(min_value=0, max_value=10_000)


def mixed_algebra():
    return WeightedAlgebra.build([("a", 3), ("b", 2)], weights=(0.4, 0.6))


def adjoint(x):
    return AlgebraElement(x.algebra, [b.conj().T for b in x.blocks])


# -- construction -------------------------------------------------------------

def test_weights_must_sum_to_one():
    with pytest.raises(ContractViolationError):
        WeightedAlgebra.build([("a", 1), ("b", 1)], weights=(0.3, 0.3))


def test_weights_must_be_positive():
    with pytest.raises(ContractViolationError):
        WeightedAlgebra.build([("a", 1), ("b", 1)], weights=(1.0, 0.0))
    with pytest.raises(ContractViolationError):
        WeightedAlgebra((0,), (1,), (float("nan"),))


def test_default_weights_are_uniform():
    alg = WeightedAlgebra.block_sites(4, 2)
    assert alg.weights == (0.25, 0.25, 0.25, 0.25)
    assert alg.dims == (2, 2, 2, 2)


# -- trace and inner product ---------------------------------------------------

def test_trace_of_identity_is_one():
    assert trace(mixed_algebra().identity()) == pytest.approx(1.0, abs=1e-14)


def test_trace_single_site_block_normalized():
    # one site of dim 2: tau(diag(2, 0)) = (2 + 0)/2
    alg = WeightedAlgebra.full_matrix(2)
    x = AlgebraElement(alg, [np.diag([2.0, 0.0]).astype(complex)])
    assert trace(x) == pytest.approx(1.0, abs=1e-14)


def test_trace_weighted_two_points():
    # weights (1/4, 3/4), values (4, 0): weighted mean is 1
    alg = WeightedAlgebra.block_sites(2, 1, (0.25, 0.75))
    x = AlgebraElement(alg, np.reshape([4.0, 0.0], (-1, 1, 1)))
    assert trace(x) == pytest.approx(1.0, abs=1e-14)


@given(s1=seeds, s2=seeds)
@settings(max_examples=40, deadline=None)
def test_trace_is_tracial(s1, s2):
    alg = mixed_algebra()
    x = random_element(alg, seed=s1)
    y = random_element(alg, seed=s2)
    assert abs(pair_trace(x, y) - pair_trace(y, x)) <= 1e-12


def test_inner_of_identities():
    one = mixed_algebra().identity()
    assert inner(one, one) == pytest.approx(1.0, abs=1e-14)


def test_inner_orthogonal_matrix_units():
    alg = WeightedAlgebra.full_matrix(2)
    e01 = AlgebraElement(alg, [np.array([[0, 1], [0, 0]], dtype=complex)])
    e10 = AlgebraElement(alg, [np.array([[0, 0], [1, 0]], dtype=complex)])
    assert inner(e01, e10) == 0.0


@given(s=seeds)
@settings(max_examples=60, deadline=None)
def test_inner_is_positive(s):
    a = random_element(mixed_algebra(), seed=s)
    v = inner(a, a)
    assert v.real >= 0.0
    assert abs(v.imag) <= 1e-14 * (1.0 + v.real)


def test_vec_matches_inner():
    """The orthonormal coefficient vector reproduces the tau inner product."""
    alg = mixed_algebra()
    a = random_element(alg, seed=5)
    b = random_element(alg, seed=6)
    va, vb = alg.vec(a), alg.vec(b)
    assert np.vdot(va, vb) == pytest.approx(inner(a, b), abs=1e-13)
    back = alg.unvec(va)
    assert back.allclose(a, atol=1e-13)


# -- eigh ----------------------------------------------------------------------

def reconstruct(x):
    """U diag(lambda) U* per dim group from the eigenpairs of x."""
    return AlgebraElement._of(x.algebra, tuple(stack_function(U, lam)
                                               for _, lam, U in eigh(x)))


def test_eigh_identity_single_cluster():
    alg = WeightedAlgebra.full_matrix(3)
    [(_, lam, _)] = eigh(alg.identity())
    np.testing.assert_allclose(lam[0], [1.0, 1.0, 1.0], atol=1e-14)


def test_eigh_diagonal_three_clusters():
    alg = WeightedAlgebra.full_matrix(3)
    h = AlgebraElement(alg, [np.diag([1.0, 2.0, 3.0]).astype(complex)])
    [(_, lam, _)] = eigh(h)
    np.testing.assert_allclose(lam[0], [1.0, 2.0, 3.0], atol=1e-14)


@given(s=seeds)
@settings(max_examples=30, deadline=None)
def test_eigh_reconstruction(s):
    alg = WeightedAlgebra.full_matrix(6)
    h = random_element(alg, seed=s, hermitian=True)
    err = (reconstruct(h) - h).norm()
    assert err <= 1e-10 * (1.0 + h.norm())


def test_eigh_rejects_non_hermitian():
    alg = WeightedAlgebra.full_matrix(2)
    x = AlgebraElement(alg, [np.array([[0, 1], [0, 0]], dtype=complex)])
    with pytest.raises(ContractViolationError):
        eigh(x)


# -- matrix functions -----------------------------------------------------------

def test_matrix_function_identity_map():
    rho = random_positive(mixed_algebra(), seed=3)
    out = matrix_function(power(1.0), rho)
    assert out.allclose(rho, atol=1e-12)


def test_matrix_function_square_of_diagonal():
    alg = WeightedAlgebra.full_matrix(2)
    rho = AlgebraElement(alg, [np.diag([1.0, 2.0]).astype(complex)])
    out = matrix_function(power(2.0), rho)
    np.testing.assert_allclose(out.blocks[0], np.diag([1.0, 4.0]), atol=1e-13)


def test_matrix_function_p15_against_sqrtm():
    # independent oracle: rho^(3/2) = rho @ sqrtm(rho)
    alg = WeightedAlgebra.full_matrix(4)
    rho = random_positive(alg, seed=11)
    out = matrix_function(power(1.5), rho)
    oracle = rho.blocks[0] @ scipy.linalg.sqrtm(rho.blocks[0])
    assert np.linalg.norm(out.blocks[0] - oracle) <= 1e-9


def test_matrix_function_composition():
    # x^(3/4) = (x^(1/2))^(3/2); the outer argument stays PSD
    alg = WeightedAlgebra.full_matrix(5)
    rho = random_positive(alg, seed=12)
    inner_part = matrix_function(power(0.5), rho)
    composed = matrix_function(power(1.5), inner_part.hermitian_part())
    direct = matrix_function(power(0.75), rho)
    assert (composed - direct).norm() <= 1e-9 * (1.0 + direct.norm())


def test_matrix_function_rejects_genuine_negatives():
    alg = WeightedAlgebra.full_matrix(2)
    h = AlgebraElement(alg, [np.diag([1.0, -0.5]).astype(complex)])
    with pytest.raises(ContractViolationError):
        matrix_function(power(1.5), h)


# -- ampliation ------------------------------------------------------------------

def test_ampliate_k1_is_identity():
    x = random_element(mixed_algebra(), seed=7)
    assert ampliate(x, 1) is x


def test_ampliate_preserves_trace():
    x = random_element(mixed_algebra(), seed=8)
    assert ampliate(x, 3) .algebra.dims == (9, 6)
    assert trace(ampliate(x, 3)) == pytest.approx(trace(x), abs=1e-13)


def test_ampliate_spectrum_multiplicity():
    alg = WeightedAlgebra.full_matrix(3)
    h = random_element(alg, seed=9, hermitian=True)
    base = np.linalg.eigvalsh(h.blocks[0])
    lifted = np.linalg.eigvalsh(ampliate(h, 2).blocks[0])
    np.testing.assert_allclose(lifted, np.sort(np.repeat(base, 2)), atol=1e-12)


@given(s1=seeds, s2=seeds, k=st.integers(min_value=2, max_value=3))
@settings(max_examples=25, deadline=None)
def test_ampliate_star_homomorphism(s1, s2, k):
    alg = mixed_algebra()
    x = random_element(alg, seed=s1)
    y = random_element(alg, seed=s2)
    lhs = ampliate(x @ y, k)
    rhs = ampliate(x, k) @ ampliate(y, k)
    # equal up to the rounding of the two matmul orders
    assert (lhs - rhs).norm() <= 1e-13 * (1.0 + x.norm() * y.norm())
    assert ampliate(adjoint(x), k).allclose(adjoint(ampliate(x, k)), atol=0.0)


# -- norms ------------------------------------------------------------------------

def test_p_norm_of_identity():
    assert p_norm(mixed_algebra().identity(), 1.5) == pytest.approx(1.0, abs=1e-13)


def test_p_norm_homogeneous():
    x = random_element(mixed_algebra(), seed=21, hermitian=True)
    assert p_norm(x * 3.0, 1.5) == pytest.approx(3.0 * p_norm(x, 1.5), rel=1e-12)


# -- random states -----------------------------------------------------------------

def test_random_positive_is_psd():
    rho = random_positive(mixed_algebra(), seed=4)
    assert rho.min_eigenvalue() >= -1e-12


def test_random_positive_deterministic():
    a = random_positive(mixed_algebra(), rank_fraction=0.5, floor=1e-3, seed=42)
    b = random_positive(mixed_algebra(), rank_fraction=0.5, floor=1e-3, seed=42)
    assert a.allclose(b, atol=0.0)


def test_random_positive_mean_scale():
    """Empirical mean of tau over full-rank samples sits near the block dim."""
    alg = WeightedAlgebra.full_matrix(3)
    vals = [trace(random_positive(alg, seed=make_rng(0, 77, i))).real
            for i in range(300)]
    assert abs(np.mean(vals) - 3.0) < 0.5


def test_random_positive_rejects_bad_rank():
    with pytest.raises(ContractViolationError):
        random_positive(mixed_algebra(), rank_fraction=0.0, seed=0)


# -- serialization -------------------------------------------------------------------

def test_element_json_roundtrip():
    alg = mixed_algebra()
    x = random_element(alg, seed=13)
    back = element_from_json(element_to_json(x), alg)
    assert back.allclose(x, atol=0.0)


# -- one layout on mixed dims -----------------------------------------------------
#
# An element stores one (g, k, k) stack per block dim; these check the stacked
# operations against numpy run on each block by itself, on dims (3, 2) and on
# an interleaved (3, 2, 3, 2) whose groups are not contiguous runs of sites.

def interleaved_algebra():
    return WeightedAlgebra.build([("a", 3), ("b", 2), ("c", 3), ("d", 2)],
                                 weights=(0.1, 0.2, 0.3, 0.4))


def per_block_trace(alg, blocks):
    return sum(mu * np.trace(b) / k for mu, k, b in zip(alg.weights, alg.dims, blocks))


@pytest.mark.parametrize("make", [mixed_algebra, interleaved_algebra])
def test_blocks_and_stacks_describe_one_element(make):
    alg = make()
    blocks = [np.array(b) for b in random_element(alg, seed=31).blocks]
    x = AlgebraElement(alg, blocks)
    for (k, idx), arr in zip(alg.dim_groups, x.stacks):
        assert arr.shape == (len(idx), k, k)
        np.testing.assert_array_equal(arr, np.array([blocks[s] for s in idx]))
    same = AlgebraElement._of(alg, tuple(arr.copy() for arr in x.stacks))
    assert same.allclose(x, atol=0.0)
    for got, want in zip(same.blocks, blocks):
        np.testing.assert_array_equal(got, want)


def test_uniform_element_from_a_stack_equals_it_from_blocks():
    alg = WeightedAlgebra.block_sites(3, 2)
    arr = random_element(alg, seed=32).stacks[0].copy()
    x = AlgebraElement(alg, arr)
    assert x.allclose(AlgebraElement(alg, list(arr)), atol=0.0)
    arr[0, 0, 0] = 99.0  # the constructor copied its input
    assert x.blocks[0][0, 0] != 99.0
    with pytest.raises(ContractViolationError):
        AlgebraElement(alg, arr[:2])


@pytest.mark.parametrize("make", [mixed_algebra, interleaved_algebra])
def test_blocks_and_stacks_refuse_writes(make):
    x = random_element(make(), seed=33)
    with pytest.raises(ValueError):
        x.blocks[0][0, 0] = 1.0
    with pytest.raises(ValueError):
        x.stacks[0][0, 0, 0] = 1.0
    assert x.blocks is x.blocks


@pytest.mark.parametrize("make", [mixed_algebra, interleaved_algebra])
def test_stacked_operations_match_per_block_numpy(make):
    alg = make()
    x, y = random_element(alg, seed=34), random_element(alg, seed=35)
    bx, by = x.blocks, y.blocks
    cases = [
        (x + y, [a + b for a, b in zip(bx, by)]),
        (x - y, [a - b for a, b in zip(bx, by)]),
        (-x, [-a for a in bx]),
        (x * (2.0 - 0.5j), [(2.0 - 0.5j) * a for a in bx]),
        (0.25 * x, [0.25 * a for a in bx]),
        (x @ y, [a @ b for a, b in zip(bx, by)]),
        (x.hermitian_part(), [0.5 * (a + a.conj().T) for a in bx]),
    ]
    for got, want in cases:
        for g, w in zip(got.blocks, want):
            np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-14)
    plain = np.concatenate([a.reshape(-1) for a in bx])
    np.testing.assert_array_equal(alg.vec(x, orthonormal=False), plain)
    np.testing.assert_allclose(alg.vec(x), plain * alg.scales, rtol=1e-15)
    assert alg.unvec(alg.vec(x)).allclose(x, atol=1e-14)
    assert alg.unvec(plain, orthonormal=False).allclose(x, atol=0.0)
    assert trace(x) == pytest.approx(per_block_trace(alg, bx), abs=1e-14)
    want = sum(mu * np.sum(a.conj() * b) / k
               for mu, k, a, b in zip(alg.weights, alg.dims, bx, by))
    assert inner(x, y) == pytest.approx(want, abs=1e-14)
    assert pair_trace(x, y) == pytest.approx(
        per_block_trace(alg, [a @ b for a, b in zip(bx, by)]), abs=1e-14)


def test_partition_expectation_on_mixed_dims():
    from sobolev_lab import ConditionalExpectation
    alg = interleaved_algebra()
    E = ConditionalExpectation.from_partition(alg, ((0, 2), (1, 3)))
    x = random_element(alg, seed=36)
    b, mu = x.blocks, alg.weights
    avg3 = (mu[0] * b[0] + mu[2] * b[2]) / (mu[0] + mu[2])
    avg2 = (mu[1] * b[1] + mu[3] * b[3]) / (mu[1] + mu[3])
    for got, want in zip(E.apply(x).blocks, (avg3, avg2, avg3, avg2)):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)
    assert trace(E.apply(x)) == pytest.approx(trace(x), abs=1e-14)
    with pytest.raises(ContractViolationError):
        ConditionalExpectation.from_partition(alg, ((0, 1), (2, 3)))


@pytest.mark.parametrize("f", [power(1.5), xlogx()], ids=["power", "xlogx"])
def test_entropy_and_fisher_on_mixed_dims(f):
    from sobolev_lab import (ConditionalExpectation, depolarizing,
                             entropy_vs_subalgebra, fisher_generator)
    alg = interleaved_algebra()
    E = ConditionalExpectation.from_partition(alg, ((0, 2), (1, 3)))
    A = depolarizing(E)
    rho = random_positive(alg, floor=1e-2, seed=37)
    b, mu = rho.blocks, alg.weights
    avg3 = (mu[0] * b[0] + mu[2] * b[2]) / (mu[0] + mu[2])
    avg2 = (mu[1] * b[1] + mu[3] * b[3]) / (mu[1] + mu[3])
    e_blocks = (avg3, avg2, avg3, avg2)

    def tr_f(h):
        return np.sum(f.eval_order(np.linalg.eigvalsh(h), 0))

    def f_prime(h):
        lam, U = np.linalg.eigh(h)
        return (U * f.eval_order(lam, 1)) @ U.conj().T

    entropy = sum(m * (tr_f(r) - tr_f(e)) / k
                  for m, k, r, e in zip(mu, alg.dims, b, e_blocks))
    fisher = sum(m * np.trace((r - e) @ f_prime(r)).real / k
                 for m, k, r, e in zip(mu, alg.dims, b, e_blocks))
    assert entropy_vs_subalgebra(f, rho, E).value == pytest.approx(entropy, rel=1e-10)
    assert fisher_generator(A, f, rho) == pytest.approx(fisher, rel=1e-10)


# -- the spectral calculus on mixed dims ---------------------------------------

def per_block_eigh(b):
    return np.linalg.eigh(0.5 * (b + b.conj().T))


def test_eigh_groups_follow_the_dim_groups():
    alg = interleaved_algebra()
    h = random_element(alg, seed=38, hermitian=True)  # indefinite
    groups = eigh(h)
    assert [idx.tolist() for idx, _, _ in groups] == [[0, 2], [1, 3]]
    for (k, idx), (_, lam, U) in zip(alg.dim_groups, groups):
        assert lam.shape == (len(idx), k) and U.shape == (len(idx), k, k)
        for j, s in enumerate(idx):
            np.testing.assert_allclose(lam[j], np.linalg.eigvalsh(h.blocks[s]),
                                       rtol=0.0, atol=1e-13)
    assert min(float(lam.min()) for _, lam, _ in groups) < 0.0
    assert (reconstruct(h) - h).norm() <= 1e-12 * (1.0 + h.norm())


def test_matrix_function_on_mixed_dims():
    alg = interleaved_algebra()
    rho = random_positive(alg, floor=1e-2, seed=39)
    out = matrix_function(power(1.5), rho, order=1)
    for got, b in zip(out.blocks, rho.blocks):
        lam, U = per_block_eigh(b)
        np.testing.assert_allclose(got, (U * 1.5 * lam ** 0.5) @ U.conj().T,
                                   rtol=0.0, atol=1e-12)


def per_block_schur(rho_b, sigma_b, a_b):
    """Q_F(a) of the log-difference kernel on one block."""
    s, U = per_block_eigh(rho_b)
    t, V = per_block_eigh(sigma_b)
    M = np.subtract.outer(np.log(s), np.log(t)) / np.subtract.outer(s, t)
    return U @ (M * (U.conj().T @ a_b @ V)) @ V.conj().T


def test_schur_q_and_superoperator_matrix_on_mixed_dims():
    from sobolev_lab import log_difference, schur_q, superoperator_matrix
    alg = interleaved_algebra()
    rho = random_positive(alg, floor=1e-2, seed=40)
    sigma = random_positive(alg, floor=1e-2, seed=41)
    a = random_element(alg, seed=42)
    F = log_difference()
    want = [per_block_schur(r, s, b) for r, s, b in zip(rho.blocks, sigma.blocks, a.blocks)]
    for got, w in zip(schur_q(F, rho, sigma, a).blocks, want):
        np.testing.assert_allclose(got, w, rtol=0.0, atol=1e-12)
    S = superoperator_matrix(F, rho, sigma)
    expected = np.zeros_like(S)
    for site, (k, off) in enumerate(zip(alg.dims, alg.offsets)):
        for col in range(k * k):
            unit = np.zeros(k * k, dtype=complex)
            unit[col] = 1.0
            image = per_block_schur(rho.blocks[site], sigma.blocks[site], unit.reshape(k, k))
            expected[off:off + k * k, off + col] = image.reshape(-1)
    np.testing.assert_allclose(S, expected, rtol=0.0, atol=1e-12)


def test_fisher_derivation_on_mixed_dims():
    from sobolev_lab import difference_derivation_from_moves, fisher_derivation
    alg = interleaved_algebra()
    moves = [(0, 2, 1.0), (2, 0, 0.5), (1, 3, 2.0), (3, 1, 0.25)]
    delta = difference_derivation_from_moves(alg, moves)
    rho = random_positive(alg, floor=1e-2, seed=43)
    b, mu = rho.blocks, alg.weights
    Z = sum(mu[s] * r for s, _, r in moves)
    want = 0.0
    for s, t, r in moves:
        lam, U = per_block_eigh(b[s])
        nu, V = per_block_eigh(b[t])
        # f = x^1.5: f^[2](x, y) = (f'(x) - f'(y))/(x - y), f'(x) = 1.5 sqrt(x)
        M = 1.5 * np.subtract.outer(np.sqrt(lam), np.sqrt(nu)) / np.subtract.outer(lam, nu)
        w = U.conj().T @ (np.sqrt(Z / 2.0) * (b[s] - b[t])) @ V
        want += mu[s] * r / Z * np.sum(M * np.abs(w) ** 2) / alg.dims[s]
    assert fisher_derivation(delta, power(1.5), rho) == pytest.approx(want, rel=1e-10)


def uses(node, match, func=None):
    """(enclosing function, line) of each node below node that match accepts."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from uses(child, match, child.name)
            continue
        if match(child):
            yield func, child.lineno
        yield from uses(child, match, func)


def linalg_eig_uses(node):
    """(enclosing function, line) of each linalg.eigh / linalg.eigvalsh below node."""
    return uses(node, lambda n: (
        isinstance(n, ast.Attribute) and n.attr in ("eigh", "eigvalsh")
        and isinstance(n.value, ast.Attribute) and n.value.attr == "linalg"))


def dense_generator_calls(node):
    """(enclosing function, line) of each .spectral() / .orth_matrix() /
    .plain_matrix() call below node."""
    return uses(node, lambda n: (
        isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        and n.func.attr in ("spectral", "orth_matrix", "plain_matrix")))


def test_no_second_spectral_calculus():
    """Eigendecompositions go through algebra.eigh.  The other uses of
    numpy's eigh/eigvalsh in the package are listed here: the dense
    generator spectrum and the cone test's PSD check of a dense
    superoperator difference."""
    import sobolev_lab
    allowed = {("models", "_checked_spectrum"), ("doi", "cone_test")}
    found = []
    for path in sorted(Path(sobolev_lab.__file__).parent.glob("*.py")):
        if path.stem != "algebra":
            found += [f"{path.stem}.{func}: line {line}"
                      for func, line in linalg_eig_uses(ast.parse(path.read_text()))
                      if (path.stem, func) not in allowed]
    assert found == []


def test_package_imports_no_concurrency_module():
    """The search runs its restarts in the calling thread: at the
    benchmark's sizes a pool's threads took turns on the GIL and slowed the
    run down, so parallel restarts come back only with a measurement."""
    import sobolev_lab
    banned = ("threading", "concurrent", "multiprocessing")

    def imports_banned(n):
        if isinstance(n, ast.Import):
            names = [a.name for a in n.names]
        elif isinstance(n, ast.ImportFrom):
            names = [n.module or ""]
        else:
            return False
        return any(name.split(".")[0] in banned for name in names)

    found = []
    for path in sorted(Path(sobolev_lab.__file__).parent.glob("*.py")):
        found += [f"{path.stem}: line {line}"
                  for _, line in uses(ast.parse(path.read_text()), imports_banned)]
    assert found == []


ROOT = Path(__file__).resolve().parents[1]
# ROADMAP items 7 and 8 give these their callers: witness_replay reloads a
# witness through element_from_json, and the continuation in k lifts the
# k - 1 witness with ampliate
NO_CALLER_YET = {"ampliate", "element_from_json"}


def test_every_public_name_has_a_program_caller():
    """Each public function, class and method of src/sobolev_lab has a
    caller in src/sobolev_lab, scripts/ or perfbench/: code that only tests
    use does not stay in the package.

    A public name is a top-level def or class, or a method, whose name does
    not start with "_".  A caller is an ast.Name or ast.Attribute reference
    outside the name's own definition, or a name in perfbench/spans.py's
    LAYERS, which the benchmark's tracer looks up by string; __init__.py's
    re-exports are not callers.  Matching is by bare name, so any .apply
    anywhere counts as a caller of every apply method.
    """
    pkg = ROOT / "src" / "sobolev_lab"
    modules = [p for p in sorted(pkg.glob("*.py")) if p.name != "__init__.py"]
    refs = {}  # name -> [(path, line)]
    for path in (modules + sorted((ROOT / "scripts").glob("*.py"))
                 + sorted((ROOT / "perfbench").glob("*.py"))):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, (ast.Name, ast.Attribute)):
                name = n.id if isinstance(n, ast.Name) else n.attr
                refs.setdefault(name, []).append((path, n.lineno))
    spans = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    layers = next(ast.literal_eval(n.value) for n in spans.body
                  if isinstance(n, ast.Assign)
                  and any(getattr(t, "id", None) == "LAYERS" for t in n.targets))
    traced = {part for _, path in layers for part in path.split(".")}
    found = []
    for path in modules:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{item.name}", item) for item in node.body
                         if isinstance(item, ast.FunctionDef)]
            for qualname, d in defs:
                name = qualname.rsplit(".", 1)[-1]
                if (name.startswith("_") or name in traced
                        or name in NO_CALLER_YET):
                    continue
                if all(p == path and d.lineno <= line <= d.end_lineno
                       for p, line in refs.get(name, ())):
                    found.append(f"{path.stem}.{qualname}")
    assert found == []


def test_only_the_atomic_writer_opens_files_for_writing():
    """Artifacts are written by suite._atomic_write alone, which replaces the
    target with a finished file, so no reader sees a partial one."""
    import sobolev_lab

    def writes(n):
        if not isinstance(n, ast.Call):
            return False
        name = getattr(n.func, "attr", getattr(n.func, "id", None))
        if name in ("write_text", "write_bytes"):
            return True
        mode = n.args[1] if len(n.args) > 1 else next(
            (k.value for k in n.keywords if k.arg == "mode"), None)
        return (name in ("open", "fdopen") and isinstance(mode, ast.Constant)
                and any(c in str(mode.value) for c in "wax+"))

    found = []
    for path in sorted(Path(sobolev_lab.__file__).parent.glob("*.py")):
        found += [f"{path.stem}.{func}: line {line}"
                  for func, line in uses(ast.parse(path.read_text()), writes)
                  if (path.stem, func) != ("suite", "_atomic_write")]
    assert found == []


def test_dense_generator_data_stays_off_the_run_path():
    """A generator's dense matrices are a test reference only; every
    quantity of a run, the search's gap directions included, comes from the
    generator's own form.  Inside models, orth_matrix and spectral build on
    plain_matrix."""
    import sobolev_lab
    allowed = {("models", "orth_matrix"), ("models", "spectral")}
    found = []
    for path in sorted(Path(sobolev_lab.__file__).parent.glob("*.py")):
        found += [f"{path.stem}.{func}: line {line}"
                  for func, line in dense_generator_calls(ast.parse(path.read_text()))
                  if (path.stem, func) not in allowed]
    assert found == []
