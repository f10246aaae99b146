"""Reversible jump generators and conditional expectations at desk scale.

A generator is a site matrix L (x) id_{M_k} (the transposition and
occupancy walks, weighted graph Laplacians), a depolarizer id - E, or a
tensor of two generators.  Each form carries its own action, semigroup, gap,
gap eigenspace and fixed-point expectation (see GeneratorHandle), so none
needs a dense matrix to run; dense spectral data is a test reference only,
built below a hard coefficient-dimension budget.  All built-in
generators are self-adjoint for the weighted trace and positive
semidefinite.  Each action, semigroup and expectation is written once, on
the (g, k, k, *batch) block stacks of an element, and carries trailing batch
axes along; so the tensor and ampliation forms view a product stack as a
batch of factor stacks (see _on_factors).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .algebra import (AlgebraElement, WeightedAlgebra, ampliate_algebra,
                      check_spec, tensor_algebra, tensor_element)
from .entropy import difference_derivation_from_moves
from .errors import (AlgebraMismatchError, ContractViolationError,
                     NumericalContractError)

DEFAULT_GAP_TOL = 1e-9
# Dense (coeff_dim x coeff_dim) data is a test reference only, built within
# this budget; no run path needs it.
MAX_DENSE_COEFF_DIM = 4096


def _checked_spectrum(S, spec, copies=1, eig=True):
    """Eigendecomposition (lam, V) of a generator S in orthonormal
    coordinates, with the eigenvalues clipped at 0; its hermitian part
    instead when eig is false.

    Refuses a generator that is not self-adjoint for the weighted trace or
    has a negative mode.  Each entry of S stands for `copies` entries of the
    whole coefficient matrix (k^2 for a site matrix), so the defect and the
    norm it is measured against are those of the whole matrix.
    """
    r = math.sqrt(copies)
    defect = r * np.linalg.norm(S - S.conj().T)
    if defect > 1e-10 * (1.0 + r * np.linalg.norm(S)):
        raise NumericalContractError(
            "generator is not self-adjoint for the weighted trace "
            f"(defect {defect:.3e}, spec {spec!r})")
    S = 0.5 * (S + S.conj().T)
    if not eig:
        return S
    lam, V = np.linalg.eigh(S)
    scale = max(abs(float(lam[0])), abs(float(lam[-1])), 1e-30)
    if lam[0] < -1e-10 * scale:
        raise NumericalContractError(
            f"generator has a negative mode {lam[0]:.3e} (spec {spec!r})")
    return np.maximum(lam, 0.0), V


def _at_gap(lam, gap, tol):
    """Which eigenvalues lam lie above tol and at the gap."""
    return (lam > tol) & (lam <= gap * (1.0 + 1e-9) + 1e-12)


def _hermitian_basis(k):
    """A hermitian basis of M_k, lazily: the X- and Y-like pair of each
    off-diagonal, the diagonals E_aa - E_bb of neighbours, the identity."""
    one = np.eye(k, dtype=complex)
    for a, b in itertools.combinations(range(k), 2):
        e = np.outer(one[a], one[b])
        yield e + e.T
        yield 1j * (e.T - e)
    for a in range(k - 1):
        yield np.diag(one[a] - one[a + 1])
    yield one


def _matrix_by_application(algebra, ap):
    """Plain-coefficient matrix of a linear map, column by basis column."""
    D = algebra.coeff_dim
    T = np.zeros((D, D), dtype=complex)
    for g in range(D):
        e = algebra.unvec(np.eye(1, D, g)[0], orthonormal=False)
        T[:, g] = algebra.vec(ap(e), orthonormal=False)
    return T


class ConditionalExpectation:
    """tau-preserving idempotent positive projection onto a subalgebra;
    map_stacks maps the block stacks of an element, batch axes and all."""

    def __init__(self, algebra, map_stacks, kind="lifted", cells=None):
        self.algebra = algebra
        self.map_stacks = map_stacks
        self.kind = kind
        self.cells = cells

    @classmethod
    def from_partition(cls, algebra, cells):
        """Weighted averaging over the cells of a partition of the sites.

        Sites inside one cell must share a dim; the projected element repeats
        the mu-weighted block average across the cell, which preserves the
        weighted trace and fixes exactly the cell-constant elements.
        """
        cells = tuple(tuple(int(s) for s in cell) for cell in cells)
        flat = sorted(s for cell in cells for s in cell)
        if flat != list(range(algebra.n_sites)):
            raise ContractViolationError("cells must partition the site set")
        mu = np.asarray(algebra.weights, dtype=float)
        slots = algebra.site_slots
        plan = []  # (dim group, positions in its stack, normalized weights)
        for cell in cells:
            if len({slots[s][0] for s in cell}) != 1:
                raise ContractViolationError("sites averaged together must share one dim")
            w = mu[list(cell)]
            plan.append((slots[cell[0]][0], np.array([slots[s][1] for s in cell]),
                         w / w.sum()))

        def ap(stacks):
            out = [np.empty_like(a) for a in stacks]
            for g, pos, w in plan:
                cell = stacks[g][pos]
                out[g][pos] = (w @ cell.reshape(len(w), -1)).reshape(cell.shape[1:])
            return tuple(out)

        return cls(algebra, ap, kind="partition", cells=cells)

    @classmethod
    def full_average(cls, algebra):
        """Projection onto the scalars: x -> tau(x) 1."""
        mu, groups = np.asarray(algebra.weights), algebra.dim_groups

        def ap(stacks):
            tau = sum(mu[idx] @ np.trace(a, axis1=1, axis2=2).reshape(len(idx), -1) / k
                      for (k, idx), a in zip(groups, stacks)).reshape(stacks[0].shape[3:])
            return tuple(np.multiply.outer(np.eye(k), tau)[None].repeat(len(idx), axis=0)
                         for k, idx in groups)

        return cls(algebra, ap, kind="full")

    def apply(self, x):
        if x.algebra != self.algebra:
            raise AlgebraMismatchError("conditional expectation fed a foreign element")
        return AlgebraElement._of(self.algebra, self.map_stacks(x.stacks))


def _as_cells(E):
    """Partition view of an expectation when one exists, else None."""
    if E.kind == "partition":
        return E.cells
    if E.kind == "full" and all(d == 1 for d in E.algebra.dims):
        return (tuple(range(E.algebra.n_sites)),)
    return None


def site_apply(L, arr):
    """L acting on the site index of an (m, k, k, *batch) stack.

    L is applied to arr minus its mean block.  Rows of L sum to zero, so the
    result is the same, but a nearly constant stack keeps its digits.
    """
    m = arr.shape[0]
    centered = arr - arr.sum(axis=0) / m
    return (L @ centered.reshape(m, -1)).reshape(arr.shape)


# the axes of a factor-1 and of a factor-2 view of (n1, n2, k1, k2, k1, k2)
# product blocks, each with the axes that undo it
_VIEWS = [(v, tuple(np.argsort(v))) for v in ((0, 2, 4, 1, 3, 5), (1, 3, 5, 0, 2, 4))]


def _factor_plan(groups1, groups2, prod):
    """For factors with these dim groups and product algebra prod: per dim
    group of one factor, the (product dim group, (n1, n2) stack positions,
    split block shape (n1, n2, k1, k2, k1, k2)) of each dim group of the
    other; built with the generator."""
    slots, m2 = prod.site_slots, sum(len(idx) for _, idx in groups2)

    def pair(k1, sites1, k2, sites2):
        pos = np.array([[slots[s1 * m2 + s2][1] for s2 in sites2] for s1 in sites1])
        return slots[sites1[0] * m2 + sites2[0]][0], pos, pos.shape + (k1, k2, k1, k2)

    return ([[pair(*a, *b) for a in groups1] for b in groups2],
            [[pair(*a, *b) for b in groups2] for a in groups1])


def _on_factors(stacks, plan, map1=None, map2=None):
    """(map1 (x) map2) on the stacks of a product-algebra element.

    A product block of dim k1 k2 is a k1 x k1 array of k2 x k2 blocks, so
    the blocks of n1 factor-1 by n2 factor-2 sites, reshaped and transposed,
    are a factor-1 stack (n1, k1, k1) carrying (n2, k2, k2) as batch axes
    (before any of the product's), or the other way round.  map1 and map2
    (None is the identity) are called once per dim group of the other factor.
    """
    batch = stacks[0].shape[3:]
    tail = tuple(range(6, 6 + len(batch)))
    for fn, passes, (view, back) in zip((map1, map2), plan, _VIEWS):
        if fn is None:
            continue
        out = [np.empty(a.shape, dtype=complex) for a in stacks]
        for parts in passes:
            ys = fn(tuple(stacks[G][pos].reshape(split + batch).transpose(view + tail)
                          for G, pos, split in parts))
            for (G, pos, _), y in zip(parts, ys):
                out[G][pos] = y.transpose(back + tail).reshape(pos.shape + out[G].shape[1:])
        stacks = tuple(out)
    return stacks


def _check_moves(n_sites, moves):
    """Moves, (source site, target site, rate) triples, must come in
    reversible pairs and connect all n_sites configurations."""
    pairs = {(s, t) for s, t, _ in moves}
    for s, t in pairs:
        if (t, s) not in pairs:
            raise ContractViolationError("moves must come in reversible pairs")
    if len(_components(n_sites, moves)) != 1:
        raise ContractViolationError("configuration graph is not connected")


def _components(n_sites, moves):
    """Connected components of the graph of moves, as sorted site tuples in
    the order of their smallest sites."""
    neighbors = {}
    for s, t, _ in moves:
        neighbors.setdefault(s, []).append(t)
    unseen, cells = set(range(n_sites)), []
    while unseen:
        comp, stack = set(), [min(unseen)]
        while stack:
            x = stack.pop()
            if x not in comp:
                comp.add(x)
                stack.extend(neighbors.get(x, ()))
        unseen -= comp
        cells.append(tuple(sorted(comp)))
    return cells


class GeneratorHandle:
    """Self-adjoint positive generator of a trace-symmetric Markov semigroup.

    Three forms, told apart by the arguments:

    - site_matrix=L: L (x) id, block mixing with one scalar per site pair
      (rows summing to zero).  One cached eigendecomposition of the m x m
      site matrix serves gap() and semigroup_apply at any block dim.
    - factors=(A1, A2): A1 (x) id + id (x) A2 on the tensor-product algebra.
      The action and the semigroup act factor by factor, on the product
      stacks viewed as batches of factor stacks (see _on_factors); the gap
      is the smaller factor gap.
    - neither: the depolarizer id - E of the given expectation E, with
      semigroup E + e^{-t} (id - E) and gap 1.

    The fixed-point expectation is the one given; a generator built without
    one refuses .expectation.  Dense spectral data (plain_matrix, orth_matrix,
    spectral) is a test reference only, refused above MAX_DENSE_COEFF_DIM
    coefficients.
    """

    def __init__(self, algebra, *, site_matrix=None, factors=None,
                 expectation=None, moves=None, spec=None,
                 exact_gap=None, gap_tol=DEFAULT_GAP_TOL):
        if site_matrix is not None:
            site_matrix = np.asarray(site_matrix, dtype=float)
            m = algebra.n_sites
            if site_matrix.shape != (m, m):
                raise ContractViolationError("site matrix shape does not match the algebra")
            if algebra.uniform_dim is None:
                raise ContractViolationError("site-matrix generators need uniform dims")
            if np.max(np.abs(site_matrix.sum(axis=1))) > 1e-12 * (
                    1.0 + np.max(np.abs(site_matrix))):
                raise ContractViolationError(
                    "site matrix rows must sum to zero (constants are fixed)")
        elif factors is not None:
            factors = tuple(factors)
            if len(factors) != 2 or tensor_algebra(
                    factors[0].algebra, factors[1].algebra) != algebra:
                raise ContractViolationError(
                    "factors must be two generators whose tensor algebra is this one")
            self._plan = _factor_plan(factors[0].algebra.dim_groups,
                                      factors[1].algebra.dim_groups, algebra)
        elif expectation is None:
            raise ContractViolationError("a generator needs an action")
        self.algebra = algebra
        self.site_matrix = site_matrix
        self.factors = factors
        self._expectation = expectation
        self.moves = None if moves is None else tuple(moves)
        self.spec = spec
        self.exact_gap = exact_gap
        self.gap_tol = float(gap_tol)
        self._site_eig = None

    def apply(self, x):
        if x.algebra != self.algebra:
            raise AlgebraMismatchError("generator fed a foreign element")
        return AlgebraElement._of(self.algebra, self.map_stacks(x.stacks))

    def map_stacks(self, stacks):
        """The action on the block stacks of an element, batch axes and all."""
        if self.site_matrix is not None:
            return (site_apply(self.site_matrix, stacks[0]),)
        if self.factors is not None:
            A1, A2 = self.factors
            return tuple(a + b for a, b in zip(
                _on_factors(stacks, self._plan, map1=A1.map_stacks),
                _on_factors(stacks, self._plan, map2=A2.map_stacks)))
        return tuple(a - e for a, e in zip(stacks, self._expectation.map_stacks(stacks)))

    def plain_matrix(self):
        if self.algebra.coeff_dim > MAX_DENSE_COEFF_DIM:
            raise ContractViolationError(
                "dense spectral data refused: coefficient dimension "
                f"{self.algebra.coeff_dim} exceeds {MAX_DENSE_COEFF_DIM}")
        return _matrix_by_application(self.algebra, self.apply)

    def orth_matrix(self):
        """Matrix in the orthonormal coordinates; hermitian by self-adjointness."""
        s = self.algebra.scales
        return _checked_spectrum((s[:, None] * self.plain_matrix()) / s[None, :],
                                 self.spec, eig=False)

    def spectral(self):
        """Dense eigendecomposition (lam, V) of orth_matrix."""
        return _checked_spectrum(self.orth_matrix(), self.spec)

    def _site_spectral(self):
        """(lam, W, sigma) of the site matrix in tau-orthonormal site
        coordinates: with sigma = sqrt(mu), sigma L sigma^-1 = W diag(lam) W^T,
        symmetric because the moves are reversible."""
        if self._site_eig is None:
            sigma = np.sqrt(np.asarray(self.algebra.weights, dtype=float))
            S = (sigma[:, None] * self.site_matrix) / sigma[None, :]
            lam, W = _checked_spectrum(
                S, self.spec, copies=self.algebra.uniform_dim ** 2)
            self._site_eig = (lam, W, sigma)
        return self._site_eig

    def gap(self):
        if self.factors is not None:
            return min(A.gap() for A in self.factors)
        if self.site_matrix is None:
            return 1.0
        lam = self._site_spectral()[0]
        above = lam[lam > self.gap_tol]
        if above.size == 0:
            raise ContractViolationError("no spectrum above the kernel tolerance")
        return float(above[0])

    def gap_directions(self, limit):
        """At most limit hermitian tau-normalized x with E x = 0 and A x =
        gap x, from the form: gap site vectors (their sum, then all but the
        last) times a hermitian basis of M_k; hermitian units minus their
        expectation; or the directions (x) 1 of each factor at the gap."""
        alg = self.algebra
        if self.factors is not None:
            ones = [B.algebra.identity() for B in self.factors]
            found = (tensor_element(*ones[:i], x, *ones[i + 1:], alg)
                     for i, B in enumerate(self.factors)
                     if _at_gap(B.gap(), self.gap(), 0.0)
                     for x in B.gap_directions(limit))
        elif self.site_matrix is not None:
            lam, W, sigma = self._site_spectral()
            V = W[:, _at_gap(lam, self.gap(), self.gap_tol)]
            # the columns' sum leads: near the identity its ratio comes closer
            # to twice the gap than a single column's does (bl42 at k = 2)
            found = (AlgebraElement._of(alg, (np.multiply.outer(v / sigma, u),))
                     for v in [V.sum(axis=1), *V.T[:-1]]
                     for u in _hermitian_basis(alg.uniform_dim))
        else:
            units = (AlgebraElement(alg, [u if t == s else np.zeros((d, d))
                                          for t, d in enumerate(alg.dims)])
                     for s, k in enumerate(alg.dims) for u in _hermitian_basis(k))
            found = (x - self.expectation.apply(x) for x in units)
        norms = ((x, float(np.linalg.norm(alg.vec(x)))) for x in found)
        return list(itertools.islice(
            (x * (1.0 / n) for x, n in norms if n > 1e-10), limit))

    @property
    def expectation(self):
        """Projection onto the fixed-point subalgebra (kernel of the generator)."""
        if self._expectation is None:
            raise ContractViolationError(
                "this generator was built without its fixed-point expectation")
        return self._expectation


def semigroup_apply(A, t, x):
    """exp(-t A) x in the closed form of A's generator form; t must be >= 0.

    On a site-matrix generator it acts on the site index of the (m, k, k)
    stack as sigma^-1 W exp(-t lam) W^T sigma; on a depolarizer it is
    E x + e^{-t} (x - E x); on a tensor it is the product of the two
    commuting factor semigroups.
    """
    if t < 0:
        raise ContractViolationError("the semigroup runs forward in time")
    return AlgebraElement._of(A.algebra, _semigroup_stacks(A, t, x.stacks))


def _semigroup_stacks(A, t, stacks):
    """semigroup_apply on the block stacks of an element, batch axes and all."""
    if A.site_matrix is not None:
        lam, W, sigma = A._site_spectral()
        X, m = stacks[0], len(stacks[0])
        # W is real: view the contiguous complex rows as interleaved real and
        # imaginary parts, so both are carried by one real product
        Y = np.ascontiguousarray(sigma[:, None] * X.reshape(m, -1)).view(np.float64)
        Y = W @ (np.exp(-float(t) * lam)[:, None] * (W.T @ Y))
        out = Y.view(complex) / sigma[:, None]
        return (out.reshape(X.shape),)
    if A.factors is not None:
        A1, A2 = A.factors
        return _on_factors(stacks, A._plan,
                           lambda s: _semigroup_stacks(A1, t, s),
                           lambda s: _semigroup_stacks(A2, t, s))
    decay = math.exp(-float(t))
    return tuple(e + (a - e) * decay for a, e in
                 zip(stacks, A.expectation.map_stacks(stacks)))


# -- builders ------------------------------------------------------------------

def random_transposition(n, matrix_dim=1):
    """Transposition walk on permutations of n letters (ordered-pair average).

    The action on a function of permutations is the averaged difference over
    all ordered position pairs, which puts the spectral gap at 2 for every n.
    """
    if not 2 <= n <= 5:
        raise ContractViolationError("supported letter counts are 2..5")
    perms = list(itertools.permutations(range(1, n + 1)))
    index = {p: i for i, p in enumerate(perms)}
    m = len(perms)
    algebra = WeightedAlgebra.build([(p, matrix_dim) for p in perms])
    L = (n - 1.0) * np.eye(m)
    moves = []
    for s, p in enumerate(perms):
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                q = list(p)
                q[i], q[j] = q[j], q[i]
                t = index[tuple(q)]
                moves.append((s, t, 1.0 / n))
                if i < j:
                    L[s, t] -= 2.0 / n
    E = ConditionalExpectation.from_partition(algebra, (tuple(range(m)),))
    _check_moves(m, moves)
    spec = {"model": "random_transposition", "params": {"n": int(n)},
            "matrix_dim": int(matrix_dim)}
    return GeneratorHandle(algebra, site_matrix=L, expectation=E,
                           moves=moves, spec=spec, exact_gap=2.0)


def bernoulli_laplace(n, r, matrix_dim=1):
    """Occupancy-swap walk on r-subsets of n sites (unordered-pair average).

    Only pairs with exactly one occupied end move the configuration; the
    normalization by 1/n puts the spectral gap at 1 for every admissible r.
    """
    if n < 2 or not 1 <= r <= n - 1:
        raise ContractViolationError("occupancy must satisfy n >= 2, 1 <= r <= n-1")
    # C(n, r) >= n, so n bounds the count before it is computed
    if n > 70 or math.comb(n, r) > 70:
        raise ContractViolationError("configuration space too large for desk work")
    configs = list(itertools.combinations(range(1, n + 1), r))
    index = {c: i for i, c in enumerate(configs)}
    m = len(configs)
    algebra = WeightedAlgebra.build([(c, matrix_dim) for c in configs])
    L = np.zeros((m, m))
    moves = []
    for s, c in enumerate(configs):
        occ = set(c)
        cnt = 0
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if (i in occ) != (j in occ):
                    t = index[tuple(sorted(occ ^ {i, j}))]
                    L[s, t] -= 1.0 / n
                    moves.append((s, t, 1.0 / n))
                    cnt += 1
        L[s, s] = cnt / n
    E = ConditionalExpectation.from_partition(algebra, (tuple(range(m)),))
    _check_moves(m, moves)
    spec = {"model": "bernoulli_laplace", "params": {"n": int(n), "r": int(r)},
            "matrix_dim": int(matrix_dim)}
    return GeneratorHandle(algebra, site_matrix=L, expectation=E,
                           moves=moves, spec=spec, exact_gap=1.0)


def depolarizing(expectation):
    """A = id - E for a conditional expectation E other than the identity;
    spectrum {0, 1}."""
    alg = expectation.algebra
    cells = _as_cells(expectation)
    if cells is not None and all(len(cell) == 1 for cell in cells):
        raise ContractViolationError(
            "E is the identity, so the depolarizer id - E is zero")
    moves = None
    if cells is not None and all(d == 1 for d in alg.dims):
        mu = alg.weights
        moves = []
        for cell in cells:
            wsum = sum(mu[s] for s in cell)
            for x in cell:
                for y in cell:
                    if y != x:
                        moves.append((x, y, mu[y] / wsum))
    spec = None
    if expectation.kind == "full":
        params = {"sites": alg.n_sites}
        mu = np.asarray(alg.weights, dtype=float)
        if np.max(np.abs(mu - 1.0 / alg.n_sites)) > 1e-15:
            params["weights"] = [float(w) for w in mu]
        k = alg.uniform_dim
        if k is not None:
            spec = {"model": "depolarizing", "params": params, "matrix_dim": int(k)}
    return GeneratorHandle(alg, expectation=expectation,
                           moves=moves, spec=spec, exact_gap=1.0)


def graph_laplacian(adjacency, site_weights=None, matrix_dim=1):
    """Weighted graph Laplacian A f(x) = sum_y w(x,y)/mu(x) (f(x) - f(y)).

    Symmetric nonnegative edge weights with empty diagonal are required:
    symmetry is exactly reversibility of the jump rates for the weighted
    trace.  The fixed-point expectation averages over connected components.
    """
    W = np.asarray(adjacency, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ContractViolationError("adjacency must be square")
    m = W.shape[0]
    if np.any(W < 0):
        raise ContractViolationError("edge weights must be nonnegative")
    if np.linalg.norm(W - W.T) > 1e-12 * (1.0 + np.abs(W).max()):
        raise ContractViolationError("edge weights must be symmetric (reversibility)")
    if np.any(np.diag(W) != 0):
        raise ContractViolationError("no self-loops")
    algebra = WeightedAlgebra.build([(i, matrix_dim) for i in range(m)],
                                    weights=site_weights)
    mu = np.asarray(algebra.weights, dtype=float)
    L = np.diag(W.sum(axis=1) / mu) - W / mu[:, None]
    moves = [(x, y, W[x, y] / mu[x])
             for x in range(m) for y in range(m) if W[x, y] > 0]
    E = ConditionalExpectation.from_partition(algebra, _components(m, moves))

    params = {"adjacency": [[float(w) for w in row] for row in W]}
    if site_weights is not None:
        params["site_weights"] = [float(w) for w in mu]
    spec = {"model": "graph", "params": params, "matrix_dim": int(matrix_dim)}
    return GeneratorHandle(algebra, site_matrix=L, expectation=E,
                           moves=moves, spec=spec, exact_gap=None)


# -- combination ---------------------------------------------------------------

def _ampliate_expectation(E, alg2, factor):
    """E (x) id_{M_factor} on alg2, the ampliation of E's algebra."""
    cells = _as_cells(E)
    if cells is not None:
        return ConditionalExpectation.from_partition(alg2, cells)
    plan = _factor_plan(E.algebra.dim_groups, ((factor, np.array([0])),), alg2)
    return ConditionalExpectation(
        alg2, lambda stacks: _on_factors(stacks, plan, map1=E.map_stacks))


def ampliate_generator(A, factor):
    """A (x) id on the algebra with every site tensored by a factor-dim identity.

    A site matrix keeps its site matrix, a depolarizer id - E becomes the
    depolarizer of E (x) id, and a tensor of A1 and A2 becomes the tensor of
    A1 and the ampliated A2 (the two algebras compare equal).
    """
    factor = int(factor)
    if factor < 1:
        raise ContractViolationError("ampliation factor must be >= 1")
    if factor == 1:
        return A
    alg2 = ampliate_algebra(A.algebra, factor)
    spec = None
    if A.spec is not None:
        spec = {"model": "ampliation", "factor": factor, "base": A.spec}
    kw = {"moves": A.moves, "spec": spec, "exact_gap": A.exact_gap}
    if A.factors is not None:
        A1, A2 = A.factors
        T = tensor_generator(A1, ampliate_generator(A2, factor))
        return GeneratorHandle(alg2, factors=T.factors,
                               expectation=T.expectation, **kw)
    E2 = _ampliate_expectation(A.expectation, alg2, factor)
    return GeneratorHandle(alg2, site_matrix=A.site_matrix, expectation=E2, **kw)


def tensor_generator(A1, A2):
    """A1 (x) id + id (x) A2 on the tensor-product algebra."""
    alg1, alg2 = A1.algebra, A2.algebra
    E1, E2 = A1.expectation, A2.expectation
    alg = tensor_algebra(alg1, alg2)
    plan = _factor_plan(alg1.dim_groups, alg2.dim_groups, alg)
    E = ConditionalExpectation(
        alg, lambda stacks: _on_factors(stacks, plan, E1.map_stacks, E2.map_stacks))
    spec = None
    if A1.spec is not None and A2.spec is not None:
        spec = {"model": "tensor", "factors": [A1.spec, A2.spec]}
    exact_gap = None
    if A1.exact_gap is not None and A2.exact_gap is not None:
        exact_gap = min(A1.exact_gap, A2.exact_gap)
    return GeneratorHandle(alg, factors=(A1, A2), expectation=E,
                           spec=spec, exact_gap=exact_gap)


# -- structure extraction ------------------------------------------------------

def _base_spec(A):
    spec = A.spec
    while spec is not None and spec.get("model") == "ampliation":
        spec = spec.get("base")
    return spec


def martingale_subalgebra_expectations(A, site_index=None):
    """Expectations onto the subalgebras that pin one coordinate of each label.

    For the permutation walk, position i is pinned to its letter; for the
    occupancy walk, site i is pinned to occupied/empty.  Returns one
    expectation per pinned position, or a single-entry list when site_index
    is given (0-based).
    """
    spec = _base_spec(A)
    if spec is None:
        raise ContractViolationError("no configuration structure on this generator")
    model = spec.get("model")
    if model == "random_transposition":
        n = spec["params"]["n"]
        key = lambda label, i: label[i]
    elif model == "bernoulli_laplace":
        n = spec["params"]["n"]
        key = lambda label, i: (i + 1) in label
    else:
        raise ContractViolationError(
            "martingale structure known only for the permutation and occupancy walks")
    positions = range(n) if site_index is None else [int(site_index)]
    out = []
    for i in positions:
        if not 0 <= i < n:
            raise ContractViolationError("position index out of range")
        groups = {}
        for s, label in enumerate(A.algebra.labels):
            groups.setdefault(key(label, i), []).append(s)
        cells = tuple(tuple(g) for _, g in sorted(groups.items()))
        out.append(ConditionalExpectation.from_partition(A.algebra, cells))
    return out


def difference_derivation(A):
    """Square root of the Dirichlet form of a jump generator, as a derivation."""
    if A.moves is None:
        raise ContractViolationError("no elementary-move structure on this generator")
    return difference_derivation_from_moves(A.algebra, A.moves)


# the fields of each model tag's spec besides "model" (see algebra.check_spec)
_MODEL_SPECS = {
    "random_transposition": {"params": {"n": "integer"},
                             "matrix_dim?": "integer"},
    "bernoulli_laplace": {"params": {"n": "integer", "r": "integer"},
                          "matrix_dim?": "integer"},
    "depolarizing": {"params": {"sites": "integer", "weights?": "numbers"},
                     "matrix_dim?": "integer"},
    "graph": {"params": {"adjacency": "square matrix",
                         "site_weights?": "numbers"},
              "matrix_dim?": "integer"},
    "tensor": {"factors": "array of two"},
    "ampliation": {"base": "object", "factor": "integer"},
}


def model_from_spec(spec):
    """Rebuild a generator from its declarative description (round-trips .spec).

    A spec with an unknown tag, or a missing, unknown or wrongly typed field,
    raises ContractViolationError.
    """
    model = spec.get("model") if isinstance(spec, dict) else None
    if not isinstance(model, str) or model not in _MODEL_SPECS:
        raise ContractViolationError(f"unknown model tag in spec {spec!r}")
    check_spec(spec, {"model": "string", **_MODEL_SPECS[model]})
    k = int(spec.get("matrix_dim", 1))
    params = spec.get("params", {})
    if model == "random_transposition":
        return random_transposition(int(params["n"]), matrix_dim=k)
    if model == "bernoulli_laplace":
        return bernoulli_laplace(int(params["n"]), int(params["r"]), matrix_dim=k)
    if model == "depolarizing":
        m = int(params["sites"])
        alg = WeightedAlgebra.build([(i, k) for i in range(m)],
                                    weights=params.get("weights"))
        return depolarizing(ConditionalExpectation.full_average(alg))
    if model == "graph":
        return graph_laplacian(params["adjacency"], params.get("site_weights"),
                               matrix_dim=k)
    if model == "tensor":
        f1, f2 = spec["factors"]
        return tensor_generator(model_from_spec(f1), model_from_spec(f2))
    return ampliate_generator(model_from_spec(spec["base"]), int(spec["factor"]))
