"""Reversible jump generators and conditional expectations at desk scale.

Generators are kept abstract (an action on algebra elements) with dense
spectral data materialized lazily and only below a hard coefficient-dimension
budget.  Builders cover the transposition walk on permutations, the
occupancy-swap walk, depolarizing maps and weighted graph Laplacians; all of
them are self-adjoint for the weighted trace and positive semidefinite.
"""

from __future__ import annotations

import csv
import itertools
import math
import threading

import numpy as np

from .algebra import (AlgebraElement, WeightedAlgebra, ampliate_algebra,
                      check_spec, element_from_factor_coeffs,
                      factor_coeff_matrix, tensor_algebra, trace)
from .entropy import difference_derivation_from_moves
from .errors import (AlgebraMismatchError, ContractViolationError,
                     NumericalContractError)

DEFAULT_GAP_TOL = 1e-9
MAX_DENSE_COEFF_DIM = 4096


def _check_dense_budget(algebra):
    if algebra.coeff_dim > MAX_DENSE_COEFF_DIM:
        raise ContractViolationError(
            "dense spectral data refused: coefficient dimension "
            f"{algebra.coeff_dim} exceeds {MAX_DENSE_COEFF_DIM}")


def _matrix_by_application(algebra, ap):
    """Plain-coefficient matrix of a linear map, column by basis column."""
    _check_dense_budget(algebra)
    D = algebra.coeff_dim
    T = np.zeros((D, D), dtype=complex)
    g = 0
    for s, k in enumerate(algebra.dims):
        for a in range(k):
            for b in range(k):
                blocks = [np.zeros((d, d), dtype=complex) for d in algebra.dims]
                blocks[s][a, b] = 1.0
                e = AlgebraElement(algebra, blocks)
                T[:, g] = algebra.vec(ap(e), orthonormal=False)
                g += 1
    return T


class ConditionalExpectation:
    """tau-preserving idempotent positive projection onto a subalgebra."""

    def __init__(self, algebra, apply_fn, kind="dense", cells=None, plain=None):
        self.algebra = algebra
        self._apply_fn = apply_fn
        self.kind = kind
        self.cells = cells
        self._plain = plain
        self._lock = threading.Lock()

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
        dims = algebra.dims
        plan = []
        for cell in cells:
            if len({dims[s] for s in cell}) != 1:
                raise ContractViolationError("sites averaged together must share one dim")
            idx = np.array(cell, dtype=int)
            w = mu[idx]
            plan.append((idx, w / w.sum()))

        def ap(x):
            blocks = [None] * algebra.n_sites
            for idx, w in plan:
                avg = np.tensordot(w, np.stack([x.blocks[s] for s in idx]), axes=(0, 0))
                for s in idx:
                    blocks[s] = avg
            return AlgebraElement(algebra, blocks)

        return cls(algebra, ap, kind="partition", cells=cells)

    @classmethod
    def full_average(cls, algebra):
        """Projection onto the scalars: x -> tau(x) 1."""

        def ap(x):
            return algebra.scalar(trace(x))

        return cls(algebra, ap, kind="full")

    @classmethod
    def from_matrix(cls, algebra, plain):
        plain = np.asarray(plain)
        D = algebra.coeff_dim
        if plain.shape != (D, D):
            raise ContractViolationError("expectation matrix has the wrong shape")

        def ap(x):
            v = algebra.vec(x, orthonormal=False)
            return algebra.unvec(plain @ v, orthonormal=False)

        return cls(algebra, ap, kind="dense", plain=plain)

    def apply(self, x):
        if x.algebra != self.algebra:
            raise AlgebraMismatchError("conditional expectation fed a foreign element")
        return self._apply_fn(x)

    def matrix(self):
        with self._lock:
            if self._plain is None:
                self._plain = _matrix_by_application(self.algebra, self._apply_fn)
            return self._plain

    def rebind(self, algebra):
        """Transport a structural expectation to an algebra with matching sites."""
        if algebra.n_sites != self.algebra.n_sites:
            raise ContractViolationError("rebind requires the same number of sites")
        if self.kind == "partition":
            return ConditionalExpectation.from_partition(algebra, self.cells)
        if self.kind == "full":
            return ConditionalExpectation.full_average(algebra)
        raise ContractViolationError("only structural expectations can be rebound")


def _as_cells(E):
    """Partition view of an expectation when one exists, else None."""
    if E.kind == "partition":
        return E.cells
    if E.kind == "full" and all(d == 1 for d in E.algebra.dims):
        return (tuple(range(E.algebra.n_sites)),)
    return None


def site_apply(L, arr):
    """L acting on the site index of an (m, k, k) stack.

    L is applied to arr minus its mean block.  Rows of L sum to zero, so the
    result is the same, but a nearly constant stack keeps its digits.
    """
    return np.tensordot(L, arr - arr.mean(axis=0), axes=(1, 0))


def _check_moves(n_sites, moves):
    """Moves, (source site, target site, rate) triples, must come in
    reversible pairs and connect all n_sites configurations."""
    pairs = {(s, t) for s, t, _ in moves}
    for s, t in pairs:
        if (t, s) not in pairs:
            raise ContractViolationError("moves must come in reversible pairs")
    seen, stack = {0}, [0]
    neighbors = {}
    for s, t, _ in moves:
        neighbors.setdefault(s, []).append(t)
    while stack:
        x = stack.pop()
        for y in neighbors.get(x, ()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != n_sites:
        raise ContractViolationError("configuration graph is not connected")


def _lifted_expectation(E1, E2, alg1, alg2, product_algebra):
    """E1 (x) E2 on the product algebra, structurally when possible."""
    c1, c2 = _as_cells(E1), _as_cells(E2)
    n2 = alg2.n_sites
    if c1 is not None and c2 is not None:
        cells = tuple(tuple(s1 * n2 + s2 for s1 in cell1 for s2 in cell2)
                      for cell1 in c1 for cell2 in c2)
        return ConditionalExpectation.from_partition(product_algebra, cells)
    if E1.kind == "full" and E2.kind == "full":
        return ConditionalExpectation.full_average(product_algebra)
    T1, T2 = E1.matrix(), E2.matrix()

    def ap(x):
        C = factor_coeff_matrix(x, alg1, alg2)
        return element_from_factor_coeffs(T1 @ C @ T2.T, alg1, alg2, product_algebra)

    return ConditionalExpectation(product_algebra, ap, kind="lifted")


class GeneratorHandle:
    """Self-adjoint positive generator of a trace-symmetric Markov semigroup.

    The action is whichever of site_matrix (block mixing with one scalar per
    site pair, rows summing to zero), a dense plain-coefficient matrix, or a
    python callable was given.  Dense spectral data is cached lazily behind
    a lock and refused above MAX_DENSE_COEFF_DIM coefficients.
    """

    def __init__(self, algebra, *, apply_fn=None, site_matrix=None, plain=None,
                 expectation=None, moves=None, spec=None,
                 exact_gap=None, gap_tol=DEFAULT_GAP_TOL):
        if apply_fn is None and site_matrix is None and plain is None:
            raise ContractViolationError("a generator needs an action")
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
        self.algebra = algebra
        self.site_matrix = site_matrix
        self._apply_fn = apply_fn
        self._plain = None if plain is None else np.asarray(plain)
        self._expectation = expectation
        self.moves = None if moves is None else tuple(moves)
        self.spec = spec
        self.exact_gap = exact_gap
        self.gap_tol = float(gap_tol)
        self._lock = threading.Lock()
        self._orth = None
        self._eig = None

    def apply(self, x):
        if x.algebra != self.algebra:
            raise AlgebraMismatchError("generator fed a foreign element")
        if self.site_matrix is not None:
            out = site_apply(self.site_matrix, np.stack(x.blocks))
            return AlgebraElement.from_stacked(self.algebra, out)
        if self._apply_fn is not None:
            return self._apply_fn(x)
        v = self.algebra.vec(x, orthonormal=False)
        return self.algebra.unvec(self._plain @ v, orthonormal=False)

    def plain_matrix(self):
        with self._lock:
            if self._plain is None:
                if self.site_matrix is not None:
                    _check_dense_budget(self.algebra)
                    k2 = self.algebra.uniform_dim ** 2
                    self._plain = np.kron(self.site_matrix, np.eye(k2))
                else:
                    self._plain = _matrix_by_application(self.algebra, self._apply_fn)
            return self._plain

    def orth_matrix(self):
        """Matrix in the orthonormal coordinates; hermitian by self-adjointness."""
        T = self.plain_matrix()
        with self._lock:
            if self._orth is None:
                s = self.algebra.scales
                S = (s[:, None] * T) / s[None, :]
                defect = np.linalg.norm(S - S.conj().T)
                if defect > 1e-10 * (1.0 + np.linalg.norm(S)):
                    raise NumericalContractError(
                        "generator is not self-adjoint for the weighted trace "
                        f"(defect {defect:.3e}, spec {self.spec!r})")
                self._orth = 0.5 * (S + S.conj().T)
            return self._orth

    def spectral(self):
        S = self.orth_matrix()
        with self._lock:
            if self._eig is None:
                _check_dense_budget(self.algebra)
                lam, V = np.linalg.eigh(S)
                scale = max(abs(float(lam[0])), abs(float(lam[-1])), 1e-30)
                if lam[0] < -1e-10 * scale:
                    raise NumericalContractError(
                        f"generator has a negative mode {lam[0]:.3e} "
                        f"(spec {self.spec!r})")
                self._eig = (np.maximum(lam, 0.0), V)
            return self._eig

    def gap(self):
        lam, _ = self.spectral()
        above = lam[lam > self.gap_tol]
        if above.size == 0:
            raise ContractViolationError("no spectrum above the kernel tolerance")
        return float(above[0])

    @property
    def expectation(self):
        """Projection onto the fixed-point subalgebra (kernel of the generator)."""
        if self._expectation is None:
            lam, V = self.spectral()
            V0 = V[:, lam <= self.gap_tol]
            P = V0 @ V0.conj().T
            s = self.algebra.scales
            plain = (P * s[None, :]) / s[:, None]
            with self._lock:
                if self._expectation is None:
                    self._expectation = ConditionalExpectation.from_matrix(
                        self.algebra, plain)
        return self._expectation


def semigroup_apply(A, t, x):
    """exp(-t A) x through the cached eigendecomposition; t must be >= 0."""
    if t < 0:
        raise ContractViolationError("the semigroup runs forward in time")
    lam, V = A.spectral()
    v = A.algebra.vec(x)
    decay = np.exp(-float(t) * lam)
    if np.isrealobj(V):
        # real parts apart, so that V is not cast to complex on every call
        def prop(u):
            return V @ (decay * (V.T @ u))
        w = prop(v.real) + 1j * prop(v.imag)
    else:
        w = V @ (decay * (V.conj().T @ v))
    return A.algebra.unvec(w)


def spectral_gap(A):
    """Smallest eigenvalue above the kernel tolerance."""
    return A.gap()


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
    """A = id - E for a conditional expectation E; spectrum {0, 1}."""
    alg = expectation.algebra

    def ap(x):
        return x - expectation.apply(x)

    moves = None
    if all(d == 1 for d in alg.dims):
        mu = alg.weights
        cells = _as_cells(expectation)
        if cells is not None:
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
    return GeneratorHandle(alg, apply_fn=ap, expectation=expectation,
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

    # connected components of the positive-weight graph
    unseen = set(range(m))
    cells = []
    while unseen:
        root = min(unseen)
        comp, stack = {root}, [root]
        while stack:
            x = stack.pop()
            for y in range(m):
                if W[x, y] > 0 and y not in comp:
                    comp.add(y)
                    stack.append(y)
        unseen -= comp
        cells.append(tuple(sorted(comp)))
    E = ConditionalExpectation.from_partition(algebra, cells)

    params = {"adjacency": [[float(w) for w in row] for row in W]}
    if site_weights is not None:
        params["site_weights"] = [float(w) for w in mu]
    spec = {"model": "graph", "params": params, "matrix_dim": int(matrix_dim)}
    return GeneratorHandle(algebra, site_matrix=L, expectation=E,
                           moves=moves, spec=spec, exact_gap=None)


# -- combination ---------------------------------------------------------------

def ampliate_generator(A, factor):
    """A (x) id on the algebra with every site tensored by a factor-dim identity."""
    factor = int(factor)
    if factor < 1:
        raise ContractViolationError("ampliation factor must be >= 1")
    if factor == 1:
        return A
    a1 = A.algebra
    alg2 = ampliate_algebra(a1, factor)
    mk = WeightedAlgebra.full_matrix(factor, label=("amp", factor))

    def lift(T):
        """The map T (x) id for a plain-coefficient matrix T on a1."""
        def ap(x):
            C = factor_coeff_matrix(x, a1, mk)
            return element_from_factor_coeffs(T @ C, a1, mk, alg2)
        return ap

    E1 = A.expectation
    if E1.kind == "partition":
        E2 = E1.rebind(alg2)
    else:
        E2 = ConditionalExpectation(alg2, lift(E1.matrix()), kind="lifted")
    spec = None
    if A.spec is not None:
        spec = {"model": "ampliation", "factor": factor, "base": A.spec}
    if A.site_matrix is not None:
        return GeneratorHandle(alg2, site_matrix=A.site_matrix, expectation=E2,
                               moves=A.moves, spec=spec, exact_gap=A.exact_gap)
    return GeneratorHandle(alg2, apply_fn=lift(A.plain_matrix()), expectation=E2,
                           moves=A.moves, spec=spec, exact_gap=A.exact_gap)


def tensor_generator(A1, A2):
    """A1 (x) id + id (x) A2 on the tensor-product algebra."""
    alg1, alg2 = A1.algebra, A2.algebra
    alg = tensor_algebra(alg1, alg2)
    T1 = A1.plain_matrix()
    T2 = A2.plain_matrix()

    def ap(x):
        C = factor_coeff_matrix(x, alg1, alg2)
        return element_from_factor_coeffs(T1 @ C + C @ T2.T, alg1, alg2, alg)

    E = _lifted_expectation(A1.expectation, A2.expectation, alg1, alg2, alg)
    spec = None
    if A1.spec is not None and A2.spec is not None:
        spec = {"model": "tensor", "factors": [A1.spec, A2.spec]}
    exact_gap = None
    if A1.exact_gap is not None and A2.exact_gap is not None:
        exact_gap = min(A1.exact_gap, A2.exact_gap)
    return GeneratorHandle(alg, apply_fn=ap, expectation=E,
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


def export_matrix_csv(A, path, orthonormal=True):
    """Dense generator matrix as CSV, real and imaginary parts interleaved."""
    M = A.orth_matrix() if orthonormal else A.plain_matrix()
    M = np.asarray(M, dtype=complex)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in M:
            out = []
            for z in row:
                out.append(f"{z.real:.12g}")
                out.append(f"{z.imag:.12g}")
            writer.writerow(out)
    return path
