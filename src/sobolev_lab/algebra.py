"""Weighted block-diagonal *-algebras and their tracial calculus.

The basic object is a finite direct sum of full matrix blocks, one block per
"site", together with a probability weight per site.  The normalized trace

    tau(x) = sum_w  mu_w * tr(x_w) / k_w

is a faithful tracial state for any choice of positive weights summing to one.
Everything downstream (entropies, Fisher forms, Schur multipliers, generator
spectra) is expressed against this trace and the orthonormal basis it induces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AlgebraMismatchError, ContractViolationError

DEFAULT_CLUSTER_TOL = 1e-8
_WEIGHT_TOL = 1e-12
_HERMITIAN_TOL = 1e-12
_NEGATIVE_EVAL_RTOL = 1e-10


def make_rng(seed, *key):
    """Deterministic generator; extra integers address independent substreams."""
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


@dataclass(frozen=True)
class WeightedAlgebra:
    """Direct sum of matrix blocks M_{k_w} with site weights defining tau."""

    labels: tuple
    dims: tuple
    weights: tuple

    def __post_init__(self):
        if not (len(self.labels) == len(self.dims) == len(self.weights)):
            raise ContractViolationError("labels, dims and weights must align")
        if len(self.dims) == 0:
            raise ContractViolationError("algebra needs at least one site")
        for k in self.dims:
            if int(k) != k or k < 1:
                raise ContractViolationError(f"block dim must be a positive integer, got {k}")
        w = np.asarray(self.weights, dtype=float)
        if np.any(w <= 0):
            raise ContractViolationError("site weights must be strictly positive")
        if abs(w.sum() - 1.0) > _WEIGHT_TOL * max(1.0, len(w)):
            raise ContractViolationError(f"site weights must sum to 1, got {w.sum()!r}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def build(sites, weights=None):
        """Build from [(label, dim)] pairs; weights default to uniform."""
        labels = tuple(s[0] for s in sites)
        dims = tuple(int(s[1]) for s in sites)
        if weights is None:
            weights = [1.0 / len(sites)] * len(sites) if sites else []
        return WeightedAlgebra(labels, dims, tuple(float(x) for x in weights))

    @staticmethod
    def full_matrix(d, label="q0"):
        """Single-site algebra M_d with weight one."""
        return WeightedAlgebra((label,), (int(d),), (1.0,))

    @staticmethod
    def commutative(n, weights=None):
        """n scalar sites (functions on n points)."""
        return WeightedAlgebra.build([(i, 1) for i in range(n)], weights)

    @staticmethod
    def block_sites(n_sites, dim, weights=None):
        """n_sites copies of M_dim (functions on n points with matrix values)."""
        return WeightedAlgebra.build([(i, int(dim)) for i in range(n_sites)], weights)

    # -- derived data ------------------------------------------------------

    @property
    def n_sites(self):
        return len(self.dims)

    @cached_property
    def coeff_dim(self):
        """Dimension of the algebra as a vector space, sum of k_w^2."""
        return int(sum(k * k for k in self.dims))

    @cached_property
    def offsets(self):
        off, acc = [], 0
        for k in self.dims:
            off.append(acc)
            acc += k * k
        return tuple(off)

    @cached_property
    def uniform_dim(self):
        """Common block dimension, or None when the sites do not agree."""
        return self.dims[0] if len(set(self.dims)) == 1 else None

    @cached_property
    def dim_groups(self):
        """(dim, site index array) per distinct block dim."""
        sites = {}
        for s, k in enumerate(self.dims):
            sites.setdefault(k, []).append(s)
        return tuple((k, np.array(idx)) for k, idx in sites.items())

    @cached_property
    def scales(self):
        """Per-coordinate sqrt(mu_w/k_w); multiplying plain coefficients by
        this vector gives coordinates in the orthonormal tau-basis (matrix
        units rescaled by sqrt(k_w/mu_w))."""
        parts = [np.full(k * k, math.sqrt(mu / k)) for k, mu in zip(self.dims, self.weights)]
        return np.concatenate(parts)

    def with_weights(self, weights):
        return WeightedAlgebra(self.labels, self.dims, tuple(float(x) for x in weights))

    def site_index(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no site labelled {label!r}") from None

    # -- element builders --------------------------------------------------

    def identity(self):
        return AlgebraElement(self, [np.eye(k, dtype=complex) for k in self.dims],
                              hermitian=True)

    def zero(self):
        return AlgebraElement(self, [np.zeros((k, k), dtype=complex) for k in self.dims],
                              hermitian=True)

    def scalar(self, c):
        """c times the identity."""
        return AlgebraElement(self, [c * np.eye(k, dtype=complex) for k in self.dims])

    def from_scalars(self, values):
        """Diagonal element with the given scalar on each site (dims must be 1
        or the scalar is spread on the identity of the block)."""
        vals = list(values)
        if len(vals) != self.n_sites:
            raise ContractViolationError("one scalar per site expected")
        return AlgebraElement(self, [v * np.eye(k, dtype=complex)
                                     for v, k in zip(vals, self.dims)])

    # -- coordinates -------------------------------------------------------

    def vec(self, x, orthonormal=True):
        """Flatten an element to coefficients (row-major per block)."""
        v = np.concatenate([b.reshape(-1) for b in x.blocks])
        return v * self.scales if orthonormal else v

    def unvec(self, v, orthonormal=True):
        v = np.asarray(v, dtype=complex)
        if v.shape != (self.coeff_dim,):
            raise ContractViolationError("coefficient vector has wrong length")
        if orthonormal:
            v = v / self.scales
        blocks = []
        for k, off in zip(self.dims, self.offsets):
            blocks.append(v[off:off + k * k].reshape(k, k))
        return AlgebraElement(self, blocks)


class AlgebraElement:
    """Immutable element of a WeightedAlgebra, stored as per-site blocks."""

    __slots__ = ("algebra", "blocks")

    def __init__(self, algebra, blocks, hermitian=None, positive=None):
        blocks = tuple(np.array(b, dtype=complex, copy=True) for b in blocks)
        if len(blocks) != algebra.n_sites:
            raise ContractViolationError(
                f"expected {algebra.n_sites} blocks, got {len(blocks)}")
        for b, k in zip(blocks, algebra.dims):
            if b.shape != (k, k):
                raise ContractViolationError(f"block shape {b.shape} does not match dim {k}")
        if hermitian:
            for b in blocks:
                scale = np.linalg.norm(b)
                if np.linalg.norm(b - b.conj().T) > _HERMITIAN_TOL * (1.0 + scale):
                    raise ContractViolationError("block fails the declared hermitian flag")
        if positive:
            for b in blocks:
                scale = np.linalg.norm(b)
                lam = np.linalg.eigvalsh(0.5 * (b + b.conj().T))
                if lam.size and lam[0] < -_NEGATIVE_EVAL_RTOL * (1.0 + scale):
                    raise ContractViolationError("block fails the declared positive flag")
        for b in blocks:
            b.setflags(write=False)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "blocks", blocks)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    # -- helpers -----------------------------------------------------------

    def _check_same(self, other):
        if self.algebra != other.algebra:
            raise AlgebraMismatchError("operands live on different algebras")

    def stacked(self):
        """Blocks stacked to an (n_sites, k, k) array; uniform dims only."""
        if not self.algebra.uniform_dim:
            raise ContractViolationError("stacked() requires uniform block dims")
        return np.stack(self.blocks)

    @staticmethod
    def from_stacked(algebra, arr):
        return AlgebraElement(algebra, [arr[i] for i in range(algebra.n_sites)])

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._check_same(other)
        return AlgebraElement(self.algebra, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other):
        self._check_same(other)
        return AlgebraElement(self.algebra, [a - b for a, b in zip(self.blocks, other.blocks)])

    def __neg__(self):
        return AlgebraElement(self.algebra, [-b for b in self.blocks])

    def __mul__(self, c):
        return AlgebraElement(self.algebra, [c * b for b in self.blocks])

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._check_same(other)
        return AlgebraElement(self.algebra, [a @ b for a, b in zip(self.blocks, other.blocks)])

    def adjoint(self):
        return AlgebraElement(self.algebra, [b.conj().T for b in self.blocks])

    def hermitian_part(self):
        return AlgebraElement(self.algebra, [0.5 * (b + b.conj().T) for b in self.blocks])

    # -- diagnostics -------------------------------------------------------

    def norm(self):
        """Global Frobenius norm of the block-diagonal matrix (unnormalized)."""
        return math.sqrt(sum(float(np.sum(np.abs(b) ** 2)) for b in self.blocks))

    def op_norm(self):
        return max(float(np.linalg.norm(b, 2)) for b in self.blocks)

    def is_hermitian(self, tol=1e-10):
        return all(np.linalg.norm(b - b.conj().T) <= tol * (1.0 + np.linalg.norm(b))
                   for b in self.blocks)

    def min_eigenvalue(self):
        vals = [np.linalg.eigvalsh(0.5 * (b + b.conj().T)) for b in self.blocks]
        return min(float(v[0]) for v in vals)

    def allclose(self, other, atol=1e-12):
        self._check_same(other)
        return all(np.allclose(a, b, atol=atol, rtol=0.0)
                   for a, b in zip(self.blocks, other.blocks))

    def __repr__(self):
        dims = "+".join(str(k) for k in self.algebra.dims[:6])
        more = "..." if self.algebra.n_sites > 6 else ""
        return f"<AlgebraElement sites={self.algebra.n_sites} dims={dims}{more}>"


# -- trace calculus ---------------------------------------------------------

def trace(x):
    """tau(x) = sum_w mu_w tr(x_w)/k_w."""
    return complex(sum(mu * np.trace(b) / k
                       for mu, k, b in zip(x.algebra.weights, x.algebra.dims, x.blocks)))


def pair_trace(a, b):
    """tau(a b) without adjoints, computed blockwise."""
    a._check_same(b)
    tot = 0.0 + 0.0j
    for mu, k, x, y in zip(a.algebra.weights, a.algebra.dims, a.blocks, b.blocks):
        tot += mu * np.sum(x * y.T) / k
    return complex(tot)


def inner(a, b):
    """tau(a* b), the GNS inner product."""
    a._check_same(b)
    tot = 0.0 + 0.0j
    for mu, k, x, y in zip(a.algebra.weights, a.algebra.dims, a.blocks, b.blocks):
        tot += mu * np.sum(x.conj() * y) / k
    return complex(tot)


def p_norm(x, p):
    """tau(|x|^p)^(1/p) for hermitian x via the spectral absolute value."""
    tot = 0.0
    for mu, k, b in zip(x.algebra.weights, x.algebra.dims, x.blocks):
        lam = np.linalg.eigvalsh(0.5 * (b + b.conj().T))
        tot += mu * np.sum(np.abs(lam) ** p) / k
    return float(tot ** (1.0 / p))


# -- spectral calculus ------------------------------------------------------

@dataclass(frozen=True)
class SpectralDecomposition:
    """Per-site eigendecomposition of a hermitian element.

    eigenvalues are ascending per block; clusters groups indices whose gaps
    stay below cluster_tol * (1 + max |lambda|), by single linkage on the
    sorted sequence.
    """

    algebra: WeightedAlgebra
    eigenvalues: tuple
    vectors: tuple
    cluster_tol: float
    clusters: tuple

    def reconstruct(self):
        blocks = [(u * lam) @ u.conj().T
                  for lam, u in zip(self.eigenvalues, self.vectors)]
        return AlgebraElement(self.algebra, blocks)

    def min_eigenvalue(self):
        return min(float(lam[0]) for lam in self.eigenvalues)


def _cluster_indices(lam, tol):
    if lam.size == 0:
        return ()
    thresh = tol * (1.0 + float(np.max(np.abs(lam))))
    groups, current = [], [0]
    for i in range(1, lam.size):
        if lam[i] - lam[i - 1] <= thresh:
            current.append(i)
        else:
            groups.append(tuple(current))
            current = [i]
    groups.append(tuple(current))
    return tuple(groups)


def _check_hermitian(b):
    """Refuse a block, or a stack of blocks, that is not hermitian."""
    defect = np.linalg.norm(b - stack_adjoint(b), axis=(-2, -1))
    if np.any(defect > _HERMITIAN_TOL * (1.0 + np.linalg.norm(b, axis=(-2, -1)))):
        raise ContractViolationError("eigh requires a hermitian element")


def _floor_at_zero(lam):
    """Ascending eigenvalues (one row per block) with the values in
    [-1e-10 * max|lambda|, 0) clamped to zero; anything more negative raises."""
    tol = _NEGATIVE_EVAL_RTOL * np.max(np.abs(lam), axis=-1)
    bad = lam[..., 0] < -tol
    if np.any(bad):
        i = np.unravel_index(np.argmax(bad), np.shape(bad))
        raise ContractViolationError(
            f"genuinely negative eigenvalue {float(lam[..., 0][i])!r} "
            f"(tolerance {float(-tol[i])!r})")
    return np.where(lam < 0.0, 0.0, lam)


def eigh(h, cluster_tol=DEFAULT_CLUSTER_TOL):
    """Blockwise hermitian eigendecomposition with cluster bookkeeping."""
    vals, vecs, clusters = [], [], []
    for b in h.blocks:
        _check_hermitian(b)
        lam, u = np.linalg.eigh(0.5 * (b + b.conj().T))
        vals.append(lam)
        vecs.append(u)
        clusters.append(_cluster_indices(lam, cluster_tol))
    return SpectralDecomposition(h.algebra, tuple(vals), tuple(vecs),
                                 float(cluster_tol), tuple(clusters))


def stack_adjoint(arr):
    """Conjugate transpose of each block of a (g, k, k) stack."""
    return np.conj(np.swapaxes(arr, -1, -2))


def stack_function(U, values):
    """U diag(values) U* for each block of stacked eigenvectors U."""
    return (U * values[..., None, :]) @ stack_adjoint(U)


def grouped_eigh(x):
    """Eigenpairs of a hermitian element, one batched eigh per dim group.

    Returns [(site indices, eigenvalues (g, k), vectors (g, k, k))] over
    algebra.dim_groups, with the checks of eigh and floored_eigenvalues:
    non-hermitian blocks and genuinely negative eigenvalues are refused,
    tiny negative ones are clamped to zero.
    """
    out = []
    for _, idx in x.algebra.dim_groups:
        arr = np.stack([x.blocks[s] for s in idx])
        _check_hermitian(arr)
        lam, u = np.linalg.eigh(0.5 * (arr + stack_adjoint(arr)))
        out.append((idx, _floor_at_zero(lam), u))
    return out


def floored_eigenvalues(spec, floor=None, shift=0.0):
    """Eigenvalue arrays after the standard positivity flooring.

    Values in [-1e-10 * max|lambda|, 0) are clamped to zero; anything more
    negative raises.  An optional floor then lower-bounds the result and an
    optional shift translates it (used for the f'(rho + eps) evaluations).
    """
    out = []
    for lam in spec.eigenvalues:
        lam = _floor_at_zero(lam)
        if shift:
            lam = lam + shift
        if floor is not None:
            lam = np.maximum(lam, floor)
        out.append(lam)
    return out


def matrix_function(f, rho, order=0, floor=None, shift=0.0):
    """f(rho) (or f'(rho), f''(rho) for order 1, 2) by spectral calculus.

    rho may be an AlgebraElement or a precomputed SpectralDecomposition.
    Eigenvalues are floored at zero first (tiny negatives clamped, genuine
    negatives rejected); pass floor to impose an epsilon-floor and shift to
    evaluate at rho + shift*1.
    """
    spec = rho if isinstance(rho, SpectralDecomposition) else eigh(rho)
    lams = floored_eigenvalues(spec, floor=floor, shift=shift)
    blocks = []
    for lam, u in zip(lams, spec.vectors):
        blocks.append((u * f.eval_order(lam, order)) @ u.conj().T)
    return AlgebraElement(spec.algebra, blocks)


# -- ampliation and tensor products ------------------------------------------

def ampliate_algebra(algebra, k):
    if int(k) < 1:
        raise ContractViolationError("ampliation factor must be >= 1")
    if k == 1:
        return algebra
    return WeightedAlgebra(algebra.labels, tuple(d * int(k) for d in algebra.dims),
                           algebra.weights)


def ampliate(x, k):
    """x tensor I_k on every block; the normalized trace is preserved."""
    if k == 1:
        return x
    big = ampliate_algebra(x.algebra, k)
    eye = np.eye(int(k), dtype=complex)
    return AlgebraElement(big, [np.kron(b, eye) for b in x.blocks])


def tensor_algebra(a, b):
    labels, dims, weights = [], [], []
    for la, ka, wa in zip(a.labels, a.dims, a.weights):
        for lb, kb, wb in zip(b.labels, b.dims, b.weights):
            labels.append((la, lb))
            dims.append(ka * kb)
            weights.append(wa * wb)
    return WeightedAlgebra(tuple(labels), tuple(dims), tuple(weights))


def tensor_element(x, y, product_algebra=None):
    prod = product_algebra or tensor_algebra(x.algebra, y.algebra)
    blocks = [np.kron(bx, by) for bx in x.blocks for by in y.blocks]
    return AlgebraElement(prod, blocks)


def factor_coeff_matrix(x, alg1, alg2):
    """Plain coefficients of a product-algebra element as a (D1, D2) matrix.

    Row index runs over algebra-1 matrix-unit coordinates, column index over
    algebra-2 coordinates, so factor-1 superoperators act by left
    multiplication and factor-2 ones by right multiplication with the
    transpose.
    """
    C = np.zeros((alg1.coeff_dim, alg2.coeff_dim), dtype=complex)
    site = 0
    for w1, (k1, o1) in enumerate(zip(alg1.dims, alg1.offsets)):
        for w2, (k2, o2) in enumerate(zip(alg2.dims, alg2.offsets)):
            block = x.blocks[site]
            site += 1
            piece = block.reshape(k1, k2, k1, k2).transpose(0, 2, 1, 3)
            C[o1:o1 + k1 * k1, o2:o2 + k2 * k2] = piece.reshape(k1 * k1, k2 * k2)
    return C


def element_from_factor_coeffs(C, alg1, alg2, product_algebra=None):
    prod = product_algebra or tensor_algebra(alg1, alg2)
    blocks = []
    for w1, (k1, o1) in enumerate(zip(alg1.dims, alg1.offsets)):
        for w2, (k2, o2) in enumerate(zip(alg2.dims, alg2.offsets)):
            piece = C[o1:o1 + k1 * k1, o2:o2 + k2 * k2]
            piece = piece.reshape(k1, k1, k2, k2).transpose(0, 2, 1, 3)
            blocks.append(piece.reshape(k1 * k2, k1 * k2))
    return AlgebraElement(prod, blocks)


# -- random states -----------------------------------------------------------

def random_element(algebra, seed, hermitian=False, scale=1.0):
    """Gaussian element; hermitian=True symmetrizes."""
    rng = seed if isinstance(seed, np.random.Generator) else make_rng(seed)
    blocks = []
    for k in algebra.dims:
        g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        g *= scale / math.sqrt(2.0)
        if hermitian:
            g = 0.5 * (g + g.conj().T)
        blocks.append(g)
    return AlgebraElement(algebra, blocks)


def random_positive(algebra, rank_fraction=1.0, floor=0.0, seed=0):
    """Per block G G* + floor * I with G complex Gaussian of requested rank."""
    if not 0.0 < rank_fraction <= 1.0:
        raise ContractViolationError("rank_fraction must lie in (0, 1]")
    if floor < 0.0:
        raise ContractViolationError("floor must be nonnegative")
    rng = seed if isinstance(seed, np.random.Generator) else make_rng(seed)
    blocks = []
    for k in algebra.dims:
        r = max(1, math.ceil(rank_fraction * k))
        g = (rng.standard_normal((k, r)) + 1j * rng.standard_normal((k, r))) / math.sqrt(2.0)
        blocks.append(g @ g.conj().T + floor * np.eye(k))
    return AlgebraElement(algebra, blocks, hermitian=True)


# -- serialization ------------------------------------------------------------

def _is_number(v):
    return (isinstance(v, int) and not isinstance(v, bool)
            or isinstance(v, float) and math.isfinite(v))


def _is_numbers(v):
    return isinstance(v, list) and all(_is_number(x) for x in v)


# JSON value types that declarative specs (models, functions) name
_JSON_TYPES = {
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: _is_number(v) and v == int(v),
    "number": _is_number,
    "numbers": _is_numbers,
    "square matrix": lambda v: isinstance(v, list) and all(
        _is_numbers(row) and len(row) == len(v) for row in v),
    "object": lambda v: isinstance(v, dict),
    "array of two": lambda v: isinstance(v, list) and len(v) == 2,
}


def check_spec(spec, fields, whole=None):
    """Raise ContractViolationError unless spec is an object holding exactly
    the keys of fields, each value of its JSON type.

    fields maps a key to a type name of _JSON_TYPES, or to the fields of a
    nested object; a key ending in "?" may be left out.  Messages quote
    whole, the outermost spec (spec itself by default).
    """
    whole = spec if whole is None else whole
    if not isinstance(spec, dict):
        raise ContractViolationError(f"malformed spec {whole!r}: {spec!r} is not an object")
    keys = {key.rstrip("?"): key for key in fields}
    for name in spec:
        if name not in keys:
            raise ContractViolationError(f"malformed spec {whole!r}: unknown key {name!r}")
    for name, key in keys.items():
        kind = fields[key]
        if name not in spec:
            if not key.endswith("?"):
                raise ContractViolationError(f"malformed spec {whole!r}: missing {name!r}")
        elif isinstance(kind, dict):
            check_spec(spec[name], kind, whole)
        elif not _JSON_TYPES[kind](spec[name]):
            raise ContractViolationError(
                f"malformed spec {whole!r}: {name!r} must be {kind}")


def algebra_to_json(algebra):
    return {
        "sites": [{"label": str(l), "dim": int(k), "weight": float(w)}
                  for l, k, w in zip(algebra.labels, algebra.dims, algebra.weights)],
    }


def element_to_json(x):
    """JSON form: per-site arrays of [re, im] pairs in row-major order."""
    payload = algebra_to_json(x.algebra)
    payload["blocks"] = [
        [[[float(v.real), float(v.imag)] for v in row] for row in b]
        for b in x.blocks
    ]
    return payload


def element_from_json(payload, algebra):
    blocks = []
    for site, rows in zip(payload["sites"], payload["blocks"]):
        k = int(site["dim"])
        b = np.array([[complex(c[0], c[1]) for c in row] for row in rows])
        if b.shape != (k, k):
            raise ContractViolationError("serialized block shape mismatch")
        blocks.append(b)
    dims = tuple(int(s["dim"]) for s in payload["sites"])
    if dims != algebra.dims:
        raise AlgebraMismatchError("serialized dims do not match the target algebra")
    return AlgebraElement(algebra, blocks)
