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
        # written so that NaN weights fail both tests
        w = np.asarray(self.weights, dtype=float)
        if not np.all(w > 0):
            raise ContractViolationError("site weights must be strictly positive")
        if not abs(w.sum() - 1.0) <= _WEIGHT_TOL * max(1.0, len(w)):
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
    def full_matrix(d):
        """Single-site algebra M_d with weight one, its site labelled q0."""
        return WeightedAlgebra(("q0",), (int(d),), (1.0,))

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

    @cached_property
    def site_slots(self):
        """(dim group, position in that group's stack) of each site."""
        slots = [None] * self.n_sites
        for g, (_, idx) in enumerate(self.dim_groups):
            for j, s in enumerate(idx):
                slots[s] = (g, j)
        return tuple(slots)

    # -- element builders --------------------------------------------------

    def identity(self):
        return self.scalar(1.0)

    def zero(self):
        return self.scalar(0.0)

    def scalar(self, c):
        """c times the identity."""
        return AlgebraElement._of(self, tuple(
            c * np.broadcast_to(np.eye(k, dtype=complex), (len(idx), k, k))
            for k, idx in self.dim_groups))

    # -- coordinates -------------------------------------------------------

    def vec(self, x, orthonormal=True):
        """Flatten an element to coefficients (row-major per block)."""
        if len(x.stacks) == 1:
            v = x.stacks[0].reshape(-1)
        else:
            v = np.concatenate([b.reshape(-1) for b in x.blocks])
        return v * self.scales if orthonormal else v

    def unvec(self, v, orthonormal=True):
        v = np.asarray(v, dtype=complex)
        if v.shape != (self.coeff_dim,):
            raise ContractViolationError("coefficient vector has wrong length")
        if orthonormal:
            v = v / self.scales
        if self.uniform_dim is not None:
            k = self.uniform_dim
            return AlgebraElement(self, v.reshape(self.n_sites, k, k))
        return AlgebraElement(self, [v[off:off + k * k].reshape(k, k)
                                     for k, off in zip(self.dims, self.offsets)])


class AlgebraElement:
    """Immutable element of a WeightedAlgebra.

    The blocks are stored as stacks: one (g, k, k) array per entry of
    algebra.dim_groups, holding the blocks of that group's g sites of dim k.
    The constructor takes per-site blocks, or an (n_sites, k, k) array when
    the dims are uniform, and copies its input once.  blocks gives read-only
    per-site views of the stacks, built on first use.
    """

    __slots__ = ("algebra", "stacks", "_blocks")

    def __init__(self, algebra, blocks, hermitian=None):
        k = algebra.uniform_dim
        if isinstance(blocks, np.ndarray) and blocks.ndim == 3:
            if k is None or blocks.shape != (algebra.n_sites, k, k):
                raise ContractViolationError(
                    f"stack shape {blocks.shape} does not match the algebra")
            stacks = (np.array(blocks, dtype=complex),)
        else:
            blocks = list(blocks)
            if len(blocks) != algebra.n_sites:
                raise ContractViolationError(
                    f"expected {algebra.n_sites} blocks, got {len(blocks)}")
            for b, d in zip(blocks, algebra.dims):
                if np.shape(b) != (d, d):
                    raise ContractViolationError(
                        f"block shape {np.shape(b)} does not match dim {d}")
            stacks = tuple(np.array([blocks[s] for s in idx], dtype=complex)
                           for _, idx in algebra.dim_groups)
        if hermitian:
            for arr in stacks:
                _hermitian(arr)
        self._set(algebra, stacks)

    @classmethod
    def _of(cls, algebra, stacks):
        """Element that takes ownership of freshly computed stacks (no copy)."""
        x = object.__new__(cls)
        x._set(algebra, stacks)
        return x

    def _set(self, algebra, stacks):
        for arr in stacks:
            arr.setflags(write=False)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "stacks", stacks)
        object.__setattr__(self, "_blocks", None)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    @property
    def blocks(self):
        """Read-only per-site views of the stacks."""
        if self._blocks is None:
            object.__setattr__(self, "_blocks", tuple(
                self.stacks[g][j] for g, j in self.algebra.site_slots))
        return self._blocks

    # -- helpers -----------------------------------------------------------

    def _check_same(self, other):
        if self.algebra != other.algebra:
            raise AlgebraMismatchError("operands live on different algebras")

    def _map(self, fn):
        return AlgebraElement._of(self.algebra, tuple(fn(a) for a in self.stacks))

    def _zip(self, other, fn):
        self._check_same(other)
        return AlgebraElement._of(self.algebra, tuple(
            fn(a, b) for a, b in zip(self.stacks, other.stacks)))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return self._zip(other, np.add)

    def __sub__(self, other):
        return self._zip(other, np.subtract)

    def __neg__(self):
        return self._map(np.negative)

    def __mul__(self, c):
        return self._map(lambda a: c * a)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return self._zip(other, np.matmul)

    def hermitian_part(self):
        return self._map(lambda a: 0.5 * (a + stack_adjoint(a)))

    # -- diagnostics -------------------------------------------------------

    def norm(self):
        """Global Frobenius norm of the block-diagonal matrix (unnormalized)."""
        return math.sqrt(sum(float(np.sum(np.abs(a) ** 2)) for a in self.stacks))

    def op_norm(self):
        return max(float(np.linalg.norm(a, 2, axis=(-2, -1)).max()) for a in self.stacks)

    def min_eigenvalue(self):
        return min(float(np.linalg.eigvalsh(0.5 * (a + stack_adjoint(a)))[:, 0].min())
                   for a in self.stacks)

    def allclose(self, other, atol=1e-12):
        self._check_same(other)
        return all(np.allclose(a, b, atol=atol, rtol=0.0)
                   for a, b in zip(self.stacks, other.stacks))

    def __repr__(self):
        dims = "+".join(str(k) for k in self.algebra.dims[:6])
        more = "..." if self.algebra.n_sites > 6 else ""
        return f"<AlgebraElement sites={self.algebra.n_sites} dims={dims}{more}>"


# -- trace calculus ---------------------------------------------------------

def _weighted_sum(algebra, values):
    """sum_w mu_w v_w / k_w for per-block values given as one array per dim group."""
    mu = np.asarray(algebra.weights, dtype=float)
    return complex(sum(mu[idx] @ v / k for (k, idx), v in zip(algebra.dim_groups, values)))


def trace(x):
    """tau(x) = sum_w mu_w tr(x_w)/k_w."""
    return _weighted_sum(x.algebra, [np.trace(a, axis1=-2, axis2=-1) for a in x.stacks])


def pair_trace(a, b):
    """tau(a b) without adjoints, computed blockwise."""
    a._check_same(b)
    return _weighted_sum(a.algebra, [np.einsum("sij,sji->s", x, y)
                                     for x, y in zip(a.stacks, b.stacks)])


def inner(a, b):
    """tau(a* b), the GNS inner product."""
    a._check_same(b)
    return _weighted_sum(a.algebra, [np.einsum("sij,sij->s", x.conj(), y)
                                     for x, y in zip(a.stacks, b.stacks)])


def p_norm(x, p):
    """tau(|x|^p)^(1/p) for hermitian x via the spectral absolute value."""
    powers = [np.sum(np.abs(np.linalg.eigvalsh(0.5 * (a + stack_adjoint(a)))) ** p, axis=-1)
              for a in x.stacks]
    return float(_weighted_sum(x.algebra, powers).real ** (1.0 / p))


# -- spectral calculus ------------------------------------------------------

def _hermitian(arr):
    """A (g, k, k) stack made exactly hermitian; refused when it is not
    hermitian to within the tolerance.  An exactly hermitian stack, such as
    every hermitian_part output, is returned as it is."""
    adj = stack_adjoint(arr)
    if (arr == adj).all():
        return arr
    defect = np.linalg.norm(arr - adj, axis=(-2, -1))
    if np.any(defect > _HERMITIAN_TOL * (1.0 + np.linalg.norm(arr, axis=(-2, -1)))):
        raise ContractViolationError("block is not hermitian")
    return 0.5 * (arr + adj)


def _floor_at_zero(lam):
    """Ascending eigenvalues (one row per block) with the values in
    [-1e-10 * max|lambda|, 0) clamped to zero; anything more negative raises."""
    if not (lam[..., 0] < 0.0).any():
        return lam
    tol = _NEGATIVE_EVAL_RTOL * np.max(np.abs(lam), axis=-1)
    bad = lam[..., 0] < -tol
    if np.any(bad):
        i = np.unravel_index(np.argmax(bad), np.shape(bad))
        raise ContractViolationError(
            f"genuinely negative eigenvalue {float(lam[..., 0][i])!r} "
            f"(tolerance {float(-tol[i])!r})")
    return np.where(lam < 0.0, 0.0, lam)


def stack_adjoint(arr):
    """Conjugate transpose of each block of a (g, k, k) stack."""
    return np.conj(arr.swapaxes(-1, -2))


def stack_function(U, values):
    """U diag(values) U* for each block of stacked eigenvectors U."""
    return (U * values[..., None, :]) @ stack_adjoint(U)


def eigh(h):
    """Eigenpairs of a hermitian element, one batched eigh per dim group.

    Returns [(site indices, eigenvalues (g, k), vectors (g, k, k))] over
    algebra.dim_groups, eigenvalues ascending per block.  Non-hermitian
    blocks are refused; indefinite hermitian elements are accepted.
    """
    return [(idx, *np.linalg.eigh(_hermitian(arr)))
            for (_, idx), arr in zip(h.algebra.dim_groups, h.stacks)]


def _positive_eigh(x):
    """eigh of a positive element: eigenvalues in [-1e-10 * max|lambda|, 0)
    are clamped to zero and anything more negative is refused."""
    return [(idx, _floor_at_zero(lam), U) for idx, lam, U in eigh(x)]


def matrix_function(f, rho, order=0):
    """f(rho) (or f'(rho), f''(rho) for order 1, 2) by spectral calculus,
    one stack_function per dim group.

    Eigenvalues are floored at zero first (tiny negatives clamped, genuine
    negatives refused).
    """
    return AlgebraElement._of(rho.algebra, tuple(
        stack_function(U, f.eval_order(lam, order)) for _, lam, U in _positive_eigh(rho)))


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
    eye = np.eye(int(k), dtype=complex)
    return AlgebraElement._of(ampliate_algebra(x.algebra, k),
                              tuple(np.kron(a, eye) for a in x.stacks))


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


# -- random states -----------------------------------------------------------

def random_element(algebra, seed, hermitian=False):
    """Gaussian element; hermitian=True symmetrizes."""
    rng = seed if isinstance(seed, np.random.Generator) else make_rng(seed)
    blocks = []
    for k in algebra.dims:
        g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        g *= 1.0 / math.sqrt(2.0)
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


def _is_integer(v, low=-math.inf):
    return _is_number(v) and v == int(v) and v >= low


def _is_numbers(v):
    return isinstance(v, list) and all(_is_number(x) for x in v)


def _nonempty_list_of(is_item):
    return lambda v: isinstance(v, list) and len(v) > 0 and all(map(is_item, v))


def _is_check_entry(v):
    return isinstance(v, str) or isinstance(v, dict) and isinstance(v.get("id"), str)


# JSON value types that declarative specs (models, functions, configs) name
_JSON_TYPES = {
    "string": lambda v: isinstance(v, str),
    "integer": _is_integer,
    "integer >= 0": lambda v: _is_integer(v, 0),
    "integer >= 1": lambda v: _is_integer(v, 1),
    "number": _is_number,
    "number > 0": lambda v: _is_number(v) and v > 0,
    "number in (1, 2)": lambda v: _is_number(v) and 1 < v < 2,
    "numbers": _is_numbers,
    "nonempty numbers": _nonempty_list_of(_is_number),
    "nonempty integers >= 1": _nonempty_list_of(lambda x: _is_integer(x, 1)),
    "nonempty integers >= 2": _nonempty_list_of(lambda x: _is_integer(x, 2)),
    "square matrix": lambda v: isinstance(v, list) and all(
        _is_numbers(row) and len(row) == len(v) for row in v),
    "object": lambda v: isinstance(v, dict),
    "array of two": lambda v: isinstance(v, list) and len(v) == 2,
    "check ids": lambda v: isinstance(v, list) and all(_is_check_entry(x) for x in v),
}


def check_spec(spec, fields, whole=None):
    """Raise ContractViolationError unless spec is an object holding exactly
    the keys of fields, each value of its JSON type.

    fields maps a key to a type name of _JSON_TYPES, to a tuple of the
    values it may take, or to the fields of a nested object; a key ending
    in "?" may be left out.  Messages quote whole, the outermost spec (spec
    itself by default).
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
        elif isinstance(kind, tuple):
            if spec[name] not in kind:
                raise ContractViolationError(
                    f"malformed spec {whole!r}: {name!r} must be one of {kind!r}")
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
