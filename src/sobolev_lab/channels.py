"""Completely positive trace-preserving maps on single matrix sites."""

from __future__ import annotations

import math

import numpy as np

from .algebra import AlgebraElement, WeightedAlgebra, make_rng
from .errors import AlgebraMismatchError, ContractViolationError

_KRAUS_TOL = 1e-10


class QuantumChannel:
    """Kraus-represented CPTP map on M_d, d the Kraus dim; apply sums K x K*."""

    def __init__(self, kraus):
        kraus = tuple(np.array(K, dtype=complex, copy=True) for K in kraus)
        if not kraus:
            raise ContractViolationError("a channel needs at least one Kraus operator")
        d = kraus[0].shape[0]
        for K in kraus:
            if K.shape != (d, d):
                raise ContractViolationError("Kraus operators must be square and equal-dim")
        total = sum(K.conj().T @ K for K in kraus)
        if np.linalg.norm(total - np.eye(d)) > _KRAUS_TOL * d:
            raise ContractViolationError("Kraus operators fail sum K*K = 1 within 1e-10")
        self.kraus = kraus
        self.dim = d
        self.input_algebra = self.output_algebra = WeightedAlgebra.full_matrix(d)

    def apply(self, x):
        if x.algebra != self.input_algebra:
            raise AlgebraMismatchError("element is not on the channel input algebra")
        b = x.blocks[0]
        out = sum(K @ b @ K.conj().T for K in self.kraus)
        return AlgebraElement(self.output_algebra, [out])

    def matrix(self):
        """Superoperator matrix on row-major matrix-unit coefficients."""
        return sum(np.kron(K, K.conj()) for K in self.kraus)


def haar_unitary(d, rng):
    """Haar-distributed unitary via QR with phase-fixed R diagonal."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_mixed_unitary(d, n_unitaries, seed):
    """Random convex mixture of Haar unitaries; always unital and CPTP."""
    rng = seed if isinstance(seed, np.random.Generator) else make_rng(seed)
    w = rng.dirichlet(np.ones(n_unitaries))
    kraus = [math.sqrt(float(wi)) * haar_unitary(d, rng) for wi in w]
    return QuantumChannel(kraus)
