"""Kraus channels: trace preservation, positivity, unitality, sampling."""

import numpy as np
import pytest

from sobolev_lab import (
    QuantumChannel,
    WeightedAlgebra,
    haar_unitary,
    make_rng,
    random_mixed_unitary,
    random_positive,
)
from sobolev_lab.algebra import AlgebraElement, random_element
from sobolev_lab.errors import ContractViolationError


def test_env_dim_one_is_a_single_unitary():
    ch = random_mixed_unitary(3, 1, seed=0)
    assert len(ch.kraus) == 1
    K = ch.kraus[0]
    assert np.linalg.norm(K.conj().T @ K - np.eye(3)) <= 1e-12


@pytest.mark.parametrize("d,e", [(2, 1), (2, 2), (3, 2), (4, 4)])
def test_kraus_completeness(d, e):
    ch = random_mixed_unitary(d, e, seed=5)
    total = sum(K.conj().T @ K for K in ch.kraus)
    assert np.linalg.norm(total - np.eye(d)) <= 1e-10


def test_identity_channel_is_identity():
    ch = QuantumChannel([np.eye(3)])
    x = random_element(ch.input_algebra, seed=1)
    assert ch.apply(x).allclose(x, atol=0.0)


def test_malformed_kraus_rejected():
    with pytest.raises(ContractViolationError):
        QuantumChannel([0.5 * np.eye(2)])


def test_maximally_mixed_keeps_unit_trace():
    ch = random_mixed_unitary(4, 3, seed=9)
    x = AlgebraElement(ch.input_algebra, [np.eye(4, dtype=complex) / 4.0])
    out = ch.apply(x)
    assert np.trace(out.blocks[0]) == pytest.approx(1.0, abs=1e-12)


def test_channels_preserve_psd():
    for i in range(100):
        d = 2 + i % 3
        ch = random_mixed_unitary(d, 2, make_rng(4, i))
        rho = random_positive(ch.input_algebra, seed=make_rng(5, i))
        out = ch.apply(rho)
        assert out.min_eigenvalue() >= -1e-10 * (1.0 + rho.norm())


def test_mixed_unitary_channels_are_unital():
    for i in range(20):
        d = 2 + i % 3
        ch = random_mixed_unitary(d, 1 + i % 4, make_rng(9, i))
        one = AlgebraElement(ch.input_algebra, [np.eye(d, dtype=complex)])
        assert ch.apply(one).allclose(one, atol=1e-12)


def test_haar_unitary_is_unitary():
    u = haar_unitary(5, make_rng(11))
    assert np.linalg.norm(u @ u.conj().T - np.eye(5)) <= 1e-12


def test_sampling_is_deterministic():
    a = random_mixed_unitary(3, 2, seed=123)
    b = random_mixed_unitary(3, 2, seed=123)
    assert all(np.array_equal(x, y) for x, y in zip(a.kraus, b.kraus))
