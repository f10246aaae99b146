"""Reference values computed apart from sobolev_lab.

Nothing here imports the package under test.  Site matrices are rebuilt from
the elementary moves of the permutation and occupancy walks, the semigroup
is scipy.linalg.expm of the site matrix acting on the site index, and the
f-entropies and Fisher forms come from per-block eigenvalue routines of
numpy.  The functions take plain arrays: a state is an (m, k, k) stack of
hermitian blocks with uniform site weights 1/m.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.linalg

EXACT_GAP = {"rt": 2.0, "bl": 1.0}


def walk_labels(walk, n, r=None):
    """Site labels in the order the walks enumerate them."""
    if walk == "rt":
        return list(itertools.permutations(range(1, n + 1)))
    return list(itertools.combinations(range(1, n + 1), r))


def site_matrix(walk, labels, n):
    """Generator on functions of the labels, built from the moves.

    Transposition walk: (2/n) sum over position pairs i<j of (I - P_ij) with
    P_ij swapping the letters at positions i and j.  Occupancy walk: (1/n)
    sum over site pairs i<j with exactly one occupied end of (I - P_ij) with
    P_ij moving the particle across the pair.
    """
    index = {tuple(lab): s for s, lab in enumerate(labels)}
    m = len(labels)
    L = np.zeros((m, m))
    for s, lab in enumerate(labels):
        for i in range(n):
            for j in range(i + 1, n):
                if walk == "rt":
                    q = list(lab)
                    q[i], q[j] = q[j], q[i]
                    rate = 2.0 / n
                else:
                    occ = set(lab)
                    if ((i + 1) in occ) == ((j + 1) in occ):
                        continue
                    q = sorted(occ ^ {i + 1, j + 1})
                    rate = 1.0 / n
                t = index[tuple(q)]
                L[s, s] += rate
                L[s, t] -= rate
    return L


def gap(L):
    """Smallest eigenvalue of the symmetric site matrix above 1e-9."""
    lam = np.linalg.eigvalsh(0.5 * (L + L.T))
    return float(lam[lam > 1e-9][0])


def propagator(L, t):
    return scipy.linalg.expm(-float(t) * L)


def semigroup(L, t, rho, P=None):
    """exp(-t L) acting on the site index of an (m, k, k) stack; pass the
    propagator P = exp(-t L) to reuse it across states."""
    P = propagator(L, t) if P is None else P
    return np.tensordot(P, rho, axes=(1, 0))


def _fprime(tag, p, lam):
    lam = np.maximum(lam, 0.0)
    if tag == "power":
        return p * lam ** (p - 1.0)
    with np.errstate(divide="ignore"):
        return np.log(lam) + 1.0


def _series(tag, p):
    """Coefficients of delta^n, n = 2..13, in the Bregman gap h(delta)."""
    if tag == "power":
        return np.array([math.prod((p - j) / (j + 1) for j in range(n))
                         for n in range(2, 14)])
    return np.array([(-1.0) ** n / (n * (n - 1.0)) for n in range(2, 14)])


def bregman_gap(tag, p, lam, mu):
    """f(lam) - f(mu) - f'(mu)(lam - mu) for mu > 0, elementwise.

    Written as mu^p h(delta) (power) or mu h(delta) (x log x) with
    delta = lam/mu - 1; for |delta| < 0.05 the power series of h is summed,
    which avoids the cancellation of the three terms near lam = mu.
    """
    lam = np.maximum(lam, 0.0)
    delta = lam / mu - 1.0
    scale = mu ** p if tag == "power" else mu
    with np.errstate(divide="ignore", invalid="ignore"):
        if tag == "power":
            direct = (1.0 + delta) ** p - 1.0 - p * delta
        else:
            direct = np.where(delta > -1.0,
                              (1.0 + delta) * np.log1p(delta), 0.0) - delta
        series = delta[..., None] ** np.arange(2, 14) @ _series(tag, p)
    return scale * np.where(np.abs(delta) < 0.05, series, direct)


def entropy(tag, p, rho):
    """tau(f(rho)) - tau(f(E rho)) with E the average over all sites.

    Summed as the per-block Bregman gaps sum_ij |<u_i, v_j>|^2
    (f(l_i) - f(m_j) - f'(m_j)(l_i - m_j)) against the eigenpairs (m_j, v_j)
    of the average block; the linear terms cancel over the sites.  This keeps
    full relative accuracy for states close to the fixed points, where the
    difference of the two traces loses it.
    """
    h = 0.5 * (rho + np.conj(np.swapaxes(rho, 1, 2)))
    m, k = h.shape[0], h.shape[1]
    lam, U = np.linalg.eigh(h)
    mu, V = np.linalg.eigh(h.mean(axis=0))
    overlap = np.abs(np.einsum("sai,aj->sij", np.conj(U), V)) ** 2
    gaps = bregman_gap(tag, p, lam[:, :, None], mu[None, None, :])
    return float(np.sum(overlap * gaps)) / (m * k)


def fisher(tag, p, L, rho):
    """tau(L(rho) f'(rho)) in the pair form of a symmetric site matrix,

    (1/2m) sum_{s != t} -L_st tr((rho_s - rho_t)(f'(rho_s) - f'(rho_t)))/k,

    with f'(rho_s) from a per-block eigendecomposition.  Differences are
    taken before the products, so states close to the fixed points keep
    full relative accuracy.
    """
    h = 0.5 * (rho + np.conj(np.swapaxes(rho, 1, 2)))
    m, k = h.shape[0], h.shape[1]
    lam, U = np.linalg.eigh(h)
    g = np.einsum("sab,sb,scb->sac", U, _fprime(tag, p, lam), np.conj(U))
    s, t = np.nonzero(L - np.diag(np.diag(L)))
    pair = np.einsum("nab,nba->n", h[s] - h[t], g[s] - g[t])
    return float(np.real(np.sum(-L[s, t] * pair))) / (2.0 * m * k)


def ratio(tag, p, L, rho):
    return fisher(tag, p, L, rho) / entropy(tag, p, rho)


def bracket(walk, tag, p):
    """Tabulated (lower, upper) constants: upper is twice the gap."""
    gap_value = EXACT_GAP[walk]
    low = 1.0 if tag == "xlogx" else float(p)
    if walk == "bl":
        low /= 2.0
    return low, 2.0 * gap_value


def random_state(rng, m, k, floor=1e-3):
    """Per block G G* + floor I with G a complex Gaussian k x k matrix."""
    g = (rng.standard_normal((m, k, k))
         + 1j * rng.standard_normal((m, k, k))) / np.sqrt(2.0)
    return g @ np.conj(np.swapaxes(g, 1, 2)) + floor * np.eye(k)
