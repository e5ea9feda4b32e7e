"""Shared builders and oracles for the test suite.

Every derived expectation in the tests is computed through the expanded
real counterpart (or another independent path), never through the compact
routines under test.
"""

import numpy as np
import pytest

from quatsvd.quatlin import (
    CompactBasis,
    QuatMatrix,
    expand_real_counterpart,
    expand_vector,
    orthogonalize_against_basis,
    random_unit_vector,
    vec_norm,
)
from quatsvd.restart import TripletSet


def from_components(c0, c1, c2, c3):
    """Compact (n, 4) vector from its real, i, j and k parts, in that
    column order."""
    return np.column_stack([c0, c1, c2, c3]).astype(np.float64)


def from_quaternion(q):
    """Length-1 compact vector holding the quaternion q."""
    return from_components([q.w], [q.x], [q.y], [q.z])


def basis_of(vectors):
    """CompactBasis holding the given compact vectors in order."""
    vectors = list(vectors)
    basis = CompactBasis(len(vectors[0]), capacity=len(vectors))
    for v in vectors:
        basis.append(v)
    return basis


def triplets_of(block):
    """(row, col, value) entries of a COO block in storage order, as
    Python int, int and float."""
    return [(int(r), int(c), float(v))
            for r, c, v in zip(block.row, block.col, block.data)]


def rand_qmat(rng, m, n, scale=1.0):
    return QuatMatrix(*[scale * rng.standard_normal((m, n)) for _ in range(4)])


def dedup_singular_values(M):
    """Singular values of the 4m x 4n counterpart, collapsed by their
    multiplicity-4 grouping.  Returns (means descending, in-group spreads)."""
    sv = np.linalg.svd(expand_real_counterpart(M), compute_uv=False)
    groups = sv.reshape(-1, 4)
    return groups.mean(axis=1), groups.max(axis=1) - groups.min(axis=1)


def orthonormal_basis(rng, n, k):
    """Random orthonormal quaternion basis built by repeated projection."""
    basis = CompactBasis(n, k)
    while len(basis) < k:
        v = orthogonalize_against_basis(random_unit_vector(n, rng), basis)
        nv = vec_norm(v)
        if nv < 1e-8:
            continue
        basis.append(v * (1.0 / nv))
    return basis


def synthetic_triplets(rng, m, n, sigmas):
    """Exact TripletSet with prescribed singular values."""
    sigmas = np.asarray(sigmas, dtype=np.float64)
    k = sigmas.size
    U = orthonormal_basis(rng, m, k).data
    V = orthonormal_basis(rng, n, k).data
    return TripletSet(sigmas=sigmas, U=U, V=V, bounds=np.zeros(k),
                      converged=np.ones(k, dtype=bool))


def matrix_from_triplets_expansion(T):
    """Quaternion matrix sum_j u_j sigma_j v_j*, assembled through the
    expanded real counterpart (independent of the compact low-rank path)."""
    m, n = T.U.shape[1], T.V.shape[1]
    E = np.zeros((4 * m, 4 * n))
    for j in range(len(T)):
        Eu = expand_vector(T.U[j])
        Ev = expand_vector(T.V[j])
        E += float(T.sigmas[j]) * (Eu @ Ev.T)
    b0 = E[:m, :n]
    b2 = E[:m, n:2 * n]
    b1 = E[:m, 2 * n:3 * n]
    b3 = E[:m, 3 * n:]
    return QuatMatrix(b0, b1, b2, b3)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
