"""Quaternion scalars, matrices and compact structured vectors.

A quaternion matrix ``M = M0 + M1*i + M2*j + M3*k`` is stored as its four
real blocks.  Its real counterpart is the 4m-by-4n block matrix

    [  M0   M2   M1   M3 ]
    [ -M2   M0   M3  -M1 ]
    [ -M1  -M3   M0   M2 ]
    [ -M3   M1  -M2   M0 ]

which is invariant under conjugation by the three structure matrices J, R
and S (see :func:`structure_matrices`).  Only the first block row is ever
materialized; a quaternion column vector is likewise kept as an n-by-4
array whose columns follow the same component order (0, 2, 1, 3).

The multiplication rule lives in one place, :data:`QUAT_TABLE` with the
conjugation signs :data:`QUAT_CONJ`; every compact kernel is a few BLAS
calls on the storage, mixed by that table.  The oracles (:func:`quat_mul`,
:func:`quat_dot`, :func:`expand_real_counterpart`, :func:`expand_vector`,
:func:`structure_matrices`) are written out by hand and never read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# Column layout of compact (n, 4) vectors: storage column -> component index.
# Component 0 is the real part, 1/2/3 are the i/j/k parts.  The order matches
# the first block row [M0, M2, M1, M3] of the real counterpart.
STORAGE_ORDER = (0, 2, 1, 3)


def _hamilton_table() -> np.ndarray:
    """e_a * e_b = sum_c T[a, b, c] e_c, units indexed by storage column."""
    # Over the units (1, i, j, k): e_a * e_b = sign[a, b] * e_(a xor b).
    sign = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, -1, -1, 1], [1, 1, -1, -1]])
    a, b = np.indices((4, 4))
    t = np.zeros((4, 4, 4))
    t[a, b, a ^ b] = sign
    return t[np.ix_(STORAGE_ORDER, STORAGE_ORDER, STORAGE_ORDER)]


# The Hamilton product table and the conjugation signs in storage
# coordinates.  For a compact array x, ``x @ QUAT_TABLE[a]`` is e_a * x and
# ``x @ QUAT_TABLE[:, b]`` is x * e_b: signed column permutations.
QUAT_TABLE = _hamilton_table()
QUAT_CONJ = np.array([1.0, -1.0, -1.0, -1.0])
# conj(e_a) * e_b, for adjoint products and conjugate-linear inner products.
_CONJ_TABLE = QUAT_CONJ[:, None, None] * QUAT_TABLE

# Density threshold below which sparse blocks keep a sparse matvec path.
SPARSE_DENSITY_LIMIT = 0.25


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Quaternion:
    """A quaternion w + x*i + y*j + z*k."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def norm(self) -> float:
        return math.sqrt(self.w ** 2 + self.x ** 2 + self.y ** 2 + self.z ** 2)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)


def quat_mul(a: Quaternion, b: Quaternion) -> Quaternion:
    """Hamilton product a*b (noncommutative)."""
    return Quaternion(
        a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
        a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
        a.w * b.y + a.y * b.w + a.z * b.x - a.x * b.z,
        a.w * b.z + a.z * b.w + a.x * b.y - a.y * b.x,
    )


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def _as_block(block, rows: int, cols: int):
    if sp.issparse(block):
        if block.shape != (rows, cols):
            raise ValueError(f"block shape {block.shape} != ({rows}, {cols})")
        return block.tocsr()
    arr = np.asarray(block, dtype=np.float64)
    if arr.shape != (rows, cols):
        raise ValueError(f"block shape {arr.shape} != ({rows}, {cols})")
    return arr


class QuatMatrix:
    """Quaternion m-by-n matrix held as four real blocks M0..M3.

    Blocks may be dense ndarrays or ``scipy.sparse`` matrices; sparse blocks
    are kept sparse when the overall density is below
    ``SPARSE_DENSITY_LIMIT``, otherwise they are densified up front.
    NaN or infinite entries are rejected with a ``ValueError`` naming the
    block.  Instances are immutable by convention: no method mutates the
    blocks.
    """

    __slots__ = ("rows", "cols", "blocks")

    def __init__(self, M0, M1, M2, M3):
        first = M0.tocsr() if sp.issparse(M0) else np.asarray(M0, dtype=np.float64)
        if first.ndim != 2:
            raise ValueError("blocks must be 2-d")
        rows, cols = first.shape
        blocks = [first] + [_as_block(b, rows, cols) for b in (M1, M2, M3)]
        for i, b in enumerate(blocks):
            if not np.isfinite(b.data if sp.issparse(b) else b).all():
                raise ValueError(f"block M{i} has NaN or infinite entries")
        if any(sp.issparse(b) for b in blocks):
            nnz = sum(b.nnz if sp.issparse(b) else np.count_nonzero(b)
                      for b in blocks)
            if nnz / (4.0 * rows * cols) >= SPARSE_DENSITY_LIMIT:
                blocks = [b.toarray() if sp.issparse(b) else b for b in blocks]
        self.rows = int(rows)
        self.cols = int(cols)
        self.blocks = tuple(blocks)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QuatMatrix":
        z = np.zeros((rows, cols))
        return cls(z, z.copy(), z.copy(), z.copy())

    @classmethod
    def from_scalar(cls, q: Quaternion) -> "QuatMatrix":
        return cls(np.array([[q.w]]), np.array([[q.x]]),
                   np.array([[q.y]]), np.array([[q.z]]))

    @property
    def is_sparse(self) -> bool:
        return any(sp.issparse(b) for b in self.blocks)

    def conjugate_transpose(self) -> "QuatMatrix":
        """The quaternion adjoint M* = M0' - M1'*i - M2'*j - M3'*k."""
        b0, b1, b2, b3 = self.blocks
        t = lambda b: (b.T.tocsr() if sp.issparse(b) else b.T.copy())
        return QuatMatrix(t(b0), -t(b1), -t(b2), -t(b3))

    def frobenius_norm(self) -> float:
        total = 0.0
        for b in self.blocks:
            if sp.issparse(b):
                total += float((b.data ** 2).sum())
            else:
                total += float((b ** 2).sum())
        return math.sqrt(total)

    def dense_blocks(self) -> tuple:
        return tuple(b.toarray() if sp.issparse(b) else b for b in self.blocks)

    def __repr__(self) -> str:
        kind = "sparse" if self.is_sparse else "dense"
        return f"QuatMatrix({self.rows}x{self.cols}, {kind})"


def expand_real_counterpart(M: QuatMatrix) -> np.ndarray:
    """Lay out the full 4m-by-4n real counterpart of ``M``."""
    b0, b1, b2, b3 = M.dense_blocks()
    return np.block([
        [b0, b2, b1, b3],
        [-b2, b0, b3, -b1],
        [-b1, -b3, b0, b2],
        [-b3, b1, -b2, b0],
    ])


def structure_matrices(n: int) -> tuple:
    """The skew-symmetric structure matrices (J_n, R_n, S_n) of size 4n."""
    I = np.eye(n)
    Z = np.zeros((n, n))
    J = np.block([[Z, Z, -I, Z], [Z, Z, Z, -I], [I, Z, Z, Z], [Z, I, Z, Z]])
    R = np.block([[Z, -I, Z, Z], [I, Z, Z, Z], [Z, Z, Z, I], [Z, Z, -I, Z]])
    S = np.block([[Z, Z, Z, -I], [Z, Z, I, Z], [Z, -I, Z, Z], [I, Z, Z, Z]])
    return J, R, S


# ---------------------------------------------------------------------------
# compact vectors
# ---------------------------------------------------------------------------

class CompactVector:
    """One quaternion column vector stored as an (n, 4) real array.

    Storage columns follow the component order (0, 2, 1, 3), matching the
    first block row of the real counterpart.
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[1] != 4:
            raise ValueError(f"expected (n, 4) array, got shape {data.shape}")
        self.data = data

    @classmethod
    def zeros(cls, n: int) -> "CompactVector":
        return cls(np.zeros((n, 4)))

    @classmethod
    def from_components(cls, c0, c1, c2, c3) -> "CompactVector":
        return cls(np.column_stack([c0, c2, c1, c3]))

    @classmethod
    def from_quaternion(cls, q: Quaternion) -> "CompactVector":
        return cls.from_components([q.w], [q.x], [q.y], [q.z])

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def components(self) -> tuple:
        """Views (c0, c1, c2, c3) of the real/i/j/k parts."""
        d = self.data
        return d[:, 0], d[:, 2], d[:, 1], d[:, 3]

    def copy(self) -> "CompactVector":
        return CompactVector(self.data.copy())

    def scaled(self, s: float) -> "CompactVector":
        return CompactVector(self.data * s)

    def __sub__(self, other: "CompactVector") -> "CompactVector":
        return CompactVector(self.data - other.data)


def expand_vector(x: CompactVector) -> np.ndarray:
    """The 4n-by-4 real counterpart of a compact quaternion vector."""
    c0, c1, c2, c3 = (c.reshape(-1, 1) for c in x.components())
    return np.block([
        [c0, c2, c1, c3],
        [-c2, c0, c3, -c1],
        [-c1, -c3, c0, c2],
        [-c3, c1, -c2, c0],
    ])


def vec_norm(x: CompactVector) -> float:
    """Frobenius norm of the (n, 4) array == quaternion 2-norm of x."""
    return float(np.linalg.norm(x.data))


def quat_dot(a: CompactVector, b: CompactVector) -> Quaternion:
    """Quaternion inner product a* . b (conjugate on the first argument)."""
    if a.n != b.n:
        raise ValueError(f"length mismatch: {a.n} vs {b.n}")
    a0, a1, a2, a3 = a.components()
    b0, b1, b2, b3 = b.components()
    return Quaternion(
        float(a0 @ b0 + a1 @ b1 + a2 @ b2 + a3 @ b3),
        float(a0 @ b1 - a1 @ b0 - a2 @ b3 + a3 @ b2),
        float(a0 @ b2 - a2 @ b0 - a3 @ b1 + a1 @ b3),
        float(a0 @ b3 - a3 @ b0 - a1 @ b2 + a2 @ b1),
    )


def structured_matvec(M: QuatMatrix, x: CompactVector, adjoint: bool = False) -> CompactVector:
    """Compact product M.x, or M*.x when ``adjoint`` is set.

    Four real block products on the whole (n, 4) array, mixed by the
    product table; the 4m-by-4n counterpart is never materialized.
    ``adjoint=True`` corresponds to multiplying by the transpose of the
    real counterpart.
    """
    size, name = (M.rows, "rows") if adjoint else (M.cols, "cols")
    if x.n != size:
        raise ValueError(f"vector length {x.n} != matrix {name} {size}")
    X = x.data
    blocks = [M.blocks[s] for s in STORAGE_ORDER]
    if adjoint:
        prods, table = [(X.T @ b).T for b in blocks], _CONJ_TABLE
    else:
        prods, table = [b @ X for b in blocks], QUAT_TABLE
    return CompactVector(sum(p @ t for p, t in zip(prods, table)))


def random_unit_vector(n: int, rng: np.random.Generator) -> CompactVector:
    """Seeded random compact vector of unit Frobenius norm."""
    data = rng.standard_normal((n, 4))
    return CompactVector(data / np.linalg.norm(data))


# ---------------------------------------------------------------------------
# bases and Gram-Schmidt
# ---------------------------------------------------------------------------

class CompactBasis:
    """Ordered list of equal-length compact vectors, stored as (k, n, 4).

    Built by the Lanczos and restart machinery, in which case the vectors
    are orthonormal in the quaternion inner product.
    """

    __slots__ = ("n", "_buf", "_size")

    def __init__(self, n: int, capacity: int = 8):
        self.n = int(n)
        self._buf = np.zeros((max(capacity, 1), self.n, 4))
        self._size = 0

    @classmethod
    def from_vectors(cls, vectors) -> "CompactBasis":
        vectors = list(vectors)
        if not vectors:
            raise ValueError("empty vector list")
        basis = cls(vectors[0].n, capacity=len(vectors))
        for v in vectors:
            basis.append(v)
        return basis

    def __len__(self) -> int:
        return self._size

    @property
    def data(self) -> np.ndarray:
        return self._buf[:self._size]

    def vector(self, i: int) -> CompactVector:
        if not -self._size <= i < self._size:
            raise IndexError(i)
        return CompactVector(self.data[i].copy())

    def __iter__(self):
        for i in range(self._size):
            yield self.vector(i)

    def append(self, v: CompactVector) -> None:
        if v.n != self.n:
            raise ValueError(f"vector length {v.n} != basis length {self.n}")
        if self._size == self._buf.shape[0]:
            grown = np.zeros((2 * self._buf.shape[0], self.n, 4))
            grown[:self._size] = self._buf
            self._buf = grown
        self._buf[self._size] = v.data
        self._size += 1

    def _flat(self) -> np.ndarray:
        """The basis as a contiguous (k, 4n) view, one vector per row."""
        return self.data.reshape(self._size, 4 * self.n)

    def dot_all(self, r: CompactVector) -> np.ndarray:
        """Quaternion inner products quat_dot(v_i, r), as a (k, 4) array
        of (w, x, y, z) components."""
        if r.n != self.n:
            raise ValueError("length mismatch")
        # rot[t, a] = conj(e_a) * r_t, so row i of the product sums
        # conj(v_i[t]) * r_t over t.  STORAGE_ORDER is its own inverse, so
        # it also maps storage columns back to (w, x, y, z).
        rot = np.tensordot(r.data, _CONJ_TABLE, axes=(1, 1))
        return (self._flat() @ rot.reshape(4 * self.n, 4))[:, STORAGE_ORDER]

    def combine_quat(self, coeffs: np.ndarray) -> CompactVector:
        """Right-linear combination sum_i v_i * q_i for quaternion
        coefficients given as a (k, 4) component array."""
        # parts[b] = sum_i q_i[b] v_i; the sum is sum_b parts[b] * e_b.
        parts = (coeffs[:, STORAGE_ORDER].T @ self._flat()).reshape(4, self.n, 4)
        return CompactVector(np.tensordot(parts, QUAT_TABLE, axes=((0, 2), (1, 0))))

    def combine_real(self, coeffs: np.ndarray) -> CompactVector:
        """Real linear combination sum_i coeffs[i] * v_i."""
        coeffs = np.asarray(coeffs, dtype=np.float64)
        return CompactVector((coeffs @ self._flat()).reshape(self.n, 4))

    def combine_matrix(self, C: np.ndarray) -> "CompactBasis":
        """New basis whose j-th vector is sum_i C[i, j] * v_i."""
        C = np.asarray(C, dtype=np.float64)
        t = C.shape[1]
        out = CompactBasis(self.n, capacity=max(t, 1))
        out._buf[:t] = (C.T @ self._flat()).reshape(t, self.n, 4)
        out._size = t
        return out


def weighted_outer(U: np.ndarray, V: np.ndarray, w: np.ndarray) -> QuatMatrix:
    """The quaternion matrix sum_j u_j w_j v_j* of compact vectors stacked
    as (k, m, 4) and (k, n, 4) arrays, with real weights w."""
    k, m = U.shape[:2]
    # left[t, (a, j)] = u_j[t, a].  right[c, (a, j)] = sum_b w_j v_j[:, b]
    # times the e_c part of e_a conj(e_b), so left @ right[c] sums all
    # sixteen block products of u_j conj(v_j) landing on e_c.
    left = np.ascontiguousarray(U.transpose(1, 2, 0)).reshape(m, 4 * k)
    mix = (QUAT_TABLE * QUAT_CONJ[None, :, None]).transpose(2, 0, 1)
    right = np.tensordot(mix, V * w[:, None, None], axes=(2, 2))
    out = left @ right.reshape(4, 4 * k, V.shape[1])
    return QuatMatrix(*(out[s] for s in STORAGE_ORDER))


def orthogonalize_against_basis(r: CompactVector, B: CompactBasis) -> CompactVector:
    """Project r onto the orthogonal complement of the span of B.

    Two passes of classical Gram-Schmidt with quaternion right
    coefficients; twice is enough to restore orthogonality to roundoff.
    """
    out, _ = orthogonalize_with_coeffs(r, B)
    return out


def orthogonalize_with_coeffs(r: CompactVector, B: CompactBasis, passes: int = 2):
    """Like :func:`orthogonalize_against_basis` but also returns the total
    removed coefficients as a (k, 4) quaternion component array."""
    out = r.copy()
    total = np.zeros((len(B), 4))
    for _ in range(passes):
        coeffs = B.dot_all(out)
        total += coeffs
        out = out - B.combine_quat(coeffs)
    return out, total
