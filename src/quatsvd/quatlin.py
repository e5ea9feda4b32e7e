"""Quaternion matrices and compact structured vectors.

A quaternion matrix ``M = M0 + M1*i + M2*j + M3*k`` is stored as its four
real blocks.  Its real counterpart is the 4m-by-4n block matrix

    [  M0   M2   M1   M3 ]
    [ -M2   M0   M3  -M1 ]
    [ -M1  -M3   M0   M2 ]
    [ -M3   M1  -M2   M0 ]

which is invariant under conjugation by the three structure matrices J, R
and S (``structure_matrices`` in the test suite's ``oracles`` module).
The solver never materializes it.  A quaternion column vector is
an (n, 4) float64 array of its (w, x, y, z) components, the order of the
blocks M0..M3 and of every (k, 4) coefficient array; :func:`expand_vector`
lays out its counterpart.  A set of k vectors is a (k, n, 4) array;
:class:`CompactBasis` is the Krylov workspace that stacks them.

The multiplication rule lives in one place, :data:`QUAT_TABLE` with the
conjugation signs :data:`QUAT_CONJ`; every compact kernel is a few BLAS
calls on the storage, mixed by that table.  The oracles
(:func:`expand_real_counterpart`, :func:`expand_vector`, and the
structure matrices, scalar product and inner product in the test suite's
``oracles`` module) are written out by hand and never read it.

:class:`QuatMatrix` alone decides how a block is stored: as a C-contiguous
float64 array or a float64 CSR with sorted indices and no duplicates;
boolean and integer blocks are converted and other dtypes rejected.  A
matrix stored sparse holds all four blocks as CSR and also keeps its
nonzero blocks interleaved column by column in one CSR, so a sparse
matvec is one scipy product in either direction.  Dense blocks are
multiplied in row (or, for the adjoint, column) panels of at most
``_PANEL_MACS`` multiply-adds: a product that small takes OpenBLAS's
small-matrix path, while a whole-block product with a 4-column operand
first packs the block and runs at about half the speed.  A basis is
combined in panels of the same size.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

def _hamilton_table() -> np.ndarray:
    """T[a, b, c]: e_a e_b = sign[a, b] e_(a^b) = sum_c T[a, b, c] e_c."""
    sign = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, -1, -1, 1], [1, 1, -1, -1]])
    a, b = np.indices((4, 4))
    t = np.zeros((4, 4, 4))
    t[a, b, a ^ b] = sign
    return t


# The Hamilton product table over the units e = (1, i, j, k) and the
# conjugation signs.  For a compact array x, ``x @ QUAT_TABLE[a]`` is e_a * x
# and ``x @ QUAT_TABLE[:, b]`` is x * e_b: signed column permutations.
QUAT_TABLE = _hamilton_table()
QUAT_CONJ = np.array([1.0, -1.0, -1.0, -1.0])
# conj(e_a) * e_b, for adjoint products and conjugate-linear inner products.
_CONJ_TABLE = QUAT_CONJ[:, None, None] * QUAT_TABLE
# The tables laid out for one GEMM each: x @ _DIRECT_MIX holds e_a x in
# columns 4a..4a+3, and a (n, 16) array of sixteen products z[:, 4a + b]
# of components a and b mixes to its quaternion sum as
# z @ _CONJ_MIX (conj(e_a) e_b) or z @ _QUAT_MIX (e_a e_b).
_DIRECT_MIX = QUAT_TABLE.transpose(1, 0, 2).reshape(4, 16)
_CONJ_MIX = _CONJ_TABLE.reshape(16, 4)
_QUAT_MIX = QUAT_TABLE.reshape(16, 4)

# Density threshold below which sparse blocks keep a sparse matvec path.
SPARSE_DENSITY_LIMIT = 0.25

# Multiply-adds per panel product: of a dense block in structured_matvec,
# and of a basis in CompactBasis.combine_quat.  Budget sweep, one 768x1024
# block of the image_rank input, OpenBLAS 0.3.31 (SkylakeX kernel) at 1
# thread: the direct and adjoint products took 2.51 and 2.18 ms as
# whole-block GEMMs, 1.21 and 1.53 ms in panels for any budget from 2**19
# to 10**6, and 2.37 and 4.55 ms at 2**20, where OpenBLAS leaves its
# small-matrix path and packs every panel.  In combine_quat, at n=5000 and
# k=40, the (4n, k) x (k, 4) product took 0.36 ms in panels against 0.67
# ms as one GEMM (best of 7; the tensordot it replaced took 0.77 ms).
_PANEL_MACS = 2 ** 19

# A Gram-Schmidt pass that leaves at most this fraction of its input's
# norm has lost orthogonality to cancellation and is repeated (DGKS).
_DGKS_ETA = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def _as_block(block, rows: int, cols: int, name: str):
    """Block ``name`` in the normal form :class:`QuatMatrix` describes, and
    its largest entry magnitude."""
    sparse = sp.issparse(block)
    block = block if sparse else np.asarray(block)
    if block.dtype.kind not in "biuf":
        raise ValueError(f"block {name} has dtype {block.dtype}, not real")
    if block.shape != (rows, cols):
        raise ValueError(f"block {name} shape {block.shape} != ({rows}, {cols})")
    if sparse:
        b = sp.csr_matrix(block, dtype=np.float64)
        if not b.has_canonical_format:     # never sort the caller's arrays
            b = b.copy()
            b.sum_duplicates()
        data = b.data
    else:
        b = data = np.ascontiguousarray(block, dtype=np.float64)
    # max and min propagate NaN and reach any infinity, so the one pass
    # that finds the magnitude also checks finiteness.
    hi, lo = float(data.max(initial=0.0)), float(data.min(initial=0.0))
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise ValueError(f"block {name} has NaN or infinite entries")
    return b, max(hi, -lo)


class QuatMatrix:
    """Quaternion m-by-n matrix held as four real blocks M0..M3.

    Blocks may be arrays or ``scipy.sparse`` matrices of boolean, integer
    or real dtype, stored in one normal form: a C-contiguous float64 array,
    or a float64 CSR with sorted indices and duplicates summed (on a copy:
    the caller's matrix is never changed).  Any other dtype, and NaN or
    infinite entries, raise a ``ValueError`` naming the block.  Sparse
    blocks stay sparse when the overall density is below
    ``SPARSE_DENSITY_LIMIT``, and dense blocks beside them are then
    stored as CSR too; otherwise they are densified up front.
    ``max_abs[i]`` is the largest entry magnitude of block Mi, so a block
    with ``max_abs[i] == 0`` is all zeros.  A matrix that keeps a sparse
    block also holds its nonzero blocks interleaved in one CSR
    (:func:`_interleave`), which is what :func:`structured_matvec` reads.
    Instances are immutable by convention: no method mutates the blocks.
    """

    __slots__ = ("rows", "cols", "blocks", "max_abs", "_stacked")

    def __init__(self, M0, M1, M2, M3):
        if np.ndim(M0) != 2:
            raise ValueError("blocks must be 2-d")
        rows, cols = np.shape(M0)
        blocks, max_abs = zip(*(_as_block(b, rows, cols, f"M{i}")
                                for i, b in enumerate((M0, M1, M2, M3))))
        self._stacked = None
        if any(sp.issparse(b) for b in blocks):
            nnz = sum(b.nnz if sp.issparse(b) else np.count_nonzero(b)
                      for b in blocks)
            if nnz >= SPARSE_DENSITY_LIMIT * 4 * rows * cols:
                blocks = [b.toarray() if sp.issparse(b) else b for b in blocks]
            else:
                blocks = [b if sp.issparse(b) else sp.csr_matrix(b)
                          for b in blocks]
                self._stacked = _interleave(blocks, max_abs)
        self.rows = int(rows)
        self.cols = int(cols)
        self.blocks = tuple(blocks)
        self.max_abs = max_abs

    @property
    def is_sparse(self) -> bool:
        return self._stacked is not None

    def conjugate_transpose(self) -> "QuatMatrix":
        """The quaternion adjoint M* = M0' - M1'*i - M2'*j - M3'*k."""
        b0, b1, b2, b3 = self.blocks
        return QuatMatrix(b0.T, -b1.T, -b2.T, -b3.T)

    def scaled(self, e: int) -> "QuatMatrix":
        """M times 2**e, exact unless an entry leaves the normal range."""
        return QuatMatrix(*(
            sp.csr_matrix((np.ldexp(b.data, e), b.indices, b.indptr), b.shape)
            if sp.issparse(b) else np.ldexp(b, e) for b in self.blocks))

    def frobenius_norm(self) -> float:
        """Frobenius norm, by :func:`scaled_norm`."""
        return scaled_norm(self, (b.data if sp.issparse(b) else b
                                  for b in self.blocks))

    def dense_blocks(self) -> tuple:
        return tuple(b.toarray() if sp.issparse(b) else b for b in self.blocks)

    def __repr__(self) -> str:
        kind = "sparse" if self.is_sparse else "dense"
        return f"QuatMatrix({self.rows}x{self.cols}, {kind})"


# A matrix with max|M| outside [2**-SAFE_EXPONENT, 2**SAFE_EXPONENT] is
# solved scaled by a power of two, so no sum of squares overflows or flushes.
SAFE_EXPONENT = 400


def safe_range_exponent(M: QuatMatrix) -> int:
    """The e that ``M`` is solved scaled by 2**-e: 0 inside the safe range
    (see SAFE_EXPONENT), else the e that brings max|M| into [1/2, 1).
    Raises ``ValueError`` when ``M`` has no rows or no columns."""
    if not (M.rows and M.cols):
        raise ValueError(f"matrix is {M.rows}x{M.cols}: it has no singular "
                         "triplets")
    peak = max(M.max_abs)
    if not peak or 2.0 ** -SAFE_EXPONENT <= peak <= 2.0 ** SAFE_EXPONENT:
        return 0
    return math.frexp(peak)[1]


def scaled_norm(M: QuatMatrix, arrays) -> float:
    """Root sum of squares of the entries of ``arrays``, each scaled by the
    power of two that puts max|M| in [1/2, 1), so that no square of an
    entry of M's magnitude overflows or underflows."""
    e = math.frexp(max(M.max_abs))[1]
    total = 0.0
    for x in arrays:
        total += float((np.ldexp(x, -e) ** 2).sum())
    return math.ldexp(math.sqrt(total), e)


def _interleave(blocks, max_abs) -> sp.csr_matrix:
    """The m-by-4n CSR whose column 4t + a is column t of block a; all-zero
    blocks, stored zeros and all, add no entries.  Interleaving puts the
    four blocks' reads of x[t] on one cache line, and the transpose is a
    CSC view of the same arrays.  scipy sorts the entries and picks the
    index dtype."""
    rows, cols = blocks[0].shape
    H = sp.csr_matrix((rows, 4 * cols))
    parts = [(a, b.tocoo()) for a, b in enumerate(blocks) if max_abs[a]]
    if not parts:
        return H
    # 4t + a in H's index dtype, so it cannot wrap once 4n passes int32.
    four = H.indices.dtype.type(4)
    data = np.concatenate([b.data for _, b in parts])
    row = np.concatenate([b.row for _, b in parts])
    col = np.concatenate([b.col * four + a for a, b in parts])
    return sp.csr_matrix((data, (row, col)), shape=H.shape)


def expand_real_counterpart(M: QuatMatrix) -> np.ndarray:
    """Lay out the full 4m-by-4n real counterpart of ``M``."""
    b0, b1, b2, b3 = M.dense_blocks()
    return np.block([
        [b0, b2, b1, b3],
        [-b2, b0, b3, -b1],
        [-b1, -b3, b0, b2],
        [-b3, b1, -b2, b0],
    ])


# ---------------------------------------------------------------------------
# compact vectors
# ---------------------------------------------------------------------------

def check_compact(x, n: int, what: str) -> None:
    """Reject anything but an (n, 4) array: a compact length-n vector."""
    if np.shape(x) != (n, 4):
        raise ValueError(f"{what}: expected shape ({n}, 4), got {np.shape(x)}")


def expand_vector(x: np.ndarray) -> np.ndarray:
    """The 4n-by-4 real counterpart of a compact quaternion vector."""
    c0, c1, c2, c3 = np.hsplit(x, 4)
    return np.block([
        [c0, c2, c1, c3],
        [-c2, c0, c3, -c1],
        [-c1, -c3, c0, c2],
        [-c3, c1, -c2, c0],
    ])


def vec_norm(x: np.ndarray) -> float:
    """Frobenius norm of the (n, 4) array == quaternion 2-norm of x."""
    return float(np.linalg.norm(x))


def structured_matvec(M: QuatMatrix, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """Compact product M.x, or M*.x when ``adjoint`` is set.

    Each nonzero block b_a adds b_a.y_a, where y_a = x.table[a] is e_a x
    (conj(e_a) x for the adjoint), a signed column permutation of x and so
    exact.  The 4m-by-4n counterpart is never materialized, and a pure
    quaternion matrix (zero M0, as images are encoded) reads three blocks.
    A matrix with a sparse block takes one scipy product with its
    interleaved CSR H (:func:`_interleave`): H.Y, where row 4t + a of Y is
    y_a[t]; for the adjoint, H'.x through the CSC view of H, whose row
    4t + a is (b_a'.x)[t], then mixed by conj(e_a) in one small GEMM.  A
    dense block (its transpose for the adjoint) is read in row panels,
    views into the block, of at most ``_PANEL_MACS`` multiply-adds each: a
    whole-block GEMM with a 4-column operand packs the block first and
    takes about twice as long.  ``adjoint=True`` corresponds to
    multiplying by the transpose of the real counterpart.
    """
    n = M.rows if adjoint else M.cols
    check_compact(x, n, "matvec operand")
    H = M._stacked
    if H is not None:
        if adjoint:
            return (H.T @ x).reshape(-1, 16) @ _CONJ_MIX
        return H @ (x @ _DIRECT_MIX).reshape(-1, 4)
    table = _CONJ_TABLE if adjoint else QUAT_TABLE
    out = np.zeros((M.cols if adjoint else M.rows, 4))
    h = max(1, _PANEL_MACS // max(4 * n, 1))
    for a, b in enumerate(M.blocks):
        if not M.max_abs[a]:
            continue
        b, y = (b.T if adjoint else b), x @ table[a]
        for i in range(0, len(out), h):
            out[i:i + h] += b[i:i + h] @ y
    return out


def random_unit_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded random compact vector of unit Frobenius norm."""
    data = rng.standard_normal((n, 4))
    return data / np.linalg.norm(data)


# ---------------------------------------------------------------------------
# bases and Gram-Schmidt
# ---------------------------------------------------------------------------

class CompactBasis:
    """Ordered list of equal-length compact vectors, stored as (k, n, 4).

    ``data[i]`` is the i-th vector, a view into the basis.  The buffer
    holds ``capacity`` vectors and never grows, so a Krylov solve
    allocates its bases once and rewrites them in place.  Built by the
    Lanczos and restart machinery, in which case the vectors are
    orthonormal in the quaternion inner product.
    """

    __slots__ = ("n", "_buf", "_size")

    def __init__(self, n: int, capacity: int):
        self.n = int(n)
        self._buf = np.zeros((capacity, self.n, 4))
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def capacity(self) -> int:
        return self._buf.shape[0]

    @property
    def data(self) -> np.ndarray:
        return self._buf[:self._size]

    def append(self, v: np.ndarray) -> None:
        check_compact(v, self.n, "appended vector")
        if self._size == self.capacity:
            raise ValueError(f"basis is full ({self.capacity} vectors)")
        self._buf[self._size] = v
        self._size += 1

    def _flat(self) -> np.ndarray:
        """The basis as a contiguous (k, 4n) view, one vector per row."""
        return self.data.reshape(self._size, 4 * self.n)

    def dot_all(self, r: np.ndarray) -> np.ndarray:
        """Quaternion inner products v_i* . r, as a (k, 4) array of
        (w, x, y, z) components."""
        check_compact(r, self.n, "dot_all operand")
        # G[i, a, b] = sum_t v_i[t, a] r[t, b], so v_i* . r is the sum over
        # (a, b) of G[i, a, b] conj(e_a) e_b.
        G = np.matmul(self.data.transpose(0, 2, 1), r)
        return G.reshape(-1, 16) @ _CONJ_MIX

    def combine_quat(self, coeffs: np.ndarray) -> np.ndarray:
        """Right-linear combination sum_i v_i * q_i for quaternion
        coefficients given as a (k, 4) component array.

        P[4t + a, b] = sum_i v_i[t, a] q_i[b] is one GEMM on the storage,
        taken in panels of the 4n axis of at most ``_PANEL_MACS``
        multiply-adds; entry t of the sum is sum_ab P[4t + a, b] e_a e_b.
        """
        flat = self._flat()
        P = np.empty((4 * self.n, 4))
        h = max(1, _PANEL_MACS // max(4 * self._size, 1))
        for i in range(0, 4 * self.n, h):
            np.matmul(flat[:, i:i + h].T, coeffs, out=P[i:i + h])
        return P.reshape(self.n, 16) @ _QUAT_MIX

    def combine_real(self, coeffs: np.ndarray) -> np.ndarray:
        """Real linear combination sum_i coeffs[i] * v_i."""
        coeffs = np.asarray(coeffs, dtype=np.float64)
        return (coeffs @ self._flat()).reshape(self.n, 4)

    def combine_matrix(self, C: np.ndarray) -> "CompactBasis":
        """Overwrite the leading vectors in place: the j-th becomes
        sum_i C[i, j] * v_i, and the size becomes the columns of C.
        Returns this basis."""
        C = np.asarray(C, dtype=np.float64)
        t = C.shape[1]
        self._buf[:t] = (C.T @ self._flat()).reshape(t, self.n, 4)
        self._size = t
        return self


def weighted_outer(U: np.ndarray, V: np.ndarray, w: np.ndarray) -> QuatMatrix:
    """The quaternion matrix sum_j u_j w_j v_j* of compact vectors stacked
    as (k, m, 4) and (k, n, 4) arrays, with real weights w.  Beside the
    output it holds U's (m, 4k) layout and one (4k, n) panel of V, refilled
    for each component: no tensor of all sixteen block products."""
    k, m = U.shape[:2]
    n = V.shape[1]
    # left[t, (a, j)] = u_j[t, a].  For each component c, e_a conj(e_b)
    # lands on ±e_c only for b = a xor c, so right[(a, j)] = ±w_j v_j[:, b]
    # and left @ right sums the four block products of u_j conj(v_j) on e_c.
    left = np.ascontiguousarray(U.transpose(1, 2, 0)).reshape(m, 4 * k)
    mix = QUAT_TABLE * QUAT_CONJ[None, :, None]
    right = np.empty((4, k, n))
    out = np.empty((4, m, n))
    for c in range(4):
        for a in range(4):
            b = a ^ c
            np.multiply(V[:, :, b], (mix[a, b, c] * w)[:, None], out=right[a])
        np.matmul(left, right.reshape(4 * k, n), out=out[c])
    return QuatMatrix(*out)


def orthogonalize_against_basis(r: np.ndarray, B: CompactBasis) -> np.ndarray:
    """Project r onto the orthogonal complement of the span of B.

    Classical Gram-Schmidt with quaternion right coefficients.  A second
    pass runs only when the first one cut the norm of r to at most
    1/sqrt(2) of its input, the DGKS criterion (Daniel, Gragg, Kaufman &
    Stewart, Math. Comp. 30(136), 1976); with it the result is orthogonal
    to B to roundoff.
    """
    out, _ = orthogonalize_with_coeffs(r, B)
    return out


def orthogonalize_with_coeffs(r: np.ndarray, B: CompactBasis):
    """Like :func:`orthogonalize_against_basis` but also returns the total
    removed coefficients as a (k, 4) quaternion component array.  ``r``
    is not modified."""
    coeffs = B.dot_all(r)
    out = r - B.combine_quat(coeffs)
    if vec_norm(out) <= _DGKS_ETA * vec_norm(r):
        again = B.dot_all(out)
        coeffs += again
        out -= B.combine_quat(again)
    return out, coeffs
