"""Quaternion arithmetic and compact storage against the expansion oracle."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from quatsvd.quatlin import (
    QUAT_CONJ,
    QUAT_TABLE,
    CompactBasis,
    QuatMatrix,
    expand_real_counterpart,
    expand_vector,
    orthogonalize_against_basis,
    orthogonalize_with_coeffs,
    random_unit_vector,
    structured_matvec,
    vec_norm,
)

from conftest import (
    basis_of,
    dedup_singular_values,
    from_components,
    from_quaternion,
    orthonormal_basis,
    rand_qmat,
)
from oracles import (
    Quaternion,
    quat_dot,
    quat_mul,
    scalar_matrix,
    structure_matrices,
    zero_matrix,
)

ONE = Quaternion(1, 0, 0, 0)
I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)


def qtuple(q):
    return (q.w, q.x, q.y, q.z)


class TestQuatMul:
    def test_unit_relations(self):
        minus_one = Quaternion(-1, 0, 0, 0)
        assert qtuple(quat_mul(I, I)) == qtuple(minus_one)
        assert qtuple(quat_mul(J, J)) == qtuple(minus_one)
        assert qtuple(quat_mul(K, K)) == qtuple(minus_one)
        assert qtuple(quat_mul(I, J)) == qtuple(K)
        assert qtuple(quat_mul(J, K)) == qtuple(I)
        assert qtuple(quat_mul(K, I)) == qtuple(J)
        assert qtuple(quat_mul(quat_mul(I, J), K)) == qtuple(minus_one)

    def test_conjugate_pair(self):
        got = quat_mul(Quaternion(1, 1, 0, 0), Quaternion(1, -1, 0, 0))
        assert qtuple(got) == (2, 0, 0, 0)

    def test_full_conjugate(self):
        q = Quaternion(1, 1, 1, 1)
        got = quat_mul(q, q.conjugate())
        assert qtuple(got) == (4, 0, 0, 0)

    def test_product_table_matches_quat_mul(self):
        units = [ONE, I, J, K]
        store = lambda q: from_quaternion(q)[0]
        for a in units:
            for b in units:
                got = np.einsum("a,b,abc->c", store(a), store(b), QUAT_TABLE)
                assert np.array_equal(got, store(quat_mul(a, b)))
            assert np.array_equal(QUAT_CONJ * store(a), store(a.conjugate()))

    def test_associativity_and_norm(self, rng):
        for _ in range(50):
            a, b, c = (Quaternion(*rng.standard_normal(4)) for _ in range(3))
            lhs = quat_mul(quat_mul(a, b), c)
            rhs = quat_mul(a, quat_mul(b, c))
            assert np.allclose(qtuple(lhs), qtuple(rhs), atol=1e-14, rtol=1e-14)
            assert quat_mul(a, b).norm() == pytest.approx(
                a.norm() * b.norm(), rel=1e-14)


class TestExpansion:
    def test_real_unit_is_identity(self):
        M = QuatMatrix([[1.0]], [[0.0]], [[0.0]], [[0.0]])
        assert np.array_equal(expand_real_counterpart(M), np.eye(4))

    def test_j_component_block_pattern(self):
        # Second block column of the counterpart layout.
        M = QuatMatrix([[0.0]], [[0.0]], [[1.0]], [[0.0]])
        want = np.array([[0, 1, 0, 0],
                         [-1, 0, 0, 0],
                         [0, 0, 0, 1],
                         [0, 0, -1, 0]], dtype=float)
        assert np.array_equal(expand_real_counterpart(M), want)

    def test_jrs_conjugation_exact(self, rng):
        M = rand_qmat(rng, 3, 2)
        E = expand_real_counterpart(M)
        Jm, Rm, Sm = structure_matrices(3)
        Jn, Rn, Sn = structure_matrices(2)
        assert np.array_equal(Jm @ E @ Jn.T, E)
        assert np.array_equal(Rm @ E @ Rn.T, E)
        assert np.array_equal(Sm @ E @ Sn.T, E)

    def test_structure_matrices_skew(self):
        for X in structure_matrices(3):
            assert np.array_equal(X.T, -X)
            assert np.array_equal(X @ X.T, np.eye(12))


# The two layouts quatlin wrote out by hand before both oracles shared one
# helper, kept verbatim as references for it.
def _reference_counterpart(M):
    b0, b1, b2, b3 = M.dense_blocks()
    return np.block([
        [b0, b2, b1, b3],
        [-b2, b0, b3, -b1],
        [-b1, -b3, b0, b2],
        [-b3, b1, -b2, b0],
    ])


def _reference_vector(x):
    c0, c1, c2, c3 = np.hsplit(x, 4)
    return np.block([
        [c0, c2, c1, c3],
        [-c2, c0, c3, -c1],
        [-c1, -c3, c0, c2],
        [-c3, c1, -c2, c0],
    ])


def assert_same_entries(got, want):
    """Equal dtype, shape and values, NaN for NaN, and equal signs of zero."""
    assert got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestOneLayout:
    def test_counterpart_matches_the_written_out_layout(self, rng):
        dense = [rng.standard_normal((5, 3)) for _ in range(4)]
        dense[1][0, :] = -0.0
        dense[3][:, 2] = 0.0
        sparse = [sp.random(40, 30, density=0.02, random_state=s, format="csr")
                  for s in range(4)]
        sparse[2] = -sparse[2]
        matrices = [QuatMatrix(*dense), QuatMatrix(*sparse),
                    QuatMatrix([[-0.0]], [[2.0]], [[0.0]], [[-3.5]])]
        assert matrices[1].is_sparse
        for M in matrices:
            assert_same_entries(expand_real_counterpart(M),
                                _reference_counterpart(M))

    @pytest.mark.parametrize("x", [
        np.array([[0.0, -0.0, 0.0, -0.0], [-0.0, 1.0, -2.0, 0.0]]),
        np.array([[1.5, -0.0, 3.0, -4.0]]),
        np.array([[np.nan, np.inf, -np.inf, 0.0],
                  [-0.0, -np.nan, 2.0, np.inf]])],
        ids=["signed-zeros", "n1", "non-finite"])
    def test_vector_matches_the_written_out_layout(self, x):
        assert_same_entries(expand_vector(x), _reference_vector(x))


class TestMatvec:
    def test_unit_i_times_j(self):
        M = scalar_matrix(I)
        x = from_quaternion(J)
        y = structured_matvec(M, x)
        assert np.allclose(y, from_quaternion(K), atol=1e-15)

    def test_zero_matrix(self, rng):
        M = zero_matrix(4, 3)
        y = structured_matvec(M, random_unit_vector(3, rng))
        assert np.all(y == 0.0)

    @pytest.mark.parametrize("adjoint", [False, True])
    def test_matches_expanded_counterpart(self, rng, adjoint):
        M = rand_qmat(rng, 8, 5)
        x = random_unit_vector(8 if adjoint else 5, rng)
        y = structured_matvec(M, x, adjoint=adjoint)
        E = expand_real_counterpart(M)
        E = E.T if adjoint else E
        want = E @ expand_vector(x)
        scale = np.abs(want).max()
        assert np.abs(expand_vector(y) - want).max() <= 1e-13 * max(scale, 1.0)

    @pytest.mark.parametrize("m,n", [(16, 16), (64, 64), (37, 64)])
    def test_oracle_equivalence_sizes(self, rng, m, n):
        M = rand_qmat(rng, m, n)
        x = random_unit_vector(n, rng)
        y = structured_matvec(M, x)
        want = expand_real_counterpart(M) @ expand_vector(x)
        assert np.abs(expand_vector(y) - want).max() <= 1e-13 * np.abs(want).max()

    def test_sparse_path_matches_dense(self, rng):
        import scipy.sparse as sp
        dense = [np.where(rng.random((20, 15)) < 0.05,
                          rng.standard_normal((20, 15)), 0.0)
                 for _ in range(4)]
        Ms = QuatMatrix(*[sp.coo_matrix(b) for b in dense])
        Md = QuatMatrix(*dense)
        assert Ms.is_sparse
        x = random_unit_vector(15, rng)
        assert np.allclose(structured_matvec(Ms, x),
                           structured_matvec(Md, x), atol=1e-14)
        xa = random_unit_vector(20, rng)
        assert np.allclose(structured_matvec(Ms, xa, adjoint=True),
                           structured_matvec(Md, xa, adjoint=True),
                           atol=1e-14)

    @staticmethod
    def _assert_matches_counterpart(M, rng):
        E = expand_real_counterpart(M)
        for adjoint, n in ((False, M.cols), (True, M.rows)):
            x = random_unit_vector(n, rng)
            got = expand_vector(structured_matvec(M, x, adjoint=adjoint))
            want = (E.T if adjoint else E) @ expand_vector(x)
            assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1.0)

    @pytest.mark.parametrize("dense_block", [0, 1, 2, 3])
    def test_interleaved_csr_holds_dense_blocks_of_a_sparse_matrix(
            self, rng, dense_block):
        import scipy.sparse as sp
        blocks = [sp.random(20, 15, density=0.05, format="csr",
                            random_state=rng, data_rvs=rng.standard_normal)
                  for _ in range(4)]
        # A dense zero M0 with sparse M1-M3 ...
        M = QuatMatrix(np.zeros((20, 15)), *blocks[1:])
        assert M.blocks[0].format == "csr" and M.max_abs[0] == 0.0
        assert M._stacked.nnz == sum(b.nnz for b in blocks[1:])
        self._assert_matches_counterpart(M, rng)
        # ... and one dense nonzero block, stored as CSR below the limit.
        blocks[dense_block] = blocks[dense_block].toarray()
        M = QuatMatrix(*blocks)
        assert M.blocks[dense_block].format == "csr" and M.is_sparse
        assert M._stacked.nnz == sum(np.count_nonzero(b) if i == dense_block
                                     else b.nnz for i, b in enumerate(blocks))
        # Column 4t + a is column t of block a, in order.
        assert M._stacked.has_sorted_indices
        for a, b in enumerate(M.dense_blocks()):
            assert np.array_equal(M._stacked[:, a::4].toarray(), b)
        self._assert_matches_counterpart(M, rng)

    def test_dense_block_of_a_sparse_matrix_is_stored_once(self, rng):
        # A 32 MB dense M0 was kept beside its 2,000 entries in _stacked.
        import scipy.sparse as sp
        n = 2000
        blocks = [sp.random(n, n, density=1e-3, format="csr",
                            random_state=rng, data_rvs=rng.standard_normal)
                  for _ in range(3)]
        M = QuatMatrix(np.diag(rng.uniform(1.0, 2.0, n)), *blocks)
        assert M.is_sparse
        assert all(sp.issparse(b) and b.format == "csr"
                   and b.has_canonical_format for b in M.blocks)
        assert M.blocks[0].nnz == n
        assert M._stacked.nnz == n + sum(b.nnz for b in blocks)

    @pytest.mark.parametrize("m,n", [(1, 12), (12, 1)])
    def test_interleaved_csr_on_a_single_row_or_column(self, rng, m, n):
        import scipy.sparse as sp
        # Two entries per block keep the density under the sparse limit.
        blocks = []
        for _ in range(4):
            at = rng.choice(max(m, n), 2, replace=False)
            rows, cols = (0 * at, at) if m == 1 else (at, 0 * at)
            blocks.append(sp.csr_matrix((rng.standard_normal(2), (rows, cols)),
                                        shape=(m, n)))
        M = QuatMatrix(*blocks)
        assert M.is_sparse and M._stacked.shape == (m, 4 * n)
        self._assert_matches_counterpart(M, rng)

    def test_interleaved_csr_keeps_stored_zeros_in_int32(self):
        import scipy.sparse as sp
        # M2 stores an explicit zero at (1, 0); M3 is stored but all zero.
        M0 = sp.csr_matrix(([2.0, 3.0], ([0, 1], [1, 2])), shape=(2, 3))
        M2 = sp.csr_matrix(([0.0, 5.0], ([1, 1], [0, 2])), shape=(2, 3))
        M3 = sp.csr_matrix(([0.0], ([0], [0])), shape=(2, 3))
        M = QuatMatrix(M0, sp.csr_matrix((2, 3)), M2, M3)
        H = M._stacked
        assert H.indices.dtype == np.int32 and H.indptr.dtype == np.int32
        assert H.has_canonical_format
        # Block M2's (1, 0) lands on column 4*0 + 2.
        assert H.indptr.tolist() == [0, 1, 4]
        assert H.indices.tolist() == [4, 2, 8, 10]
        assert H.data.tolist() == [2.0, 0.0, 3.0, 5.0]

    def test_all_zero_sparse_matrix_has_an_empty_interleaved_csr(self):
        import scipy.sparse as sp
        zero = sp.csr_matrix(([0.0], ([2], [1])), shape=(4, 3))
        M = QuatMatrix(zero, zero, sp.csr_matrix((4, 3)), zero)
        assert M.is_sparse and M.max_abs == (0.0, 0.0, 0.0, 0.0)
        assert M._stacked.shape == (4, 12) and M._stacked.nnz == 0
        assert np.array_equal(structured_matvec(M, np.ones((3, 4))),
                              np.zeros((4, 4)))

    def test_interleaved_csr_widens_its_indices_past_int32(self):
        # Column t of a 1 x (2**29 + 1) block is column 4t + a of the
        # interleaved CSR, which passes 2**31 - 1 at the last column:
        # scipy widens the indices, and 4t + a must not wrap.
        import scipy.sparse as sp
        n = 2 ** 29 + 1
        last = sp.csr_matrix(([1.0], ([0], [n - 1])), shape=(1, n))
        assert last.indices.dtype == np.int32
        zero = sp.csr_matrix((1, n))
        H = QuatMatrix(zero, zero, last, zero)._stacked
        assert H.shape == (1, 4 * n) and H.indices.dtype == np.int64
        assert H.indices.tolist() == [4 * (n - 1) + 2]

    def test_interleaved_csr_build_memory(self):
        # The build holds one concatenated copy of the entries beside H:
        # 2.7x H's bytes.  Concatenating the indices as int64 reads 4.0x,
        # though scipy casts them back to int32.
        import tracemalloc
        from quatsvd.io import gen_sparse_block
        blocks = [gen_sparse_block(2000, seed=i).tocsr() for i in range(4)]
        QuatMatrix(*blocks)
        tracemalloc.start()
        try:
            M = QuatMatrix(*blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        H = M._stacked
        assert H.indices.dtype == np.int32
        assert peak <= 3 * (H.data.nbytes + H.indices.nbytes + H.indptr.nbytes)

    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("pure", [False, True])
    @pytest.mark.parametrize("height", [1, 2, 3])
    def test_panels_match_expanded_counterpart(self, rng, monkeypatch,
                                               adjoint, pure, height):
        from quatsvd import quatlin
        M = rand_qmat(rng, 8, 5)
        if pure:
            M = QuatMatrix(np.zeros((8, 5)), *M.blocks[1:])
        # Budgets just under height + 1 panel rows: 8 rows in panels of
        # 3 end with 2, and 5 columns in panels of 2 or 3 end with 1 or 2.
        contracted = 8 if adjoint else 5
        monkeypatch.setattr(quatlin, "_PANEL_MACS",
                            4 * contracted * (height + 1) - 1)
        x = random_unit_vector(contracted, rng)
        y = structured_matvec(M, x, adjoint=adjoint)
        E = expand_real_counterpart(M)
        E = E.T if adjoint else E
        want = E @ expand_vector(x)
        scale = np.abs(want).max()
        assert np.abs(expand_vector(y) - want).max() <= 1e-13 * max(scale, 1.0)

    def test_strided_channel_views_stored_contiguous(self, rng):
        pix = rng.uniform(0, 255, (12, 9, 3))
        views = [pix[..., c] for c in range(3)]
        copies = [np.ascontiguousarray(v) for v in views]
        assert not any(v.flags.c_contiguous for v in views)
        M = QuatMatrix(views[0], *views)
        assert all(b.flags.c_contiguous for b in M.blocks)
        C = QuatMatrix(copies[0], *copies)
        for adjoint, n in ((False, 9), (True, 12)):
            x = random_unit_vector(n, rng)
            assert np.array_equal(structured_matvec(M, x, adjoint=adjoint),
                                  structured_matvec(C, x, adjoint=adjoint))
        # Contiguous float64 blocks are stored as given, not copied.
        assert all(b is c for b, c in zip(C.blocks[1:], copies))

    @pytest.mark.parametrize("adjoint", [False, True])
    def test_dense_matvec_copies_no_block(self, rng, adjoint):
        import tracemalloc
        M = rand_qmat(rng, 256, 512)
        x = random_unit_vector(256 if adjoint else 512, rng)
        structured_matvec(M, x, adjoint=adjoint)
        tracemalloc.start()
        try:
            structured_matvec(M, x, adjoint=adjoint)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < M.blocks[0].nbytes

    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_pure_quaternion_takes_three_block_products(self, rng, adjoint,
                                                        sparse, monkeypatch):
        import scipy.sparse as sp
        from quatsvd import quatlin
        # Panels of 7 rows (5 panels, the last of 2) or 4 columns (5).
        monkeypatch.setattr(quatlin, "_PANEL_MACS", 7 * 4 * 20)
        products = []

        class Recorded:
            """A dense block read only through slices (panels); counts
            the slices and how often each entry is read."""
            __array_ufunc__ = None      # no ndarray product with the block

            def __init__(self, block):
                self.block = block
                self.reads = np.zeros(block.shape, dtype=int)

            def __getitem__(self, key):
                products.append(1)
                self.reads[key] += 1
                return self.block[key]

            @property
            def T(self):
                # A view: reads through the transpose count on the block.
                view = Recorded(self.block.T)
                view.reads = self.reads.T
                return view

        class Counted:
            """The interleaved CSR, or its transpose: records the format
            of each scipy product taken with it."""

            def __init__(self, H):
                self.H = H

            @property
            def T(self):
                return Counted(self.H.T)

            def __matmul__(self, x):
                products.append(self.H.format)
                return self.H @ x

        channels = [np.where(rng.random((30, 20)) < 0.05,
                             rng.uniform(0, 255, (30, 20)), 0.0)
                    for _ in range(3)]
        M0 = np.zeros((30, 20))
        if sparse:
            channels = [sp.csr_matrix(c) for c in channels]
            # A zero block that still stores two zeros.
            M0 = sp.csr_matrix(([0.0, 0.0], ([1, 2], [3, 4])), shape=(30, 20))
        M = QuatMatrix(M0, *channels)
        assert M.is_sparse == sparse and M.max_abs[0] == 0.0
        want = expand_real_counterpart(M)
        want = want.T if adjoint else want
        x = random_unit_vector(30 if adjoint else 20, rng)
        if sparse:
            # The three channels' entries alone, interleaved in one CSR
            # whose transpose shares its arrays.
            H = M._stacked
            assert H.nnz == sum(c.nnz for c in channels)
            assert np.shares_memory(H.T.data, H.data)
            M._stacked = Counted(H)
            y = structured_matvec(M, x, adjoint=adjoint)
            # One scipy product per call: the CSC view for the adjoint.
            assert products == ["csc" if adjoint else "csr"]
        else:
            M.blocks = tuple(Recorded(b) for b in M.blocks)
            y = structured_matvec(M, x, adjoint=adjoint)
            # M0 is never read; each channel is read once, entry by entry.
            assert not M.blocks[0].reads.any()
            assert all((b.reads == 1).all() for b in M.blocks[1:])
            assert len(products) == 3 * 5
        assert np.allclose(expand_vector(y), want @ expand_vector(x),
                           atol=1e-12)

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("e", [664, -997])
    def test_frobenius_norm_near_overflow_and_underflow(self, rng, e, sparse):
        # 2**664 is about 1e200 and 2**-997 about 1e-300: squaring the
        # entries unscaled gives inf or 0.
        import scipy.sparse as sp
        blocks = [rng.standard_normal((20, 16)) for _ in range(4)]
        if sparse:
            blocks = [sp.csr_matrix(b) for b in blocks]
        want = np.ldexp(QuatMatrix(*blocks).frobenius_norm(), e)
        got = QuatMatrix(*[b * 2.0 ** e for b in blocks]).frobenius_norm()
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_max_abs_per_block(self, sparse):
        import scipy.sparse as sp
        blocks = [np.zeros((3, 4)) for _ in range(4)]
        blocks[1][0, 2] = -7.5
        blocks[2][2, 3] = 2.0
        blocks[2][1, 1] = -1.0
        if sparse:
            blocks = [sp.csr_matrix(b) for b in blocks]
            # A stored zero is still a zero block.
            blocks[3] = sp.csr_matrix(([0.0], ([1], [1])), shape=(3, 4))
            assert blocks[3].nnz == 1
        assert QuatMatrix(*blocks).max_abs == (0.0, 7.5, 2.0, 0.0)

    def test_dimension_mismatch(self, rng):
        M = rand_qmat(rng, 4, 3)
        with pytest.raises(ValueError):
            structured_matvec(M, random_unit_vector(4, rng))
        with pytest.raises(ValueError):
            structured_matvec(M, random_unit_vector(3, rng), adjoint=True)
        # Right length, wrong shape: (n,) and (n, 3).
        for adjoint, n in ((False, 3), (True, 4)):
            for shape in ((n,), (n, 3)):
                with pytest.raises(ValueError):
                    structured_matvec(M, np.ones(shape), adjoint=adjoint)

    def test_dense_promotion_above_density_limit(self, rng):
        import scipy.sparse as sp
        M = QuatMatrix(*[sp.coo_matrix(rng.standard_normal((5, 5)))
                         for _ in range(4)])
        assert not M.is_sparse

    @pytest.mark.parametrize("total,sparse", [(15, True), (16, False)])
    def test_density_limit_boundary(self, total, sparse):
        import scipy.sparse as sp
        # 4x4 blocks: the limit 0.25 of 64 entries is 16 nonzeros.
        blocks = [sp.lil_matrix((4, 4)) for _ in range(4)]
        for e in range(total):
            blocks[e % 4][e // 4, (e // 4 + e) % 4] = 1.0
        assert sum(b.nnz for b in blocks) == total
        assert QuatMatrix(*blocks).is_sparse == sparse

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_zero_size_sparse_blocks(self, shape):
        import scipy.sparse as sp
        M = QuatMatrix(*[sp.csr_matrix(shape)] * 4)
        dense = QuatMatrix(*[np.zeros(shape)] * 4)
        assert (M.rows, M.cols) == (dense.rows, dense.cols) == shape
        assert all(b.shape == shape for b in M.dense_blocks())

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_zero_size_dense_matvec(self, shape):
        # No panel height is derived from an empty contraction.
        M = QuatMatrix(*[np.zeros(shape)] * 4)
        m, n = shape
        assert np.array_equal(structured_matvec(M, np.zeros((n, 4))),
                              np.zeros((m, 4)))
        assert np.array_equal(
            structured_matvec(M, np.zeros((m, 4)), adjoint=True),
            np.zeros((n, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_non_finite_entries_rejected(self, sparse, bad):
        import scipy.sparse as sp
        blocks = [np.eye(20) for _ in range(4)]
        blocks[2][3, 4] = bad
        if sparse:
            blocks = [sp.csr_matrix(b) for b in blocks]
        with pytest.raises(ValueError, match="block M2"):
            QuatMatrix(*blocks)

    @pytest.mark.parametrize("sparse,dtype", [
        (False, np.complex128), (True, np.complex128), (False, np.str_),
        (False, object)])
    def test_non_real_dtype_rejected(self, sparse, dtype):
        # A complex block is not silently cut to its real part (dense) or
        # kept complex (sparse).
        import scipy.sparse as sp
        blocks = [np.eye(4) for _ in range(4)]
        blocks[0] = (np.eye(4) * (1 + 2j)).astype(dtype)
        if sparse:
            blocks = [sp.csr_matrix(b) for b in blocks]
        with pytest.raises(ValueError, match="block M0"):
            QuatMatrix(*blocks)

    def test_sparse_duplicates_are_summed_on_a_copy(self):
        import scipy.sparse as sp
        data, indices, indptr = (np.array([0.6, 0.6, 1.0]), np.array([0, 0, 1]),
                                 np.array([0, 2, 3]))
        M0 = sp.csr_matrix((data, indices, indptr), shape=(2, 2))
        before = [a.copy() for a in (M0.data, M0.indices, M0.indptr)]
        M = QuatMatrix(M0, *[sp.csr_matrix((2, 2))] * 3)
        assert M.is_sparse and M.blocks[0].has_canonical_format
        assert M.max_abs[0] == 1.2
        assert M.frobenius_norm() == pytest.approx(math.sqrt(1.2 ** 2 + 1.0))
        for a, b in zip((M0.data, M0.indices, M0.indptr), before):
            assert np.array_equal(a, b)

    def test_canonical_float64_csr_is_not_copied(self, rng):
        import scipy.sparse as sp
        blocks = [sp.random(30, 20, density=0.05, format="csr",
                            random_state=rng) for _ in range(4)]
        M = QuatMatrix(*blocks)
        assert M.is_sparse
        for b, kept in zip(blocks, M.blocks):
            assert np.shares_memory(b.data, kept.data)
            assert np.shares_memory(b.indices, kept.indices)

    @pytest.mark.parametrize("dtype", [bool, np.int32, np.int64])
    def test_bool_and_int_sparse_blocks_are_stored_as_float64(self, rng,
                                                              dtype):
        # A wide matrix is solved in smallest mode through its conjugate
        # transpose, which negates three blocks: a boolean CSR cannot be.
        import scipy.sparse as sp
        from quatsvd.restart import SolverOptions, solve_partial_svd
        blocks = [sp.csr_matrix(rng.random((6, 9)) < 0.15, dtype=dtype)
                  for _ in range(4)]
        M = QuatMatrix(*blocks)
        assert M.is_sparse and M._stacked.dtype == np.float64
        assert all(b.dtype == np.float64 for b in M.blocks)
        want = QuatMatrix(*[b.toarray().astype(np.float64) for b in blocks])
        assert np.array_equal(expand_real_counterpart(M),
                              expand_real_counterpart(want))
        T, _ = solve_partial_svd(M, SolverOptions(k=2, which="smallest",
                                                  seed=1))
        s, _ = dedup_singular_values(want)
        assert T.all_converged
        assert np.allclose(T.sigmas, s[::-1][:2], atol=1e-10)

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 4)])
    def test_blocks_must_be_2d(self, shape):
        with pytest.raises(ValueError, match="2-d"):
            QuatMatrix(*[np.zeros(shape)] * 4)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_block_shapes_must_match_m0(self, sparse):
        import scipy.sparse as sp
        blocks = [np.eye(4, 3)] * 3 + [np.eye(3, 4)]
        if sparse:
            blocks = [sp.csr_matrix(b) for b in blocks]
        with pytest.raises(ValueError,
                           match=r"block M3 shape \(3, 4\) != \(4, 3\)"):
            QuatMatrix(*blocks)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_conjugate_transpose(self, rng, sparse):
        import scipy.sparse as sp
        if sparse:
            blocks = [sp.random(7, 5, density=0.2, random_state=rng)
                      for _ in range(4)]
        else:
            blocks = [rng.standard_normal((7, 5)) for _ in range(4)]
        M = QuatMatrix(*blocks)
        Mt = M.conjugate_transpose()
        assert (Mt.rows, Mt.cols, Mt.is_sparse) == (5, 7, sparse)
        if sparse:
            assert all(b.format == "csr" and b.has_canonical_format
                       for b in Mt.blocks)
        else:
            assert all(b.flags.c_contiguous for b in Mt.blocks)
        assert np.array_equal(expand_real_counterpart(Mt),
                              expand_real_counterpart(M).T)


class TestQuatDot:
    def test_self_dot_is_unit(self, rng):
        v = random_unit_vector(7, rng)
        d = quat_dot(v, v)
        assert d.w == pytest.approx(1.0, abs=1e-14)
        assert abs(d.x) + abs(d.y) + abs(d.z) <= 1e-14

    def test_disjoint_supports(self):
        a = from_components([1, 0], [0, 0], [2, 0], [0, 0])
        b = from_components([0, 3], [0, 1], [0, 0], [0, 2])
        d = quat_dot(a, b)
        assert qtuple(d) == (0, 0, 0, 0)

    def test_matches_expansion_gram(self, rng):
        a, b = random_unit_vector(6, rng), random_unit_vector(6, rng)
        D = expand_vector(a).T @ expand_vector(b)
        want = expand_vector(from_quaternion(quat_dot(a, b)))
        assert np.abs(D - want).max() <= 1e-13

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            quat_dot(random_unit_vector(3, rng), random_unit_vector(4, rng))
        for shape in ((3,), (3, 3)):
            with pytest.raises(ValueError):
                quat_dot(np.ones(shape), random_unit_vector(3, rng))
            with pytest.raises(ValueError):
                quat_dot(random_unit_vector(3, rng), np.ones(shape))


class TestVecNorm:
    def test_zero(self):
        assert vec_norm(np.zeros((5, 4))) == 0.0

    def test_full_quaternion_entry(self):
        v = from_quaternion(Quaternion(1, 1, 1, 1))
        assert vec_norm(v) == 2.0

    def test_matches_flat_norm(self, rng):
        v = rng.standard_normal((9, 4))
        assert vec_norm(v) == pytest.approx(np.linalg.norm(v.ravel()),
                                            rel=1e-15)


class TestOrthogonalize:
    def test_already_orthogonal_unchanged(self, rng):
        basis = orthonormal_basis(rng, 12, 4)
        r = random_unit_vector(12, rng)
        r = orthogonalize_against_basis(r, basis)
        r = r * (1.0 / vec_norm(r))
        again = orthogonalize_against_basis(r, basis)
        assert np.abs(again - r).max() <= 1e-14

    def test_basis_member_maps_to_zero(self, rng):
        basis = orthonormal_basis(rng, 10, 3)
        out = orthogonalize_against_basis(basis.data[0], basis)
        assert vec_norm(out) <= 1e-14

    def test_residual_inner_products(self, rng):
        basis = orthonormal_basis(rng, 30, 6)
        r = random_unit_vector(30, rng) * 3.7
        out = orthogonalize_against_basis(r, basis)
        assert np.abs(basis.dot_all(out)).max() <= 1e-13 * 3.7

    def test_idempotent(self, rng):
        basis = orthonormal_basis(rng, 20, 5)
        r = random_unit_vector(20, rng)
        once = orthogonalize_against_basis(r, basis)
        twice = orthogonalize_against_basis(once, basis)
        assert np.abs(twice - once).max() <= 1e-13

    @staticmethod
    def _counted_passes(monkeypatch, r, basis):
        """orthogonalize_with_coeffs(r, basis) and its number of
        Gram-Schmidt passes, one dot_all call each."""
        calls = []
        dot_all = CompactBasis.dot_all

        def counting(self, x):
            calls.append(1)
            return dot_all(self, x)

        monkeypatch.setattr(CompactBasis, "dot_all", counting)
        out, total = orthogonalize_with_coeffs(r, basis)
        # Whatever the pass count, the coefficients account for all that
        # was removed.
        assert vec_norm(out + basis.combine_quat(total) - r) \
            <= 1e-14 * vec_norm(r)
        return out, len(calls)

    def test_generic_vector_takes_one_pass(self, rng, monkeypatch):
        basis = orthonormal_basis(rng, 200, 4)
        r = random_unit_vector(200, rng)
        _, passes = self._counted_passes(monkeypatch, r, basis)
        assert passes == 1

    def test_cancellation_takes_second_pass(self, rng, monkeypatch):
        basis = orthonormal_basis(rng, 200, 4)
        r = basis.data[0] + 1e-6 * rng.standard_normal((200, 4))
        out, passes = self._counted_passes(monkeypatch, r, basis)
        assert passes == 2
        assert np.abs(basis.dot_all(out)).max() <= 1e-13 * vec_norm(out)


class TestCompactBasis:
    def test_combine_real_matches_loop(self, rng):
        basis = orthonormal_basis(rng, 8, 4)
        coeffs = rng.standard_normal(4)
        got = basis.combine_real(coeffs)
        want = np.zeros((8, 4))
        for i in range(4):
            want += coeffs[i] * basis.data[i]
        assert np.allclose(got, want, atol=1e-15)

    def test_combine_matrix_columns(self, rng):
        basis = orthonormal_basis(rng, 8, 4)
        C = rng.standard_normal((4, 2))
        wants = [basis.combine_real(C[:, j]) for j in range(2)]
        out = basis.combine_matrix(C)
        assert out is basis and len(basis) == 2
        for j in range(2):
            assert np.allclose(out.data[j], wants[j], atol=1e-15)

    def test_dot_all_matches_quat_dot_loop(self, rng):
        basis = basis_of(rng.standard_normal((9, 4)) for _ in range(5))
        r = rng.standard_normal((9, 4))
        got = basis.dot_all(r)
        assert got.shape == (5, 4)
        for i, v in enumerate(basis.data):
            assert np.abs(got[i] - qtuple(quat_dot(v, r))).max() <= 1e-13

    def test_combine_quat_matches_expanded_sum(self, rng):
        basis = basis_of(rng.standard_normal((7, 4)) for _ in range(4))
        coeffs = rng.standard_normal((4, 4))
        got = basis.combine_quat(coeffs)
        # Counterpart of sum_i v_i q_i: sum_i expand(v_i) @ expand(q_i).
        want = sum(expand_vector(v) @ expand_vector(
                       from_quaternion(Quaternion(*q)))
                   for v, q in zip(basis.data, coeffs))
        assert np.abs(expand_vector(got) - want).max() <= 1e-13

    @pytest.mark.parametrize("k", [0, 1, 4, "shrunk"])
    def test_combine_quat_panels_match_expanded_sum(self, rng, monkeypatch, k):
        from quatsvd import quatlin
        basis = CompactBasis(7, 4)
        for _ in range(4 if k == "shrunk" else k):
            basis.append(rng.standard_normal((7, 4)))
        if k == "shrunk":
            basis.combine_matrix(rng.standard_normal((4, 2)))
        size = len(basis)
        # 4n = 28 rows of the product in panels of 5: five, then one of 3.
        monkeypatch.setattr(quatlin, "_PANEL_MACS", 5 * max(4 * size, 1))
        coeffs = rng.standard_normal((size, 4))
        got = basis.combine_quat(coeffs)
        want = sum((expand_vector(v) @ expand_vector(
                        from_quaternion(Quaternion(*q)))
                    for v, q in zip(basis.data, coeffs)), np.zeros((28, 4)))
        assert np.abs(expand_vector(got) - want).max() <= 1e-13

    def test_append_length_check(self, rng):
        basis = CompactBasis(8, 3)
        for v in orthonormal_basis(rng, 8, 2).data:
            basis.append(v)
        with pytest.raises(ValueError):
            basis.append(random_unit_vector(9, rng))
        # (8, 1) would otherwise broadcast into the (8, 4) slot.
        for shape in ((8,), (8, 3), (8, 1)):
            with pytest.raises(ValueError):
                basis.append(np.ones(shape))
        assert len(basis) == 2

    def test_append_to_full_basis_rejected(self, rng):
        basis = orthonormal_basis(rng, 8, 2)
        with pytest.raises(ValueError):
            basis.append(random_unit_vector(8, rng))
        assert len(basis) == 2 and basis.capacity == 2

    def test_dot_all_shape_check(self, rng):
        basis = orthonormal_basis(rng, 8, 2)
        for shape in ((9, 4), (8,), (8, 3)):
            with pytest.raises(ValueError):
                basis.dot_all(np.ones(shape))
