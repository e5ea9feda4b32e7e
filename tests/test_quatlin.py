"""Quaternion arithmetic and compact storage against the expansion oracle."""

import numpy as np
import pytest

from quatsvd.quatlin import (
    QUAT_CONJ,
    QUAT_TABLE,
    CompactBasis,
    CompactVector,
    QuatMatrix,
    Quaternion,
    expand_real_counterpart,
    expand_vector,
    orthogonalize_against_basis,
    quat_dot,
    quat_mul,
    random_unit_vector,
    structure_matrices,
    structured_matvec,
    vec_norm,
)

from conftest import orthonormal_basis, rand_qmat

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
        store = lambda q: CompactVector.from_quaternion(q).data[0]
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


class TestMatvec:
    def test_unit_i_times_j(self):
        M = QuatMatrix.from_scalar(I)
        x = CompactVector.from_quaternion(J)
        y = structured_matvec(M, x)
        assert np.allclose(y.data, CompactVector.from_quaternion(K).data,
                           atol=1e-15)

    def test_zero_matrix(self, rng):
        M = QuatMatrix.zeros(4, 3)
        y = structured_matvec(M, random_unit_vector(3, rng))
        assert np.all(y.data == 0.0)

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
        assert np.allclose(structured_matvec(Ms, x).data,
                           structured_matvec(Md, x).data, atol=1e-14)
        xa = random_unit_vector(20, rng)
        assert np.allclose(structured_matvec(Ms, xa, adjoint=True).data,
                           structured_matvec(Md, xa, adjoint=True).data,
                           atol=1e-14)

    def test_dimension_mismatch(self, rng):
        M = rand_qmat(rng, 4, 3)
        with pytest.raises(ValueError):
            structured_matvec(M, random_unit_vector(4, rng))
        with pytest.raises(ValueError):
            structured_matvec(M, random_unit_vector(3, rng), adjoint=True)

    def test_dense_promotion_above_density_limit(self, rng):
        import scipy.sparse as sp
        M = QuatMatrix(*[sp.coo_matrix(rng.standard_normal((5, 5)))
                         for _ in range(4)])
        assert not M.is_sparse

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_non_finite_entries_rejected(self, sparse, bad):
        import scipy.sparse as sp
        blocks = [np.eye(20) for _ in range(4)]
        blocks[2][3, 4] = bad
        if sparse:
            blocks = [sp.csr_matrix(b) for b in blocks]
        with pytest.raises(ValueError, match="block M2"):
            QuatMatrix(*blocks)


class TestQuatDot:
    def test_self_dot_is_unit(self, rng):
        v = random_unit_vector(7, rng)
        d = quat_dot(v, v)
        assert d.w == pytest.approx(1.0, abs=1e-14)
        assert abs(d.x) + abs(d.y) + abs(d.z) <= 1e-14

    def test_disjoint_supports(self):
        a = CompactVector.from_components([1, 0], [0, 0], [2, 0], [0, 0])
        b = CompactVector.from_components([0, 3], [0, 1], [0, 0], [0, 2])
        d = quat_dot(a, b)
        assert qtuple(d) == (0, 0, 0, 0)

    def test_matches_expansion_gram(self, rng):
        a, b = random_unit_vector(6, rng), random_unit_vector(6, rng)
        D = expand_vector(a).T @ expand_vector(b)
        want = expand_vector(CompactVector.from_quaternion(quat_dot(a, b)))
        assert np.abs(D - want).max() <= 1e-13

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            quat_dot(random_unit_vector(3, rng), random_unit_vector(4, rng))


class TestVecNorm:
    def test_zero(self):
        assert vec_norm(CompactVector.zeros(5)) == 0.0

    def test_full_quaternion_entry(self):
        v = CompactVector.from_quaternion(Quaternion(1, 1, 1, 1))
        assert vec_norm(v) == 2.0

    def test_matches_flat_norm(self, rng):
        v = CompactVector(rng.standard_normal((9, 4)))
        assert vec_norm(v) == pytest.approx(np.linalg.norm(v.data.ravel()),
                                            rel=1e-15)


class TestOrthogonalize:
    def test_already_orthogonal_unchanged(self, rng):
        basis = orthonormal_basis(rng, 12, 4)
        r = random_unit_vector(12, rng)
        r = orthogonalize_against_basis(r, basis)
        r = r.scaled(1.0 / vec_norm(r))
        again = orthogonalize_against_basis(r, basis)
        assert np.abs(again.data - r.data).max() <= 1e-14

    def test_basis_member_maps_to_zero(self, rng):
        basis = orthonormal_basis(rng, 10, 3)
        out = orthogonalize_against_basis(basis.vector(0), basis)
        assert vec_norm(out) <= 1e-14

    def test_residual_inner_products(self, rng):
        basis = orthonormal_basis(rng, 30, 6)
        r = random_unit_vector(30, rng).scaled(3.7)
        out = orthogonalize_against_basis(r, basis)
        assert np.abs(basis.dot_all(out)).max() <= 1e-13 * 3.7

    def test_idempotent(self, rng):
        basis = orthonormal_basis(rng, 20, 5)
        r = random_unit_vector(20, rng)
        once = orthogonalize_against_basis(r, basis)
        twice = orthogonalize_against_basis(once, basis)
        assert np.abs(twice.data - once.data).max() <= 1e-13


class TestCompactBasis:
    def test_combine_real_matches_loop(self, rng):
        basis = orthonormal_basis(rng, 8, 4)
        coeffs = rng.standard_normal(4)
        got = basis.combine_real(coeffs)
        want = np.zeros((8, 4))
        for i in range(4):
            want += coeffs[i] * basis.vector(i).data
        assert np.allclose(got.data, want, atol=1e-15)

    def test_combine_matrix_columns(self, rng):
        basis = orthonormal_basis(rng, 8, 4)
        C = rng.standard_normal((4, 2))
        out = basis.combine_matrix(C)
        for j in range(2):
            want = basis.combine_real(C[:, j])
            assert np.allclose(out.vector(j).data, want.data, atol=1e-15)

    def test_dot_all_matches_quat_dot_loop(self, rng):
        basis = CompactBasis.from_vectors(
            [CompactVector(rng.standard_normal((9, 4))) for _ in range(5)])
        r = CompactVector(rng.standard_normal((9, 4)))
        got = basis.dot_all(r)
        assert got.shape == (5, 4)
        for i, v in enumerate(basis):
            assert np.abs(got[i] - qtuple(quat_dot(v, r))).max() <= 1e-13

    def test_combine_quat_matches_expanded_sum(self, rng):
        basis = CompactBasis.from_vectors(
            [CompactVector(rng.standard_normal((7, 4))) for _ in range(4)])
        coeffs = rng.standard_normal((4, 4))
        got = basis.combine_quat(coeffs)
        # Counterpart of sum_i v_i q_i: sum_i expand(v_i) @ expand(q_i).
        want = sum(expand_vector(v) @ expand_vector(
                       CompactVector.from_quaternion(Quaternion(*q)))
                   for v, q in zip(basis, coeffs))
        assert np.abs(expand_vector(got) - want).max() <= 1e-13

    def test_append_length_check(self, rng):
        basis = orthonormal_basis(rng, 8, 2)
        with pytest.raises(ValueError):
            basis.append(random_unit_vector(9, rng))
