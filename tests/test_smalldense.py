"""Dense kernel contracts: SVD, QR, bidiagonal and triangular solves."""

import numpy as np
import pytest

from quatsvd.smalldense import (
    NearSingularError,
    bidiag_solve,
    dense_svd,
    qr_factor,
    solve_upper,
    tri_solve_upper,
)


def char_poly_eigenvalues(A):
    """Eigenvalues of a tiny symmetric matrix via the characteristic
    polynomial, solved symbolically (independent of LAPACK)."""
    import sympy

    n = A.shape[0]
    lam = sympy.symbols("lam")
    Asym = sympy.Matrix(A.tolist()) - lam * sympy.eye(n)
    poly = sympy.Poly(Asym.det(method="berkowitz"), lam)
    roots = []
    for r in poly.nroots(n=30):
        assert abs(sympy.im(r)) < 1e-20
        roots.append(float(sympy.re(r)))
    return np.sort(roots)[::-1]


def random_bidiagonal(rng, k):
    B = np.zeros((k, k))
    np.fill_diagonal(B, rng.uniform(0.5, 2.0, size=k))
    for j in range(k - 1):
        B[j, j + 1] = rng.uniform(0.0, 1.5)
    return B


class TestDenseSvd:
    def test_antidiagonal(self):
        res = dense_svd(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(res.sigmas, [1.0, 1.0])

    def test_negative_scalar_sign_product(self):
        res = dense_svd(np.array([[-2.0]]))
        assert res.sigmas[0] == 2.0
        assert res.U[0, 0] * res.V[0, 0] == -1.0
        assert res.U[0, 0] > 0.0  # sign convention anchors the left vector

    def test_bidiagonal_against_char_poly(self, rng):
        for k in (2, 3, 4):
            B = random_bidiagonal(rng, k)
            res = dense_svd(B)
            want = np.sqrt(char_poly_eigenvalues(B.T @ B))
            assert np.allclose(np.sort(res.sigmas)[::-1], want,
                               rtol=1e-12, atol=1e-12)

    def test_reconstruction_and_orthogonality(self, rng):
        for m, n in [(1, 1), (5, 3), (3, 5), (12, 12), (40, 17), (25, 40)]:
            A = rng.standard_normal((m, n))
            res = dense_svd(A)
            normA = np.linalg.norm(A)
            recon = res.U @ np.diag(res.sigmas) @ res.V.T
            assert np.linalg.norm(recon - A) <= 1e-13 * normA
            r = res.sigmas.size
            assert np.abs(res.U.T @ res.U - np.eye(r)).max() <= 1e-13
            assert np.abs(res.V.T @ res.V - np.eye(r)).max() <= 1e-13
            assert np.all(np.diff(res.sigmas) <= 1e-14 * res.sigmas[0])

    def test_bidiagonal_12_reconstruction(self, rng):
        B = random_bidiagonal(rng, 12)
        res = dense_svd(B)
        recon = res.U @ np.diag(res.sigmas) @ res.V.T
        assert np.linalg.norm(recon - B) <= 1e-13 * np.linalg.norm(B)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            dense_svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestQrFactor:
    def test_identity(self):
        Q, R = qr_factor(np.eye(3))
        assert np.array_equal(Q, np.eye(3))
        assert np.array_equal(R, np.eye(3))

    def test_three_four_five(self):
        Q, R = qr_factor(np.array([[3.0], [4.0]]))
        assert np.allclose(Q, [[0.6], [0.8]])
        assert np.allclose(R, [[5.0]])

    def test_gram_and_nonneg_diagonal(self, rng):
        C = rng.standard_normal((9, 5))
        Q, R = qr_factor(C)
        assert np.abs(Q.T @ Q - np.eye(5)).max() <= 1e-13
        assert np.all(np.diag(R) >= 0.0)
        assert np.linalg.norm(Q @ R - C) <= 1e-13 * np.linalg.norm(C)

    def test_harmonic_coefficient_matrix_gram(self, rng):
        # The QR input of a harmonic restart: solved coefficients of the
        # row-extended projected matrix of a genuine factorization.
        from quatsvd.bidiag import lanczos_bidiag
        from quatsvd.quatlin import random_unit_vector
        from quatsvd.restart import check_convergence
        from conftest import rand_qmat

        M = rand_qmat(rng, 14, 14)
        F = lanczos_bidiag(M, random_unit_vector(14, rng), 8, rng)
        beta_k = F.beta_last
        t = 3
        chk = check_convergence(F.B, beta_k, 1e-10, t, which="smallest")
        sig, W, z = chk.theta, chk.W, chk.z
        C = np.zeros((9, t + 1))
        C[:8, :t] = W * sig[None, :]
        C[:8, t] = -beta_k * z
        C[8, t] = 1.0
        Q, R = qr_factor(C)
        assert np.abs(Q.T @ Q - np.eye(t + 1)).max() <= 1e-13

    def test_rank_deficient_signaled(self):
        C = np.ones((4, 2))
        with pytest.raises(NearSingularError):
            qr_factor(C)

    def test_wide_rejected(self):
        with pytest.raises(ValueError):
            qr_factor(np.ones((2, 3)))


class TestBidiagSolve:
    def test_identity(self, rng):
        b = rng.standard_normal(6)
        x = bidiag_solve(np.ones(6), np.zeros(5), b)
        assert np.allclose(x, b, atol=1e-15)

    def test_two_by_two(self):
        x = bidiag_solve(np.array([2.0, 4.0]), np.array([1.0]),
                         np.array([1.0, 0.0]))
        assert np.allclose(x, [0.5, 0.0])

    def test_residual(self, rng):
        for k in (1, 4, 9, 20):
            B = random_bidiagonal(rng, k)
            b = rng.standard_normal(k)
            x = bidiag_solve(np.diag(B), np.diag(B, 1), b)
            assert np.linalg.norm(B @ x - b) <= 1e-13 * np.linalg.norm(b)

    def test_near_singular_signaled(self):
        with pytest.raises(NearSingularError):
            bidiag_solve(np.array([1.0, 1e-16]), np.array([1.0]),
                         np.array([1.0, 1.0]))


class TestTriSolve:
    def test_identity(self, rng):
        B = rng.standard_normal((4, 4))
        assert np.allclose(tri_solve_upper(np.eye(4), B), B, atol=1e-15)

    def test_diagonal(self):
        X = tri_solve_upper(np.diag([2.0, 4.0]), np.eye(2))
        assert np.allclose(X, np.diag([0.5, 0.25]))

    def test_residual(self, rng):
        R = np.triu(rng.standard_normal((6, 6))) + 3.0 * np.eye(6)
        B = rng.standard_normal((6, 6))
        X = tri_solve_upper(R, B)
        assert np.linalg.norm(X @ R - B) <= 1e-13 * np.linalg.norm(B)

    def test_singular_rejected(self):
        R = np.triu(np.ones((3, 3)))
        R[1, 1] = 0.0
        with pytest.raises(NearSingularError):
            tri_solve_upper(R, np.eye(3))

    def test_left_solve_residual(self, rng):
        R = np.triu(rng.standard_normal((5, 5))) + 2.0 * np.eye(5)
        b = rng.standard_normal(5)
        x = solve_upper(R, b)
        assert np.linalg.norm(R @ x - b) <= 1e-13 * np.linalg.norm(b)
