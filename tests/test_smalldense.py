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
        _, sigmas, _ = dense_svd(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(sigmas, [1.0, 1.0])

    def test_negative_scalar_sign_product(self):
        U, sigmas, V = dense_svd(np.array([[-2.0]]))
        assert sigmas[0] == 2.0
        assert U[0, 0] * V[0, 0] == -1.0
        assert U[0, 0] > 0.0  # sign convention anchors the left vector

    def test_bidiagonal_against_char_poly(self, rng):
        for k in (2, 3, 4):
            B = random_bidiagonal(rng, k)
            _, sigmas, _ = dense_svd(B)
            want = np.sqrt(char_poly_eigenvalues(B.T @ B))
            assert np.allclose(np.sort(sigmas)[::-1], want,
                               rtol=1e-12, atol=1e-12)

    def test_reconstruction_and_orthogonality(self, rng):
        # U is thin and V full: on wide input its trailing columns are an
        # orthonormal basis of the null space.
        for m, n in [(1, 1), (5, 3), (3, 5), (12, 12), (40, 17), (25, 40),
                     (8, 9)]:
            A = rng.standard_normal((m, n))
            U, sigmas, V = dense_svd(A)
            normA = np.linalg.norm(A)
            r = sigmas.size
            assert U.shape == (m, r) and V.shape == (n, n)
            recon = U @ np.diag(sigmas) @ V[:, :r].T
            assert np.linalg.norm(recon - A) <= 1e-13 * normA
            assert np.abs(U.T @ U - np.eye(r)).max() <= 1e-13
            assert np.abs(V.T @ V - np.eye(n)).max() <= 1e-13
            assert np.linalg.norm(A @ V[:, r:]) <= 1e-13 * normA
            assert np.all(np.diff(sigmas) <= 1e-14 * sigmas[0])

    def test_bidiagonal_12_reconstruction(self, rng):
        B = random_bidiagonal(rng, 12)
        U, sigmas, V = dense_svd(B)
        recon = U @ np.diag(sigmas) @ V.T
        assert np.linalg.norm(recon - B) <= 1e-13 * np.linalg.norm(B)

    def test_signs_match_the_column_rule(self, rng):
        # The rule applied column by column to LAPACK's own factors: the
        # first entry above 1e-12 of the column max of each left vector is
        # made positive, and its right vector flips with it.  Leading zero
        # rows make that entry a later one; V's null-space columns keep
        # LAPACK's signs.
        flips = 0
        for m, n in [(6, 4), (4, 7), (9, 9), (1, 3)]:
            A = np.vstack([np.zeros((2, n)), rng.standard_normal((m, n))])
            U0, s0, Vt0 = np.linalg.svd(A)
            want_U, want_V = U0[:, :s0.size].copy(), Vt0.T.copy()
            for j, col in enumerate(want_U.T):
                big = np.abs(col) > 1e-12 * np.abs(col).max()
                if col[big][0] < 0.0:
                    want_U[:, j] *= -1.0
                    want_V[:, j] *= -1.0
                    flips += 1
            U, sigmas, V = dense_svd(A)
            assert np.array_equal(sigmas, s0)
            assert np.array_equal(U, want_U) and np.array_equal(V, want_V)
        assert flips > 0

    def test_empty_input(self):
        for m, n in [(0, 3), (3, 0), (0, 0)]:
            U, sigmas, V = dense_svd(np.zeros((m, n)))
            assert (U.shape, sigmas.shape, V.shape) == ((m, 0), (0,), (n, n))

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

    def test_empty_system_is_singular(self):
        with pytest.raises(NearSingularError):
            bidiag_solve(np.zeros(0), np.zeros(0), np.zeros(0))

    @pytest.mark.parametrize("betas, b", [(np.ones(3), np.ones(3)),
                                          (np.ones(1), np.ones(3)),
                                          (np.ones(2), np.ones(2))])
    def test_mismatched_sizes_rejected(self, betas, b):
        with pytest.raises(ValueError, match="inconsistent"):
            bidiag_solve(np.ones(3), betas, b)

    def test_matches_solve_upper(self, rng):
        for k in (1, 2, 7):
            B = random_bidiagonal(rng, k)
            b = rng.standard_normal(k)
            x = bidiag_solve(np.diag(B), np.diag(B, 1), b)
            assert np.array_equal(x, solve_upper(B, b))


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
