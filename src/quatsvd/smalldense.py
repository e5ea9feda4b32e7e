"""Dense kernels for the small projected matrices.

The solver's one dense kernel is :func:`dense_svd`, which returns plain
arrays with the full right singular basis, so that the null vector of a
wide matrix comes with its SVD.  LAPACK (through numpy/scipy) does the
heavy lifting; this module adds the deterministic conventions, and is the
only package module that calls a dense factorization or solver.  The QR
factorization and the triangular solves below share one pivot guard and
raise NearSingularError; the solver calls none of them, and they stay
only while ``perfbench/layers.py`` traces them by name.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


class NearSingularError(ValueError):
    """A solve or a QR factorization hit a diagonal entry too close to
    zero: the matrix is (numerically) singular or rank deficient."""


def dense_svd(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD ``(U, sigmas, V)`` with A = U @ diag(sigmas) @ V[:, :r].T and
    r = len(sigmas): U is thin and V the full square right basis, whose
    columns past r span the null space of a wide A.  The sigmas descend
    (LAPACK order; ties keep their order).  Each left vector is signed so
    that its first entry above 1e-12 of the column max is positive, and
    its right vector flips with it; null-space columns keep LAPACK's signs.
    """
    A = np.asarray(A, dtype=np.float64)
    if not np.all(np.isfinite(A)):
        raise ValueError("non-finite entries in SVD input")
    U, s, Vt = np.linalg.svd(A)
    U, V = U[:, :s.size], Vt.T.copy()
    big = np.abs(U) > 1e-12 * np.abs(U).max(axis=0, initial=0.0)
    lead = U[big.argmax(axis=0), np.arange(s.size)] if s.size else s
    flip = np.where(lead < 0.0, -1.0, 1.0)
    V[:, :s.size] *= flip
    return U * flip, s, V


def qr_factor(C: np.ndarray):
    """QR factorization C = Q @ R with R's diagonal non-negative.

    Raises :class:`NearSingularError` when a diagonal entry of R falls
    below 1e-14 times the Frobenius norm of C.  The solver never calls
    this; it stays only while ``perfbench/layers.py`` traces it by name.
    """
    C = np.asarray(C, dtype=np.float64)
    if C.shape[0] < C.shape[1]:
        raise ValueError("qr_factor expects rows >= cols")
    Q, R = np.linalg.qr(C)
    flip = np.sign(np.diag(R))
    flip[flip == 0.0] = 1.0
    Q = Q * flip
    R = flip[:, None] * R
    scale = np.linalg.norm(C)
    if np.any(np.diag(R) <= 1e-14 * scale):
        raise NearSingularError("rank-deficient matrix in QR factorization")
    return Q, R


def bidiag_solve(alphas: np.ndarray, betas: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve B x = b for the upper-bidiagonal B with diagonal ``alphas``
    (length k) and superdiagonal ``betas`` (length k-1), through
    :func:`solve_upper` and its guard, which also refuses k = 0.  The
    solver never calls this; it stays only while ``perfbench/layers.py``
    traces it by name.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    betas = np.asarray(betas, dtype=np.float64)
    k = alphas.shape[0]
    if betas.shape[0] != max(k - 1, 0) or np.shape(b)[0] != k:
        raise ValueError("inconsistent bidiagonal system sizes")
    B = np.diag(alphas)
    B[:-1, 1:] += np.diag(betas)
    return solve_upper(B, b)


def _guarded_upper_solve(R, b, trans: str) -> np.ndarray:
    """Upper-triangular ``solve_triangular`` (``trans='T'`` solves with R.T),
    refused when a diagonal entry is below 1e-14 of the largest one."""
    R = np.asarray(R, dtype=np.float64)
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag.min() <= 1e-14 * diag.max():
        raise NearSingularError("near-singular upper-triangular matrix")
    return scipy.linalg.solve_triangular(R, np.asarray(b, dtype=np.float64),
                                         trans=trans, lower=False)


def solve_upper(R: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve R x = b for square upper-triangular R (b may be a matrix).
    The solver never calls this; it stays only while ``perfbench/layers.py``
    traces it by name."""
    return _guarded_upper_solve(R, b, trans="N")


def tri_solve_upper(R: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve X @ R = B for square upper-triangular R, without inverting R.
    The solver never calls this; it stays only while ``perfbench/layers.py``
    traces it by name."""
    # X R = B  <=>  R.T X.T = B.T
    return _guarded_upper_solve(R, np.asarray(B).T, trans="T").T
