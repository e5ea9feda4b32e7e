"""Dense kernels for the small projected matrices.

SVD, QR and triangular/bidiagonal solves on matrices of at most a few
hundred rows.  LAPACK (through numpy/scipy) does the heavy lifting; this
module adds the deterministic conventions and the guards the restart logic
relies on.  Explicit matrix inverses are never formed.  Every singularity
guard, in the solves and in :func:`qr_factor`, raises NearSingularError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg


class NearSingularError(ValueError):
    """A solve or a QR factorization hit a diagonal entry too close to
    zero: the matrix is (numerically) singular or rank deficient."""


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD A = U @ diag(sigmas) @ V.T with sigmas descending."""

    U: np.ndarray
    sigmas: np.ndarray
    V: np.ndarray


def _fix_signs(U: np.ndarray, V: np.ndarray) -> None:
    """Make the first non-negligible entry of each left vector positive."""
    for j in range(U.shape[1]):
        col = U[:, j]
        scale = np.abs(col).max()
        if scale == 0.0:
            continue
        i0 = int(np.argmax(np.abs(col) > 1e-12 * scale))
        if col[i0] < 0.0:
            U[:, j] = -col
            V[:, j] = -V[:, j]


def dense_svd(A: np.ndarray) -> SvdResult:
    """Thin SVD with a deterministic sign convention.

    Singular values are sorted descending (LAPACK order; ties keep their
    original order).  Each left singular vector is normalized so that its
    first entry above 1e-12 of the column max is positive.
    """
    A = np.asarray(A, dtype=np.float64)
    if not np.all(np.isfinite(A)):
        raise ValueError("non-finite entries in SVD input")
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    V = Vt.T.copy()
    U = U.copy()
    _fix_signs(U, V)
    return SvdResult(U=U, sigmas=s, V=V)


def qr_factor(C: np.ndarray):
    """QR factorization C = Q @ R with R's diagonal non-negative.

    Raises :class:`NearSingularError` when a diagonal entry of R falls
    below 1e-14 times the Frobenius norm of C.
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
    """Solve B x = b for upper-bidiagonal B in O(k).

    ``alphas`` is the diagonal (length k), ``betas`` the superdiagonal
    (length k-1).  Raises :class:`NearSingularError` when any diagonal
    entry is below 1e-14 of the largest one.  The solver itself uses
    :func:`solve_upper`; this loop stays only while ``perfbench/layers.py``
    traces it by name.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    betas = np.asarray(betas, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    k = alphas.shape[0]
    if betas.shape[0] != max(k - 1, 0) or b.shape[0] != k:
        raise ValueError("inconsistent bidiagonal system sizes")
    amax = np.abs(alphas).max() if k else 0.0
    if k == 0 or np.abs(alphas).min() <= 1e-14 * amax:
        raise NearSingularError("near-singular bidiagonal matrix")
    x = np.empty(k)
    x[-1] = b[-1] / alphas[-1]
    for j in range(k - 2, -1, -1):
        x[j] = (b[j] - betas[j] * x[j + 1]) / alphas[j]
    return x


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
    """Solve R x = b for square upper-triangular R (b may be a matrix)."""
    return _guarded_upper_solve(R, b, trans="N")


def tri_solve_upper(R: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve X @ R = B for square upper-triangular R, without inverting R."""
    # X R = B  <=>  R.T X.T = B.T
    return _guarded_upper_solve(R, np.asarray(B).T, trans="T").T
