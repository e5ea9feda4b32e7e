"""Partial Lanczos bidiagonalization of quaternion matrices.

Runs the two-sided recurrence entirely in compact storage: each step costs
one matvec, one adjoint matvec and two reorthogonalization sweeps.  The
produced bases are orthonormal in the quaternion inner product and satisfy

    M P_k = Q_k B_k,      M* Q_k = P_k B_k' + f e_k'

with B_k upper bidiagonal (alphas on the diagonal, betas above) and f the
residual vector orthogonal to P_k.  Exact breakdowns deflate: the
recurrence continues with a fresh random unit vector orthogonalized
against the current basis, and the zero coefficient is kept in B_k.

:class:`KrylovState` is the one factorization state of the package.  The
restart drivers in :mod:`quatsvd.restart` shrink it to an arrow or
triangular leading block and hand it back to :func:`lanczos_extend`, which
only appends bidiagonal trailing rows/columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .quatlin import (
    CompactBasis,
    CompactVector,
    QuatMatrix,
    orthogonalize_against_basis,
    random_unit_vector,
    structured_matvec,
    vec_norm,
)

# A computed alpha or beta at or below this fraction of the largest entry
# of B is an exact breakdown.
BREAKDOWN_TOL = 1e-14


@dataclass
class KrylovState:
    """Working state of a (possibly restarted) partial factorization.

    ``B`` is the dense projected matrix (upper triangular throughout this
    package), ``f`` the continuation residual with ``beta_last = ||f||``.
    ``matvecs`` counts products with M and M*, ``deflations`` lists the
    ``(step, "alpha" | "beta")`` breakdowns, and ``sigma_max`` is the
    restart driver's running estimate of the largest singular value.
    """

    P: CompactBasis
    Q: CompactBasis
    B: np.ndarray
    f: CompactVector
    beta_last: float
    rng: np.random.Generator
    matvecs: int = 0
    deflations: list = field(default_factory=list)
    sigma_max: float = 0.0

    @property
    def steps(self) -> int:
        return len(self.P)


def _fresh_direction(n: int, basis: CompactBasis, rng: np.random.Generator) -> CompactVector:
    """Random unit vector orthogonal to ``basis`` (deflation restart)."""
    for _ in range(8):
        v = random_unit_vector(n, rng)
        v = orthogonalize_against_basis(v, basis)
        nv = vec_norm(v)
        if nv > 1e-6:
            return v.scaled(1.0 / nv)
    raise RuntimeError("could not draw a direction orthogonal to the basis")


def _grow(B: np.ndarray) -> np.ndarray:
    s = B.shape[0]
    out = np.zeros((s + 1, s + 1))
    out[:s, :s] = B
    return out


def lanczos_extend(M: QuatMatrix, state: KrylovState, to_step: int) -> KrylovState:
    """Append standard Lanczos steps until ``B`` has ``to_step`` columns.

    The leading block of ``B`` (arrow or triangular after a restart) is
    left untouched; new coefficients land on the diagonal and first
    superdiagonal.  Breakdowns deflate as described in the module
    docstring.
    """
    if to_step > min(M.rows, M.cols):
        raise ValueError("cannot extend past min(m, n)")
    while state.steps < to_step:
        s = state.steps
        scale = float(np.abs(state.B).max(initial=0.0))
        beta = vec_norm(state.f)
        if beta <= BREAKDOWN_TOL * scale or beta == 0.0:
            beta = 0.0
            p_new = _fresh_direction(M.cols, state.P, state.rng) if s else \
                random_unit_vector(M.cols, state.rng)
            state.deflations.append((s, "beta"))
        else:
            p_new = state.f.scaled(1.0 / beta)

        w = structured_matvec(M, p_new)
        state.matvecs += 1
        if s and beta > 0.0:
            w = w - state.Q.vector(s - 1).scaled(beta)
        if s:
            w = orthogonalize_against_basis(w, state.Q)
        alpha = vec_norm(w)
        scale = max(scale, alpha)
        if alpha <= BREAKDOWN_TOL * scale or alpha == 0.0:
            alpha = 0.0
            q_new = _fresh_direction(M.rows, state.Q, state.rng) if s else \
                random_unit_vector(M.rows, state.rng)
            state.deflations.append((s, "alpha"))
        else:
            q_new = w.scaled(1.0 / alpha)

        state.B = _grow(state.B)
        if s:
            state.B[s - 1, s] = beta
        state.B[s, s] = alpha
        state.P.append(p_new)
        state.Q.append(q_new)

        f = structured_matvec(M, q_new, adjoint=True) - p_new.scaled(alpha)
        state.matvecs += 1
        state.f = orthogonalize_against_basis(f, state.P)
        state.beta_last = vec_norm(state.f)
    return state


def start_state(M: QuatMatrix, p1: CompactVector,
                rng: np.random.Generator) -> KrylovState:
    """Empty factorization seeded with the start vector ``p1``."""
    if p1.n != M.cols:
        raise ValueError(f"start vector length {p1.n} != cols {M.cols}")
    if abs(vec_norm(p1) - 1.0) > 1e-14:
        raise ValueError("start vector must have unit norm")
    return KrylovState(
        P=CompactBasis(M.cols),
        Q=CompactBasis(M.rows),
        B=np.zeros((0, 0)),
        f=p1.copy(),
        beta_last=1.0,
        rng=rng,
    )


def lanczos_bidiag(M: QuatMatrix, p1: CompactVector, k: int,
                   rng: np.random.Generator) -> KrylovState:
    """Run k steps of structure-preserving Lanczos bidiagonalization.

    The returned state holds the alphas on ``np.diag(B)``, the betas on
    ``np.diag(B, 1)`` and the trailing beta_k = ||f|| in ``beta_last``.
    """
    if not 1 <= k <= min(M.rows, M.cols):
        raise ValueError(f"k={k} out of range 1..{min(M.rows, M.cols)}")
    return lanczos_extend(M, start_state(M, p1, rng), k)


# ---------------------------------------------------------------------------
# verification helpers (used by tests and the CLI `verify` command)
# ---------------------------------------------------------------------------

def basis_orthogonality_error(basis: CompactBasis) -> float:
    """max_ij |quat_dot(b_i, b_j) - delta_ij| over all quaternion components."""
    worst = 0.0
    for i in range(len(basis)):
        dots = basis.dot_all(basis.vector(i))
        dots[i, 0] -= 1.0
        worst = max(worst, float(np.abs(dots).max()))
    return worst


def factorization_errors(M: QuatMatrix, P: CompactBasis, Q: CompactBasis,
                         B: np.ndarray, f: CompactVector) -> dict:
    """Frobenius residuals of the two factorization identities.

    Returns ``direct`` = ||M P - Q B||_F, ``adjoint`` =
    ||M* Q - P B' - f e_last'||_F and ``f_orth`` = max_i |quat_dot(p_i, f)|,
    all in compact arithmetic.
    """
    s = len(P)
    direct = 0.0
    adjoint = 0.0
    for i in range(s):
        e1 = structured_matvec(M, P.vector(i)) - Q.combine_real(B[:, i])
        direct += vec_norm(e1) ** 2
        e2 = structured_matvec(M, Q.vector(i), adjoint=True) - P.combine_real(B[i, :])
        if i == s - 1:
            e2 = e2 - f
        adjoint += vec_norm(e2) ** 2
    f_orth = float(np.abs(P.dot_all(f)).max()) if s else 0.0
    return {
        "direct": float(np.sqrt(direct)),
        "adjoint": float(np.sqrt(adjoint)),
        "f_orth": f_orth,
        "P_orth": basis_orthogonality_error(P),
        "Q_orth": basis_orthogonality_error(Q),
    }
