"""Partial Lanczos bidiagonalization of quaternion matrices.

Runs the two-sided recurrence entirely in compact storage: each step costs
one matvec, one adjoint matvec and a full reorthogonalization of each new
vector against its basis, by classical Gram-Schmidt with a second pass only
where the DGKS criterion asks for one (see
:func:`quatsvd.quatlin.orthogonalize_against_basis`).  The produced bases
are orthonormal in the quaternion inner product and satisfy

    M P_k = Q_k B_k,      M* Q_k = P_k B_k' + f e_k'

with B_k upper bidiagonal (alphas on the diagonal, betas above) and f the
residual vector orthogonal to P_k.

The vector half of every step, in :func:`lanczos_extend` and in the
restart step, is three helpers: :func:`next_right`, :func:`next_left` and
:func:`close_step`.  They hold the one breakdown rule: a norm at or below
``BREAKDOWN_TOL`` times the state's :attr:`KrylovState.scale` deflates to
a fresh random unit vector orthogonal to the current basis, and B_k keeps
the zero.

:class:`KrylovState` is the one factorization state of the package and
owns its bases, allocated once with ``steps + 1`` slots (the spare one
holds a restart's augmentation vector).  The restart drivers in
:mod:`quatsvd.restart` rewrite it in place to an arrow leading block (a
dense last column after a Ritz restart, a dense last row after a harmonic
one) and hand it back to :func:`lanczos_extend`, which only appends
bidiagonal trailing rows/columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .quatlin import (
    CompactBasis,
    QuatMatrix,
    check_compact,
    check_count,
    orthogonalize_against_basis,
    orthogonalize_with_coeffs,
    random_unit_vector,
    safe_range_exponent,
    scaled_norm,
    structured_matvec,
    vec_norm,
)

# A computed alpha or beta at or below this fraction of the state's scale
# is an exact breakdown.
BREAKDOWN_TOL = 1e-14


def breakdown_scale(B: np.ndarray, sigma_max: float) -> float:
    """The scale breakdowns are measured against, max(sigma_max, max|B|)."""
    return max(sigma_max, float(np.abs(B).max(initial=0.0)))


@dataclass
class KrylovState:
    """Working state of a (possibly restarted) partial factorization.

    ``P`` and ``Q`` are fixed-capacity bases that restarts rewrite in
    place.  ``B`` is the dense projected matrix, upper bidiagonal after an
    arrow leading block (last column after Ritz, last row after harmonic),
    ``f`` the continuation residual, and ``beta_last`` = ||f|| is derived
    from f.
    ``matvecs`` counts products with M and M*, ``deflations`` lists the
    ``(step, "alpha" | "beta")`` breakdowns, and ``sigma_max`` is the
    restart driver's running estimate of the largest singular value.
    """

    P: CompactBasis
    Q: CompactBasis
    B: np.ndarray
    f: np.ndarray
    rng: np.random.Generator
    matvecs: int = 0
    deflations: list = field(default_factory=list)
    sigma_max: float = 0.0

    @property
    def steps(self) -> int:
        return len(self.P)

    @property
    def beta_last(self) -> float:
        """The trailing beta, ||f||."""
        return vec_norm(self.f)

    @property
    def scale(self) -> float:
        """The breakdown scale of the state's B and sigma_max."""
        return breakdown_scale(self.B, self.sigma_max)


def _fresh_direction(n: int, basis: CompactBasis, rng: np.random.Generator) -> np.ndarray:
    """Random unit vector orthogonal to ``basis`` (deflation restart);
    a plain random unit vector when the basis is empty."""
    if not len(basis):
        return random_unit_vector(n, rng)
    for _ in range(8):
        v = random_unit_vector(n, rng)
        v = orthogonalize_against_basis(v, basis)
        nv = vec_norm(v)
        if nv > 1e-6:
            return v * (1.0 / nv)
    # Draws from the stream that built a low-rank matrix can all lie in
    # its range; the coordinate vector farthest from the span cannot.  It
    # is the one at the row with the least basis weight.
    v = np.zeros((n, 4))
    v[np.argmin((basis.data ** 2).sum(axis=(0, 2))), 0] = 1.0
    v = orthogonalize_against_basis(v, basis)
    return v * (1.0 / vec_norm(v))


def next_right(M: QuatMatrix, state: KrylovState, step: int):
    """Next right vector ``f / ||f||`` and its beta.  A vanished residual
    (at most ``BREAKDOWN_TOL * state.scale``) gives a fresh direction and
    beta 0, and records ``(step, "beta")``."""
    beta = vec_norm(state.f)
    if beta <= BREAKDOWN_TOL * state.scale:
        state.deflations.append((step, "beta"))
        return _fresh_direction(M.cols, state.P, state.rng), 0.0
    return state.f * (1.0 / beta), beta


def next_left(M: QuatMatrix, state: KrylovState, w: np.ndarray):
    """Orthogonalize ``w`` against Q and normalize it: the next left
    vector, its alpha and the removed (len(Q), 4) coefficients.  A
    vanished ``w`` deflates to a fresh direction with alpha 0 and records
    ``(len(Q), "alpha")``."""
    w, coeffs = orthogonalize_with_coeffs(w, state.Q)
    alpha = vec_norm(w)
    if alpha <= BREAKDOWN_TOL * state.scale:
        state.deflations.append((len(state.Q), "alpha"))
        return _fresh_direction(M.rows, state.Q, state.rng), 0.0, coeffs
    return w * (1.0 / alpha), alpha, coeffs


def close_step(M: QuatMatrix, state: KrylovState, q: np.ndarray) -> None:
    """Append ``q`` as left vector s and set the residual
    ``f = M* q - p_s B[s, s]``, reorthogonalized against P.  P and B must
    already hold step s."""
    s = len(state.Q)
    state.Q.append(q)
    f = structured_matvec(M, q, adjoint=True) - \
        state.P.data[s] * float(state.B[s, s])
    state.matvecs += 1
    state.f = orthogonalize_against_basis(f, state.P)


def lanczos_extend(M: QuatMatrix, state: KrylovState, to_step: int) -> KrylovState:
    """Append standard Lanczos steps until ``B`` has ``to_step`` columns.

    The leading block of ``B`` (an arrow after a restart) is
    left untouched; new coefficients land on the diagonal and first
    superdiagonal.  Breakdowns deflate as described in the module
    docstring.  Raises ``ValueError`` before any matvec when ``to_step``
    exceeds min(m, n) or the capacity of the state's bases.
    """
    if to_step > min(M.rows, M.cols):
        raise ValueError("cannot extend past min(m, n)")
    if to_step > state.P.capacity:
        raise ValueError("cannot extend past the basis capacity")
    while state.steps < to_step:
        s = state.steps
        p, beta = next_right(M, state, s)
        w = structured_matvec(M, p)
        state.matvecs += 1
        if s and beta > 0.0:
            w = w - state.Q.data[s - 1] * beta
        q, alpha, _ = next_left(M, state, w)

        state.B = np.pad(state.B, (0, 1))
        if s:
            state.B[s - 1, s] = beta
        state.B[s, s] = alpha
        state.P.append(p)
        close_step(M, state, q)
    return state


def start_state(M: QuatMatrix, p1: np.ndarray, rng: np.random.Generator,
                steps: int) -> KrylovState:
    """Empty factorization seeded with a copy of the start vector ``p1``,
    with bases allocated for ``steps`` Lanczos steps plus one vector.
    An ``M`` outside the safe range, whose squares would overflow or
    underflow, raises ``ValueError``."""
    check_compact(p1, M.cols, "start vector")
    if abs(vec_norm(p1) - 1.0) > 1e-14:
        raise ValueError("start vector must have unit norm")
    if safe_range_exponent(M):
        raise ValueError("max|M| is outside the safe range: factor "
                         "M.scaled(-safe_range_exponent(M)) instead")
    return KrylovState(
        P=CompactBasis(M.cols, steps + 1),
        Q=CompactBasis(M.rows, steps + 1),
        B=np.zeros((0, 0)),
        f=np.array(p1, dtype=np.float64),
        rng=rng,
    )


def lanczos_bidiag(M: QuatMatrix, p1: np.ndarray, k: int,
                   rng: np.random.Generator) -> KrylovState:
    """Run k steps of structure-preserving Lanczos bidiagonalization.

    The returned state holds the alphas on ``np.diag(B)``, the betas on
    ``np.diag(B, 1)`` and the trailing beta_k = ||f|| in ``beta_last``.
    """
    check_count("k", k, 1)
    if not 1 <= k <= min(M.rows, M.cols):
        raise ValueError(f"k={k} out of range 1..{min(M.rows, M.cols)}")
    return lanczos_extend(M, start_state(M, p1, rng, k), k)


# ---------------------------------------------------------------------------
# verification helpers (used by tests and the CLI `verify` command)
# ---------------------------------------------------------------------------

def basis_orthogonality_error(basis: CompactBasis) -> float:
    """max_ij |b_i* . b_j - delta_ij| over all components, NaN if any is."""
    worst = 0.0
    for i in range(len(basis)):
        dots = basis.dot_all(basis.data[i])
        dots[i, 0] -= 1.0
        # np.maximum keeps a NaN, where the builtin max may drop it.
        worst = np.maximum(worst, np.abs(dots).max())
    return float(worst)


def factorization_errors(M: QuatMatrix, state: KrylovState) -> dict:
    """Frobenius residuals of the factorization identities of ``state``.

    Returns ``direct`` = ||M P - Q B||_F, ``adjoint`` =
    ||M* Q - P B' - f e_last'||_F, ``f_orth`` = max_i |p_i* . f| and the
    basis errors ``P_orth`` and ``Q_orth``, all in compact arithmetic.
    """
    P, Q, B, f = state.P, state.Q, state.B, state.f
    s = len(P)
    return {
        "direct": scaled_norm(M, (
            structured_matvec(M, P.data[i]) - Q.combine_real(B[:, i])
            for i in range(s))),
        "adjoint": scaled_norm(M, (
            structured_matvec(M, Q.data[i], adjoint=True)
            - P.combine_real(B[i, :]) - (f if i == s - 1 else 0.0)
            for i in range(s))),
        "f_orth": float(np.abs(P.dot_all(f)).max()) if s else 0.0,
        "P_orth": basis_orthogonality_error(P),
        "Q_orth": basis_orthogonality_error(Q),
    }
