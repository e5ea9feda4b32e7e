"""Implicitly restarted drivers for partial quaternion SVD.

Two augmentation strategies shrink a full-size factorization to a small
set of retained directions plus the residual direction, then re-expand it
with plain Lanczos steps:

* Ritz augmentation targets the k `largest` triplets.  The retained Ritz
  vectors and the normalized residual form the new bases, and the
  projected matrix becomes an arrow matrix (retained singular values on
  the diagonal, residual couplings in the last column).

* Harmonic augmentation targets the k `smallest` triplets of a
  nonsingular matrix.  Retention is driven by the smallest singular
  triplets of the row-extended projected matrix [B, beta*e_last]; the new
  right basis comes from a QR factorization of the harmonic coefficient
  matrix and the projected matrix becomes upper triangular.

A triplet (sigma_j, u_j, v_j) of the projected matrix is accepted once
``beta_last * |last component of u_j| <= delta * sigma_max`` where
sigma_max is a running estimate of the largest singular value.  In
harmonic mode the test uses the row-extended projected matrix; reported
triplets are always extracted from the square projected matrix, for which
``M v = u sigma`` holds to roundoff.

Each cycle computes one dense SVD: :func:`check_convergence` takes it of
the matrix it tests (square in largest mode, row-extended in harmonic
mode) and returns it, and the augmentation of the same cycle retains its
vectors.  The loop state is a :class:`quatsvd.bidiag.KrylovState`, which
each restart replaces and re-expands to the size it entered with.  Only
harmonic mode computes one more SVD, of the square matrix, to extract the
reported triplets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import smalldense
from .bidiag import (
    BREAKDOWN_TOL,
    KrylovState,
    _fresh_direction,
    lanczos_extend,
    start_state,
)
from .quatlin import (
    CompactBasis,
    QuatMatrix,
    orthogonalize_against_basis,
    orthogonalize_with_coeffs,
    random_unit_vector,
    structured_matvec,
    vec_norm,
)

WHICH_LARGEST = "largest"
WHICH_SMALLEST = "smallest"

# Extra retained pairs beyond the unconverged targets, and the number of
# consecutive aborted harmonic cycles before the matrix is declared singular.
RETAIN_BUFFER = 5
MAX_SINGULAR_RESTARTS = 5

# Harmonic restarts abort when a diagonal entry of the projected matrix
# falls to this fraction of sigma_max.
NEAR_SINGULAR_TOL = 1e-12


class RestartBreakdown(RuntimeError):
    """The augmentation residual vanished: iteration terminated."""


class NearSingularProjection(RuntimeError):
    """Harmonic augmentation hit a (near-)singular projected matrix."""


class SingularMatrixError(ValueError):
    """Repeated harmonic failures: the matrix appears to be singular."""


@dataclass(frozen=True)
class SolverOptions:
    """Solver parameters; defaults follow the reference configuration."""

    k: int = 10
    which: str = WHICH_LARGEST
    m_b: int | None = None      # projected size, default max(2k, 40)
    maxit: int = 2000
    delta: float = 1e-10
    seed: int = 0

    def resolved_m_b(self, m: int, n: int) -> int:
        m_b = self.m_b if self.m_b is not None else max(2 * self.k, 40)
        return min(m_b, m, n)


class ConvergenceTrace:
    """Append-only per-cycle record of triplet error bounds."""

    def __init__(self):
        self.rows: list = []    # (cycle, j, bound, matvecs), j is 1-based
        self.events: list = []

    def append_cycle(self, cycle: int, bounds, matvecs: int) -> None:
        for j, bound in enumerate(bounds, start=1):
            self.rows.append((cycle, j, float(bound), int(matvecs)))

    @property
    def cycles(self) -> int:
        return 1 + max((r[0] for r in self.rows), default=-1)

    def bounds_for(self, j: int) -> np.ndarray:
        """Bound trajectory of target j (1-based) across cycles."""
        return np.array([r[2] for r in self.rows if r[1] == j])


@dataclass
class TripletSet:
    """Approximate singular triplets with their residual bounds.

    ``sigmas`` is descending in largest mode and ascending in smallest
    mode; ``bounds[j]`` estimates ||M* u_j - v_j sigma_j||.
    """

    sigmas: np.ndarray
    U: CompactBasis
    V: CompactBasis
    bounds: np.ndarray
    converged: np.ndarray
    which: str = WHICH_LARGEST

    def __len__(self) -> int:
        return len(self.sigmas)

    @property
    def all_converged(self) -> bool:
        return bool(np.all(self.converged))


@dataclass(frozen=True)
class ConvergenceCheck:
    """Outcome of :func:`check_convergence`; ``svd`` is the SVD of the
    tested matrix, which the restart of the same cycle reuses."""

    flags: np.ndarray
    bounds: np.ndarray
    sigmas: np.ndarray
    sigma_max: float
    svd: smalldense.SvdResult


def check_convergence(B: np.ndarray, beta_k: float, delta: float, t: int,
                      which: str = WHICH_LARGEST,
                      sigma_max: float = 0.0) -> ConvergenceCheck:
    """Per-triplet convergence flags and bounds from the projected matrix.

    ``B`` is the current projected matrix: square in largest mode, the
    row-extended [B, beta*e_last] in harmonic mode.  The j-th bound is
    ``beta_k * |e_last' u_j|`` for the j-th triplet in target order;
    sigma_max is kept as a running maximum so the tolerance never shrinks.
    """
    res = smalldense.dense_svd(B)
    sigma_max = max(sigma_max, float(res.sigmas[0]) if res.sigmas.size else 0.0)
    order = _target_order(res.sigmas, which)[:t]
    bounds = abs(beta_k) * np.abs(res.U[-1, order])
    flags = bounds <= delta * sigma_max
    return ConvergenceCheck(flags=flags, bounds=bounds,
                            sigmas=res.sigmas[order], sigma_max=sigma_max,
                            svd=res)


def _target_order(sigmas: np.ndarray, which: str) -> np.ndarray:
    if which == WHICH_LARGEST:
        return np.arange(sigmas.size)
    return np.arange(sigmas.size)[::-1]


def _augmented_projection(B: np.ndarray, beta_k: float) -> np.ndarray:
    """Row-extended projected matrix [B, beta*e_last] of shape k x (k+1)."""
    k = B.shape[0]
    col = np.zeros((k, 1))
    col[-1, 0] = beta_k
    return np.hstack([B, col])


# ---------------------------------------------------------------------------
# Ritz augmentation (largest triplets)
# ---------------------------------------------------------------------------

def ritz_augment_cycle(M: QuatMatrix, state: KrylovState, t: int,
                       res: smalldense.SvdResult) -> KrylovState:
    """One Ritz-augmented restart, re-expanded to ``state.steps`` steps.

    ``res`` is the SVD of ``state.B`` (``ConvergenceCheck.svd``).  Retains
    the t largest Ritz pairs of the projected matrix, appends the
    normalized residual direction, forms the arrow projected matrix and
    extends with plain Lanczos steps.  Raises :class:`RestartBreakdown`
    when the orthogonalized image of the augmentation vector vanishes.
    """
    k = state.steps
    if not 0 <= t < k:
        raise ValueError(f"retained count t={t} out of range 0..{k - 1}")
    sig = res.sigmas[:t]
    V_new = state.P.combine_matrix(res.V[:, :t])
    U_new = state.Q.combine_matrix(res.U[:, :t])

    beta_k = state.beta_last
    scale = max(state.sigma_max, float(res.sigmas[0]) if res.sigmas.size else 0.0)
    if beta_k <= BREAKDOWN_TOL * scale:
        # Exact invariant subspace: restart in the orthogonal complement.
        p_aug = _fresh_direction(M.cols, state.P, state.rng)
        rho = np.zeros(t)
    else:
        p_aug = state.f.scaled(1.0 / beta_k)
        rho = beta_k * res.U[-1, :t]

    w = structured_matvec(M, p_aug)
    state.matvecs += 1
    if t:
        w = w - U_new.combine_real(rho)
        w, extra = orthogonalize_with_coeffs(w, U_new)
        rho = rho + extra[:, 0]
    alpha_new = vec_norm(w)
    if alpha_new <= BREAKDOWN_TOL * scale:
        raise RestartBreakdown("augmentation residual vanished")
    q_new = w.scaled(1.0 / alpha_new)

    B_new = np.zeros((t + 1, t + 1))
    if t:
        np.fill_diagonal(B_new[:t, :t], sig)
        B_new[:t, t] = rho
    B_new[t, t] = alpha_new

    P_new = V_new
    P_new.append(p_aug)
    Q_basis = U_new
    Q_basis.append(q_new)

    f = structured_matvec(M, q_new, adjoint=True) - p_aug.scaled(alpha_new)
    state.matvecs += 1
    f = orthogonalize_against_basis(f, P_new)

    out = replace(state, P=P_new, Q=Q_basis, B=B_new, f=f,
                  beta_last=vec_norm(f))
    return lanczos_extend(M, out, k)


# ---------------------------------------------------------------------------
# harmonic augmentation (smallest triplets)
# ---------------------------------------------------------------------------

def _harmonic_projection(B: np.ndarray, res: smalldense.SvdResult, t: int):
    """Projected-level quantities of a harmonic restart.

    ``res`` is the SVD of the row-extended matrix [B, beta*e_last].
    Returns ascending sigmas, the retained left vectors U_t of the
    row-extended matrix, the solved coefficients W = B^{-1} U_t and
    z = B^{-1} e_last, from one solve with the stacked [U_t, e_last].
    """
    k = B.shape[0]
    asc = np.arange(res.sigmas.size)[::-1][:t]
    sig = res.sigmas[asc]
    U_t = res.U[:, asc]
    Wz = smalldense.solve_upper(B, np.column_stack([U_t, np.eye(k)[:, -1]]))
    return sig, U_t, Wz[:, :t], Wz[:, t]


def harmonic_augment_cycle(M: QuatMatrix, state: KrylovState, t: int,
                           res: smalldense.SvdResult) -> KrylovState:
    """One harmonic-Ritz restart, re-expanded to ``state.steps`` steps.

    ``res`` is the SVD of the row-extended matrix [B, beta*e_last]
    (``ConvergenceCheck.svd`` in harmonic mode).  Retains the t smallest
    harmonic pairs.  Requires the projected matrix to be safely
    nonsingular and ``beta_last > 0``; raises
    :class:`NearSingularProjection` otherwise so the driver can restart
    from a perturbed seed vector.  The input state is consumed: once the
    projection succeeds, the augmentation vector is appended to
    ``state.P`` in place.
    """
    k = state.steps
    if not 1 <= t < k:
        raise ValueError(f"retained count t={t} out of range 1..{k - 1}")
    beta_k = state.beta_last
    scale = max(state.sigma_max, float(np.abs(state.B).max()))
    diag = np.abs(np.diag(state.B))
    if diag.min() <= NEAR_SINGULAR_TOL * scale:
        raise NearSingularProjection("projected matrix nearly singular")
    if beta_k <= BREAKDOWN_TOL * scale:
        raise NearSingularProjection("zero residual: invariant subspace found")

    try:
        sig, U_t, W, z = _harmonic_projection(state.B, res, t)
        C = np.zeros((k + 1, t + 1))
        C[:k, :t] = W * sig[None, :]
        C[:k, t] = -beta_k * z
        C[k, t] = 1.0
        Qc, Rc = smalldense.qr_factor(C)
    except (smalldense.NearSingularError, smalldense.RankDeficientError) as exc:
        raise NearSingularProjection(str(exc)) from exc

    p_aug = state.f.scaled(1.0 / beta_k)
    state.P.append(p_aug)
    P_new = state.P.combine_matrix(Qc)
    Q_t = state.Q.combine_matrix(U_t)

    w = structured_matvec(M, p_aug) - state.Q.vector(k - 1).scaled(beta_k)
    state.matvecs += 1
    w, coeffs = orthogonalize_with_coeffs(w, Q_t)
    c_hat = coeffs[:, 0]
    alpha_new = vec_norm(w)
    if alpha_new <= BREAKDOWN_TOL * scale:
        q_new = _fresh_direction(M.rows, Q_t, state.rng)
        alpha_new = 0.0
    else:
        q_new = w.scaled(1.0 / alpha_new)

    D = np.zeros((t + 1, t + 1))
    np.fill_diagonal(D[:t, :t], sig)
    D[:t, t] = c_hat
    D[t, t] = alpha_new
    try:
        B_new = smalldense.tri_solve_upper(Rc, D)
    except smalldense.NearSingularError as exc:
        raise NearSingularProjection(str(exc)) from exc

    Q_t.append(q_new)
    f = structured_matvec(M, q_new, adjoint=True) - \
        P_new.vector(t).scaled(float(B_new[t, t]))
    state.matvecs += 1
    f = orthogonalize_against_basis(f, P_new)

    out = replace(state, P=P_new, Q=Q_t, B=B_new, f=f,
                  beta_last=vec_norm(f))
    return lanczos_extend(M, out, k)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _retained_count(k: int, m_b: int) -> int:
    # Retain every target (converged pairs stay locked in the basis) plus
    # a few buffer pairs.  Shrinking the window as targets converge stalls:
    # in smallest mode the converged pairs sit at the front of the target
    # order, so a shorter window would evict the unconverged ones.
    t = k + min(RETAIN_BUFFER, m_b - k - 1)
    return max(1, min(t, m_b - 3, m_b - 1))


def _extract_triplets(state: KrylovState, k: int, which: str,
                      flags: np.ndarray,
                      res: smalldense.SvdResult) -> TripletSet:
    """Reported triplets from ``res``, the SVD of the square ``state.B``."""
    order = _target_order(res.sigmas, which)[:k]
    sigmas = res.sigmas[order].copy()
    # Reported bounds cannot certify below the roundoff of the
    # factorization itself: floor them at m_b * eps * sigma_max.
    floor = state.B.shape[0] * np.finfo(float).eps * state.sigma_max
    bounds = np.maximum(abs(state.beta_last) * np.abs(res.U[-1, order]), floor)
    # Degenerate values: order ties by bound, then by position.
    tie = 1e-14 * max(state.sigma_max, sigmas.max(initial=0.0))
    perm = np.lexsort((np.arange(k), bounds,
                       -sigmas if which == WHICH_LARGEST else sigmas))
    if np.any(np.abs(np.diff(sigmas)) <= tie):
        order, sigmas, bounds, flags = \
            order[perm], sigmas[perm], bounds[perm], flags[perm]
    U = state.Q.combine_matrix(res.U[:, order])
    V = state.P.combine_matrix(res.V[:, order])
    return TripletSet(sigmas=sigmas, U=U, V=V, bounds=bounds,
                      converged=flags.copy(), which=which)


def solve_partial_svd(M: QuatMatrix, opts: SolverOptions):
    """Compute the k largest or smallest singular triplets of ``M``.

    Returns ``(TripletSet, ConvergenceTrace)``.  On non-convergence after
    ``opts.maxit`` restarts the best current approximations are returned
    with their ``converged`` flags showing which triplets met the
    tolerance.
    """
    if opts.which not in (WHICH_LARGEST, WHICH_SMALLEST):
        raise ValueError(f"unknown mode {opts.which!r}")
    m, n = M.rows, M.cols
    if not 1 <= opts.k <= min(m, n):
        raise ValueError(f"k={opts.k} out of range 1..{min(m, n)}")

    if opts.which == WHICH_SMALLEST and m < n:
        # Work on the adjoint so the projected matrix tracks the nonzero
        # spectrum, then swap the vector roles back.
        triplets, trace = solve_partial_svd(M.conjugate_transpose(), opts)
        return TripletSet(sigmas=triplets.sigmas, U=triplets.V, V=triplets.U,
                          bounds=triplets.bounds, converged=triplets.converged,
                          which=triplets.which), trace

    m_b = opts.resolved_m_b(m, n)
    if opts.k >= m_b and m_b < min(m, n):
        raise ValueError(f"need k < m_b: k={opts.k}, m_b={m_b}")

    rng = np.random.default_rng(opts.seed)
    trace = ConvergenceTrace()
    state = _initial_state(M, rng, m_b)
    harmonic = opts.which == WHICH_SMALLEST
    singular_restarts = 0
    chk = None

    for cycle in range(opts.maxit + 1):
        B_chk = _augmented_projection(state.B, state.beta_last) if harmonic \
            else state.B
        chk = check_convergence(B_chk, state.beta_last, opts.delta, opts.k,
                                which=opts.which, sigma_max=state.sigma_max)
        state.sigma_max = chk.sigma_max
        trace.append_cycle(cycle, chk.bounds, state.matvecs)
        if np.all(chk.flags) or cycle == opts.maxit:
            break
        t = _retained_count(opts.k, m_b)
        try:
            if harmonic:
                state = harmonic_augment_cycle(M, state, t, chk.svd)
            else:
                state = ritz_augment_cycle(M, state, t, chk.svd)
        except RestartBreakdown:
            trace.events.append(f"cycle {cycle}: augmentation residual "
                                "vanished, iteration terminated")
            break
        except NearSingularProjection as exc:
            singular_restarts += 1
            trace.events.append(f"cycle {cycle}: {exc}; restarting from a "
                                "perturbed seed vector")
            if singular_restarts > MAX_SINGULAR_RESTARTS:
                raise SingularMatrixError(
                    "harmonic mode kept hitting a singular projection; "
                    "matrix appears to be singular") from exc
            state = _initial_state(M, rng, m_b, state.matvecs,
                                   state.sigma_max)

    res = smalldense.dense_svd(state.B) if harmonic else chk.svd
    return _extract_triplets(state, opts.k, opts.which, chk.flags, res), trace


def _initial_state(M: QuatMatrix, rng: np.random.Generator, m_b: int,
                   matvecs: int = 0, sigma_max: float = 0.0) -> KrylovState:
    """Factorization of ``m_b`` steps from a random start vector; a fresh
    restart carries the matvec count and sigma_max of the state it drops."""
    state = start_state(M, random_unit_vector(M.cols, rng), rng)
    state.matvecs = matvecs
    state.sigma_max = sigma_max
    return lanczos_extend(M, state, m_b)


def verify_residual(M: QuatMatrix, T: TripletSet) -> float:
    """||M V - U Sigma||_F over the triplet set, in compact arithmetic."""
    total = 0.0
    for j in range(len(T)):
        err = structured_matvec(M, T.V.vector(j)) - \
            T.U.vector(j).scaled(float(T.sigmas[j]))
        total += vec_norm(err) ** 2
    return float(np.sqrt(total))
