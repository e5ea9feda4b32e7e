"""Implicitly restarted drivers for partial quaternion SVD.

Both restarts are augmented (Baglama & Reichel, SIAM J. Sci. Comput.
27(1), 2005) and share one step of arrow form, :func:`_augment`.  It
keeps t directions, the columns of [P, p] Pc and Q Uc for coefficient
matrices Pc and Uc of the projected problem; takes one Lanczos step from
an augmentation vector p, whose left vector loses a coupling Q c; sets B
to the arrow [diag(sigma), col + removed coefficients; 0, alpha], times
R^-1 when a triangular factor R is given; and re-expands with plain
steps.  Ritz augmentation targets the k `largest` triplets: from the SVD
of B it takes Pc = blockdiag(V_t, 1), Uc = U_t, p the normalized
residual, c = U_t rho and col = rho = beta * (last row of U_t).  Harmonic
augmentation targets the k `smallest` triplets of a nonsingular matrix:
Uc = U_t holds the smallest left singular vectors of [B, beta*e_last],
Pc R is the QR factorization of the harmonic coefficients, p = f/beta,
c = beta e_last and col = 0.  The vector half of the step, breakdowns
included, is done by the step helpers of :mod:`quatsvd.bidiag`; a cycle
here computes only its projected algebra.

Each cycle computes one dense SVD, in :func:`check_convergence`, which
alone owns the triplets a solve reports.  It takes the SVD of B in
largest mode and of the row-extended [B, beta*e_last] in harmonic mode,
and returns unit coefficient vectors x_j and y_j with B y_j parallel to
x_j: the singular vectors of B, or a harmonic left vector x_j and
y_j = B^-1 x_j normalized.  Then v_j = P y_j and u_j = Q x_j satisfy
``M v_j = u_j sigma_j`` with sigma_j = x_j' B y_j (the singular value
itself for an SVD pair), and the factorization identities give the bound
``||M* u_j - v_j sigma_j|| = ||B' x_j - sigma_j y_j|| (+) beta_last
|last component of x_j|``, where (+) is the root sum of squares.  A
triplet is accepted once its bound is at most ``delta * sigma_max``,
sigma_max being a running estimate of the largest singular value.  Once
beta_last breaks down the projection is exact, harmonic pairs equal Ritz
pairs, and harmonic mode checks B itself.  The restart of the same cycle
retains the check's leading columns; a harmonic check's one solve with B
also gives the restart's W = B^-1 U_t and z = B^-1 e_last.
The loop state is one :class:`quatsvd.bidiag.KrylovState` per solve,
which each restart and the final extraction rewrite in place.  A
harmonic check or restart that meets a (near-)singular matrix raises
:class:`quatsvd.smalldense.NearSingularError`, from its own guards or a
solve or QR, and the driver restarts from a perturbed seed vector.

Output is bit-identical for a fixed seed and BLAS thread count.  Between
1 and 2 OpenBLAS threads, six dense solves moved their sigmas by up to
3.5e-15 relative, with the same matvec counts.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import block_diag

from . import smalldense
from .bidiag import (
    BREAKDOWN_TOL,
    KrylovState,
    close_step,
    lanczos_extend,
    next_left,
    next_right,
    start_state,
)
from .quatlin import (
    CompactBasis,
    QuatMatrix,
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
# falls to this fraction of the state's breakdown scale.
NEAR_SINGULAR_TOL = 1e-12

# A matrix whose largest entry magnitude lies outside
# [2**-SAFE_EXPONENT, 2**SAFE_EXPONENT] is solved scaled by a power of two,
# so that sums of squares of its entries neither overflow nor underflow.
SAFE_EXPONENT = 400


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

    def __post_init__(self):
        if self.which not in (WHICH_LARGEST, WHICH_SMALLEST):
            raise ValueError(f"unknown mode {self.which!r}")
        counts = {"k": self.k, "maxit": self.maxit, "seed": self.seed,
                  **({} if self.m_b is None else {"m_b": self.m_b})}
        for name, value in counts.items():
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name}={value!r} must be an integer")
        if self.k < 1:
            raise ValueError(f"k={self.k} must be at least 1")
        if self.m_b is not None and self.m_b < 1:
            raise ValueError(f"m_b={self.m_b} must be at least 1")
        for name in ("maxit", "seed"):
            if counts[name] < 0:
                raise ValueError(f"{name}={counts[name]} must be non-negative")
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError(f"delta={self.delta} must be finite and positive")

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


@dataclass
class TripletSet:
    """Approximate singular triplets with their residual bounds.

    ``sigmas`` is descending in largest mode and ascending in smallest
    mode.  ``M v_j = u_j sigma_j`` holds to roundoff, ``bounds[j]`` is
    ||M* u_j - v_j sigma_j|| to roundoff, and ``converged[j]`` says whether
    that bound met the tolerance.  Smallest mode solves a wide M through
    its adjoint, which swaps the two equations' roles.
    """

    sigmas: np.ndarray
    U: CompactBasis
    V: CompactBasis
    bounds: np.ndarray
    converged: np.ndarray

    def __len__(self) -> int:
        return len(self.sigmas)

    @property
    def all_converged(self) -> bool:
        return bool(np.all(self.converged))


@dataclass(frozen=True)
class ConvergenceCheck:
    """Outcome of :func:`check_convergence`: the first t projected triplets
    in target order, as ``sigmas`` and unit coefficient columns of ``X``
    (left) and ``Y`` (right), with their bounds and flags, and ``theta``,
    the check's SVD values (harmonic ones in harmonic mode).  Only a
    harmonic check sets ``W = B^-1 X`` and ``z = B^-1 e_last``."""

    flags: np.ndarray
    bounds: np.ndarray
    sigmas: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    sigma_max: float
    theta: np.ndarray
    W: np.ndarray | None = None
    z: np.ndarray | None = None


def check_convergence(B: np.ndarray, beta_k: float, delta: float, t: int,
                      which: str = WHICH_LARGEST,
                      sigma_max: float = 0.0) -> ConvergenceCheck:
    """Triplets of the square projected matrix ``B`` with their bounds and
    flags, as the module docstring describes.  Harmonic mode solves with B
    and raises ``smalldense.NearSingularError`` when B is nearly singular.
    sigma_max is kept as a running maximum so the tolerance never shrinks.
    """
    scale = max(sigma_max, float(np.abs(B).max(initial=0.0)))
    harmonic = which == WHICH_SMALLEST and beta_k > BREAKDOWN_TOL * scale
    res = smalldense.dense_svd(_augmented_projection(B, beta_k) if harmonic
                               else B)
    sigma_max = max(sigma_max, float(res.sigmas[0]) if res.sigmas.size else 0.0)
    # Basic-slice views: a reordering copy moves later products by roundoff.
    step = 1 if which == WHICH_LARGEST else -1
    X, theta = res.U[:, ::step][:, :t], res.sigmas[::step][:t]
    if harmonic:
        Wz = smalldense.solve_upper(B, np.column_stack([X, np.eye(len(B))[-1]]))
        W, z = Wz[:, :-1], Wz[:, -1]
        Y = W / np.linalg.norm(W, axis=0)
        sigmas = np.einsum("ij,ij->j", X, B @ Y)
    else:
        W = z = None
        Y, sigmas = res.V[:, ::step][:, :t], theta
    bounds = np.hypot(np.linalg.norm(B.T @ X - Y * sigmas, axis=0),
                      beta_k * X[-1])
    return ConvergenceCheck(flags=bounds <= delta * sigma_max, bounds=bounds,
                            sigmas=sigmas, X=X, Y=Y, sigma_max=sigma_max,
                            theta=theta, W=W, z=z)


def _augmented_projection(B: np.ndarray, beta_k: float) -> np.ndarray:
    """Row-extended projected matrix [B, beta*e_last] of shape k x (k+1)."""
    k = B.shape[0]
    col = np.zeros((k, 1))
    col[-1, 0] = beta_k
    return np.hstack([B, col])


def _augment(M: QuatMatrix, state: KrylovState, p_aug: np.ndarray,
             coupling: np.ndarray, Pc: np.ndarray, Uc: np.ndarray,
             sig: np.ndarray, col: np.ndarray | float,
             Rc: np.ndarray | None = None) -> KrylovState:
    """The augmentation step of both restarts (see the module docstring):
    the new left vector comes from ``M p_aug - Q coupling``, the bases
    become ``[P, p_aug] Pc`` and ``Q Uc``, and B the arrow [diag(sig), col
    + removed coefficients; 0, alpha], times ``Rc^-1`` when ``Rc`` is
    given.  Rewrites ``state`` in place, re-expanded to ``state.steps``."""
    k = state.steps
    w = structured_matvec(M, p_aug) - state.Q.combine_real(coupling)
    state.matvecs += 1
    state.P.append(p_aug)
    state.P.combine_matrix(Pc)
    state.Q.combine_matrix(Uc)

    q_new, alpha_new, coeffs = next_left(M, state, w)
    B = np.diag(np.append(sig, alpha_new))
    B[:-1, -1] = col + coeffs[:, 0]
    state.B = B if Rc is None else smalldense.tri_solve_upper(Rc, B)
    close_step(M, state, q_new)
    return lanczos_extend(M, state, k)


# ---------------------------------------------------------------------------
# Ritz augmentation (largest triplets)
# ---------------------------------------------------------------------------

def ritz_augment_cycle(M: QuatMatrix, state: KrylovState, t: int,
                       chk: ConvergenceCheck) -> KrylovState:
    """One Ritz-augmented restart, re-expanded to ``state.steps`` steps.

    ``chk`` is the largest-mode check of ``state``; its t leading Ritz
    pairs are retained, and the augmentation vector is the residual.
    Rewrites ``state`` in place and returns it.
    """
    k = state.steps
    if not 0 <= t < k:
        raise ValueError(f"retained count t={t} out of range 0..{k - 1}")
    # On an exact invariant subspace the fresh direction must avoid the
    # whole basis, so it is drawn before P is overwritten.
    p_aug, beta_k = next_right(M, state)
    if beta_k == 0.0:
        state.deflations.append((t, "beta"))
    U_t = chk.X[:, :t]
    rho = beta_k * U_t[-1]
    return _augment(M, state, p_aug, U_t @ rho, block_diag(chk.Y[:, :t], 1.0),
                    U_t, chk.theta[:t], rho)


# ---------------------------------------------------------------------------
# harmonic augmentation (smallest triplets)
# ---------------------------------------------------------------------------

def harmonic_augment_cycle(M: QuatMatrix, state: KrylovState, t: int,
                           chk: ConvergenceCheck) -> KrylovState:
    """One harmonic-Ritz restart, re-expanded to ``state.steps`` steps.

    ``chk`` is the harmonic check of ``state``; its t leading harmonic
    pairs are retained, with their solved coefficients ``chk.W`` and
    ``chk.z``.  Rewrites ``state`` in place.  Raises
    ``smalldense.NearSingularError`` when B is nearly singular, beta_last
    vanishes (then the check was not harmonic) or the QR refuses its
    matrix; the solver then discards ``state`` and restarts from a
    perturbed seed vector.
    """
    k = state.steps
    if not 1 <= t < k:
        raise ValueError(f"retained count t={t} out of range 1..{k - 1}")
    beta_k = state.beta_last
    if np.abs(np.diag(state.B)).min() <= NEAR_SINGULAR_TOL * state.scale:
        raise smalldense.NearSingularError("projected matrix nearly singular")
    if beta_k <= BREAKDOWN_TOL * state.scale:
        raise smalldense.NearSingularError(
            "zero residual: invariant subspace found")

    C = np.zeros((k + 1, t + 1))
    C[:k, :t] = chk.W[:, :t] * chk.theta[:t]
    C[:k, t] = -beta_k * chk.z
    C[k, t] = 1.0
    Qc, Rc = smalldense.qr_factor(C)
    return _augment(M, state, state.f * (1.0 / beta_k), beta_k * np.eye(k)[-1],
                    Qc, chk.X[:, :t], chk.theta[:t], 0.0, Rc)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _retained_count(k: int, m_b: int) -> int:
    # Retain every target (converged pairs stay locked in the basis) plus
    # a few buffer pairs.  Shrinking the window as targets converge stalls:
    # in smallest mode the converged pairs sit at the front of the target
    # order, so a shorter window would evict the unconverged ones.
    t = k + min(RETAIN_BUFFER, m_b - k - 1)
    return max(1, min(t, m_b - 3))


def _extract_triplets(state: KrylovState, chk: ConvergenceCheck,
                      which: str, k: int) -> TripletSet:
    """Reported triplets u_j = Q x_j and v_j = P y_j of the k leading
    columns of ``chk``, the last check of ``state``.  The bases are
    combined in the state's workspace and copied out to k slots, so the
    result does not keep it alive."""
    # Sorted by value; equal values by bound, then by position.
    sigmas = chk.sigmas[:k]
    perm = np.lexsort((np.arange(sigmas.size), chk.bounds[:k],
                       -sigmas if which == WHICH_LARGEST else sigmas))
    U = state.Q.combine_matrix(chk.X[:, perm]).copy()
    V = state.P.combine_matrix(chk.Y[:, perm]).copy()
    return TripletSet(sigmas=chk.sigmas[perm], U=U, V=V,
                      bounds=chk.bounds[perm], converged=chk.flags[perm])


def solve_partial_svd(M: QuatMatrix, opts: SolverOptions):
    """Compute the k largest or smallest singular triplets of ``M``.

    Returns ``(TripletSet, ConvergenceTrace)``.  On non-convergence after
    ``opts.maxit`` restarts the best current approximations are returned
    with their ``converged`` flags showing which triplets met the
    tolerance.  A matrix whose largest entry magnitude lies outside
    [2**-SAFE_EXPONENT, 2**SAFE_EXPONENT] is solved times a power of two,
    and the singular values and bounds are scaled back.
    """
    m, n = M.rows, M.cols
    if opts.k > min(m, n):
        raise ValueError(f"k={opts.k} out of range 1..{min(m, n)}")

    peak = max(M.max_abs)
    if peak and not 2.0 ** -SAFE_EXPONENT <= peak <= 2.0 ** SAFE_EXPONENT:
        # Solve M 2**-e, whose largest entry lies in [1/2, 1), and scale
        # the singular values and bounds back; the vectors are the same.
        e = math.frexp(peak)[1]
        triplets, trace = solve_partial_svd(_scaled(M, -e), opts)
        trace.rows = [(cycle, j, float(np.ldexp(bound, e)), matvecs)
                      for cycle, j, bound, matvecs in trace.rows]
        return replace(triplets, sigmas=np.ldexp(triplets.sigmas, e),
                       bounds=np.ldexp(triplets.bounds, e)), trace

    if opts.which == WHICH_SMALLEST and m < n:
        # Work on the adjoint so the projected matrix tracks the nonzero
        # spectrum, then swap the vector roles back.
        triplets, trace = solve_partial_svd(M.conjugate_transpose(), opts)
        return replace(triplets, U=triplets.V, V=triplets.U), trace

    m_b = opts.resolved_m_b(m, n)
    if opts.k >= m_b and m_b < min(m, n):
        raise ValueError(f"need k < m_b: k={opts.k}, m_b={m_b}")

    rng = np.random.default_rng(opts.seed)
    trace = ConvergenceTrace()
    state = _initial_state(M, rng, m_b)
    augment = harmonic_augment_cycle if opts.which == WHICH_SMALLEST \
        else ritz_augment_cycle
    retained = _retained_count(opts.k, m_b)
    singular_restarts = 0
    cycle = 0
    while True:
        try:
            # The check covers the retained pairs; the first k are targets.
            chk = check_convergence(state.B, state.beta_last, opts.delta,
                                    max(retained, opts.k), which=opts.which,
                                    sigma_max=state.sigma_max)
            state.sigma_max = chk.sigma_max
            trace.append_cycle(cycle, chk.bounds[:opts.k], state.matvecs)
            # With m_b = n the right basis spans the column space: the
            # projection is exact and no direction is left to restart with.
            if np.all(chk.flags[:opts.k]) or cycle == opts.maxit or m_b == n:
                return _extract_triplets(state, chk, opts.which, opts.k), trace
            cycle += 1
            state = augment(M, state, retained, chk)
        except smalldense.NearSingularError as exc:
            singular_restarts += 1
            trace.events.append(f"before cycle {cycle}: {exc}; restarting "
                                "from a perturbed seed vector")
            if singular_restarts > MAX_SINGULAR_RESTARTS:
                raise SingularMatrixError(
                    "harmonic mode kept hitting a singular projection; "
                    "matrix appears to be singular") from exc
            state = _initial_state(M, rng, m_b, state.matvecs,
                                   state.sigma_max)


def _scaled(M: QuatMatrix, e: int) -> QuatMatrix:
    """M times 2**e, exact unless an entry leaves the normal range."""
    def scale(b):
        if sp.issparse(b):
            return sp.csr_matrix((np.ldexp(b.data, e), b.indices, b.indptr),
                                 shape=b.shape)
        return np.ldexp(b, e)
    return QuatMatrix(*(scale(b) for b in M.blocks))


def _initial_state(M: QuatMatrix, rng: np.random.Generator, m_b: int,
                   matvecs: int = 0, sigma_max: float = 0.0) -> KrylovState:
    """Factorization of ``m_b`` steps from a random start vector; a fresh
    restart carries the matvec count and sigma_max of the state it drops."""
    state = start_state(M, random_unit_vector(M.cols, rng), rng, m_b)
    state.matvecs = matvecs
    state.sigma_max = sigma_max
    return lanczos_extend(M, state, m_b)


def verify_residual(M: QuatMatrix, T: TripletSet) -> float:
    """||M V - U Sigma||_F over the triplet set, in compact arithmetic."""
    total = 0.0
    for j in range(len(T)):
        err = structured_matvec(M, T.V.data[j]) - \
            T.U.data[j] * float(T.sigmas[j])
        total += vec_norm(err) ** 2
    return float(np.sqrt(total))
