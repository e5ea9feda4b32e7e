"""Implicitly restarted drivers for partial quaternion SVD.

Each cycle computes one dense SVD, in :func:`check_convergence`, which
alone owns the triplets a solve reports and the right coefficients its
restart keeps.  The mode also sets the retained count, the order of the
reported triplets and the adjoint route for a wide M; the restart step is
the same in both.  The check takes the SVD of B in `largest` mode and of
the row-extended [B, beta*e_last] in `smallest` (harmonic) mode, and
returns unit coefficient vectors x_j and y_j with B y_j parallel to x_j:
the singular vectors of B, or a harmonic left vector x_j and y_j
proportional to c_last V'_{1:k,j} - V'_{last,j} c_{1:k}, for which
B y_j = c_last theta_j x_j exactly.  Here V' is the full right basis of
[B, beta*e_last] and c its null vector, signed so that c_last >= 0; when
both terms vanish, V'_{1:k,j} itself is a unit singular vector of B.
Then v_j = P y_j and u_j = Q x_j satisfy ``M v_j = u_j sigma_j`` with
sigma_j = x_j' B y_j (the singular value itself for an SVD pair), and the
factorization identities give the bound ``||M* u_j - v_j sigma_j|| =
||B' x_j - sigma_j y_j|| (+) beta_last |last component of x_j|``, where
(+) is the root sum of squares.  A triplet is accepted once its bound is
at most ``delta * sigma_max``, sigma_max being a running estimate of the
largest singular value.  Once beta_last breaks down the projection is
exact, harmonic pairs equal Ritz pairs, and harmonic mode checks B itself.

The check also returns Pc, the orthonormal (k+1) x (t+1) coefficients of
[P, p] that the restart keeps: blockdiag(Y_t, 1) after a Ritz check, and
[V'_t, c] after a harmonic one.  Both modes then take one augmented step
(Baglama & Reichel, SIAM J. Sci. Comput. 27(1), 2005), :func:`restart_cycle`,
which keeps the columns of [P, p] Pc and Q X_t, p being the next right
vector: f/beta, or a fresh direction with beta = 0 once f has broken
down.  As M [P, p] = Q [B, beta*e_last] + w e_{k+1}' with w orthogonal to
Q, and [B, beta*e_last] Pc = [X_t theta_t, g], the step needs no solve
with B and holds for a singular B too.  Here g = [B, beta*e_last] Pc[:, -1]
is beta*e_last after a Ritz check and zero to roundoff after a harmonic
one.  With col = X_t' g, the new left vector comes from w = M p -
Q (beta*e_last - g + X_t col), and the leading block of B becomes
diag(theta_t, 0), plus col in its last column, plus [removed coefficients;
alpha] times the last row of Pc.  That is an arrow with a dense last
column after a Ritz check, and a dense last row after a harmonic one.
The step then re-expands with plain Lanczos steps.  The vector half of
the step, breakdowns included, is done by the step helpers of
:mod:`quatsvd.bidiag`; a cycle here computes only its projected algebra.
The loop state is one :class:`quatsvd.bidiag.KrylovState` per solve,
which each restart and the final extraction rewrite in place.

Output is bit-identical for a fixed seed and BLAS thread count.  Between
1 and 2 OpenBLAS threads, six dense solves moved their sigmas by up to
3.5e-15 relative, with the same matvec counts.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import block_diag

from . import smalldense
from .bidiag import (
    BREAKDOWN_TOL,
    KrylovState,
    breakdown_scale,
    close_step,
    lanczos_bidiag,
    lanczos_extend,
    next_left,
    next_right,
)
from .quatlin import (
    QuatMatrix,
    random_unit_vector,
    safe_range_exponent,
    scaled_norm,
    structured_matvec,
)

WHICH_LARGEST = "largest"
WHICH_SMALLEST = "smallest"

# Extra retained pairs beyond the unconverged targets.
RETAIN_BUFFER = 5


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
        # Always empty; it stays while perfbench/layers.py reads it, until
        # typed per-cycle records replace it.
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

    ``U`` and ``V`` are float64 arrays of shape (k, m, 4) and (k, n, 4)
    whose last axis is (w, x, y, z): ``U[j]`` and ``V[j]`` are the compact
    vectors u_j and v_j.
    ``sigmas`` is descending in largest mode and ascending in smallest
    mode.  ``M v_j = u_j sigma_j`` holds to roundoff, ``bounds[j]`` is
    ||M* u_j - v_j sigma_j|| to roundoff, and ``converged[j]`` says whether
    that bound met the tolerance.  A wide M is solved through its adjoint
    in smallest mode, and in largest mode when m_b equals its row count;
    that swaps the two equations' roles.
    """

    sigmas: np.ndarray
    U: np.ndarray
    V: np.ndarray
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
    (left) and ``Y`` (right), with their bounds and flags; ``theta``, the
    check's SVD values (harmonic ones in harmonic mode); and ``Pc``, the
    orthonormal (k+1) x (t+1) right coefficients a restart keeps."""

    flags: np.ndarray
    bounds: np.ndarray
    sigmas: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    sigma_max: float
    theta: np.ndarray
    Pc: np.ndarray


def check_convergence(B: np.ndarray, beta_k: float, delta: float, t: int,
                      which: str = WHICH_LARGEST,
                      sigma_max: float = 0.0) -> ConvergenceCheck:
    """Triplets of the square projected matrix ``B`` with their bounds and
    flags, and the restart's coefficients, as the module docstring
    describes.  sigma_max is kept as a running maximum so the tolerance
    never shrinks.
    """
    harmonic = which == WHICH_SMALLEST and \
        beta_k > BREAKDOWN_TOL * breakdown_scale(B, sigma_max)
    U, s, W = smalldense.dense_svd(
        np.column_stack([B, beta_k * np.eye(len(B))[-1]]) if harmonic else B)
    sigma_max = max(sigma_max, float(s[0]) if s.size else 0.0)
    # Basic-slice views: a reordering copy moves later products by roundoff.
    step = 1 if which == WHICH_LARGEST else -1
    X, theta = U[:, ::step][:, :t], s[::step][:t]
    V = W[:, :s.size][:, ::step][:, :t]
    if harmonic:
        c = W[:, -1] if W[-1, -1] >= 0.0 else -W[:, -1]
        Y = c[-1] * V[:-1] - np.outer(c[:-1], V[-1])
        # Both terms vanish only when V[:-1, j] is a singular vector of B.
        Y = np.where(np.linalg.norm(Y, axis=0) > 0.0, Y, V[:-1])
        Y = Y / np.linalg.norm(Y, axis=0)
        sigmas = np.einsum("ij,ij->j", X, B @ Y)
        Pc = np.column_stack([V, c])
    else:
        Y, sigmas = V, theta
        Pc = block_diag(Y, 1.0)
    bounds = np.hypot(np.linalg.norm(B.T @ X - Y * sigmas, axis=0),
                      beta_k * X[-1])
    return ConvergenceCheck(flags=bounds <= delta * sigma_max, bounds=bounds,
                            sigmas=sigmas, X=X, Y=Y, sigma_max=sigma_max,
                            theta=theta, Pc=Pc)


def restart_cycle(M: QuatMatrix, state: KrylovState, t: int,
                  chk: ConvergenceCheck) -> KrylovState:
    """One augmented restart that keeps the t leading columns of ``chk``,
    the last check of ``state``, re-expanded to ``state.steps`` steps (see
    the module docstring).  Rewrites ``state`` in place and returns it.
    """
    k = state.steps
    if not 0 <= t < k:
        raise ValueError(f"retained count t={t} out of range 0..{k - 1}")
    # On an exact invariant subspace the fresh direction must avoid the
    # whole basis, so it is drawn before P is overwritten.
    p, beta = next_right(M, state, t)
    Pc = np.column_stack([chk.Pc[:, :t], chk.Pc[:, -1]])
    X_t = chk.X[:, :t]
    beta_e = beta * np.eye(k)[-1]
    g = np.column_stack([state.B, beta_e]) @ Pc[:, -1]
    col = X_t.T @ g
    w = structured_matvec(M, p) - state.Q.combine_real(beta_e - g + X_t @ col)
    state.matvecs += 1
    state.P.append(p)
    state.P.combine_matrix(Pc)
    state.Q.combine_matrix(X_t)

    q, alpha, coeffs = next_left(M, state, w)
    state.B = np.diag(np.append(chk.theta[:t], 0.0))
    state.B[:t, t] = col
    state.B += np.outer(np.append(coeffs[:, 0], alpha), Pc[-1])
    close_step(M, state, q)
    return lanczos_extend(M, state, k)


def ritz_augment_cycle(M: QuatMatrix, state: KrylovState, t: int,
                       chk: ConvergenceCheck) -> KrylovState:
    """:func:`restart_cycle`.  The solver never calls this; it stays only
    while ``perfbench/layers.py`` traces it by name."""
    return restart_cycle(M, state, t, chk)


def harmonic_augment_cycle(M: QuatMatrix, state: KrylovState, t: int,
                           chk: ConvergenceCheck) -> KrylovState:
    """:func:`restart_cycle`.  The solver never calls this; it stays only
    while ``perfbench/layers.py`` traces it by name."""
    return restart_cycle(M, state, t, chk)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _retained_count(k: int, m_b: int, which: str) -> int:
    # Retain every target (converged pairs stay locked in the basis) plus
    # a few buffer pairs, at most m_b - 3.  Shrinking the window as targets
    # converge stalls: in smallest mode the converged pairs sit at the front
    # of the target order, so a shorter window would evict the unconverged
    # ones.  Largest mode keeps all k even past the cap (m_b < k + 3).
    t = max(1, min(k + RETAIN_BUFFER, m_b - 3))
    return max(t, k) if which == WHICH_LARGEST else t


def _extract_triplets(state: KrylovState, chk: ConvergenceCheck,
                      which: str, k: int) -> TripletSet:
    """Reported triplets u_j = Q x_j and v_j = P y_j of the k leading
    columns of ``chk``, the last check of ``state``.  The bases are
    combined in the state's workspace and copied out as (k, n, 4) arrays,
    so the result does not keep it alive."""
    # A harmonic sigma_j = x_j' B y_j can round below zero; flipping u_j
    # with it keeps M v = u sigma and every bound.
    sign = np.where(chk.sigmas[:k] < 0.0, -1.0, 1.0)
    sigmas, X = chk.sigmas[:k] * sign, chk.X[:, :k] * sign
    # Sorted by value; equal values by bound, then by position.
    perm = np.lexsort((np.arange(sigmas.size), chk.bounds[:k],
                       -sigmas if which == WHICH_LARGEST else sigmas))
    U = state.Q.combine_matrix(X[:, perm]).data.copy()
    V = state.P.combine_matrix(chk.Y[:, perm]).data.copy()
    return TripletSet(sigmas=sigmas[perm], U=U, V=V,
                      bounds=chk.bounds[perm], converged=chk.flags[perm])


def solve_partial_svd(M: QuatMatrix, opts: SolverOptions):
    """Compute the k largest or smallest singular triplets of ``M``.

    Returns ``(TripletSet, ConvergenceTrace)``.  On non-convergence after
    ``opts.maxit`` restarts the best current approximations are returned
    with their ``converged`` flags showing which triplets met the
    tolerance.  A matrix outside the safe range is solved scaled by
    2**-:func:`safe_range_exponent` (:meth:`QuatMatrix.scaled`), and the
    values and bounds scaled back.
    """
    e = safe_range_exponent(M)
    m, n = M.rows, M.cols
    if opts.k > min(m, n):
        raise ValueError(f"k={opts.k} out of range 1..{min(m, n)}")
    if e:
        # Solve M 2**-e and scale the singular values and bounds back; the
        # vectors are the same.
        triplets, trace = solve_partial_svd(M.scaled(-e), opts)
        trace.rows = [(cycle, j, float(np.ldexp(bound, e)), matvecs)
                      for cycle, j, bound, matvecs in trace.rows]
        return replace(triplets, sigmas=np.ldexp(triplets.sigmas, e),
                       bounds=np.ldexp(triplets.bounds, e)), trace

    m_b = opts.resolved_m_b(m, n)
    if opts.k >= m_b and m_b < min(m, n):
        raise ValueError(f"need k < m_b: k={opts.k}, m_b={m_b}")
    if m < n and (opts.which == WHICH_SMALLEST or m_b == m):
        # Work on the adjoint, then swap the vector roles back.  In smallest
        # mode its projected matrix tracks the nonzero spectrum; with
        # m_b = m its right basis spans the whole space, so the exact
        # projection below stops after one check.
        triplets, trace = solve_partial_svd(M.conjugate_transpose(), opts)
        return replace(triplets, U=triplets.V, V=triplets.U), trace

    trace = ConvergenceTrace()
    rng = np.random.default_rng(opts.seed)
    state = lanczos_bidiag(M, random_unit_vector(M.cols, rng), m_b, rng)
    retained = _retained_count(opts.k, m_b, opts.which)
    cycle = 0
    while True:
        # The check covers the retained pairs; the first k are targets.
        chk = check_convergence(state.B, state.beta_last, opts.delta,
                                max(retained, opts.k), which=opts.which,
                                sigma_max=state.sigma_max)
        trace.append_cycle(cycle, chk.bounds[:opts.k], state.matvecs)
        # With m_b = n the right basis spans the column space: the
        # projection is exact and no direction is left to restart with.
        if np.all(chk.flags[:opts.k]) or cycle == opts.maxit or m_b == n:
            return _extract_triplets(state, chk, opts.which, opts.k), trace
        cycle += 1
        # The restart sees the sigma_max its check was given.
        state = restart_cycle(M, state, retained, chk)
        state.sigma_max = chk.sigma_max


def verify_residual(M: QuatMatrix, T: TripletSet) -> float:
    """||M V - U Sigma||_F over the triplet set, in compact arithmetic."""
    return scaled_norm(M, (structured_matvec(M, T.V[j]) - T.U[j] * float(s)
                           for j, s in enumerate(T.sigmas)))
