"""Restarted drivers: convergence testing, the one restart step after a
check of either mode, the solver loop and residual verification."""

import numpy as np
import pytest
from scipy.linalg import block_diag

from quatsvd import io as qio
from quatsvd.bidiag import factorization_errors, lanczos_bidiag
from quatsvd.quatlin import (
    QuatMatrix,
    expand_real_counterpart,
    expand_vector,
    random_unit_vector,
    structured_matvec,
    vec_norm,
)
from quatsvd.restart import (
    SolverOptions,
    check_convergence,
    restart_cycle,
    solve_partial_svd,
    verify_residual,
    _initial_state,
)

from conftest import (
    dedup_singular_values,
    matrix_from_triplets_expansion,
    rand_qmat,
    synthetic_triplets,
)
from oracles import Quaternion, scalar_matrix


def make_state(M, m_b, seed=3):
    state = _initial_state(M, np.random.default_rng(seed), m_b)
    state.sigma_max = float(np.linalg.svd(state.B, compute_uv=False)[0])
    return state


def state_check(state, t, which):
    return check_convergence(state.B, state.beta_last, 1e-10, t, which=which,
                             sigma_max=state.sigma_max)


def ritz_cycle(M, state, t):
    return restart_cycle(M, state, t, state_check(state, t, "largest"))


def harmonic_cycle(M, state, t):
    return restart_cycle(M, state, t, state_check(state, t, "smallest"))


def harmonic_fields(B, beta_k, t):
    """Retained harmonic values, left and right singular vectors U_t and
    V'_t, and the null vector c of the row-extended [B, beta*e_last]."""
    chk = check_convergence(B, beta_k, 1e-10, t, which="smallest")
    return chk.theta, chk.X, chk.Pc[:, :-1], chk.Pc[:, -1]


def _padded_basis(sub, total, offset):
    from quatsvd.quatlin import CompactBasis

    out = CompactBasis(total, capacity=len(sub))
    for v in sub.data:
        data = np.zeros((total, 4))
        data[offset:offset + len(v)] = v
        out.append(data)
    return out


def _block_structured_matrix(rng):
    """Rank-6 matrix of two decoupled diagonal blocks, plus the right
    basis of the first block (supported on the first 4 columns)."""
    from conftest import orthonormal_basis
    from quatsvd.restart import TripletSet

    def block(sigmas, row_off, col_off):
        U = _padded_basis(orthonormal_basis(rng, 5, 3), 10, row_off)
        V = _padded_basis(orthonormal_basis(rng, 4, 3), 8, col_off)
        sigmas = np.asarray(sigmas)
        T = TripletSet(sigmas=sigmas, U=U, V=V, bounds=np.zeros(3),
                       converged=np.ones(3, dtype=bool))
        return matrix_from_triplets_expansion(T), V

    M1, V1 = block([4.0, 2.5, 1.0], 0, 0)
    M2, _ = block([3.0, 2.0, 0.5], 5, 4)
    blocks = [b1 + b2 for b1, b2 in
              zip(M1.dense_blocks(), M2.dense_blocks())]
    return QuatMatrix(*blocks), V1


class TestCheckConvergence:
    def test_zero_residual_converges_everything(self, rng):
        B = np.diag([3.0, 2.0, 1.0])
        chk = check_convergence(B, beta_k=0.0, delta=1e-10, t=3)
        assert np.all(chk.flags)
        assert np.all(chk.bounds == 0.0)

    def test_scalar_margin(self):
        chk = check_convergence(np.array([[1.0]]), beta_k=1e-12,
                                delta=1e-10, t=1)
        assert chk.flags[0]
        chk = check_convergence(np.array([[1.0]]), beta_k=1e-8,
                                delta=1e-10, t=1)
        assert not chk.flags[0]

    def test_sigma_max_running_maximum(self):
        chk = check_convergence(np.array([[2.0]]), 0.0, 1e-10, 1,
                                sigma_max=5.0)
        assert chk.sigma_max == 5.0

    def test_bounds_match_direct_residuals(self, rng):
        # beta_k |e_k' u_j| equals the adjoint-equation residual of the
        # Ritz triplet, computed directly with the structured matvec.
        M = rand_qmat(rng, 22, 16)
        F = lanczos_bidiag(M, random_unit_vector(16, rng), 9, rng)
        beta_k = F.beta_last
        chk = check_convergence(F.B, beta_k, 1e-10, 9)
        U, s, Vt = np.linalg.svd(F.B)
        sigma1 = s[0]
        for j in range(9):
            u_t = F.Q.combine_real(U[:, j])
            v_t = F.P.combine_real(Vt[j, :])
            r = structured_matvec(M, u_t, adjoint=True) - v_t * s[j]
            assert vec_norm(r) == pytest.approx(chk.bounds[j],
                                                abs=1e-12 * sigma1)


    def test_harmonic_pairs_are_exact_in_one_direction(self, rng):
        # u = Q x_j and v = P y_j with B y_j parallel to x_j: M v = u sigma
        # to roundoff, and the bound is the adjoint residual.  The check
        # keeps Pc = [V'_t, c], the harmonic right vectors and the null
        # vector of [B, beta*e_last], an orthonormal set.
        M = rand_qmat(rng, 22, 16)
        F = lanczos_bidiag(M, random_unit_vector(16, rng), 9, rng)
        chk = check_convergence(F.B, F.beta_last, 1e-10, 4, which="smallest")
        assert chk.Pc.shape == (10, 5)
        Baug = np.column_stack([F.B, F.beta_last * np.eye(9)[-1]])
        assert np.allclose(chk.theta,
                           np.linalg.svd(Baug, compute_uv=False)[::-1][:4])
        sigma1 = np.linalg.svd(F.B, compute_uv=False)[0]
        Pc = chk.Pc
        assert np.abs(Pc.T @ Pc - np.eye(5)).max() <= 1e-14
        assert np.linalg.norm(Baug @ Pc[:, :-1] - chk.X * chk.theta) <= \
            1e-14 * sigma1
        assert np.linalg.norm(Baug @ Pc[:, -1]) <= 1e-14 * sigma1
        assert Pc[-1, -1] >= 0.0
        assert np.all(chk.sigmas >= 0.0)
        for j in range(4):
            u = F.Q.combine_real(chk.X[:, j])
            v = F.P.combine_real(chk.Y[:, j])
            exact = structured_matvec(M, v) - u * chk.sigmas[j]
            assert vec_norm(exact) <= 1e-13 * sigma1
            r = structured_matvec(M, u, adjoint=True) - v * chk.sigmas[j]
            assert vec_norm(r) == pytest.approx(chk.bounds[j],
                                                abs=1e-12 * sigma1)

    def test_harmonic_check_of_exact_projection_is_square(self):
        # With beta_k broken down, harmonic pairs are Ritz pairs of B, and
        # the restart keeps the Ritz coefficients.
        chk = check_convergence(np.diag([3.0, 2.0, 1.0]), 0.0, 1e-10, 3,
                                which="smallest")
        assert np.array_equal(chk.Pc, block_diag(chk.Y, 1.0))
        assert np.array_equal(chk.sigmas, [1.0, 2.0, 3.0])
        assert chk.theta is chk.sigmas
        assert np.all(chk.flags)

    def test_harmonic_check_of_singular_projection(self):
        # B y = 0 has a solution, so the check needs no solve with B: the
        # zero singular value comes out exactly, with finite bounds.
        chk = check_convergence(np.diag([2.0, 0.0, 1.0]), 1.0, 1e-10, 2,
                                which="smallest")
        assert np.allclose(chk.sigmas, [0.0, 1.0], atol=1e-15)
        assert np.all(np.isfinite(chk.bounds))
        assert np.abs(np.diag([2.0, 0.0, 1.0]) @ chk.Y[:, 0]).max() <= 1e-15


class _AugmentCycleChecks:
    """Checks of the one restart step after a check of either mode.

    Each subclass names its mode's cycle and its test matrices, and inherits
    these tests under its own name.  ``exhausted_case`` is (shape, m_b,
    t, residual vanishes, deflation records, spectrum of the new B) for
    a rank-3 matrix with singular values 4, 2.5 and 1.
    """

    def test_cycle_boundary_identities(self, rng):
        m, n, t = self.boundary_case
        M = rand_qmat(rng, m, n)
        state = make_state(M, 12)
        out = self.cycle(M, state, t)
        assert out.steps == 12
        errs = factorization_errors(M, out.P, out.Q, out.B, out.f)
        assert errs["direct"] <= 1e-11 * out.sigma_max
        assert errs["adjoint"] <= 1e-11 * out.sigma_max
        assert errs["f_orth"] <= 1e-12
        assert errs["P_orth"] <= 1e-12
        assert errs["Q_orth"] <= 1e-12

    def test_cycles_rewrite_one_workspace(self, rng):
        M = rand_qmat(rng, *self.workspace_shape)
        state = make_state(M, 10)
        P0, Q0 = state.P.data, state.Q.data
        for _ in range(3):
            assert self.cycle(M, state, 4) is state
        assert np.shares_memory(state.P.data, P0)
        assert np.shares_memory(state.Q.data, Q0)

    def test_rank_exhausted_augmentation_deflates(self, rng):
        # Once the basis captures the whole rank, the augmentation step
        # finds no new left direction: it deflates to a fresh one with a
        # zero coefficient, as in the Lanczos steps, and keeps the
        # factorization exact.
        shape, m_b, t, vanishes, records, spectrum = self.exhausted_case
        T = synthetic_triplets(rng, *shape, [4.0, 2.5, 1.0])
        M = matrix_from_triplets_expansion(T)
        state = make_state(M, m_b)
        assert (state.beta_last <= 1e-10) == vanishes
        before = len(state.deflations)
        out = self.cycle(M, state, t)
        assert out.steps == m_b
        assert out.B[t, t] == 0.0
        assert out.deflations[before:before + len(records)] == records
        errs = factorization_errors(M, out.P, out.Q, out.B, out.f)
        assert errs["direct"] <= 1e-12 * 4.0
        assert errs["adjoint"] <= 1e-12 * 4.0
        assert errs["P_orth"] <= 1e-12
        assert errs["Q_orth"] <= 1e-12
        got = np.linalg.svd(out.B, compute_uv=False)
        assert np.allclose(got, spectrum, atol=1e-11)

    def test_degenerate_t0_is_plain_restart(self, rng):
        M = rand_qmat(rng, 20, 14)
        state = make_state(M, 8)
        out = self.cycle(M, state, 0)
        assert out.steps == 8
        errs = factorization_errors(M, out.P, out.Q, out.B, out.f)
        assert max(errs["direct"], errs["adjoint"]) <= 1e-11 * out.sigma_max
        # t=0 leaves no arrow block: the new projection is plain bidiagonal.
        assert np.abs(np.triu(out.B, 2)).max() == 0.0


class TestRitzCycle(_AugmentCycleChecks):
    cycle = staticmethod(ritz_cycle)
    boundary_case = (40, 25, 5)
    workspace_shape = (30, 22)
    # The residual vanishes with the row space, so the step records a
    # beta deflation as well.
    exhausted_case = ((10, 8), 5, 3, True, [(3, "beta"), (3, "alpha")],
                      [4.0, 2.5, 1.0, 0.0, 0.0])

    def test_exact_invariant_subspace_keeps_ritz_pairs(self, rng):
        # Block-structured matrix explored from inside one block: the
        # residual vanishes once the block is exhausted, the cycle takes
        # the fresh-direction path and the retained values pass through
        # unchanged with zero couplings.
        from quatsvd.bidiag import lanczos_extend, start_state

        M, V1 = _block_structured_matrix(rng)
        p1 = V1.combine_real([0.6, 0.4, 0.3])
        p1 = p1 * (1.0 / vec_norm(p1))
        state = start_state(M, p1, rng, 3)
        lanczos_extend(M, state, 3)
        state.sigma_max = float(np.linalg.svd(state.B, compute_uv=False)[0])
        assert state.beta_last <= 1e-12  # block exhausted exactly
        sig_before = np.linalg.svd(state.B, compute_uv=False)[:2]
        out = ritz_cycle(M, state, 2)
        assert np.allclose(np.diag(out.B)[:2], sig_before, atol=1e-10)
        assert np.abs(out.B[:2, 2]).max() <= 1e-10  # rho column vanishes


class TestHarmonicCycle(_AugmentCycleChecks):
    cycle = staticmethod(harmonic_cycle)
    boundary_case = (30, 30, 4)
    workspace_shape = (25, 25)
    # A 3-step basis of a 6x4 matrix keeps a residual, which the harmonic
    # restart needs; it retains the two smallest values.
    exhausted_case = ((6, 4), 3, 2, False, [(2, "alpha")], [2.5, 1.0, 0.0])

    def test_projected_row_matrix_trivial(self):
        # One-step projection [3, 4]: singular value 5 with right vector
        # [3, 4] / 5, null vector [-4, 3] / 5 and harmonic right vector 1.
        sig, U_t, V_t, c = harmonic_fields(np.array([[3.0]]), 4.0, 1)
        assert sig[0] == pytest.approx(5.0, rel=1e-15)
        assert np.allclose(np.abs(V_t[:, 0]), [0.6, 0.8], rtol=1e-15)
        assert np.allclose(c, [-0.8, 0.6], rtol=1e-15)
        chk = check_convergence(np.array([[3.0]]), 4.0, 1e-10, 1,
                                which="smallest")
        assert abs(chk.Y[0, 0]) == 1.0
        assert chk.sigmas[0] == pytest.approx(3.0, rel=1e-15)

    def test_identity_projection_small_beta_matches_ritz(self):
        # With B = I and beta -> 0 the harmonic right vectors coincide with
        # the Ritz vectors, and the null vector, which brings in p_{k+1},
        # tends to e_last.
        B = np.eye(4)
        sig, U_t, V_t, c = harmonic_fields(B, 1e-13, 4)
        assert np.allclose(np.abs(V_t[:4]), np.abs(U_t), atol=1e-12)
        assert np.abs(V_t[4]).max() <= 1e-12
        assert np.allclose(c, np.eye(5)[-1], atol=1e-12)
        assert np.allclose(sig, 1.0, atol=1e-12)

    def test_harmonic_eigen_identity(self, rng):
        # Retained pairs are eigenpairs of the row-extended Gram matrix.
        M = rand_qmat(rng, 20, 20)
        state = make_state(M, 10)
        beta_k = state.beta_last
        Baug = np.column_stack([state.B, beta_k * np.eye(10)[-1]])
        sig, U_t, W, z = harmonic_fields(state.B, beta_k, 4)
        G = Baug @ Baug.T
        for j in range(4):
            r = G @ U_t[:, j] - sig[j] ** 2 * U_t[:, j]
            assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(G)

    def test_projection_keeps_arrow_form(self, rng):
        # The leading (t+1) block is diagonal plus one dense last row (the
        # removed coefficients above it are roundoff), and the Lanczos
        # steps after it append an upper bidiagonal part.
        M = rand_qmat(rng, 25, 25)
        state = make_state(M, 10)
        t = 4
        for _ in range(3):
            state = harmonic_cycle(M, state, t)
            lead = state.B[:t, :t + 1].copy()
            lead[range(t), range(t)] = 0.0
            assert np.abs(lead).max() <= 1e-13 * state.sigma_max
            assert np.all(state.B[t, :t] != 0.0)
            rest = state.B.copy()
            rest[:t + 1, :t + 1] = 0.0
            assert np.array_equal(rest, np.diag(np.diag(rest)) +
                                  np.diag(np.diag(rest, 1), 1))
            errs = factorization_errors(M, state.P, state.Q, state.B, state.f)
            assert errs["direct"] <= 1e-11 * state.sigma_max
            assert errs["adjoint"] <= 1e-11 * state.sigma_max

    def test_restart_keeps_factorization_of_rank_deficient_matrix(self):
        sig = [(0.5, 0.25, 0.1)[i % 3] * (1.0 + 1e-8 * i) for i in range(11)]
        M = matrix_from_triplets_expansion(
            synthetic_triplets(np.random.default_rng(2), 19, 12, sig))
        state = harmonic_cycle(M, make_state(M, 8, seed=0), 3)
        errs = factorization_errors(M, state.P, state.Q, state.B, state.f)
        assert errs["direct"] <= 1e-11 * state.sigma_max
        assert errs["adjoint"] <= 1e-11 * state.sigma_max

    def test_beta_between_the_two_breakdown_scales(self):
        # The check decides that beta has not broken down against the scale
        # before its SVD, and the restart's next_right against the updated
        # sigma_max.  A beta between the two keeps the harmonic Pc but
        # restarts from a fresh direction; the factorization still holds.
        from quatsvd.bidiag import BREAKDOWN_TOL, KrylovState, breakdown_scale
        from quatsvd.quatlin import CompactBasis

        n, k, t, beta = 12, 6, 3, 1.5e-14
        rng = np.random.default_rng(4)
        P, _ = np.linalg.qr(rng.standard_normal((n, n)))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        # max|B| = 1 and sigma_1(B) = 2 cos(pi / 13), about 1.94.
        B = np.eye(k) + np.eye(k, k=1)
        f = beta * P[:, k]
        # M P_k = Q_k B and M' Q_k = P_k B' + f e_k', plus a block on the
        # complements to re-expand into.
        M0 = Q[:, :k] @ B @ P[:, :k].T + np.outer(Q[:, k - 1], f) + \
            Q[:, k:] @ rng.standard_normal((n - k, n - k)) @ P[:, k:].T

        def compact(x):
            out = np.zeros((n, 4))
            out[:, 0] = x
            return out

        Z = np.zeros((n, n))
        M = QuatMatrix(M0, Z, Z, Z)
        state = KrylovState(P=CompactBasis(n, k + 1), Q=CompactBasis(n, k + 1),
                            B=B, f=compact(f), rng=rng)
        for j in range(k):
            state.P.append(compact(P[:, j]))
            state.Q.append(compact(Q[:, j]))
        errs = factorization_errors(M, state.P, state.Q, state.B, state.f)
        assert max(errs["direct"], errs["adjoint"]) <= 1e-14

        chk = state_check(state, t, "smallest")
        assert BREAKDOWN_TOL * breakdown_scale(B, 0.0) < state.beta_last <= \
            BREAKDOWN_TOL * breakdown_scale(B, chk.sigma_max)
        assert not np.array_equal(chk.Pc, block_diag(chk.Y, 1.0))
        state.sigma_max = chk.sigma_max
        out = restart_cycle(M, state, t, chk)
        assert (t, "beta") in out.deflations
        errs = factorization_errors(M, out.P, out.Q, out.B, out.f)
        assert errs["direct"] <= 1e-11 * out.sigma_max
        assert errs["adjoint"] <= 1e-11 * out.sigma_max
        assert errs["P_orth"] <= 1e-12
        assert errs["Q_orth"] <= 1e-12


class TestSolver:
    def test_scalar_quaternion(self):
        M = scalar_matrix(Quaternion(1, 1, 1, 1))
        T, trace = solve_partial_svd(M, SolverOptions(k=1, seed=9))
        assert T.sigmas[0] == pytest.approx(2.0, abs=1e-12)
        assert trace.cycles == 1
        assert T.all_converged

    def test_real_diagonal_top_two(self):
        Z = np.zeros((5, 5))
        M = QuatMatrix(np.diag([5.0, 4.0, 3.0, 2.0, 1.0]), Z, Z, Z)
        T, _ = solve_partial_svd(M, SolverOptions(k=2, seed=4))
        assert np.allclose(T.sigmas, [5.0, 4.0], atol=1e-10)

    def test_largest_matches_dense_oracle(self, rng):
        M = rand_qmat(rng, 60, 45)
        true_vals, spread = dedup_singular_values(M)
        assert spread[:8].max() <= 1e-10 * true_vals[0]
        T, _ = solve_partial_svd(M, SolverOptions(k=8, seed=1))
        assert T.all_converged
        rel = np.abs(T.sigmas - true_vals[:8]) / true_vals[:8]
        assert rel.max() <= 1e-8

    def test_smallest_matches_dense_oracle(self, rng):
        M = rand_qmat(rng, 60, 45)
        true_vals, _ = dedup_singular_values(M)
        T, _ = solve_partial_svd(
            M, SolverOptions(k=4, which="smallest", seed=1))
        assert T.all_converged
        small = true_vals[::-1][:4]
        assert np.abs(T.sigmas - small).max() <= 1e-6 * true_vals[0]
        assert np.all(np.diff(T.sigmas) >= 0.0)

    def test_smallest_on_wide_matrix(self, rng):
        M = rand_qmat(rng, 18, 30)
        true_vals, _ = dedup_singular_values(M)
        T, _ = solve_partial_svd(
            M, SolverOptions(k=3, which="smallest", m_b=12, seed=6))
        assert T.all_converged
        assert np.abs(T.sigmas - true_vals[::-1][:3]).max() <= \
            1e-6 * true_vals[0]
        assert T.U.n == 18 and T.V.n == 30

    @pytest.mark.parametrize("which, m, n", [("largest", 30, 20),
                                             ("smallest", 30, 20),
                                             ("smallest", 18, 30)])
    def test_triplet_bases_hold_only_the_triplets(self, rng, which, m, n):
        # The reported bases are k-slot copies, not views of the solve's
        # (m_b+1)-slot workspace (the wide case runs on the adjoint).
        M = rand_qmat(rng, m, n)
        T, _ = solve_partial_svd(
            M, SolverOptions(k=3, which=which, m_b=10, seed=1))
        assert T.U.capacity == T.V.capacity == len(T)
        assert (T.U.n, T.V.n) == (m, n)

    def test_unconverged_flagged_and_best_effort(self, rng):
        M = rand_qmat(rng, 40, 30)
        T, trace = solve_partial_svd(
            M, SolverOptions(k=5, m_b=12, maxit=1, delta=1e-16, seed=2))
        assert not T.all_converged
        assert len(T) == 5
        assert trace.cycles == 2

    def test_invalid_options(self, rng):
        # Options that do not fit the matrix's shape.
        M = rand_qmat(rng, 10, 8)
        with pytest.raises(ValueError):
            solve_partial_svd(M, SolverOptions(k=9))
        with pytest.raises(ValueError):
            solve_partial_svd(M, SolverOptions(k=5, m_b=5))

    @pytest.mark.parametrize("field, value", [
        ("which", "middle"), ("k", 0), ("m_b", 0), ("maxit", -1),
        ("delta", float("nan")), ("delta", float("inf")), ("delta", 0.0),
        ("delta", -1e-10), ("k", 2.5), ("k", True), ("k", "2"),
        ("m_b", 4.5), ("m_b", False), ("maxit", 1.5), ("maxit", True),
        ("seed", None), ("seed", 1.5), ("seed", "3"), ("seed", True),
        ("seed", -1)])
    def test_invalid_options_rejected_on_construction(self, field, value):
        with pytest.raises(ValueError):
            SolverOptions(**{"k": 2, field: value})

    def test_singular_matrix_null_space_found_by_deflation(self, rng):
        # An exactly singular matrix explored past its rank: deflation
        # lands in the null space and the zero singular values come out
        # exact, with exact triplets.
        T = synthetic_triplets(rng, 12, 12, np.linspace(5.0, 1.0, 8))
        M = matrix_from_triplets_expansion(T)  # rank 8
        out, _ = solve_partial_svd(
            M, SolverOptions(k=2, which="smallest", m_b=10, seed=0))
        assert out.all_converged
        assert np.all(out.sigmas <= 1e-10)
        assert verify_residual(M, out) <= 1e-12 * 5.0

    def test_smallest_of_rank_deficient_matrix(self):
        # B inherits a singular value near 1e-14 from the matrix's null
        # space; the harmonic restarts never solve with it, and the zero
        # singular value converges.
        sig = [(0.5, 0.25, 0.1)[i % 3] * (1.0 + 1e-8 * i) for i in range(11)]
        M = matrix_from_triplets_expansion(
            synthetic_triplets(np.random.default_rng(2), 19, 12, sig))
        out, _ = solve_partial_svd(
            M, SolverOptions(k=2, which="smallest", m_b=8, seed=0))
        assert out.all_converged
        assert np.allclose(out.sigmas, [0.0, 0.1], atol=1e-8)
        assert verify_residual(M, out) <= 1e-12 * 0.5

    def test_harmonic_right_vector_of_zero_norm(self):
        # Real diagonal input: some retained harmonic pair has a right
        # vector whose last entry vanishes along with the null vector's,
        # so the check takes the right singular vector itself (a division
        # by the zero norm would warn, which the suite makes an error).
        Z = np.zeros((8, 8))
        M = QuatMatrix(np.diag([3.0, 2.0, 1.0, 0.0, 0.0, 0.5, 4.0, 0.0]),
                       Z, Z, Z)
        out, _ = solve_partial_svd(
            M, SolverOptions(k=2, which="smallest", m_b=4, maxit=20, seed=0))
        assert np.all(np.isfinite(out.sigmas))
        assert np.all(np.isfinite(out.bounds))
        for j, sigma in enumerate(out.sigmas):
            u, v = out.U.data[j], out.V.data[j]
            assert vec_norm(structured_matvec(M, v) - u * sigma) <= 1e-13
            true = vec_norm(structured_matvec(M, u, adjoint=True) - v * sigma)
            assert out.bounds[j] >= true - 1e-13
            if out.converged[j]:
                assert min(abs(sigma - d) for d in (0.0, 0.5)) <= \
                    out.bounds[j] + 1e-13

    def test_deflation_when_draws_lie_in_the_range(self):
        # A rank-11 matrix built from the solver's own seed: the solver's
        # random fresh directions all lie in its range, and deflation must
        # still find the null vector.
        T = synthetic_triplets(np.random.default_rng(1), 12, 12,
                               np.logspace(0, -1, 11))
        M = matrix_from_triplets_expansion(T)
        out, _ = solve_partial_svd(
            M, SolverOptions(k=2, which="smallest", m_b=12, maxit=0, seed=1))
        assert out.all_converged
        assert np.allclose(out.sigmas, [0.0, 0.1], atol=1e-12)

    @pytest.mark.parametrize("which", ["largest", "smallest"])
    def test_full_right_basis_stops_without_restart(self, rng, which):
        # m_b = n leaves no direction outside the right basis; a tolerance
        # below roundoff must not make the solver restart anyway.
        M = rand_qmat(rng, 6, 4)
        true_vals, _ = dedup_singular_values(M)
        T, trace = solve_partial_svd(
            M, SolverOptions(k=2, which=which, delta=1e-300, maxit=8,
                             seed=0))
        assert trace.cycles == 1 and not trace.events
        want = true_vals[:2] if which == "largest" else true_vals[::-1][:2]
        assert np.abs(T.sigmas - want).max() <= 1e-12 * true_vals[0]

    @pytest.mark.parametrize("which", ["largest", "smallest"])
    def test_one_dense_svd_per_cycle(self, rng, monkeypatch, which):
        # The check's SVD drives the restart of the same cycle and the
        # reported triplets, in both modes, and every cycle after the first
        # takes the one restart step.
        import quatsvd.restart as restart_mod
        import quatsvd.smalldense as smalldense_mod

        calls, restarts = [], []
        real_svd = smalldense_mod.dense_svd

        def counting_svd(A):
            calls.append(A.shape)
            return real_svd(A)

        def counting_restart(*args):
            restarts.append(args[2])
            return restart_cycle(*args)

        def refuses(*args):
            raise AssertionError("the driver called a per-mode restart")

        monkeypatch.setattr(smalldense_mod, "dense_svd", counting_svd)
        monkeypatch.setattr(restart_mod, "restart_cycle", counting_restart)
        for name in ("ritz_augment_cycle", "harmonic_augment_cycle"):
            monkeypatch.setattr(restart_mod, name, refuses)
        M = rand_qmat(rng, 40, 30)
        _, trace = solve_partial_svd(
            M, SolverOptions(k=4, which=which, m_b=10, seed=5))
        assert trace.cycles > 1
        assert len(calls) == trace.cycles
        assert len(restarts) == trace.cycles - 1

    def test_no_dense_solve_in_either_mode(self, rng, monkeypatch):
        # Both checks and the restart step take everything from the
        # check's SVD: no QR and no triangular solve, even in harmonic mode.
        import quatsvd.smalldense as smalldense_mod

        def refuses(*args):
            raise AssertionError("the solver made a dense solve")

        for name in ("qr_factor", "solve_upper", "tri_solve_upper",
                     "bidiag_solve"):
            monkeypatch.setattr(smalldense_mod, name, refuses)
        M = rand_qmat(rng, 40, 30)
        for which in ("largest", "smallest"):
            T, trace = solve_partial_svd(
                M, SolverOptions(k=4, which=which, m_b=10, seed=5))
            assert trace.cycles > 1 and T.all_converged

    def test_scaled_near_overflow(self, rng):
        M0 = rand_qmat(rng, 30, 30)
        true_vals, _ = dedup_singular_values(M0)
        M = QuatMatrix(*[1e200 * b for b in M0.dense_blocks()])
        T, _ = solve_partial_svd(M, SolverOptions(k=3, seed=1))
        assert T.all_converged
        assert np.allclose(T.sigmas / 1e200, true_vals[:3], rtol=1e-8)

    def test_scaled_near_underflow(self, rng):
        M0 = rand_qmat(rng, 30, 30)
        true_vals, _ = dedup_singular_values(M0)
        M = QuatMatrix(*[1e-300 * b for b in M0.dense_blocks()])
        T, _ = solve_partial_svd(M, SolverOptions(k=3, seed=1))
        assert T.all_converged
        assert np.allclose(T.sigmas / 1e-300, true_vals[:3], rtol=1e-8)

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("which", ["largest", "smallest"])
    @pytest.mark.parametrize("e", [600, -900])
    def test_power_of_two_scaling_is_exact(self, rng, which, e, sparse):
        # Outside the safe range the solve runs on M scaled back by a power
        # of two: every reported number is exactly 2**e times the unscaled
        # solve's, and the vectors and flags are the same.
        if sparse:
            M0 = QuatMatrix(*[qio.gen_sparse_block(60, seed=i, diagonal_shift=3.0)
                              for i in range(4)])
            assert M0.is_sparse
        else:
            M0 = rand_qmat(rng, 30, 24)
        opts = SolverOptions(k=3, which=which, seed=1)
        T0, trace0 = solve_partial_svd(M0, opts)
        M = QuatMatrix(*[b * 2.0 ** e for b in M0.blocks])
        T, trace = solve_partial_svd(M, opts)
        assert np.array_equal(T.sigmas, np.ldexp(T0.sigmas, e))
        assert np.array_equal(T.bounds, np.ldexp(T0.bounds, e))
        assert trace.rows == [(c, j, float(np.ldexp(b, e)), mv)
                              for c, j, b, mv in trace0.rows]
        assert np.array_equal(T.converged, T0.converged)
        assert np.array_equal(T.U.data, T0.U.data)
        assert np.array_equal(T.V.data, T0.V.data)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="known defect: smallest mode stalls on a "
                              "graded spectrum; the trace bound levels off "
                              "above delta and the result stays unconverged")
    def test_smallest_on_graded_spectrum(self):
        d = np.logspace(0, -12, 80)
        Z = np.zeros((80, 80))
        M = QuatMatrix(np.diag(d), Z, Z, Z)
        T, _ = solve_partial_svd(
            M, SolverOptions(k=3, which="smallest", maxit=50, seed=0))
        assert T.all_converged
        assert np.allclose(T.sigmas, d[::-1][:3], rtol=1e-6)

    def test_multiplicity_four_consistency(self, rng):
        # Expanded converged triplets give four orthonormal singular pairs
        # of the real counterpart for the same value.
        M = rand_qmat(rng, 24, 18)
        T, _ = solve_partial_svd(M, SolverOptions(k=3, seed=8))
        E = expand_real_counterpart(M)
        for j in range(3):
            Eu = expand_vector(T.U.data[j])
            Ev = expand_vector(T.V.data[j])
            assert np.abs(Eu.T @ Eu - np.eye(4)).max() <= 1e-12
            assert np.abs(Ev.T @ Ev - np.eye(4)).max() <= 1e-12
            resid = E @ Ev - T.sigmas[j] * Eu
            col_norms = np.linalg.norm(resid, axis=0)
            assert col_norms.max() <= 10.0 * T.bounds[j] + 1e-12 * T.sigmas[0]

    def test_trace_is_per_cycle_and_monotone_matvecs(self, rng):
        M = rand_qmat(rng, 40, 30)
        T, trace = solve_partial_svd(M, SolverOptions(k=4, m_b=10, seed=5))
        counts = [r[3] for r in trace.rows]
        assert counts == sorted(counts)
        for j in range(1, 5):
            assert sum(r[1] == j for r in trace.rows) == trace.cycles

    def test_monotone_error_bounds_on_separated_spectrum(self, rng):
        # Windowed minimum of each tracked bound must not grow by more
        # than 10x across consecutive 5-cycle windows.
        sig = 6.0 * 0.8 ** np.arange(20)
        T0 = synthetic_triplets(rng, 40, 30, sig)
        M = matrix_from_triplets_expansion(T0)
        _, trace = solve_partial_svd(
            M, SolverOptions(k=4, m_b=9, delta=1e-13, seed=3, maxit=60))
        for j in range(1, 5):
            b = np.array([r[2] for r in trace.rows if r[1] == j])
            if b.size < 10:
                continue
            for c in range(5, b.size - 4):
                early = b[max(0, c - 5):c].min()
                late = b[c:c + 5].min()
                assert late <= 10.0 * early + 1e-13 * sig[0]


class TestVerifyResidual:
    def test_exact_triplets_of_diagonal(self, rng):
        Z = np.zeros((4, 4))
        M = QuatMatrix(np.diag([4.0, 3.0, 2.0, 1.0]), Z, Z, Z)
        T, _ = solve_partial_svd(M, SolverOptions(k=2, seed=1))
        assert verify_residual(M, T) <= 1e-13 * 4.0

    def test_perturbation_grows_linearly(self, rng):
        T = synthetic_triplets(rng, 15, 12, [3.0, 2.0])
        M = matrix_from_triplets_expansion(T)
        base = verify_residual(M, T)
        eps = 1e-6
        bumped = T.U.data[0].copy()
        bumped[0, 0] += eps
        T.U.data[0] = bumped
        grown = verify_residual(M, T)
        # ||M v - u sigma|| picks up ~ eps * sigma_1 from the left vector.
        assert grown == pytest.approx(eps * 3.0, rel=1e-3, abs=base)

    def test_solver_output_within_tolerance(self, rng):
        M = rand_qmat(rng, 60, 40)
        opts = SolverOptions(k=6, seed=7)
        T, _ = solve_partial_svd(M, opts)
        assert verify_residual(M, T) <= 10.0 * opts.delta * T.sigmas[0] * 6
