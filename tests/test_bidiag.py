"""Lanczos bidiagonalization: recurrences, breakdowns, identity residuals."""

import numpy as np
import pytest

from quatsvd.bidiag import (
    basis_orthogonality_error,
    factorization_errors,
    lanczos_bidiag,
    lanczos_extend,
    start_state,
)
from quatsvd.quatlin import (
    CompactVector,
    QuatMatrix,
    Quaternion,
    random_unit_vector,
    vec_norm,
)

from conftest import dedup_singular_values, rand_qmat


def test_scalar_full_quaternion():
    M = QuatMatrix.from_scalar(Quaternion(1, 1, 1, 1))
    p1 = CompactVector.from_quaternion(Quaternion(1, 0, 0, 0))
    F = lanczos_bidiag(M, p1, 1, np.random.default_rng(0))
    assert F.B[0, 0] == pytest.approx(2.0, abs=1e-15)
    assert vec_norm(F.f) <= 1e-15


def test_real_diagonal_breaks_down_and_deflates():
    Z = np.zeros((3, 3))
    M = QuatMatrix(np.diag([3.0, 2.0, 1.0]), Z, Z, Z)
    p1 = CompactVector.from_components([1, 0, 0], [0, 0, 0], [0, 0, 0],
                                       [0, 0, 0])
    F = lanczos_bidiag(M, p1, 3, np.random.default_rng(0))
    assert F.B[0, 0] == pytest.approx(3.0, abs=1e-15)
    assert F.B[0, 1] == 0.0
    assert any(step == 1 and kind == "beta" for step, kind in F.deflations)
    # The deflated run still recovers the whole spectrum.
    got = np.sort(np.linalg.svd(F.B, compute_uv=False))
    assert np.allclose(got, [1.0, 2.0, 3.0], atol=1e-12)


def test_random_factorization_identities(rng):
    M = rand_qmat(rng, 30, 20)
    F = lanczos_bidiag(M, random_unit_vector(20, rng), 10, rng)
    errs = factorization_errors(M, F.P, F.Q, F.B, F.f)
    scale = float(np.abs(np.diag(F.B)).max())
    assert errs["P_orth"] <= 1e-12
    assert errs["Q_orth"] <= 1e-12
    assert errs["direct"] <= 1e-12 * scale
    assert errs["adjoint"] <= 1e-12 * scale
    assert errs["f_orth"] <= 1e-12
    assert np.all(np.diag(F.B) > 0.0)
    assert np.all(np.diag(F.B, 1) >= 0.0) and F.beta_last >= 0.0


def test_extend_matches_single_run(rng):
    M = rand_qmat(rng, 18, 12)
    p1 = random_unit_vector(12, rng)
    state = start_state(M, p1, np.random.default_rng(77))
    lanczos_extend(M, state, 5)
    lanczos_extend(M, state, 8)
    F = lanczos_bidiag(M, p1, 8, np.random.default_rng(77))
    assert np.abs(state.B - F.B).max() <= 1e-12 * np.abs(F.B).max()


def test_extend_zero_residual_deflates(rng):
    # Rank-2 matrix: the recurrence runs out of range directions early.
    from conftest import matrix_from_triplets_expansion, synthetic_triplets
    T = synthetic_triplets(rng, 6, 5, [3.0, 1.5])
    M = matrix_from_triplets_expansion(T)
    F = lanczos_bidiag(M, random_unit_vector(5, rng), 4, rng)
    assert F.deflations, "expected a deflation on a rank-2 matrix"
    errs = factorization_errors(M, F.P, F.Q, F.B, F.f)
    assert errs["direct"] <= 1e-12 * 3.0
    assert errs["adjoint"] <= 1e-12 * 3.0
    got = np.sort(np.linalg.svd(F.B, compute_uv=False))[::-1]
    assert np.allclose(got[:2], [3.0, 1.5], atol=1e-11)
    assert np.all(got[2:] <= 1e-11)


def test_extend_past_min_dimension_rejected(rng):
    M = rand_qmat(rng, 6, 4)
    state = start_state(M, random_unit_vector(4, rng), rng)
    with pytest.raises(ValueError):
        lanczos_extend(M, state, 5)


def test_btb_matches_tridiagonal_recurrence(rng):
    M = rand_qmat(rng, 25, 25)
    F = lanczos_bidiag(M, random_unit_vector(25, rng), 12, rng)
    alphas, betas = np.diag(F.B), np.diag(F.B, 1)
    T = F.B.T @ F.B
    Tref = np.zeros_like(T)
    for j in range(12):
        Tref[j, j] = alphas[j] ** 2 + (betas[j - 1] ** 2 if j else 0.0)
        if j < 11:
            Tref[j, j + 1] = Tref[j + 1, j] = alphas[j] * betas[j]
    assert np.abs(T - Tref).max() <= 1e-14 * np.abs(T).max()


def test_projected_values_within_residual_bounds(rng):
    # Each singular value of B_k lies within its residual bound of a true
    # singular value of the counterpart (Weyl perturbation).
    M = rand_qmat(rng, 40, 30)
    F = lanczos_bidiag(M, random_unit_vector(30, rng), 12, rng)
    beta_k = F.beta_last
    U, s, _ = np.linalg.svd(F.B)
    true_vals, spread = dedup_singular_values(M)
    assert spread.max() <= 1e-10 * true_vals[0]
    for j in range(s.size):
        bound = beta_k * abs(U[-1, j]) + 1e-12 * true_vals[0]
        assert np.abs(true_vals - s[j]).min() <= bound


def test_invalid_inputs(rng):
    M = rand_qmat(rng, 6, 4)
    with pytest.raises(ValueError):
        lanczos_bidiag(M, random_unit_vector(4, rng), 0, rng)
    with pytest.raises(ValueError):
        lanczos_bidiag(M, random_unit_vector(4, rng), 5, rng)
    with pytest.raises(ValueError):
        lanczos_bidiag(M, random_unit_vector(4, rng).scaled(0.9), 2, rng)
    with pytest.raises(ValueError):
        lanczos_bidiag(M, random_unit_vector(6, rng), 2, rng)


def test_orthogonality_after_many_steps(rng):
    M = rand_qmat(rng, 60, 50)
    F = lanczos_bidiag(M, random_unit_vector(50, rng), 40, rng)
    assert basis_orthogonality_error(F.P) <= 1e-12
    assert basis_orthogonality_error(F.Q) <= 1e-12
