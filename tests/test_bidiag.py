"""Lanczos bidiagonalization: recurrences, breakdowns, identity residuals."""

from dataclasses import replace

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
    QuatMatrix,
    random_unit_vector,
    safe_range_exponent,
    vec_norm,
)

from conftest import (
    basis_of,
    dedup_singular_values,
    from_components,
    from_quaternion,
    rand_qmat,
)
from oracles import Quaternion, scalar_matrix


def test_scalar_full_quaternion():
    M = scalar_matrix(Quaternion(1, 1, 1, 1))
    p1 = from_quaternion(Quaternion(1, 0, 0, 0))
    F = lanczos_bidiag(M, p1, 1, np.random.default_rng(0))
    assert F.B[0, 0] == pytest.approx(2.0, abs=1e-15)
    assert vec_norm(F.f) <= 1e-15


def test_real_diagonal_breaks_down_and_deflates():
    Z = np.zeros((3, 3))
    M = QuatMatrix(np.diag([3.0, 2.0, 1.0]), Z, Z, Z)
    p1 = from_components([1, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0])
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
    errs = factorization_errors(M, F)
    scale = float(np.abs(np.diag(F.B)).max())
    assert errs["P_orth"] <= 1e-12
    assert errs["Q_orth"] <= 1e-12
    assert errs["direct"] <= 1e-12 * scale
    assert errs["adjoint"] <= 1e-12 * scale
    assert errs["f_orth"] <= 1e-12
    assert np.all(np.diag(F.B) > 0.0)
    assert np.all(np.diag(F.B, 1) >= 0.0) and F.beta_last >= 0.0


@pytest.mark.parametrize("e", [600, -600])
def test_factorization_errors_scale_exactly(rng, e):
    # The same bases with M, B and f scaled by 2**e make an exactly scaled
    # factorization, whose residuals no square may overflow or flush to 0.
    M = rand_qmat(rng, 30, 20)
    F = lanczos_bidiag(M, random_unit_vector(20, rng), 10, rng)
    G = replace(F, B=np.ldexp(F.B, e), f=np.ldexp(F.f, e))
    want, got = factorization_errors(M, F), factorization_errors(M.scaled(e), G)
    for key in ("direct", "adjoint"):
        assert want[key] > 0.0 and got[key] == np.ldexp(want[key], e)


@pytest.mark.parametrize("e", [600, -600])
def test_start_refuses_a_matrix_outside_the_safe_range(rng, monkeypatch, e):
    # Unscaled, every alpha and beta flushes to zero at 2**-600 and the
    # squares overflow at 2**600: the start refuses before any matvec and
    # names the scaling that avoids both.
    import quatsvd.bidiag as bidiag_mod
    calls = []
    monkeypatch.setattr(bidiag_mod, "structured_matvec",
                        lambda *args, **kwargs: calls.append(args))
    M = rand_qmat(rng, 30, 20).scaled(e)
    p1 = random_unit_vector(20, rng)
    with pytest.raises(ValueError, match=r"M\.scaled\(-safe_range_exponent"):
        lanczos_bidiag(M, p1, 10, rng)
    assert calls == []
    monkeypatch.undo()
    F = lanczos_bidiag(M.scaled(-safe_range_exponent(M)), p1, 10, rng)
    assert not F.deflations and np.all(np.isfinite(F.B))


def test_extend_matches_single_run(rng):
    M = rand_qmat(rng, 18, 12)
    p1 = random_unit_vector(12, rng)
    state = start_state(M, p1, np.random.default_rng(77), 8)
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
    errs = factorization_errors(M, F)
    assert errs["direct"] <= 1e-12 * 3.0
    assert errs["adjoint"] <= 1e-12 * 3.0
    got = np.sort(np.linalg.svd(F.B, compute_uv=False))[::-1]
    assert np.allclose(got[:2], [3.0, 1.5], atol=1e-11)
    assert np.all(got[2:] <= 1e-11)


def test_breakdown_scale_includes_sigma_max(rng):
    # A residual of 1e-9 is far above 1e-14 * max|B| but at or below
    # 1e-14 * sigma_max = 1e-8: the state's scale makes it a breakdown.
    M = rand_qmat(rng, 12, 10)
    state = lanczos_bidiag(M, random_unit_vector(10, rng), 3, rng)
    state.sigma_max = 1e6
    state.f = state.f * (1e-9 / vec_norm(state.f))
    lanczos_extend(M, state, 4)
    assert (3, "beta") in state.deflations
    assert state.B[2, 3] == 0.0


def test_extend_past_min_dimension_rejected(rng):
    M = rand_qmat(rng, 6, 4)
    state = start_state(M, random_unit_vector(4, rng), rng, 5)
    with pytest.raises(ValueError):
        lanczos_extend(M, state, 5)


def test_extend_past_capacity_rejected(rng):
    M = rand_qmat(rng, 12, 10)
    state = start_state(M, random_unit_vector(10, rng), rng, 4)
    lanczos_extend(M, state, 5)  # the spare slot takes one more step
    B, matvecs = state.B.copy(), state.matvecs
    with pytest.raises(ValueError):
        lanczos_extend(M, state, 6)
    assert state.matvecs == matvecs and state.steps == 5
    assert np.array_equal(state.B, B)


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
    # k=True would build a 1x1 B, and 2.5 fail inside range().
    for k in (True, 2.5):
        with pytest.raises(ValueError, match=f"^k={k!r} must be an integer$"):
            lanczos_bidiag(M, random_unit_vector(4, rng), k, rng)
    with pytest.raises(ValueError):
        lanczos_bidiag(M, random_unit_vector(4, rng) * 0.9, 2, rng)
    with pytest.raises(ValueError):
        lanczos_bidiag(M, random_unit_vector(6, rng), 2, rng)
    # Unit-norm start vectors of the wrong shape: (n,) and (n, 3).
    for shape in ((4,), (4, 3)):
        p1 = rng.standard_normal(shape)
        with pytest.raises(ValueError):
            lanczos_bidiag(M, p1 / np.linalg.norm(p1), 2, rng)


def test_orthogonality_after_many_steps(rng):
    M = rand_qmat(rng, 60, 50)
    F = lanczos_bidiag(M, random_unit_vector(50, rng), 40, rng)
    assert basis_orthogonality_error(F.P) <= 1e-12
    assert basis_orthogonality_error(F.Q) <= 1e-12


@pytest.mark.parametrize("position", [0, 1, 2])
def test_orthogonality_error_keeps_nan(position):
    # The builtin max drops a NaN that comes second, which reported 0.0
    # for a basis holding garbage.
    zero = np.zeros(3)
    vectors = [from_components(e, zero, zero, zero) for e in np.eye(3)]
    assert basis_orthogonality_error(basis_of(vectors)) == 0.0
    vectors[position] = np.full((3, 4), np.nan)
    assert np.isnan(basis_orthogonality_error(basis_of(vectors)))


def test_fresh_direction_fallback_orthogonalizes_one_vector(rng, monkeypatch):
    # Every draw lies in the span, so the fallback picks the coordinate
    # vector farthest from it, without laying out all n of them.
    import tracemalloc

    import quatsvd.bidiag as bidiag_mod
    from conftest import orthonormal_basis

    n = 2000
    basis = orthonormal_basis(rng, n, 3)
    monkeypatch.setattr(bidiag_mod, "random_unit_vector",
                        lambda n, rng: basis.data[0].copy())
    tracemalloc.start()
    try:
        v = bidiag_mod._fresh_direction(n, basis, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n * n
    assert vec_norm(v) == pytest.approx(1.0, abs=1e-14)
    assert np.abs(basis.dot_all(v)).max() <= 1e-14
    # v = (e_i - Pe_i) / ||e_i - Pe_i|| has v[i, 0] = sqrt(1 - weight_i),
    # which is largest for the row of least basis weight.
    weights = (basis.data ** 2).sum(axis=(0, 2))
    i = np.argmin(weights)
    assert v[i, 0] == pytest.approx(np.sqrt(1.0 - weights[i]), rel=1e-12)
