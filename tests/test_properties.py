"""Property checks of the compact kernels and the Matrix Market reader
against hand-written oracles, of the factorization kept by in-place
restarts, and of the flags, bounds and determinism of the solver.

Examples are derandomized so the suite is deterministic; each draws a
shape, a dense or sparse layout and a seed for the entries, or the
entries of a small coordinate file.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quatsvd.restart as restart
from quatsvd import io as qio
from quatsvd.bidiag import factorization_errors, lanczos_bidiag
from quatsvd.quatlin import (
    CompactBasis,
    QuatMatrix,
    expand_real_counterpart,
    expand_vector,
    random_unit_vector,
    structured_matvec,
    vec_norm,
)
from quatsvd.restart import (
    SolverOptions,
    _initial_state,
    check_convergence,
    restart_cycle,
)

from conftest import matrix_from_triplets_expansion, synthetic_triplets, triplets_of
from oracles import quat_dot

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)
SEEDS = st.integers(0, 2 ** 32 - 1)


@st.composite
def matrices(draw, min_dim=1, square=False, sparse=None):
    """Tall, wide or square QuatMatrix, dense or below the sparse limit."""
    m = draw(st.integers(min_dim, 16))
    n = m if square else draw(st.integers(min_dim, 16))
    if sparse is None:
        sparse = draw(st.booleans())
    rng = np.random.default_rng(draw(SEEDS))
    if sparse:
        blocks = [sp.random(m, n, density=0.1, format="csr", random_state=rng,
                            data_rvs=rng.standard_normal)
                  for _ in range(4)]
    else:
        blocks = [rng.standard_normal((m, n)) for _ in range(4)]
    M = QuatMatrix(*blocks)
    assert M.is_sparse == sparse
    return M, rng


@SETTINGS
@given(matrices(), st.booleans(), st.lists(st.booleans(), min_size=4, max_size=4))
def test_matvec_matches_expanded_counterpart(drawn, adjoint, zeroed):
    M, rng = drawn
    # Zeroed blocks keep their sparse structure as stored zeros.
    M = QuatMatrix(*[0.0 * b if z else b for b, z in zip(M.blocks, zeroed)])
    E = expand_real_counterpart(M)
    E = E.T if adjoint else E
    x = rng.standard_normal((M.rows if adjoint else M.cols, 4))
    X = expand_vector(x)
    got = expand_vector(structured_matvec(M, x, adjoint=adjoint))
    # Entrywise error bound of a sum of at most 4n products.
    assert np.all(np.abs(got - E @ X) <= 1e-13 * (np.abs(E) @ np.abs(X)))


@SETTINGS
@given(st.integers(1, 20), st.integers(0, 6), SEEDS)
# Every fresh start orthogonalizes against an empty left basis.
@example(5, 0, 0)
def test_dot_all_matches_quat_dot_loop(n, k, seed):
    rng = np.random.default_rng(seed)
    basis = CompactBasis(n, k)
    for _ in range(k):
        basis.append(rng.standard_normal((n, 4)))
    r = rng.standard_normal((n, 4))
    got = basis.dot_all(r)
    assert got.shape == (k, 4)
    assert np.array_equal(basis.combine_quat(np.zeros((k, 4))), np.zeros((n, 4)))
    for i, v in enumerate(basis.data):
        q = quat_dot(v, r)
        scale = np.abs(v).sum() * np.abs(r).max()
        assert np.abs(got[i] - (q.w, q.x, q.y, q.z)).max() <= 1e-13 * scale


def _restart_twice(M, rng, m_b, t, harmonic):
    """Two restart cycles on one state, each retaining the t leading
    columns of a check_convergence, as the solver driver does."""
    state = _initial_state(M, rng, m_b)
    workspace = state.P.data, state.Q.data
    for _ in range(2):
        chk = check_convergence(state.B, state.beta_last, 1e-10, t,
                                which="smallest" if harmonic else "largest",
                                sigma_max=state.sigma_max)
        state.sigma_max = chk.sigma_max
        assert restart_cycle(M, state, t, chk) is state
    assert state.steps == m_b
    assert all(np.shares_memory(a, b) for a, b in
               zip((state.P.data, state.Q.data), workspace))
    errs = factorization_errors(M, state.P, state.Q, state.B, state.f)
    assert errs["direct"] <= 1e-11 * state.sigma_max
    assert errs["adjoint"] <= 1e-11 * state.sigma_max
    assert errs["P_orth"] <= 1e-12
    assert errs["Q_orth"] <= 1e-12


@SETTINGS
@given(matrices(min_dim=3), st.data())
def test_ritz_restarts_keep_factorization(drawn, data):
    M, rng = drawn
    # m_b < n: at m_b = n the solver stops instead of restarting.
    m_b = data.draw(st.integers(2, min(M.rows, M.cols - 1)), label="m_b")
    t = data.draw(st.integers(0, m_b - 1), label="t")
    _restart_twice(M, rng, m_b, t, harmonic=False)


@SETTINGS
@given(matrices(min_dim=3, square=True, sparse=False), st.data())
def test_harmonic_restarts_keep_factorization(drawn, data):
    M, rng = drawn
    # m_b < n: at m_b = n the solver stops instead of restarting.
    m_b = data.draw(st.integers(2, M.cols - 1), label="m_b")
    t = data.draw(st.integers(0, m_b - 1), label="t")
    _restart_twice(M, rng, m_b, t, harmonic=True)


@st.composite
def graded_matrices(draw):
    """Tall or square QuatMatrix of 30-60 rows with singular values
    logspace(0, -c), c in [0, 14]."""
    m = draw(st.integers(30, 60))
    n = draw(st.integers(30, m))
    c = draw(st.floats(0, 14))
    rng = np.random.default_rng(draw(SEEDS))
    T = synthetic_triplets(rng, m, n, np.logspace(0, -c, n))
    return matrix_from_triplets_expansion(T), rng


@SETTINGS
@given(graded_matrices(), st.data())
def test_graded_spectrum_keeps_both_bases_orthogonal(drawn, data):
    # Without full reorthogonalization of both bases, orthogonality decays
    # with the condition of B, so a graded spectrum exposes it.
    M, rng = drawn
    m_b = data.draw(st.integers(2, M.cols - 1), label="m_b")
    t = data.draw(st.integers(0, m_b - 1), label="t")
    state = lanczos_bidiag(M, random_unit_vector(M.cols, rng), m_b, rng)
    errs = factorization_errors(M, state.P, state.Q, state.B, state.f)
    assert errs["P_orth"] <= 1e-12
    assert errs["Q_orth"] <= 1e-12
    _restart_twice(M, rng, m_b, t, harmonic=False)
    # A flat spectrum (c = 0) makes every Krylov space invariant: the run
    # deflates, and the harmonic restart takes the Ritz step instead.
    _restart_twice(M, rng, m_b, t, harmonic=True)


def _graded_diagonal(n, c):
    Z = np.zeros((n, n))
    return QuatMatrix(np.diag(np.logspace(0, -c, n)), Z, Z, Z)


def _rank_deficient(n, seed):
    """n x n matrix of rank n - 1 with singular values from 5 down to 0.5."""
    rng = np.random.default_rng(seed)
    T = synthetic_triplets(rng, n, n, np.linspace(5.0, 0.5, n - 1))
    return matrix_from_triplets_expansion(T)


@st.composite
def solve_cases(draw):
    """A graded or clustered spectrum on a tall, wide or square matrix,
    of full rank or exactly rank deficient by 1 to 4; options that make
    the solver restart; and the retention buffer."""
    m, n = draw(st.integers(12, 30)), draw(st.integers(12, 30))
    r = min(m, n) - draw(st.integers(0, 4))
    if draw(st.booleans()):
        sigmas = np.logspace(0, -draw(st.floats(0, 12)), r)
    else:
        # A few clusters, each of nearly (or exactly) repeated values.
        centers = draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=3))
        gap = draw(st.sampled_from([0.0, 1e-12, 1e-8, 1e-4]))
        sigmas = np.array([centers[i % len(centers)] * (1.0 + gap * i)
                           for i in range(r)])
    rng = np.random.default_rng(draw(SEEDS))
    M = matrix_from_triplets_expansion(synthetic_triplets(rng, m, n, sigmas))
    k = draw(st.integers(1, 3))
    opts = SolverOptions(k=k, which=draw(st.sampled_from(["largest",
                                                          "smallest"])),
                         m_b=draw(st.integers(k + 2, min(m, n))),
                         maxit=draw(st.integers(0, 30)),
                         delta=draw(st.sampled_from([1e-12, 1e-10, 1e-6])),
                         seed=draw(st.integers(0, 3)))
    return M, opts, draw(st.sampled_from([5, 15]))


@SETTINGS
@given(solve_cases())
# Flags taken from one check and triplets from another flagged both of
# these converged with bounds far above the tolerance.
@example((_graded_diagonal(80, 12), SolverOptions(k=3, which="smallest",
                                                  maxit=50, seed=0), 15))
@example((_rank_deficient(16, 0), SolverOptions(k=2, which="smallest",
                                                m_b=10, seed=0), 5))
def test_flags_and_bounds_are_honest(case):
    M, opts, buffer = case
    checks = []

    def recording_check(*args, **kwargs):
        checks.append(check_convergence(*args, **kwargs))
        return checks[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(restart, "RETAIN_BUFFER", buffer)
        mp.setattr(restart, "check_convergence", recording_check)
        T, _ = restart.solve_partial_svd(M, opts)
    s = np.linalg.svd(expand_real_counterpart(M), compute_uv=False)
    if M.rows != M.cols:
        s = np.append(s, 0.0)   # M*M or MM* has a null space
    # The factorization a restart keeps holds to 1e-11 (_restart_twice).
    roundoff = 1e-11 * s[0]
    sigma_max = checks[-1].sigma_max
    assert np.array_equal(T.converged, T.bounds <= opts.delta * sigma_max)
    U, V = T.U.data, T.V.data
    if opts.which == "smallest" and M.rows < M.cols:
        # Solved through the adjoint, which swaps the roles of U and V.
        M, U, V = M.conjugate_transpose(), V, U
    for j, sigma in enumerate(T.sigmas):
        u, v = U[j], V[j]
        assert vec_norm(structured_matvec(M, v) - u * sigma) <= roundoff
        true = vec_norm(structured_matvec(M, u, adjoint=True) - v * sigma)
        assert T.bounds[j] >= true - roundoff
        if T.converged[j]:
            assert np.abs(s - sigma).min() <= T.bounds[j] + roundoff


@SETTINGS
@given(solve_cases())
def test_solves_are_deterministic(case):
    # Two solves with the same options are byte-equal, in both modes.
    M, opts, buffer = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(restart, "RETAIN_BUFFER", buffer)
        for which in ("largest", "smallest"):
            (T1, trace1), (T2, trace2) = [
                restart.solve_partial_svd(M, replace(opts, which=which))
                for _ in range(2)]
            for a, b in [(T1.sigmas, T2.sigmas), (T1.bounds, T2.bounds),
                         (T1.converged, T2.converged),
                         (T1.U.data, T2.U.data), (T1.V.data, T2.V.data)]:
                assert a.tobytes() == b.tobytes()
            assert repr(trace1.rows) == repr(trace2.rows)


@st.composite
def mtx_files(draw):
    """Text of a general or symmetric coordinate file with repeated
    positions, and its (symmetric, rows, cols, entries) in file order."""
    symmetric = draw(st.booleans())
    rows = draw(st.integers(1, 6))
    cols = rows if symmetric else draw(st.integers(1, 6))
    values = st.floats(-1e6, 1e6, allow_nan=False)
    # Few positions, many entries: most files repeat a position.
    positions = draw(st.lists(st.tuples(st.integers(1, rows),
                                        st.integers(1, cols)),
                              min_size=1, max_size=4))
    entries = draw(st.lists(st.tuples(st.sampled_from(positions), values),
                            max_size=12))
    entries = [(r, c, v) for (r, c), v in entries]
    kind = "symmetric" if symmetric else "general"
    lines = [f"%%MatrixMarket matrix coordinate real {kind}",
             "% written by the property test", f"{rows} {cols} {len(entries)}"]
    lines += [f"{r} {c} {v!r}" for r, c, v in entries]
    return "\n".join(lines) + "\n", (symmetric, rows, cols, entries)


@SETTINGS
@given(mtx_files())
def test_read_matrix_market_sums_in_file_order(tmp_path_factory, drawn):
    text, (symmetric, rows, cols, entries) = drawn
    path = tmp_path_factory.getbasetemp() / "prop.mtx"
    path.write_text(text)
    block = qio.read_matrix_market(path)
    acc = {}
    for r, c, v in entries:
        acc[(r - 1, c - 1)] = acc.get((r - 1, c - 1), 0.0) + v
        if symmetric and r != c:
            acc[(c - 1, r - 1)] = acc.get((c - 1, r - 1), 0.0) + v
    want = sorted((r, c, v) for (r, c), v in acc.items())
    assert block.shape == (rows, cols)
    got = triplets_of(block)
    assert [(r, c) for r, c, _ in got] == [(r, c) for r, c, _ in want]
    assert (np.array([v for *_, v in got]).tobytes()
            == np.array([v for *_, v in want]).tobytes())

    # Write -> read is bit-exact.
    qio.write_matrix_market(block, path)
    back = qio.read_matrix_market(path)
    assert back.shape == block.shape
    assert np.array_equal(back.row, block.row)
    assert np.array_equal(back.col, block.col)
    assert back.data.tobytes() == block.data.tobytes()


EXTREME_VALUES = [-0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,
                  1.7976931348623157e308, -1.7976931348623157e308]


@st.composite
def coo_blocks(draw):
    """A COO matrix with distinct positions in a random storage order, of
    any shape down to 0x0, with extreme and ordinary values."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    position = st.tuples(st.integers(0, max(rows - 1, 0)),
                         st.integers(0, max(cols - 1, 0)))
    positions = draw(st.lists(position, unique=True,
                              max_size=min(rows * cols, 12)))
    values = draw(st.lists(st.one_of(st.sampled_from(EXTREME_VALUES),
                                     st.floats(allow_nan=False)),
                           min_size=len(positions), max_size=len(positions)))
    r = np.array([p[0] for p in positions], dtype=np.int32)
    c = np.array([p[1] for p in positions], dtype=np.int32)
    return sp.coo_matrix((np.array(values, dtype=np.float64), (r, c)),
                         shape=(rows, cols))


@SETTINGS
@given(coo_blocks())
@example(sp.coo_matrix((0, 0)))
@example(sp.coo_matrix((np.array(EXTREME_VALUES), (np.arange(6), np.zeros(6, int))),
                       shape=(6, 1)))
def test_write_matrix_market_matches_per_line_format(tmp_path_factory, block):
    path = tmp_path_factory.getbasetemp() / "write.mtx"
    qio.write_matrix_market(block, path)
    want = (f"%%MatrixMarket matrix coordinate real general\n"
            f"{block.shape[0]} {block.shape[1]} {block.nnz}\n")
    for r, c, v in zip(block.row.tolist(), block.col.tolist(),
                       block.data.tolist()):
        want += f"{r + 1} {c + 1} {v:.17g}\n"
    assert path.read_bytes() == want.encode("ascii")

    # Read-back is bit-exact, -0.0 included.
    back = qio.read_matrix_market(path)
    order = np.lexsort((block.col, block.row))
    assert back.shape == block.shape
    assert np.array_equal(back.row, block.row[order])
    assert np.array_equal(back.col, block.col[order])
    assert back.data.tobytes() == block.data[order].tobytes()
