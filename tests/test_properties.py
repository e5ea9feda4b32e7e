"""Property checks of the compact kernels against the hand-written oracles.

Examples are derandomized so the suite is deterministic; each draws a
shape, a dense or sparse layout and a seed for the entries.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from quatsvd.quatlin import (
    QuatMatrix,
    expand_real_counterpart,
    expand_vector,
    quat_dot,
    structured_matvec,
)

from conftest import basis_of

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)
SEEDS = st.integers(0, 2 ** 32 - 1)


@st.composite
def matrices(draw):
    """Tall, wide or square QuatMatrix, dense or below the sparse limit."""
    m, n = draw(st.integers(1, 16)), draw(st.integers(1, 16))
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
@given(matrices(), st.booleans())
def test_matvec_matches_expanded_counterpart(drawn, adjoint):
    M, rng = drawn
    E = expand_real_counterpart(M)
    E = E.T if adjoint else E
    x = rng.standard_normal((M.rows if adjoint else M.cols, 4))
    X = expand_vector(x)
    got = expand_vector(structured_matvec(M, x, adjoint=adjoint))
    # Entrywise error bound of a sum of at most 4n products.
    assert np.all(np.abs(got - E @ X) <= 1e-13 * (np.abs(E) @ np.abs(X)))


@SETTINGS
@given(st.integers(1, 20), st.integers(1, 6), SEEDS)
def test_dot_all_matches_quat_dot_loop(n, k, seed):
    rng = np.random.default_rng(seed)
    basis = basis_of(rng.standard_normal((n, 4)) for _ in range(k))
    r = rng.standard_normal((n, 4))
    got = basis.dot_all(r)
    assert got.shape == (k, 4)
    for i, v in enumerate(basis.data):
        q = quat_dot(v, r)
        scale = np.abs(v).sum() * np.abs(r).max()
        assert np.abs(got[i] - (q.w, q.x, q.y, q.z)).max() <= 1e-13 * scale
