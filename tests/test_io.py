"""Readers and writers: strictness, round trips, determinism."""

import numpy as np
import pytest

from quatsvd import io as qio
from quatsvd.lowrank import RgbImage
from quatsvd.quatlin import expand_real_counterpart, structure_matrices
from quatsvd.restart import ConvergenceTrace, SolverOptions, solve_partial_svd

from conftest import rand_qmat


class TestMatrixMarket:
    def test_identity_round_trip(self, tmp_path):
        path = tmp_path / "eye.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 2\n1 1 1.0\n2 2 1.0\n")
        block = qio.read_matrix_market(path)
        assert (block.rows, block.cols) == (2, 2)
        assert block.triplets == [(0, 0, 1.0), (1, 1, 1.0)]

    def test_symmetric_expansion(self, tmp_path):
        path = tmp_path / "sym.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        "3 3 1\n3 1 2.5\n")
        block = qio.read_matrix_market(path)
        assert block.triplets == [(0, 2, 2.5), (2, 0, 2.5)]

    def test_duplicates_summed(self, tmp_path):
        path = tmp_path / "dup.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 3\n1 1 1.0\n1 1 2.0\n2 1 -1.0\n")
        block = qio.read_matrix_market(path)
        assert block.triplets == [(0, 0, 3.0), (1, 0, -1.0)]

    def test_write_read_lossless(self, tmp_path, rng):
        triplets = [(int(r), int(c), float(v)) for r, c, v in
                    zip(rng.integers(0, 9, 30), rng.integers(0, 7, 30),
                        rng.standard_normal(30))]
        dedup = {}
        for r, c, v in triplets:
            dedup[(r, c)] = dedup.get((r, c), 0.0) + v
        block = qio.SparseBlock(9, 7, sorted(
            (r, c, v) for (r, c), v in dedup.items()))
        path = tmp_path / "rt.mtx"
        qio.write_matrix_market(block, path)
        back = qio.read_matrix_market(path)
        assert back.rows == 9 and back.cols == 7
        assert back.triplets == block.triplets  # bit-exact via 17 digits

    def test_bad_header_names_offset(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n1 1\n1.0\n")
        with pytest.raises(qio.MalformedFileError, match="byte 0"):
            qio.read_matrix_market(path)

    def test_out_of_range_index(self, tmp_path):
        path = tmp_path / "oob.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 1\n3 1 1.0\n")
        with pytest.raises(qio.MalformedFileError, match="out of range"):
            qio.read_matrix_market(path)

    def test_wrong_count_rejected(self, tmp_path):
        path = tmp_path / "cnt.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 2\n1 1 1.0\n")
        with pytest.raises(qio.MalformedFileError, match="expected 2"):
            qio.read_matrix_market(path)

    def test_comments_tolerated(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "% a comment\n\n1 1 1\n% inner\n1 1 4.0\n")
        block = qio.read_matrix_market(path)
        assert block.triplets == [(0, 0, 4.0)]


class TestAssemble:
    def test_one_by_one(self, tmp_path):
        blocks = [qio.SparseBlock(2, 2, [(0, 0, float(i + 1))])
                  for i in range(4)]
        M = qio.assemble_jrs_blocks(*blocks, n=1)
        assert (M.rows, M.cols) == (1, 1)
        dense = M.dense_blocks()
        assert [b[0, 0] for b in dense] == [1.0, 2.0, 3.0, 4.0]

    def test_zero_blocks(self):
        blocks = [qio.SparseBlock(3, 3, []) for _ in range(4)]
        M = qio.assemble_jrs_blocks(*blocks, n=3)
        assert all(np.all(b == 0.0) for b in
                   (x.toarray() if hasattr(x, "toarray") else x
                    for x in M.dense_blocks()))

    def test_expansion_symmetry_exact(self, rng):
        blocks = [qio.gen_sparse_block(8, seed=i) for i in range(4)]
        M = qio.assemble_jrs_blocks(*blocks, n=8)
        E = expand_real_counterpart(M)
        J, R, S = structure_matrices(8)
        assert np.array_equal(J @ E @ J.T, E)
        assert np.array_equal(R @ E @ R.T, E)
        assert np.array_equal(S @ E @ S.T, E)

    def test_block_too_small(self):
        small = qio.SparseBlock(2, 2, [])
        with pytest.raises(ValueError):
            qio.assemble_jrs_blocks(small, small, small, small, n=3)


def _reference_sparse_block(n, seed, band=2, offband_density=2e-3,
                            diagonal_shift=0.0):
    """The generator's recipe, summed entry by entry in a dict."""
    rng = np.random.default_rng(seed)
    acc = {}
    for d in range(-band, band + 1):
        vals = rng.uniform(-1.0, 1.0, size=n - abs(d))
        for i, v in enumerate(vals):
            key = (i, i + d) if d >= 0 else (i - d, i)
            acc[key] = acc.get(key, 0.0) + float(v)
    n_off = int(offband_density * n * n)
    rows = rng.integers(0, n, size=n_off)
    cols = rng.integers(0, n, size=n_off)
    vals = rng.uniform(-1.0, 1.0, size=n_off)
    for r, c, v in zip(rows, cols, vals):
        key = (int(r), int(c))
        acc[key] = acc.get(key, 0.0) + float(v)
    if diagonal_shift:
        for i in range(n):
            acc[(i, i)] = acc.get((i, i), 0.0) + diagonal_shift
    return sorted((r, c, v) for (r, c), v in acc.items())


class TestSparseGen:
    @pytest.mark.parametrize("n,seed,shift", [(200, 1, 0.0), (1000, 3, 3.0),
                                              (317, 5, 3.0)])
    def test_matches_entrywise_reference(self, n, seed, shift):
        got = qio.gen_sparse_block(n, seed=seed, diagonal_shift=shift)
        want = _reference_sparse_block(n, seed, diagonal_shift=shift)
        assert got.triplets == want
        assert all(type(r) is int and type(c) is int and type(v) is float
                   for r, c, v in got.triplets)

    def test_deterministic(self):
        a = qio.gen_sparse_block(50, seed=7)
        b = qio.gen_sparse_block(50, seed=7)
        assert a.triplets == b.triplets

    def test_density_order_of_magnitude(self):
        block = qio.gen_sparse_block(200, seed=1)
        density = len(block.triplets) / (200 * 200)
        assert 5e-4 <= density <= 5e-2

    def test_band_structure_present(self):
        block = qio.gen_sparse_block(30, seed=2, offband_density=0.0)
        assert all(abs(r - c) <= 2 for r, c, _ in block.triplets)


class TestPpm:
    def test_single_red_pixel_round_trip(self, tmp_path):
        img = RgbImage(R=np.array([[255.0]]), G=np.array([[0.0]]),
                       B=np.array([[0.0]]))
        path = tmp_path / "px.ppm"
        qio.write_image_ppm(img, path)
        back = qio.read_image_ppm(path)
        assert back.R[0, 0] == 255.0 and back.G[0, 0] == 0.0

    def test_header_comments_tolerated(self, tmp_path):
        payload = bytes([10, 20, 30, 40, 50, 60])
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6 # magic\n# size next\n2 1\n# maxval\n255\n"
                         + payload)
        img = qio.read_image_ppm(path)
        assert img.width == 2 and img.height == 1
        assert img.R[0, 1] == 40.0

    def test_reencode_is_byte_identical(self, tmp_path, rng):
        img = RgbImage(*(rng.uniform(0, 255, (9, 11)) for _ in range(3)))
        p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        qio.write_image_ppm(img, p1)
        qio.write_image_ppm(qio.read_image_ppm(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_channels_are_c_contiguous(self, tmp_path, rng):
        # Strided channel views would turn every dense matvec on the image
        # blocks into a slow non-BLAS loop.
        img = RgbImage(*(rng.uniform(0, 255, (5, 7)) for _ in range(3)))
        path = tmp_path / "c.ppm"
        qio.write_image_ppm(img, path)
        back = qio.read_image_ppm(path)
        assert all(c.flags.c_contiguous for c in back.channels())

    def test_quantization_rounds_half_away_from_zero(self, tmp_path):
        img = RgbImage(R=np.array([[0.5, 1.49, -3.0, 300.0]]),
                       G=np.zeros((1, 4)), B=np.zeros((1, 4)))
        path = tmp_path / "q.ppm"
        qio.write_image_ppm(img, path)
        back = qio.read_image_ppm(path)
        assert list(back.R[0]) == [1.0, 1.0, 0.0, 255.0]

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(qio.MalformedFileError, match="magic"):
            qio.read_image_ppm(path)

    def test_truncated_payload_names_offset(self, tmp_path):
        path = tmp_path / "tr.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\x01\x02")
        with pytest.raises(qio.MalformedFileError, match="truncated payload"):
            qio.read_image_ppm(path)


class TestQmx:
    def test_round_trip(self, tmp_path, rng):
        M = rand_qmat(rng, 6, 4)
        path = tmp_path / "m.qmx"
        qio.write_qmx(M, path)
        back = qio.read_qmx(path)
        for a, b in zip(M.dense_blocks(), back.dense_blocks()):
            assert np.array_equal(a, b)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.qmx"
        path.write_bytes(b"NOTQMX00" + b"\x00" * 16)
        with pytest.raises(qio.MalformedFileError, match="magic"):
            qio.read_qmx(path)

    def test_truncated(self, tmp_path, rng):
        M = rand_qmat(rng, 3, 3)
        path = tmp_path / "t.qmx"
        qio.write_qmx(M, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(qio.MalformedFileError):
            qio.read_qmx(path)


class TestCsv:
    def test_empty_trace_is_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        qio.write_trace(ConvergenceTrace(), path)
        assert path.read_text() == "cycle,j,bound,matvecs\n"

    def test_one_triplet_two_lines(self, tmp_path, rng):
        M = rand_qmat(rng, 6, 5)
        T, _ = solve_partial_svd(M, SolverOptions(k=1, seed=1))
        path = tmp_path / "one.csv"
        qio.write_triplets(T, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == "j,sigma,bound,converged"

    def test_sigmas_round_trip_bit_exact(self, tmp_path, rng):
        M = rand_qmat(rng, 12, 10)
        T, _ = solve_partial_svd(M, SolverOptions(k=4, seed=2))
        path = tmp_path / "t.csv"
        qio.write_triplets(T, path)
        sig, bnd, conv = qio.read_triplets_csv(path)
        assert np.array_equal(sig, T.sigmas)
        assert np.array_equal(bnd, T.bounds)
        assert np.array_equal(conv, T.converged)

    def test_trace_rows_match(self, tmp_path, rng):
        M = rand_qmat(rng, 12, 10)
        _, trace = solve_partial_svd(M, SolverOptions(k=2, m_b=5, seed=2))
        path = tmp_path / "tr.csv"
        qio.write_trace(trace, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + len(trace.rows)
