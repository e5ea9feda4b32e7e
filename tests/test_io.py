"""Readers and writers: strictness, round trips, determinism."""

import math
import struct
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quatsvd import io as qio
from quatsvd.lowrank import RgbImage
from quatsvd.quatlin import expand_real_counterpart

from conftest import rand_qmat, triplets_of
from oracles import structure_matrices


class TestMatrixMarket:
    def test_identity_round_trip(self, tmp_path):
        path = tmp_path / "eye.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 2\n1 1 1.0\n2 2 1.0\n")
        block = qio.read_matrix_market(path)
        assert block.shape == (2, 2)
        assert triplets_of(block) == [(0, 0, 1.0), (1, 1, 1.0)]

    def test_symmetric_expansion(self, tmp_path):
        path = tmp_path / "sym.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        "3 3 1\n3 1 2.5\n")
        block = qio.read_matrix_market(path)
        assert triplets_of(block) == [(0, 2, 2.5), (2, 0, 2.5)]

    def test_duplicates_summed(self, tmp_path):
        path = tmp_path / "dup.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 3\n1 1 1.0\n1 1 2.0\n2 1 -1.0\n")
        block = qio.read_matrix_market(path)
        assert triplets_of(block) == [(0, 0, 3.0), (1, 0, -1.0)]

    def test_write_read_lossless(self, tmp_path, rng):
        triplets = [(int(r), int(c), float(v)) for r, c, v in
                    zip(rng.integers(0, 9, 30), rng.integers(0, 7, 30),
                        rng.standard_normal(30))]
        dedup = {}
        for r, c, v in triplets:
            dedup[(r, c)] = dedup.get((r, c), 0.0) + v
        r, c, v = zip(*sorted((r, c, v) for (r, c), v in dedup.items()))
        block = sp.coo_matrix((v, (r, c)), shape=(9, 7))
        path = tmp_path / "rt.mtx"
        qio.write_matrix_market(block, path)
        back = qio.read_matrix_market(path)
        assert back.shape == (9, 7)
        assert triplets_of(back) == triplets_of(block)  # bit-exact via 17 digits

    def test_write_keeps_the_given_name(self, tmp_path):
        path = tmp_path / "block.txt"
        qio.write_matrix_market(sp.coo_matrix(np.eye(2)), path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["block.txt"]
        assert triplets_of(qio.read_matrix_market(path)) == [(0, 0, 1.0),
                                                            (1, 1, 1.0)]

    def test_symmetric_block_written_whole(self, tmp_path):
        sym = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, -4.0], [0.0, -4.0, 5.0]])
        block = sp.coo_matrix(sym)
        path = tmp_path / "sym.mtx"
        qio.write_matrix_market(block, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "%%MatrixMarket matrix coordinate real general"
        assert len(lines) == 3 + block.nnz
        assert triplets_of(qio.read_matrix_market(path)) == triplets_of(block)

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

    def test_symmetric_non_square_rejected(self, tmp_path):
        # The mirror of entry (1, 2) would fall outside a 1x4 shape.
        path = tmp_path / "sym.mtx"
        head = "%%MatrixMarket matrix coordinate real symmetric\n"
        path.write_text(f"{head}1 4 1\n1 2 1.0\n")
        with pytest.raises(qio.MalformedFileError,
                           match=f"byte {len(head)}: symmetric matrix is "
                                 "not square"):
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
        assert triplets_of(block) == [(0, 0, 4.0)]

    @pytest.mark.parametrize("size", ["-1 3 0", "3 -1 0", "2 2 -1", "2 2",
                                      "2 2 1 1", "2 x 1", "+2 2 1",
                                      "2 2_0 1", "2 2 +1"])
    def test_bad_size_line_names_its_offset(self, tmp_path, size):
        path = tmp_path / "sz.mtx"
        header = "%%MatrixMarket matrix coordinate real general\n% c\n"
        path.write_text(f"{header}{size}\n")
        with pytest.raises(qio.MalformedFileError,
                           match=f"byte {len(header)}: bad size line"):
            qio.read_matrix_market(path)

    # Five hold a separator the line loop does not split fields on: a
    # trailing comment, a lone CR between two entries, and bytes that are
    # unicode whitespace but not ASCII whitespace.  The next six are values
    # that scipy's mmread (1.17) reads without complaint, as 1.0, 1.0, 1.0,
    # nan, 1e5 and 0.0.  The last four are indices that are not ASCII
    # digits: numpy's integer parser takes the sign of the first two, and
    # Python's int() reads 1_0 as 10.
    @pytest.mark.parametrize("entry", ["1 1", "1 1 1.0 2.0", "1 x 1.0",
                                       "1 1 y", "1 1 1.0 % note",
                                       "1 1 1.0\r2 2 2.0", "1\xa01 1.0",
                                       "1 1\x1c1.0", "1 1 1.0\x85",
                                       "1 1 1.0.5", "1 1 1e", "1 1 1-2",
                                       "1 1 nana", "1 1 1e5e5", "1 1 0x1p3",
                                       "+1 1 1.0", "1 +1 1.0", "1_0 1 1.0",
                                       "-1 1 1.0"])
    def test_malformed_entry_line(self, tmp_path, entry):
        path = tmp_path / "ent.mtx"
        head = "%%MatrixMarket matrix coordinate real general\n2 2 1\n"
        path.write_text(f"{head}{entry}\n", encoding="latin-1")
        with pytest.raises(qio.MalformedFileError,
                           match=f"byte {len(head)}: bad entry line"):
            qio.read_matrix_market(path)

    def test_missing_size_line(self, tmp_path):
        path = tmp_path / "nosize.mtx"
        text = "%%MatrixMarket matrix coordinate real general\n% c\n\n"
        path.write_text(text)
        with pytest.raises(qio.MalformedFileError,
                           match=f"byte {len(text) + 1}: missing size line"):
            qio.read_matrix_market(path)

    def test_empty_matrix(self, tmp_path):
        path = tmp_path / "empty.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "0 0 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block = qio.read_matrix_market(path)
        assert block.shape == (0, 0) and block.nnz == 0

    GENERAL = b"%%MatrixMarket matrix coordinate real general\n"

    def _read(self, tmp_path, raw):
        path = tmp_path / "strict.mtx"
        path.write_bytes(raw)
        return qio.read_matrix_market(path)

    def _rejects(self, tmp_path, raw, offset, reason):
        with pytest.raises(qio.MalformedFileError) as err:
            self._read(tmp_path, raw)
        assert err.value.offset == offset
        assert str(err.value).endswith(f": byte {offset}: {reason}")

    def test_crlf_line_endings(self, tmp_path):
        raw = (self.GENERAL + b"% note\r\n3 3 3\r\n1 1 1.5\r\n3 2 -2.0\r\n"
               b"1 1 0.25\r\n")
        assert triplets_of(self._read(tmp_path, raw)) == [
            (0, 0, 1.75), (2, 1, -2.0)]

    def test_comment_and_blank_lines_between_entries(self, tmp_path):
        raw = (self.GENERAL + b"3 3 3\n1 1 1.5\n% inner\n\n   \n"
               b"3 2 -2.0\n\t\n  % indented\n1 1 0.25\n\n")
        assert triplets_of(self._read(tmp_path, raw)) == [
            (0, 0, 1.75), (2, 1, -2.0)]

    def test_underscore_in_value_accepted(self, tmp_path):
        # As Python's float() reads it.
        raw = self.GENERAL + b"2 2 2\n1 1 1e5_0\n2 2 1_000.5\n"
        assert triplets_of(self._read(tmp_path, raw)) == [
            (0, 0, 1e50), (1, 1, 1000.5)]

    @pytest.mark.parametrize("value,want", [(b"+1.5", 1.5), (b"1e+05", 1e5),
                                            (b"2.5E+2", 250.0)])
    def test_plus_in_a_value_is_read(self, tmp_path, value, want):
        # A sign on the value, or in its exponent, is no sign on an index.
        raw = self.GENERAL + b"2 2 2\n1 1 " + value + b"\n2 1 -1e+00\n"
        assert triplets_of(self._read(tmp_path, raw)) == [
            (0, 0, want), (1, 0, -1.0)]

    def test_index_above_int64_rejected(self, tmp_path):
        head = self.GENERAL + b"2 2 2\n1 1 1.0\n"
        self._rejects(tmp_path, head + b"9223372036854775808 1 1.0\n",
                      len(head), "index (9223372036854775808, 1) out of "
                      "range 2x2")

    @pytest.mark.parametrize("size,entry", [
        (b"2147483649 8589934592 1", b"2147483649 5 1.0"),
        (b"4000000000 4000000000 1", b"4000000000 4000000000 1.0")])
    def test_size_past_int64_keys_rejected(self, tmp_path, size, entry):
        # Entries are keyed as row * cols + col in int64: past 2**63 the
        # first entry read back at (0, 4) and the second raised in scipy.
        rows, cols, _ = size.decode().split()
        self._rejects(tmp_path, self.GENERAL + size + b"\n" + entry + b"\n",
                      len(self.GENERAL), f"dimensions {rows}x{cols} too large")

    def test_largest_size_whose_keys_fit(self, tmp_path):
        raw = self.GENERAL + b"2147483648 4294967296 1\n2147483648 4294967296 1.0\n"
        assert triplets_of(self._read(tmp_path, raw)) == [
            (2147483647, 4294967295, 1.0)]

    def test_out_of_range_on_last_line(self, tmp_path):
        head = self.GENERAL + b"3 2 3\n1 1 1.0\n3 2 2.0\n"
        self._rejects(tmp_path, head + b"2 3 3.0", len(head),
                      "index (2, 3) out of range 3x2")

    @pytest.mark.parametrize("body,found", [(b"1 1 1.0\n2 2 2.0\n", 2),
                                            (b"", 0), (b"\n  \n", 0)])
    def test_wrong_entry_count_rejected_at_end(self, tmp_path, body, found):
        raw = self.GENERAL + b"2 2 1\n" + body
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self._rejects(tmp_path, raw, len(raw),
                          f"expected 1 entries, found {found}")

    @pytest.mark.parametrize("kind", [b"general", b"symmetric"])
    def test_plain_body_skips_line_loop(self, tmp_path, monkeypatch, kind):
        def line_loop(*args):
            raise AssertionError("plain body read line by line")
        monkeypatch.setattr(qio, "_parse_lines", line_loop)
        raw = (b"%%MatrixMarket matrix coordinate real " + kind +
               b"\n% leading comment\n3 3 4\n1 1 1.5\r\n3 2 -2.0e+0\n\n"
               b"\t2 3 4e-310 \n1 1 0.025E+1")
        want = [(0, 0, 1.75), (1, 2, 4e-310), (2, 1, -2.0)]
        if kind == b"symmetric":
            want = [(0, 0, 1.75), (1, 2, -2.0 + 4e-310), (2, 1, -2.0 + 4e-310)]
        assert triplets_of(self._read(tmp_path, raw)) == want

    @pytest.mark.parametrize("second,index_sign", [
        (b"2 1 +2.0", False), (b"  2\t1  +2e0 ", False),
        (b"+2 1 2.0", True), (b"2 +1 2.0", True), (b" +2 1 2.0", True)])
    def test_only_an_index_sign_takes_the_line_loop(
            self, tmp_path, monkeypatch, second, index_sign):
        # numpy's integer parser would take a sign on an index; a sign on
        # a value keeps the one-call parse.
        calls, line_loop = [], qio._parse_lines
        monkeypatch.setattr(qio, "_parse_lines",
                            lambda *args: calls.append(1) or line_loop(*args))
        head = self.GENERAL + b"2 2 2\n1 1 +1.5\n"
        if index_sign:
            self._rejects(tmp_path, head + second + b"\n", len(head),
                          "bad entry line")
        else:
            assert triplets_of(self._read(tmp_path, head + second)) == [
                (0, 0, 1.5), (1, 0, 2.0)]
        assert len(calls) == index_sign


class TestAssemble:
    def test_one_by_one(self, tmp_path):
        blocks = [sp.coo_matrix(([float(i + 1)], ([0], [0])), shape=(2, 2))
                  for i in range(4)]
        M = qio.assemble_jrs_blocks(*blocks, n=1)
        assert (M.rows, M.cols) == (1, 1)
        dense = M.dense_blocks()
        assert [b[0, 0] for b in dense] == [1.0, 2.0, 3.0, 4.0]

    def test_zero_blocks(self):
        blocks = [sp.coo_matrix((3, 3)) for _ in range(4)]
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
        small = sp.coo_matrix((2, 2))
        with pytest.raises(ValueError):
            qio.assemble_jrs_blocks(small, small, small, small, n=3)

    def test_one_short_side_too_small(self):
        blocks = [sp.coo_matrix((4, 4))] * 3 + [sp.coo_matrix((4, 2))]
        with pytest.raises(ValueError, match="smaller than requested order 3"):
            qio.assemble_jrs_blocks(*blocks, n=3)

    @pytest.mark.parametrize("n", [0, -1])
    def test_order_below_one_rejected(self, n):
        blocks = [qio.gen_sparse_block(4, seed=i) for i in range(4)]
        with pytest.raises(ValueError, match="at least 1"):
            qio.assemble_jrs_blocks(*blocks, n=n)

    def test_leading_submatrix_kept(self):
        blocks = [qio.gen_sparse_block(9, seed=i, offband_density=0.1)
                  for i in range(4)]
        M = qio.assemble_jrs_blocks(*blocks, n=5)
        assert (M.rows, M.cols) == (5, 5)
        for got, b in zip(M.dense_blocks(), blocks):
            assert np.array_equal(got, b.toarray()[:5, :5])


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
        assert got.shape == (n, n)
        assert triplets_of(got) == want
        assert got.row.dtype.kind == got.col.dtype.kind == "i"
        assert got.data.dtype == np.float64
        assert all(type(r) is int and type(c) is int and type(v) is float
                   for r, c, v in triplets_of(got))

    def test_deterministic(self):
        a = qio.gen_sparse_block(50, seed=7)
        b = qio.gen_sparse_block(50, seed=7)
        assert triplets_of(a) == triplets_of(b)

    def test_density_order_of_magnitude(self):
        block = qio.gen_sparse_block(200, seed=1)
        density = block.nnz / (200 * 200)
        assert 5e-4 <= density <= 5e-2

    def test_band_structure_present(self):
        block = qio.gen_sparse_block(30, seed=2, offband_density=0.0)
        assert all(abs(r - c) <= 2 for r, c, _ in triplets_of(block))

    @pytest.mark.parametrize("n", [0, -1])
    def test_order_below_one_rejected(self, n):
        with pytest.raises(ValueError, match=f"order n={n} must be at least"):
            qio.gen_sparse_block(n, seed=1)

    def test_negative_band_rejected(self):
        # A negative band would draw no diagonal at all (n=6, 0 entries).
        with pytest.raises(ValueError,
                           match="half bandwidth -1 must be non-negative"):
            qio.gen_sparse_block(6, seed=0, band=-1)

    @pytest.mark.parametrize("kwargs,message", [
        ({"offband_density": np.inf}, "off-band density inf must be finite"),
        ({"offband_density": np.nan}, "off-band density nan must be finite"),
        ({"offband_density": -1.0}, "off-band density -1.0 must be finite"),
        ({"diagonal_shift": np.nan}, "diagonal shift nan must be finite"),
        ({"diagonal_shift": -np.inf}, "diagonal shift -inf must be finite"),
        ({"offband_density": 1e30}, "off-band density 1e[+]30 must be at most 1")])
    def test_bad_density_or_shift_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            qio.gen_sparse_block(5, seed=1, **kwargs)

    def test_density_one_still_draws(self):
        # The largest density accepted draws n * n off-band entries.
        full = qio.gen_sparse_block(6, seed=3, offband_density=1.0)
        assert full.nnz > qio.gen_sparse_block(6, seed=3,
                                               offband_density=0.0).nnz

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_band_wider_than_the_matrix_adds_nothing(self, n):
        # The diagonals past n - 1 are empty and draw nothing.
        want = triplets_of(qio.gen_sparse_block(n, seed=4, band=n - 1))
        for band in (n, n + 3):
            assert triplets_of(qio.gen_sparse_block(n, seed=4, band=band)) \
                == want


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

    def test_infinities_clamp_and_nan_is_refused(self, tmp_path):
        img = RgbImage(R=np.array([[np.inf, -np.inf]]), G=np.zeros((1, 2)),
                       B=np.zeros((1, 2)))
        path = tmp_path / "inf.ppm"
        qio.write_image_ppm(img, path)
        assert list(qio.read_image_ppm(path).R[0]) == [255.0, 0.0]
        img.G[0, 1] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="channel G has NaN"):
                qio.write_image_ppm(img, tmp_path / "nan.ppm")
        assert not (tmp_path / "nan.ppm").exists()

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(qio.MalformedFileError, match="magic"):
            qio.read_image_ppm(path)

    def test_magic_must_be_followed_by_whitespace(self, tmp_path):
        # Without the check the tokenizer read the 1 of "P61" as the width.
        path = tmp_path / "p61.ppm"
        path.write_bytes(b"P61 1 255\n" + b"\x00" * 3)
        with pytest.raises(qio.MalformedFileError,
                           match="byte 2: expected whitespace") as exc:
            qio.read_image_ppm(path)
        assert exc.value.offset == 2

    @pytest.mark.parametrize("data, message", [
        (b"P6\n2 2", "byte 6: truncated header"),
        (b"P6\n2 # c\n", "byte 9: truncated header"),
        (b"P6\n2 x 255\n", "byte 5: bad header integer"),
        (b"P6\n2 2 2.5\n", "byte 7: bad header integer"),
        (b"P6\n1 1 65535\n\x00\x00\x00", "byte 12: unsupported maxval 65535"),
        (b"P6\n0 2 255\n", "byte 10: non-positive dimensions"),
        (b"P6\n-1 2 255\n", "byte 3: bad header integer"),
        (b"P6\n+1 1 255\n", "byte 3: bad header integer"),
        (b"P6\n1 1_0 255\n", "byte 5: bad header integer"),
        (b"P6\n1 1 +255\n", "byte 7: bad header integer"),
    ])
    def test_bad_header_names_offset(self, tmp_path, data, message):
        path = tmp_path / "h.ppm"
        path.write_bytes(data)
        with pytest.raises(qio.MalformedFileError, match=message):
            qio.read_image_ppm(path)

    def test_truncated_payload_names_offset(self, tmp_path):
        path = tmp_path / "tr.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\x01\x02")
        with pytest.raises(qio.MalformedFileError, match="truncated payload"):
            qio.read_image_ppm(path)


# A token that is not all ASCII digits.  It holds no ASCII whitespace, so
# it stays one token, and does not start with the comment markers '#' and
# '%', so it is read as a token at all.
_NON_SPACE = st.integers(0, 255).filter(lambda b: not bytes([b]).isspace())
_BAD_TOKENS = st.lists(
    st.one_of(st.sampled_from(b"+-_0123456789"), _NON_SPACE),
    min_size=1, max_size=5).map(bytes).filter(
        lambda t: not t.isdigit() and t[:1] not in (b"#", b"%"))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(bad=_BAD_TOKENS, at=st.integers(0, 2),
       zeros=st.lists(st.integers(0, 2), min_size=3, max_size=3))
@example(bad=b"+2", at=0, zeros=[0, 0, 0])
@example(bad=b"-1", at=1, zeros=[1, 0, 2])
@example(bad=b"2_55", at=2, zeros=[0, 2, 0])
def test_header_integers_are_ascii_digits(tmp_path_factory, bad, at, zeros):
    """Both readers take header integers with leading zeros, and refuse a
    token that is not ASCII digits in any of the three places: a PPM at the
    token's offset, a Matrix Market file at its size line's offset."""
    base = tmp_path_factory.getbasetemp()

    def swap(good):
        return good[:at] + [bad] + good[at + 1:]

    good = [b"0" * z + b"%d" % v for v, z in zip((2, 1, 255), zeros)]
    ppm, pix = base / "prop.ppm", bytes(range(6))
    ppm.write_bytes(b"P6\n" + b" ".join(good) + b"\n" + pix)
    img = qio.read_image_ppm(ppm)
    assert img.R.shape == (1, 2) and list(img.G[0]) == [1.0, 4.0]
    ppm.write_bytes(b"P6\n" + b" ".join(swap(good)) + b"\n" + pix)
    offset = 3 + sum(len(t) + 1 for t in good[:at])
    with pytest.raises(qio.MalformedFileError,
                       match=f"byte {offset}: bad header integer"):
        qio.read_image_ppm(ppm)

    head = b"%%MatrixMarket matrix coordinate real general\n"
    good = [b"0" * z + b"%d" % v for v, z in zip((2, 3, 1), zeros)]
    mtx = base / "prop.mtx"
    mtx.write_bytes(head + b" ".join(good) + b"\n2 3 1.5\n")
    block = qio.read_matrix_market(mtx)
    assert block.shape == (2, 3) and triplets_of(block) == [(1, 2, 1.5)]
    mtx.write_bytes(head + b" ".join(swap(good)) + b"\n2 3 1.5\n")
    with pytest.raises(qio.MalformedFileError,
                       match=f"byte {len(head)}: bad size line"):
        qio.read_matrix_market(mtx)


class TestQmx:
    def test_round_trip(self, tmp_path, rng):
        for shape in ((6, 4), (0, 3)):
            M = rand_qmat(rng, *shape)
            path = tmp_path / "m.qmx"
            qio.write_qmx(M, path)
            back = qio.read_qmx(path)
            assert (back.rows, back.cols) == shape
            for a, b in zip(M.dense_blocks(), back.dense_blocks()):
                assert b.shape == shape and np.array_equal(a, b)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.qmx"
        path.write_bytes(b"NOTQMX00" + b"\x00" * 16)
        with pytest.raises(qio.MalformedFileError, match="magic"):
            qio.read_qmx(path)

    def test_shorter_than_its_dimensions(self, tmp_path):
        path = tmp_path / "short.qmx"
        path.write_bytes(qio.QMX_MAGIC + struct.pack("<Q", 3))
        with pytest.raises(qio.MalformedFileError,
                           match="byte 16: truncated dimensions"):
            qio.read_qmx(path)

    def test_truncated(self, tmp_path, rng):
        M = rand_qmat(rng, 3, 3)
        path = tmp_path / "t.qmx"
        qio.write_qmx(M, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(qio.MalformedFileError):
            qio.read_qmx(path)

    @pytest.mark.parametrize("cols", [2 ** 62, 2 ** 63])
    def test_header_too_large_for_an_array(self, tmp_path, cols):
        # 0 rows need no payload, so only the dimensions are wrong: numpy
        # refuses the empty (4, 0, cols) array as too big.
        path = tmp_path / "huge.qmx"
        path.write_bytes(qio.QMX_MAGIC + struct.pack("<QQ", 0, cols))
        with pytest.raises(qio.MalformedFileError,
                           match=f"byte 8: dimensions 0x{cols} too large") as exc:
            qio.read_qmx(path)
        assert exc.value.offset == 8


class TestCsv:
    def test_write_csv_fields(self, tmp_path):
        # Text and integers as given (10**20 too, which %.17g would round),
        # other numbers as %.17g, which reads back bit exact.
        floats = [0.1, -1.0 / 3.0, 5e-324, -0.0, np.float64(2.0) / 3.0,
                  1.7976931348623157e308]
        path = tmp_path / "w.csv"
        qio.write_csv(path, "a,b,c", [("avg", 7, math.inf),
                                      (np.int64(12), 10 ** 20, math.nan),
                                      floats[:3], floats[3:]])
        lines = path.read_bytes().decode().split("\n")
        assert lines[:3] == ["a,b,c", "avg,7,inf",
                             "12,100000000000000000000,nan"]
        assert lines[-1] == ""
        back = [float(t) for line in lines[3:5] for t in line.split(",")]
        assert np.array(back).tobytes() == np.array(floats).tobytes()
