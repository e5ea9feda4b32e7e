"""CLI surface: subcommands, exit codes, determinism."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from quatsvd import cli
from quatsvd import io as qio
from quatsvd.cli import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_UNCONVERGED,
    _options,
    _reconstruction_report,
    build_parser,
    main,
)
from quatsvd.lowrank import RgbImage, low_rank_approx
from quatsvd.quatlin import QuatMatrix
from quatsvd.restart import SolverOptions, solve_partial_svd

from conftest import dedup_singular_values, rand_qmat


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def dense_qmx(tmp_path):
    out = tmp_path / "m.qmx"
    assert run(["gen", "--kind", "dense", "--m", "30", "--n", "24",
                "--seed", "7", "--out", out]) == EXIT_OK
    return out


def test_gen_then_svd_matches_oracle(tmp_path, dense_qmx):
    trip = tmp_path / "t.csv"
    trace = tmp_path / "tr.csv"
    rc = run(["svd", "--input", dense_qmx, "--k", "5", "--which", "largest",
              "--seed", "3", "--out", trip, "--trace", trace])
    assert rc == EXIT_OK
    _, sig, _, conv = np.loadtxt(trip, delimiter=",", skiprows=1, ndmin=2).T
    assert conv.all()
    true_vals, _ = dedup_singular_values(qio.read_qmx(dense_qmx))
    assert np.abs(sig - true_vals[:5]).max() <= 1e-8 * true_vals[0]
    assert trace.read_text().startswith("cycle,j,bound,matvecs\n")


def test_gen_sparse_at_small_order(tmp_path, capsys):
    assert run(["gen", "--kind", "sparse", "--n", "1",
                "--out", tmp_path / "one.mtx"]) == EXIT_OK
    assert all(qio.read_matrix_market(tmp_path / f"one_{i}.mtx").shape
               == (1, 1) for i in range(4))
    # A band wider than the matrix is clipped to n - 1.
    for band in (2, 5):
        assert run(["gen", "--kind", "sparse", "--n", "3", "--band", band,
                    "--out", tmp_path / f"b{band}.mtx"]) == EXIT_OK
    assert all((tmp_path / f"b2_{i}.mtx").read_bytes()
               == (tmp_path / f"b5_{i}.mtx").read_bytes() for i in range(4))
    capsys.readouterr()
    assert run(["gen", "--kind", "sparse", "--n", "0",
                "--out", tmp_path / "zero.mtx"]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: order n=0 must be at least 1\n"
    assert not list(tmp_path.glob("zero*"))


@pytest.mark.parametrize("flag", ["--m", "--n"])
def test_gen_dense_refuses_an_empty_shape(tmp_path, capsys, flag):
    # A 0x3 matrix would be written, and then refused by svd and verify.
    assert run(["gen", "--kind", "dense", "--m", "3", "--n", "3", flag, "0",
                "--out", tmp_path / "z.qmx"]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {flag}=0 must be at least 1\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag,value,message", [
    ("--density", "inf", "off-band density inf must be finite and non-negative"),
    ("--density", "-1", "off-band density -1.0 must be finite and non-negative"),
    ("--density", "nan", "off-band density nan must be finite and non-negative"),
    ("--shift", "nan", "diagonal shift nan must be finite"),
    ("--density", "1e30", "off-band density 1e+30 must be at most 1")])
def test_gen_sparse_refuses_bad_density_and_shift(tmp_path, capsys, flag,
                                                  value, message):
    assert run(["gen", "--kind", "sparse", "--n", "5", flag, value,
                "--out", tmp_path / "bad.mtx"]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_svd_smallest_from_mtx_blocks(tmp_path):
    prefix = tmp_path / "sp.mtx"
    assert run(["gen", "--kind", "sparse", "--n", "60", "--seed", "1",
                "--out", prefix]) == EXIT_OK
    paths = ",".join(str(tmp_path / f"sp_{i}.mtx") for i in range(4))
    trip = tmp_path / "t.csv"
    rc = run(["svd", "--input", paths, "--n", "50", "--k", "3",
              "--which", "smallest", "--seed", "2", "--out", trip])
    assert rc == EXIT_OK
    blocks = [qio.read_matrix_market(tmp_path / f"sp_{i}.mtx")
              for i in range(4)]
    # Each written block reads back to exactly the generated one.
    for i, back in enumerate(blocks):
        want = qio.gen_sparse_block(60, 1 + i,
                                    diagonal_shift=3.0 if i == 0 else 0.0)
        for field in ("row", "col", "data"):
            assert (getattr(back, field).tobytes()
                    == getattr(want, field).tobytes())
    M = qio.assemble_jrs_blocks(*blocks, n=50)
    true_vals, _ = dedup_singular_values(M)
    _, sig, _, conv = np.loadtxt(trip, delimiter=",", skiprows=1, ndmin=2).T
    assert conv.all()
    assert np.abs(sig - true_vals[::-1][:3]).max() <= 1e-6 * true_vals[0]
    # Orders outside 1..60 are usage errors, not crashes.
    for n in ("0", "-1", "61"):
        assert run(["svd", "--input", paths, "--n", n, "--k", "1",
                    "--out", trip]) == EXIT_ERROR


def test_svd_smallest_of_rank_deficient_matrix(tmp_path):
    # A singular projected matrix is no error: the harmonic restart never
    # solves with it.
    from conftest import matrix_from_triplets_expansion, synthetic_triplets

    sig = [(0.5, 0.25, 0.1)[i % 3] * (1.0 + 1e-8 * i) for i in range(11)]
    path = tmp_path / "rank11.qmx"
    qio.write_qmx(matrix_from_triplets_expansion(
        synthetic_triplets(np.random.default_rng(2), 19, 12, sig)), path)
    rc = run(["svd", "--input", path, "--k", "2", "--which", "smallest",
              "--mb", "8", "--seed", "0", "--out", tmp_path / "t.csv"])
    assert rc in (EXIT_OK, EXIT_UNCONVERGED)


def test_svd_of_single_row_matrix(tmp_path):
    # A 1 x n matrix has one triplet, found through its adjoint in one
    # cycle; largest mode once raised on it.
    path = tmp_path / "row.qmx"
    qio.write_qmx(QuatMatrix(*np.random.default_rng(5).standard_normal(
        (4, 1, 7))), path)
    trip = tmp_path / "t.csv"
    rc = run(["svd", "--input", path, "--k", "1", "--out", trip])
    assert rc == EXIT_OK
    _, sig, _, conv = np.loadtxt(trip, delimiter=",", skiprows=1, ndmin=2).T
    true_vals, _ = dedup_singular_values(qio.read_qmx(path))
    assert conv.all() and sig.size == 1
    assert abs(sig[0] - true_vals[0]) <= 1e-12 * true_vals[0]


def test_determinism_byte_identical(tmp_path, dense_qmx):
    outs = []
    for tag in ("a", "b"):
        trip = tmp_path / f"{tag}.csv"
        trace = tmp_path / f"{tag}_tr.csv"
        assert run(["svd", "--input", dense_qmx, "--k", "4", "--seed", "11",
                    "--out", trip, "--trace", trace]) == EXIT_OK
        outs.append((trip.read_bytes(), trace.read_bytes()))
    assert outs[0] == outs[1]


def svd_files(tmp_path, M, *flags):
    """The triplet and trace CSVs `quatsvd svd --trace` writes for M,
    stored as a .qmx (bit exact), solved with ``flags``."""
    qmx, trip, trace = (tmp_path / name for name in ("m.qmx", "t.csv",
                                                     "tr.csv"))
    qio.write_qmx(M, qmx)
    assert run(["svd", "--input", qmx, *flags, "--out", trip,
                "--trace", trace]) == EXIT_OK
    return trip, trace


def test_one_triplet_two_lines(tmp_path, rng):
    trip, _ = svd_files(tmp_path, rand_qmat(rng, 6, 5), "--k", 1, "--seed", 1)
    lines = trip.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == "j,sigma,bound,converged"


def test_sigmas_round_trip_bit_exact(tmp_path, rng):
    M = rand_qmat(rng, 12, 10)
    T, _ = solve_partial_svd(M, SolverOptions(k=4, seed=2))
    trip, _ = svd_files(tmp_path, M, "--k", 4, "--seed", 2)
    assert trip.read_text().startswith("j,sigma,bound,converged\n")
    j, sig, bnd, conv = np.loadtxt(trip, delimiter=",", skiprows=1,
                                   ndmin=2).T
    assert np.array_equal(j, [1, 2, 3, 4])
    assert np.array_equal(sig, T.sigmas)
    assert np.array_equal(bnd, T.bounds)
    assert np.array_equal(conv.astype(bool), T.converged)


def test_trace_rows_match(tmp_path, rng):
    M = rand_qmat(rng, 12, 10)
    _, trace = solve_partial_svd(M, SolverOptions(k=2, m_b=5, seed=2))
    _, path = svd_files(tmp_path, M, "--k", 2, "--mb", 5, "--seed", 2)
    lines = path.read_text().splitlines()
    assert lines[0] == "cycle,j,bound,matvecs"
    assert len(lines) == 1 + len(trace.rows)
    rows = [(int(c), int(j), float(b), int(m))
            for c, j, b, m in (line.split(",") for line in lines[1:])]
    assert rows == trace.rows


def test_env_seed_override(tmp_path, dense_qmx, monkeypatch):
    a, b, c = (tmp_path / f"{x}.csv" for x in "abc")
    ga, gb, gc = (tmp_path / f"{x}.qmx" for x in "abc")

    def gen(seed, out):
        return run(["gen", "--kind", "dense", "--m", "6", "--n", "5",
                    "--seed", seed, "--out", out])

    assert run(["svd", "--input", dense_qmx, "--k", "3", "--seed", "1",
                "--out", a]) == EXIT_OK
    assert gen(1, ga) == EXIT_OK
    monkeypatch.setenv("QSVD_SEED", "1")
    assert run(["svd", "--input", dense_qmx, "--k", "3", "--seed", "999",
                "--out", b]) == EXIT_OK
    assert gen(999, gb) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    assert ga.read_bytes() == gb.read_bytes()
    monkeypatch.delenv("QSVD_SEED")
    assert run(["svd", "--input", dense_qmx, "--k", "3", "--seed", "999",
                "--out", c]) == EXIT_OK
    assert gen(999, gc) == EXIT_OK
    assert a.read_bytes() != c.read_bytes()
    assert ga.read_bytes() != gc.read_bytes()


def test_nonconvergence_exit_code_and_outputs(tmp_path, dense_qmx):
    trip = tmp_path / "t.csv"
    rc = run(["svd", "--input", dense_qmx, "--k", "5", "--maxit", "0",
              "--delta", "1e-16", "--mb", "8", "--seed", "1", "--out", trip])
    assert rc == EXIT_UNCONVERGED
    # Results are still written.
    _, sig, _, conv = np.loadtxt(trip, delimiter=",", skiprows=1, ndmin=2).T
    assert sig.size == 5
    assert not conv.all()


@pytest.mark.parametrize("flag, value", [("--maxit", "-1"),
                                         ("--delta", "nan")])
def test_invalid_solver_flags_are_one_line_errors(tmp_path, dense_qmx,
                                                  capsys, flag, value):
    trip = tmp_path / "t.csv"
    rc = run(["svd", "--input", dense_qmx, "--k", "3", "--mb", "10",
              flag, value, "--out", trip])
    assert rc == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not trip.exists()


GEN_DENSE = ["gen", "--kind", "dense", "--m", "5", "--n", "4",
             "--out", "x.qmx"]


@pytest.mark.parametrize("env, argv, name", [
    ("-3", GEN_DENSE, "QSVD_SEED=-3"),
    (None, ["gen", "--kind", "sparse", "--n", "8", "--seed", "-1",
            "--out", "x.mtx"], "--seed=-1"),
    ("abc", GEN_DENSE, "QSVD_SEED=abc"),
    ("-3", ["verify", "--input", "missing.qmx"], "QSVD_SEED=-3"),
    # Digits that are not ASCII, and what int() takes beside digits.
    ("\u0663", GEN_DENSE, "QSVD_SEED=\u0663"),
    (None, ["verify", "--input", "missing.qmx", "--seed", "\u0663"],
     "--seed=\u0663"),
    (None, ["svd", "--input", "missing.qmx", "--out", "t.csv",
            "--seed", "3_0"], "--seed=3_0"),
    (None, ["approx", "--image", "a.ppm", "--out", "b.ppm", "--report",
            "r.csv", "--seed", "+3"], "--seed=+3"),
    # Every integer flag is read by the same rule.
    (None, ["svd", "--input", "m.qmx", "--out", "t.csv", "--k", "+3"],
     "--k=+3"),
    (None, ["approx", "--image", "a.ppm", "--out", "b.ppm", "--report",
            "r.csv", "--mb", "\u0664"], "--mb=\u0664"),
    (None, ["video", "--frames", "d", "--report", "r.csv", "--maxit", "1_0"],
     "--maxit=1_0"),
    (None, ["svd", "--input", "a.mtx,b.mtx,c.mtx,d.mtx", "--out", "t.csv",
            "--n", "1_0"], "--n=1_0"),
    (None, ["verify", "--input", "m.qmx", "--n", "\u0663"], "--n=\u0663"),
    (None, ["gen", "--kind", "dense", "--m", "\u0663", "--out", "x.qmx"],
     "--m=\u0663"),
    (None, ["gen", "--kind", "sparse", "--band", "-1", "--out", "x.mtx"],
     "--band=-1"),
])
def test_bad_seed_is_named_by_every_subcommand(tmp_path, monkeypatch, capsys,
                                                env, argv, name):
    if env is None:
        monkeypatch.delenv("QSVD_SEED", raising=False)
    else:
        monkeypatch.setenv("QSVD_SEED", env)
    monkeypatch.chdir(tmp_path)
    assert run(argv) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err == f"error: {name} must be a non-negative integer\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command, expected", [
    ("svd", SolverOptions()), ("approx", SolverOptions(k=30)),
    ("video", SolverOptions(k=30))])
def test_solver_flag_defaults_are_the_options_defaults(monkeypatch, command,
                                                       expected):
    monkeypatch.delenv("QSVD_SEED", raising=False)
    required = {"svd": ["--input", "m.qmx", "--out", "t.csv"],
                "approx": ["--image", "a.ppm", "--out", "b.ppm",
                           "--report", "r.csv"],
                "video": ["--frames", "d", "--report", "r.csv"]}[command]
    args = build_parser().parse_args([command, *required])
    assert _options(args) == expected


def test_usage_and_io_errors(tmp_path):
    assert run(["svd", "--input", tmp_path / "missing.qmx", "--k", "2",
                "--out", tmp_path / "t.csv"]) == EXIT_ERROR
    assert run(["nonsense"]) == EXIT_ERROR
    assert run([]) == EXIT_ERROR


def _test_image(tmp_path, h=24, w=18):
    rng = np.random.default_rng(0)
    yy, xx = np.mgrid[0:h, 0:w].astype(float)
    img = RgbImage(R=255.0 * xx / (w - 1), G=255.0 * yy / (h - 1),
                   B=rng.uniform(0, 255, (h, w)))
    path = tmp_path / "in.ppm"
    qio.write_image_ppm(img, path)
    return path


def test_approx_reconstruction_report(tmp_path):
    src = _test_image(tmp_path)
    out = tmp_path / "out.ppm"
    rep = tmp_path / "rep.csv"
    rc = run(["approx", "--image", src, "--k", "6", "--seed", "5",
              "--out", out, "--report", rep])
    assert rc == EXIT_OK
    lines = rep.read_text().splitlines()
    assert lines[0] == "k,psnr,ssim,rel2,relF"
    k, p, s, rel2, relF = lines[1].split(",")
    assert int(k) == 6
    assert 0.0 < float(s) <= 1.0
    assert 0.0 <= float(rel2) <= 1.0 and 0.0 <= float(relF) <= 1.0
    assert out.exists()


@pytest.mark.parametrize("e", [664, -997])
def test_reconstruction_report_near_overflow_and_underflow(e):
    # relF of a matrix scaled by 2**e (about 1e200 or 1e-300) is finite
    # and matches the unscaled matrix's.
    rng = np.random.default_rng(4)
    blocks = [rng.standard_normal((20, 16)) for _ in range(4)]
    opts = SolverOptions(seed=1)
    _, rel2, relF = _reconstruction_report(QuatMatrix(*blocks), 3, opts)
    scaled = QuatMatrix(*[b * 2.0 ** e for b in blocks])
    _, rel2_e, relF_e = _reconstruction_report(scaled, 3, opts)
    assert np.isfinite(relF_e) and 0.0 < relF_e < 1.0
    assert relF_e == pytest.approx(relF, rel=1e-12)
    assert rel2_e == pytest.approx(rel2, rel=1e-12)


@pytest.mark.parametrize("k", [0, 2, 5, 9])
def test_reconstruction_report_matches_counterpart_svd(k):
    # rel2 = sigma_{k+1} / sigma_1 and relF = sqrt(sum_{j>k} sigma_j^2) /
    # ||A||_F, from the full spectrum of the real counterpart.
    rng = np.random.default_rng(2)
    M = QuatMatrix(*[rng.standard_normal((12, 9)) for _ in range(4)])
    sig, _ = dedup_singular_values(M)
    T, rel2, relF = _reconstruction_report(M, k, SolverOptions(seed=1))
    Ak = low_rank_approx(T, k)
    full = k == sig.size
    assert rel2 == (0.0 if full else pytest.approx(sig[k] / sig[0], rel=1e-12))
    want = math.sqrt((sig[k:] ** 2).sum() / (sig ** 2).sum())
    # At full rank relF is the square root of a roundoff-sized tail.
    assert relF == pytest.approx(want, rel=1e-12, abs=1e-7 if full else 0.0)
    diff = math.sqrt(sum(((a - b) ** 2).sum() for a, b in
                         zip(Ak.dense_blocks(), M.dense_blocks())))
    assert diff / M.frobenius_norm() == pytest.approx(want, rel=1e-9,
                                                      abs=1e-12)


@pytest.mark.parametrize("command", ["approx", "video"])
def test_rank_above_min_dimension_is_refused_before_solving(
        tmp_path, monkeypatch, capsys, command):
    def no_solve(*args):
        raise AssertionError("solve_partial_svd called")
    monkeypatch.setattr(cli, "solve_partial_svd", no_solve)
    (tmp_path / "frames").mkdir()
    src = _test_image(tmp_path / "frames", h=12, w=10)
    argv = {"approx": ["--image", src, "--out", tmp_path / "out.ppm"],
            "video": ["--frames", tmp_path / "frames"]}[command]
    assert run([command, *argv, "--k", "11", "--report",
                tmp_path / "r.csv"]) == EXIT_ERROR
    assert capsys.readouterr().err == (
        "error: k=11 exceeds min(m, n) = 10 of the 12x10 matrix\n")
    assert sorted(os.listdir(tmp_path)) == ["frames"]


def test_video_pipeline(tmp_path):
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    rng = np.random.default_rng(1)
    base = rng.uniform(0, 255, (10, 8, 3))
    for i in range(3):
        arr = np.clip(base + 5.0 * i, 0, 255)
        img = RgbImage(R=arr[:, :, 0], G=arr[:, :, 1], B=arr[:, :, 2])
        qio.write_image_ppm(img, frames_dir / f"frame{i:03d}.ppm")
    rep = tmp_path / "video.csv"
    out_dir = tmp_path / "recon"
    rc = run(["video", "--frames", frames_dir, "--k", "4", "--seed", "2",
              "--report", rep, "--out-dir", out_dir])
    assert rc == EXIT_OK
    lines = rep.read_text().splitlines()
    assert lines[0] == "frame,psnr,ssim,rel2,relF"
    assert len(lines) == 1 + 3 + 1  # per-frame rows plus average
    assert lines[-1].startswith("avg,")
    assert sorted(os.listdir(out_dir)) == [f"frame{i:03d}.ppm"
                                           for i in range(3)]


@pytest.mark.parametrize("command", ["approx", "video"])
def test_black_image_scores_a_perfect_rebuild(tmp_path, command):
    # sigma_1 = 0: rel2 divided by it before.
    (tmp_path / "frames").mkdir()
    black = RgbImage(*(np.zeros((12, 10)) for _ in range(3)))
    qio.write_image_ppm(black, tmp_path / "frames" / "in.ppm")
    rep = tmp_path / "r.csv"
    argv = {"approx": ["--image", tmp_path / "frames" / "in.ppm",
                       "--out", tmp_path / "out.ppm"],
            "video": ["--frames", tmp_path / "frames"]}[command]
    assert run([command, *argv, "--k", "3", "--report", rep]) == EXIT_OK
    for line in rep.read_text().splitlines()[1:]:
        _, p, s, rel2, relF = line.split(",")
        assert (float(p), float(s), float(rel2), float(relF)) == \
            (math.inf, 1.0, 0.0, 0.0)


def _drifting_frames(path, count, h, w):
    """Seeded frames of a smooth colour pattern that drifts, plus noise."""
    rng = np.random.default_rng(2)
    yy, xx = np.mgrid[0:h, 0:w] / np.array([h, w])[:, None, None]
    for i in range(count):
        t = 0.05 * i
        pix = [127.5 + 80.0 * np.cos(2.0 * np.pi * (c + 1) * (xx + t))
               * np.sin(np.pi * (yy + c * t)) + rng.normal(0.0, 6.0, (h, w))
               for c in range(3)]
        qio.write_image_ppm(RgbImage(*pix), path / f"f{i:03d}.ppm")


def test_video_never_holds_the_stack_sized_rebuild(tmp_path):
    # The whole-stack Ak (four blocks) and its decoded copy (three
    # channels) took the peak to 4.8-4.9x the stacked channels.  Rebuilt
    # frame by frame and scored against the stack's own blocks, with no
    # second copy of the decoded frames, it stays near 2.35x.
    import tracemalloc

    count, h, w = 40, 72, 88
    (tmp_path / "frames").mkdir()
    _drifting_frames(tmp_path / "frames", count, h, w)
    argv = ["video", "--frames", tmp_path / "frames", "--k", 8, "--seed", 2,
            "--report", tmp_path / "r.csv", "--out-dir", tmp_path / "out"]
    tracemalloc.start()
    try:
        rc = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == EXIT_OK
    assert len(os.listdir(tmp_path / "out")) == count
    assert peak <= 2.75 * (3 * count * h * w * 8)


def test_verify_passes_on_generated_matrix(tmp_path, dense_qmx, capsys):
    assert run(["verify", "--input", dense_qmx]) == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") == 3


def test_verify_of_sparse_blocks_stays_sparse(tmp_path, capsys):
    # The compact-kernel check uses a 20x20 corner; densifying the whole
    # matrix first would cost four n x n float64 blocks.
    import tracemalloc

    n = 1000
    prefix = tmp_path / "sp.mtx"
    assert run(["gen", "--kind", "sparse", "--n", n, "--seed", "1",
                "--out", prefix]) == EXIT_OK
    paths = ",".join(str(tmp_path / f"sp_{i}.mtx") for i in range(4))
    capsys.readouterr()
    tracemalloc.start()
    try:
        rc = run(["verify", "--input", paths, "--n", n])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert rc == EXIT_OK and out.count("PASS") == 3
    assert peak <= n * n * 8


def _scaled_input(tmp_path, sparse, factor):
    """--input for a 60x60 sparse matrix as four .mtx blocks, or a 30x25
    dense one as a .qmx, with every entry multiplied by ``factor``."""
    if sparse:
        paths = []
        for i in range(4):
            b = qio.gen_sparse_block(60, seed=i, diagonal_shift=3.0 * (i == 0))
            paths.append(tmp_path / f"s{i}.mtx")
            qio.write_matrix_market(
                sp.coo_matrix((b.data * factor, (b.row, b.col)), b.shape),
                paths[-1])
        return ",".join(map(str, paths))
    rng = np.random.default_rng(0)
    path = tmp_path / "d.qmx"
    qio.write_qmx(QuatMatrix(*(rng.standard_normal((30, 25)) * factor
                               for _ in range(4))), path)
    return path


@pytest.mark.parametrize("sparse", [False, True])
def test_verify_at_any_scale(tmp_path, capsys, sparse):
    # Each bound scales with the matrix, and a matrix outside the safe
    # range is checked scaled by a power of two, as the solver runs it.
    lines = {}
    for factor in (2.0 ** -600, 1e-6, 1.0, 1e6, 2.0 ** 600):
        spec = _scaled_input(tmp_path, sparse, factor)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run(["verify", "--input", spec])
        assert [w for w in caught if w.category is RuntimeWarning] == []
        out = capsys.readouterr().out
        assert rc == EXIT_OK, out
        lines[factor] = out.splitlines()
        assert len(lines[factor]) == 3
        assert all(line.startswith("PASS  ") for line in lines[factor])
    assert lines[2.0 ** 600] == lines[2.0 ** -600]


def test_verify_fails_a_wrong_compact_matvec(dense_qmx, monkeypatch, capsys):
    import quatsvd.cli as cli

    exact = cli.structured_matvec
    monkeypatch.setattr(cli, "structured_matvec",
                        lambda M, x: exact(M, x) * (1.0 + 1e-6))
    assert run(["verify", "--input", dense_qmx]) == EXIT_ERROR
    first, *rest = capsys.readouterr().out.splitlines()
    assert first.startswith("FAIL  compact matvec")
    assert len(rest) == 2 and all(line.startswith("PASS  ") for line in rest)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
@pytest.mark.parametrize("command", ["svd", "verify"])
def test_empty_matrix_is_a_one_line_error(tmp_path, capsys, shape, command):
    path = tmp_path / "empty.qmx"
    qio.write_qmx(QuatMatrix(*(np.zeros(shape) for _ in range(4))), path)
    argv = [command, "--input", path]
    if command == "svd":
        argv += ["--out", tmp_path / "t.csv"]
    assert run(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: matrix is {shape[0]}x{shape[1]}: it has "
                            "no singular triplets\n")


@pytest.mark.parametrize("command", ["svd", "verify"])
def test_n_with_a_qmx_input_is_refused(tmp_path, capsys, dense_qmx, command):
    # --n picks the order of four .mtx blocks; a .qmx is solved whole, so
    # the flag would be ignored.
    argv = [command, "--input", dense_qmx, "--n", "3"]
    if command == "svd":
        argv += ["--out", tmp_path / "t.csv"]
    capsys.readouterr()
    assert run(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --n=3 applies only to .mtx block input\n"
    assert not (tmp_path / "t.csv").exists()


def test_svd_without_n_takes_the_smallest_block_order(tmp_path):
    blocks = [qio.gen_sparse_block(n, seed=i, diagonal_shift=3.0 * (i == 0))
              for i, n in enumerate((32, 30, 31, 33))]
    paths = [tmp_path / f"b{i}.mtx" for i in range(4)]
    for b, path in zip(blocks, paths):
        qio.write_matrix_market(b, path)
    trip = tmp_path / "t.csv"
    rc = run(["svd", "--input", ",".join(map(str, paths)), "--k", "3",
              "--seed", "2", "--out", trip])
    assert rc == EXIT_OK
    true_vals, _ = dedup_singular_values(qio.assemble_jrs_blocks(*blocks, n=30))
    _, sig, _, conv = np.loadtxt(trip, delimiter=",", skiprows=1, ndmin=2).T
    assert conv.all()
    assert np.abs(sig - true_vals[:3]).max() <= 1e-8 * true_vals[0]


@pytest.mark.parametrize("argv, message", [
    (["svd", "--input", "a.mtx,b.mtx,c.mtx", "--out", "t.csv"],
     "expected a .qmx path or four comma-separated .mtx paths"),
    (["video", "--frames", ".", "--report", "r.csv"], "no .ppm frames in ."),
])
def test_bad_input_specs_are_one_line_errors(tmp_path, monkeypatch, capsys,
                                             argv, message):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(tmp_path) == []


def test_console_entry_point(tmp_path):
    out = tmp_path / "m.qmx"
    # The child process imports the same quatsvd sources as this test.
    src = os.path.dirname(os.path.dirname(qio.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "quatsvd.cli", "gen", "--kind", "dense",
         "--m", "6", "--n", "5", "--seed", "1", "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert out.exists()
