"""CLI surface: subcommands, exit codes, determinism."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

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
from quatsvd.lowrank import RgbImage
from quatsvd.quatlin import QuatMatrix
from quatsvd.restart import SolverOptions

from conftest import dedup_singular_values


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


def test_determinism_byte_identical(tmp_path, dense_qmx):
    outs = []
    for tag in ("a", "b"):
        trip = tmp_path / f"{tag}.csv"
        trace = tmp_path / f"{tag}_tr.csv"
        assert run(["svd", "--input", dense_qmx, "--k", "4", "--seed", "11",
                    "--out", trip, "--trace", trace]) == EXIT_OK
        outs.append((trip.read_bytes(), trace.read_bytes()))
    assert outs[0] == outs[1]


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
    _, rel2, relF, _, _ = _reconstruction_report(QuatMatrix(*blocks), 3, opts)
    scaled = QuatMatrix(*[b * 2.0 ** e for b in blocks])
    _, rel2_e, relF_e, _, _ = _reconstruction_report(scaled, 3, opts)
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
    Ak, rel2, relF, _, _ = _reconstruction_report(M, k, SolverOptions(seed=1))
    full = k == sig.size
    assert rel2 == (0.0 if full else pytest.approx(sig[k] / sig[0], rel=1e-12))
    want = math.sqrt((sig[k:] ** 2).sum() / (sig ** 2).sum())
    # At full rank relF is the square root of a roundoff-sized tail.
    assert relF == pytest.approx(want, rel=1e-12, abs=1e-7 if full else 0.0)
    diff = math.sqrt(sum(((a - b) ** 2).sum() for a, b in
                         zip(Ak.dense_blocks(), M.dense_blocks())))
    assert diff / M.frobenius_norm() == pytest.approx(want, rel=1e-9,
                                                      abs=1e-12)


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


def test_verify_passes_on_generated_matrix(tmp_path, dense_qmx, capsys):
    assert run(["verify", "--input", dense_qmx]) == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") == 5


def test_verify_of_sparse_blocks_stays_sparse(tmp_path, capsys):
    # The structure checks use a 20x20 corner; densifying the whole
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
    assert rc == EXIT_OK and out.count("PASS") == 5
    assert peak <= n * n * 8


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
