"""CLI surface: subcommands, exit codes, determinism."""

import os
import subprocess
import sys

import numpy as np
import pytest

from quatsvd import io as qio
from quatsvd.cli import EXIT_ERROR, EXIT_OK, EXIT_UNCONVERGED, main
from quatsvd.lowrank import RgbImage

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
    sig, _, conv = qio.read_triplets_csv(trip)
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
    sig, _, conv = qio.read_triplets_csv(trip)
    assert conv.all()
    assert np.abs(sig - true_vals[::-1][:3]).max() <= 1e-6 * true_vals[0]


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
    sig, _, conv = qio.read_triplets_csv(trip)  # results still written
    assert sig.size == 5
    assert not conv.all()


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


def test_console_entry_point(tmp_path):
    out = tmp_path / "m.qmx"
    proc = subprocess.run(
        [sys.executable, "-m", "quatsvd.cli", "gen", "--kind", "dense",
         "--m", "6", "--n", "5", "--seed", "1", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.exists()
