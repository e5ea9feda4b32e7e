"""Self-tests of the benchmark, on reduced-size ("smoke") workloads.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import quatsvd  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SMOKE = {name: w.smoke() for name, w in workloads.WORKLOADS.items()}


def traced_solve(w, inp):
    tracer = Tracer()
    with tracer.installed(layers.TARGETS):
        with tracer.span(layers.SOLVE_SPAN) as root:
            out = w.solve(inp)
    return tracer, out, layers.solve_metrics(layers.SpanView(tracer, root),
                                             out.trace)


def block_arrays(inp):
    return [b.toarray() if hasattr(b, "toarray") else np.asarray(b)
            for b in inp.M.blocks]


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_tracer_sees_every_matvec(name, tmp_path):
    w = SMOKE[name]
    inp = w.setup(1, 0, str(tmp_path))
    tracer, out, row = traced_solve(w, inp)
    assert tracer.missing == []
    assert row["quatlin.matvec.calls"] == row["restart.matvecs"]
    assert row["restart.matvecs"] == out.trace.rows[-1][3]
    assert row["bidiag.steps"] * 2 <= row["quatlin.matvec.calls"]
    # Layer self times and the harness glue partition the traced solve.
    parts = sum(row[f"{layer}.self_s"] for layer in layers.SOLVE_LAYERS)
    assert parts + row["trace.glue_s"] == pytest.approx(row["trace.solve_s"],
                                                        rel=1e-9)
    # Wrappers are gone afterwards.
    assert quatsvd.bidiag.structured_matvec is quatsvd.quatlin.structured_matvec
    assert not hasattr(quatsvd.quatlin.structured_matvec, "__wrapped__")


def test_self_test_catches_unpatched_binding(tmp_path):
    w = SMOKE["sparse_ritz"]
    inp = w.setup(1, 0, str(tmp_path))
    original = quatsvd.quatlin.structured_matvec
    tracer = Tracer()
    with tracer.installed(layers.TARGETS):
        # Undo one module's patch, as a tracer that only patched the
        # defining module would leave it.
        quatsvd.bidiag.structured_matvec = original
        with tracer.span(layers.SOLVE_SPAN) as root:
            out = w.solve(inp)
    row = layers.solve_metrics(layers.SpanView(tracer, root), out.trace)
    assert row["quatlin.matvec.calls"] < row["restart.matvecs"]
    assert quatsvd.bidiag.structured_matvec is original


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_same_seed_same_counts(name, tmp_path):
    w = SMOKE[name]
    first = w.setup(7, 0, str(tmp_path))
    again = w.setup(7, 0, str(tmp_path))
    for a, b in zip(block_arrays(first), block_arrays(again)):
        np.testing.assert_array_equal(a, b)
    keys = ("restart.matvecs", "restart.cycles", "quatlin.reorth.calls")
    _, _, row1 = traced_solve(w, first)
    _, _, row2 = traced_solve(w, again)
    assert [row1[k] for k in keys] == [row2[k] for k in keys]


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_other_seed_other_inputs(name, tmp_path):
    w = SMOKE[name]
    a = block_arrays(w.setup(7, 0, str(tmp_path)))
    b = block_arrays(w.setup(8, 0, str(tmp_path)))
    assert any(not np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_oracle_check_passes_and_catches_errors(name, tmp_path):
    w = SMOKE[name]
    inp = w.setup(3, 0, str(tmp_path))
    out = w.solve(inp)
    oracle = workloads.complex_adjoint_oracle(inp, w.k, w.which)
    ok = workloads.check(w, inp, out, oracle)
    assert ok.failed == 0 and ok.problems == []
    out.triplets.sigmas[1] *= 1.0 + 1e-6
    bad = workloads.check(w, inp, out, oracle)
    assert bad.failed >= 1


def _run(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_output_matches_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    names = [w["name"] for w in spec["workloads"]]
    assert set(names) <= set(workloads.WORKLOADS)
    proc = _run(ROOT, "--workload", "sparse_harmonic", "--seed", "2",
                "--seconds", "0.1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    listed = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_fails_without_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "sparse_ritz", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
