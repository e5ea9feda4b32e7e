#!/usr/bin/env python3
"""Benchmark of quatsvd's partial SVD on seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload sparse_ritz --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload

One invocation runs one workload in this process.  ``--trace 0`` measures
the end-to-end metrics with nothing wrapped; ``--trace 1`` makes one traced
run that reports the per-layer metrics instead.  Every result is checked
against an independent oracle; a failed check makes the run exit 1.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
(environment, samples, per-layer spans) goes to ``.perfbench_runs/``.

``--workload all`` runs each workload in a fresh child process, since peak
memory is a per-process figure, and prints one table.
"""

import os

# Pin BLAS to one thread before numpy is imported anywhere.  On a small
# shared machine a second BLAS thread measures the scheduler more than the
# program; the value is recorded with every result.
BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / ".perfbench_runs"

# Set-up is repeated (cycling over a workload's inputs) at least this many
# times and until it has taken SETUP_MIN_S, and setup_s is the median.
SETUP_MIN_REPS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPS = 12

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}
CHILD_TIMEOUT_S = 900


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="sparse_ritz, image_rank, sparse_harmonic or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0,
                    help="minimum time spent in timed solves")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced problem sizes, for tests")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

class Results:
    """The first outcome of each input, kept for the oracle check.

    Later solves of the same input must match it exactly, since the solver
    is deterministic; they are compared and dropped, so that memory does
    not grow with the number of solves a run fits in.
    """

    def __init__(self, n_inputs: int):
        self.first = [None] * n_inputs
        self.solves = [0] * n_inputs
        self.problems = []

    def add(self, i: int, out) -> None:
        self.solves[i] += 1
        first = self.first[i]
        if first is None:
            self.first[i] = out
        elif not (np.array_equal(first.triplets.sigmas, out.triplets.sigmas)
                  and np.array_equal(first.triplets.bounds,
                                     out.triplets.bounds)):
            self.problems.append(f"input {i}: repeated solves disagree")


def verify(w, inputs, results: Results):
    """Check each input's first outcome against the oracle.

    Returns the oracles and a dict with the triplets attempted and failed
    over all solves, the problems found and the worst relative errors.
    """
    import workloads
    out = {"attempted": 0, "failed": 0, "problems": list(results.problems),
           "sigma_err_max": 0.0, "residual_max": 0.0}
    oracles = []
    for i, inp in enumerate(inputs):
        oracle = workloads.complex_adjoint_oracle(inp, w.k, w.which)
        oracles.append(oracle)
        c = workloads.check(w, inp, results.first[i], oracle)
        out["attempted"] += w.k * results.solves[i]
        out["failed"] += c.failed * results.solves[i]
        out["problems"] += [f"input {i}: {p}" for p in c.problems]
        out["sigma_err_max"] = max(out["sigma_err_max"], c.sigma_err)
        out["residual_max"] = max(out["residual_max"], c.residual)
    return oracles, out


def timed_run(w, seed: int, seconds: float, workdir: str) -> dict:
    inputs = [None] * w.inputs
    setup_times = []
    while (len(setup_times) < max(SETUP_MIN_REPS, w.inputs)
           or (sum(setup_times) < SETUP_MIN_S
               and len(setup_times) < SETUP_MAX_REPS)
           or len(setup_times) % w.inputs):
        i = len(setup_times) % w.inputs
        inputs[i] = None  # drop the previous build before timing a new one
        start = time.perf_counter()
        inputs[i] = w.setup(seed, i, workdir)
        setup_times.append(time.perf_counter() - start)

    # Solve the inputs in turn until the time is up and each has a sample.
    samples = [[] for _ in inputs]
    results = Results(len(inputs))
    start = time.perf_counter()
    solves = 0
    while not samples[-1] or time.perf_counter() - start < seconds:
        i = solves % len(inputs)
        t0 = time.perf_counter()
        out = w.solve(inputs[i])
        samples[i].append(time.perf_counter() - t0)
        results.add(i, out)
        del out
        solves += 1
    # Read before the oracles run: they are not part of the workload.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    return {
        "metrics": {
            "setup_s": statistics.median(setup_times),
            "solve_s": statistics.fmean(statistics.median(s) for s in samples),
            "peak_rss_mb": peak_mb,
        },
        "units": END_TO_END_UNITS,
        **verify(w, inputs, results)[1],
        "samples": {"setup_s": setup_times, "solve_s": samples},
        "counts": [{"cycles": out.trace.cycles,
                    "matvecs": out.trace.rows[-1][3]} for out in results.first],
    }


def traced_run(w, seed: int, seconds: float, workdir: str) -> dict:
    """Untraced and traced solves of the first input, in alternation."""
    import layers
    import workloads
    from tracer import Tracer

    tracer = Tracer()
    with tracer.installed(layers.TARGETS):
        with tracer.span(layers.SETUP_SPAN) as setup_root:
            inp = w.setup(seed, 0, workdir)
    setup = layers.setup_metrics(layers.SpanView(tracer, setup_root))

    untraced, traced, rows = [], [], []
    results = Results(1)
    problems = []
    start = time.perf_counter()
    while not rows or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        out = w.solve(inp)
        untraced.append(time.perf_counter() - t0)
        results.add(0, out)
        with tracer.installed(layers.TARGETS):
            with tracer.span(layers.SOLVE_SPAN) as root:
                out = w.solve(inp)
        results.add(0, out)
        row = layers.solve_metrics(layers.SpanView(tracer, root), out.trace)
        traced.append(row["trace.solve_s"])
        rows.append(row)
        # Tracer self-test: every matvec the solver counted went through a
        # wrapper, so no by-name binding was left unpatched.
        if row["quatlin.matvec.calls"] != row["restart.matvecs"]:
            problems.append(f"tracer saw {row['quatlin.matvec.calls']} "
                            f"matvecs, solver counted {row['restart.matvecs']}")

    (oracle,), checked = verify(w, [inp], results)
    ref = workloads.real_counterpart_reference(inp, w.k, w.which)
    gap = float(abs(ref.sigmas - oracle.sigmas).max()) / inp.scale
    if gap > workloads.SIGMA_RTOL:
        problems.append(f"real-counterpart svds differs from the oracle by "
                        f"{gap:.3e} relative")
    checked["problems"] = problems + checked["problems"]

    # Counts repeat exactly across traced solves; times take the median.
    metrics = {name: (statistics.median_low if isinstance(rows[0][name], int)
                      else statistics.median)(r[name] for r in rows)
               for name in rows[0]}
    metrics.update(setup)
    metrics["ref.svds_s"] = ref.seconds
    metrics["ref.svds_ratio"] = statistics.median(untraced) / ref.seconds
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(untraced))
    spans_path = RUNS_DIR / f"spans-{w.name}-seed{seed}.csv"
    tracer.write_csv(spans_path)
    return {
        "metrics": metrics,
        "units": layers.PER_LAYER_UNITS,
        **checked,
        "samples": {"untraced_solve_s": untraced, "traced_solve_s": traced},
        "untraced_targets": tracer.missing,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def run_one(args) -> int:
    import envinfo
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    if args.smoke:
        w = w.smoke()
    RUNS_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{w.name}-", dir=RUNS_DIR)
    try:
        run = traced_run if args.trace else timed_run
        result = run(w, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = result["units"]
    correct = result["failed"] == 0 and not result["problems"]
    record = {
        "workload": w.name,
        "params": dict(vars(w)),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": envinfo.environment(ROOT),
        "correct": correct,
        "failed_frac": result["failed"] / result["attempted"],
        **result,
    }
    record_path = RUNS_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1, default=float)

    for problem in result["problems"]:
        print(f"CHECK FAILED  {problem}")
    print(f"env {json.dumps(record['env'], sort_keys=True)}")
    for name, value in result["metrics"].items():
        print(f"{w.name:<16} {name:<28} {value:>14.6g} {units[name]}")
    print(f"{w.name:<16} {'failed_frac':<28} {record['failed_frac']:>14.6g} "
          f"ratio ({result['failed']}/{result['attempted']} triplets)")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# every workload
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    import workloads

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    # Let `finally` blocks remove the work directory when the run is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "quatsvd" / "__init__.py").is_file():
        print(f"error: quatsvd sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
