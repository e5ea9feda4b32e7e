"""Command-line interface.

Subcommands::

    svd     partial SVD of a matrix from a .qmx container or four
            Matrix Market blocks; writes triplet and trace CSVs
    approx  rank-k reconstruction of a PPM image with a quality report
    video   stacked-frame reconstruction of a directory of PPM frames
    gen     deterministic synthetic matrices (dense .qmx or sparse .mtx)
    verify  structure and factorization invariant checks on an input

Exit codes: 0 on success, 1 on usage or I/O errors, 2 when the solver did
not converge (results are still written, flagged as unconverged).  The
environment variable QSVD_SEED overrides ``--seed``.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import io as qio
from .bidiag import factorization_errors, lanczos_bidiag
from .lowrank import (
    image_to_quat,
    low_rank_approx,
    psnr,
    quat_to_image,
    ssim,
    stack_frames,
    unstack_frames,
)
from .quatlin import (
    QuatMatrix,
    expand_real_counterpart,
    expand_vector,
    random_unit_vector,
    structure_matrices,
    structured_matvec,
)
from .restart import SolverOptions, solve_partial_svd

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNCONVERGED = 2


def _add_solver_flags(p: argparse.ArgumentParser,
                      k_default: int = SolverOptions.k) -> None:
    p.add_argument("--k", type=int, default=k_default,
                   help="number of singular triplets")
    p.add_argument("--which", choices=["largest", "smallest"],
                   default=SolverOptions.which)
    p.add_argument("--mb", type=int, default=SolverOptions.m_b,
                   help="projected size (default max(2k, 40))")
    p.add_argument("--maxit", type=int, default=SolverOptions.maxit,
                   help="maximum number of restarts")
    p.add_argument("--delta", type=float, default=SolverOptions.delta,
                   help="convergence tolerance")
    p.add_argument("--seed", type=int, default=SolverOptions.seed,
                   help="RNG seed")


def _seed(args) -> int:
    """QSVD_SEED if set, else ``--seed``; refused unless a non-negative integer."""
    env = os.environ.get("QSVD_SEED")
    name, text = ("QSVD_SEED", env) if env is not None else \
        ("--seed", str(args.seed))
    if not text.isdecimal():
        raise ValueError(f"{name}={text} must be a non-negative integer")
    return int(text)


def _options(args) -> SolverOptions:
    return SolverOptions(k=args.k, which=args.which, m_b=args.mb,
                         maxit=args.maxit, delta=args.delta, seed=_seed(args))


def _load_matrix(spec: str, n: int | None) -> QuatMatrix:
    """Load a .qmx container or four comma-separated .mtx block files."""
    if "," not in spec and spec.endswith(".qmx"):
        return qio.read_qmx(spec)
    paths = [p for p in spec.split(",") if p]
    if len(paths) != 4:
        raise ValueError("expected a .qmx path or four comma-separated "
                         ".mtx paths")
    blocks = [qio.read_matrix_market(p) for p in paths]
    if n is None:
        n = min(min(b.shape) for b in blocks)
    return qio.assemble_jrs_blocks(*blocks, n=n)


def _cmd_svd(args) -> int:
    opts = _options(args)
    M = _load_matrix(args.input, args.n)
    triplets, trace = solve_partial_svd(M, opts)
    qio.write_triplets(triplets, args.out)
    if args.trace:
        qio.write_trace(trace, args.trace)
    print(f"{len(triplets)} triplets written to {args.out} "
          f"({trace.cycles} cycles, converged={triplets.all_converged})")
    return EXIT_OK if triplets.all_converged else EXIT_UNCONVERGED


def _reconstruction_report(M: QuatMatrix, k: int, opts: SolverOptions):
    """Solve for k+1 largest triplets and reconstruct at rank k.

    Returns (reconstruction, rel2, relF, TripletSet, trace).  The extra
    triplet supplies sigma_{k+1} for the 2-norm distance; the Frobenius
    distance uses the norm identity ||A||_F^2 = sum sigma_j^2.
    """
    full = min(M.rows, M.cols)
    k_solve = min(k + 1, full)
    triplets, trace = solve_partial_svd(M, dataclasses.replace(opts, k=k_solve))
    Ak = low_rank_approx(triplets, k)
    sigma1 = float(triplets.sigmas[0]) if len(triplets) else 0.0
    rel2 = float(triplets.sigmas[k]) / sigma1 if k < full else 0.0
    normF = M.frobenius_norm()
    # Relative to normF before squaring, so that neither overflows.
    tail = 1.0 - float(((triplets.sigmas[:k] / normF) ** 2).sum()) \
        if normF > 0 else 0.0
    relF = math.sqrt(max(tail, 0.0))
    return Ak, rel2, relF, triplets, trace


def _cmd_approx(args) -> int:
    opts = _options(args)
    img = qio.read_image_ppm(args.image)
    M = image_to_quat(img)
    Ak, rel2, relF, triplets, _ = _reconstruction_report(M, args.k, opts)
    recon = quat_to_image(Ak)
    qio.write_image_ppm(recon, args.out)
    with open(args.report, "w", newline="\n") as fh:
        fh.write("k,psnr,ssim,rel2,relF\n")
        fh.write(f"{args.k},{psnr(img, recon):.17g},{ssim(img, recon):.17g},"
                 f"{rel2:.17g},{relF:.17g}\n")
    print(f"rank-{args.k} reconstruction written to {args.out}, "
          f"report to {args.report}")
    return EXIT_OK if triplets.all_converged else EXIT_UNCONVERGED


def _cmd_video(args) -> int:
    opts = _options(args)
    names = sorted(f for f in os.listdir(args.frames) if f.endswith(".ppm"))
    if not names:
        raise ValueError(f"no .ppm frames in {args.frames}")
    frames = [qio.read_image_ppm(os.path.join(args.frames, f)) for f in names]
    M = stack_frames(frames)
    Ak, rel2, relF, triplets, _ = _reconstruction_report(M, args.k, opts)
    recon_frames = unstack_frames(Ak, frames[0].height)
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for name, frame in zip(names, recon_frames):
            qio.write_image_ppm(frame, os.path.join(args.out_dir, name))
    rows = []
    for f, fk in zip(frames, recon_frames):
        rows.append((psnr(f, fk), ssim(f, fk)))
    with open(args.report, "w", newline="\n") as fh:
        fh.write("frame,psnr,ssim,rel2,relF\n")
        for i, (p, s) in enumerate(rows, start=1):
            fh.write(f"{i},{p:.17g},{s:.17g},{rel2:.17g},{relF:.17g}\n")
        mp = sum(p for p, _ in rows) / len(rows)
        ms = sum(s for _, s in rows) / len(rows)
        fh.write(f"avg,{mp:.17g},{ms:.17g},{rel2:.17g},{relF:.17g}\n")
    print(f"{len(frames)} frames reconstructed at rank {args.k}; "
          f"report in {args.report}")
    return EXIT_OK if triplets.all_converged else EXIT_UNCONVERGED


def _cmd_gen(args) -> int:
    seed = _seed(args)
    if args.kind == "dense":
        rng = np.random.default_rng(seed)
        blocks = [rng.standard_normal((args.m, args.n)) for _ in range(4)]
        qio.write_qmx(QuatMatrix(*blocks), args.out)
        print(f"dense {args.m}x{args.n} matrix written to {args.out}")
    else:
        base, _ = os.path.splitext(args.out)
        for i in range(4):
            block = qio.gen_sparse_block(
                args.n, seed + i, band=args.band,
                offband_density=args.density,
                diagonal_shift=args.shift if i == 0 else 0.0)
            qio.write_matrix_market(block, f"{base}_{i}.mtx")
        print(f"sparse blocks written to {base}_0.mtx .. {base}_3.mtx")
    return EXIT_OK


def _cmd_verify(args) -> int:
    rng = np.random.default_rng(_seed(args))
    M = _load_matrix(args.input, args.n)
    failures = 0

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}" +
              (f"  ({detail})" if detail else ""))
        failures += 0 if ok else 1

    # Structure identities on a small principal submatrix.
    ns = min(20, M.rows, M.cols)
    S = QuatMatrix(*(b[:ns, :ns] for b in M.blocks))
    E = expand_real_counterpart(S)
    Jm, Rm, Sm = structure_matrices(ns)
    ok = (np.array_equal(Jm @ E @ Jm.T, E) and
          np.array_equal(Rm @ E @ Rm.T, E) and
          np.array_equal(Sm @ E @ Sm.T, E))
    report("JRS symmetry of the real counterpart (exact)", ok)

    x = random_unit_vector(ns, rng)
    y = structured_matvec(S, x)
    err = float(np.abs(expand_vector(y) - E @ expand_vector(x)).max())
    report("compact matvec vs expanded counterpart", err <= 1e-12,
           f"err={err:.2e}")

    k = min(20, M.rows, M.cols)
    F = lanczos_bidiag(M, random_unit_vector(M.cols, rng), k, rng)
    alphas, betas = np.diag(F.B), np.diag(F.B, 1)
    errs = factorization_errors(M, F.P, F.Q, F.B, F.f)
    scale = max(float(np.abs(alphas).max()), 1e-300)
    report("Lanczos basis orthogonality <= 1e-12",
           max(errs["P_orth"], errs["Q_orth"]) <= 1e-12,
           f"err={max(errs['P_orth'], errs['Q_orth']):.2e}")
    report("factorization identities <= 1e-12 * scale",
           max(errs["direct"], errs["adjoint"]) <= 1e-12 * scale,
           f"err={max(errs['direct'], errs['adjoint']):.2e}")
    B = F.B
    T = B.T @ B
    Tref = np.zeros_like(T)
    for j in range(k):
        Tref[j, j] = alphas[j] ** 2 + (betas[j - 1] ** 2 if j else 0.0)
        if j < k - 1:
            Tref[j, j + 1] = Tref[j + 1, j] = alphas[j] * betas[j]
    terr = float(np.abs(T - Tref).max())
    report("B'B matches the tridiagonal recurrence to 1e-14 * scale",
           terr <= 1e-14 * max(float(np.abs(T).max()), 1e-300),
           f"err={terr:.2e}")
    return EXIT_OK if failures == 0 else EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quatsvd",
        description="Structure-preserving partial SVD of quaternion "
                    "matrices, with low-rank color image tools.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("svd", help="partial SVD of a stored matrix")
    p.add_argument("--input", required=True,
                   help=".qmx path, or four comma-separated .mtx paths")
    p.add_argument("--n", type=int, default=None,
                   help="order of the principal submatrices (mtx input)")
    p.add_argument("--out", required=True, help="triplet CSV path")
    p.add_argument("--trace", default=None, help="trace CSV path")
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_svd)

    p = sub.add_parser("approx", help="rank-k image reconstruction")
    p.add_argument("--image", required=True, help="input PPM image")
    p.add_argument("--out", required=True, help="output PPM image")
    p.add_argument("--report", required=True, help="report CSV path")
    _add_solver_flags(p, k_default=30)
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("video", help="stacked-frame video reconstruction")
    p.add_argument("--frames", required=True, help="directory of PPM frames")
    p.add_argument("--out-dir", default=None,
                   help="directory for reconstructed frames")
    p.add_argument("--report", required=True, help="report CSV path")
    _add_solver_flags(p, k_default=30)
    p.set_defaults(func=_cmd_video)

    p = sub.add_parser("gen", help="generate a synthetic matrix")
    p.add_argument("--kind", choices=["dense", "sparse"], required=True)
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=SolverOptions.seed)
    p.add_argument("--band", type=int, default=2,
                   help="half bandwidth of sparse blocks")
    p.add_argument("--density", type=float, default=2e-3,
                   help="off-band density of sparse blocks")
    p.add_argument("--shift", type=float, default=3.0,
                   help="diagonal shift of sparse block 0")
    p.add_argument("--out", required=True, help="output path (.qmx or "
                   "prefix for _0.mtx .. _3.mtx)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="run invariant checks on an input")
    p.add_argument("--input", required=True,
                   help=".qmx path, or four comma-separated .mtx paths")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=SolverOptions.seed)
    p.set_defaults(func=_cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
