"""Command-line interface.

Subcommands::

    svd     partial SVD of a matrix from a .qmx container or four
            Matrix Market blocks; writes triplet and trace CSVs
    approx  rank-k reconstruction of a PPM image with a quality report
    video   rank-k reconstruction of a directory of PPM frames, solved
            as one stacked matrix and rebuilt one frame at a time
    gen     deterministic synthetic matrices (dense .qmx or sparse .mtx)
    verify  checks of the compact kernel and of the Lanczos
            factorization on an input

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
    RgbImage,
    image_to_quat,
    psnr,
    rebuild_frames,
    ssim,
    stack_frames,
)
from .quatlin import (
    QuatMatrix,
    check_count,
    expand_real_counterpart,
    expand_vector,
    random_unit_vector,
    safe_range_exponent,
    structured_matvec,
)
from .restart import SolverOptions, solve_partial_svd

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNCONVERGED = 2


def _add_solver_flags(p: argparse.ArgumentParser,
                      k_default: int = SolverOptions.k) -> None:
    p.add_argument("--k", default=k_default,
                   help="number of singular triplets")
    p.add_argument("--which", choices=["largest", "smallest"],
                   default=SolverOptions.which)
    p.add_argument("--mb", default=SolverOptions.m_b,
                   help="projected size (default max(2k, 40))")
    p.add_argument("--maxit", default=SolverOptions.maxit,
                   help="maximum number of restarts")
    p.add_argument("--delta", type=float, default=SolverOptions.delta,
                   help="convergence tolerance")
    p.add_argument("--seed", default=SolverOptions.seed, help="RNG seed")


def _read_integers(args) -> None:
    """Read each integer flag, QSVD_SEED (if set) for ``--seed``, as ASCII
    digits (``isdigit`` takes ``²``; ``int`` takes ``+``, ``_`` and ``٣``)."""
    env = os.environ.get("QSVD_SEED")
    for name in ("k", "mb", "maxit", "n", "m", "band", "seed"):
        flag, value = f"--{name}", getattr(args, name, None)
        if name == "seed" and env is not None:
            flag, value = "QSVD_SEED", env
        if value is None:
            continue
        text = str(value)
        if not (text.isascii() and text.isdigit()):
            raise ValueError(f"{flag}={text} must be a non-negative integer")
        setattr(args, name, int(text))


def _options(args) -> SolverOptions:
    return SolverOptions(k=args.k, which=args.which, m_b=args.mb,
                         maxit=args.maxit, delta=args.delta, seed=args.seed)


def _load_matrix(spec: str, n: int | None) -> QuatMatrix:
    """Load a .qmx container or four comma-separated .mtx block files."""
    if "," not in spec and spec.endswith(".qmx"):
        if n is not None:
            raise ValueError(f"--n={n} applies only to .mtx block input")
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
    qio.write_csv(args.out, "j,sigma,bound,converged",
                  zip(range(1, len(triplets) + 1), triplets.sigmas,
                      triplets.bounds, triplets.converged.astype(int)))
    if args.trace:
        qio.write_csv(args.trace, "cycle,j,bound,matvecs", trace.rows)
    print(f"{len(triplets)} triplets written to {args.out} "
          f"({trace.cycles} cycles, converged={triplets.all_converged})")
    return EXIT_OK if triplets.all_converged else EXIT_UNCONVERGED


def _reconstruction_report(M: QuatMatrix, k: int, opts: SolverOptions):
    """Solve for k+1 largest triplets and measure the rank-k distance.

    Returns (TripletSet, rel2, relF).  The extra triplet supplies
    sigma_{k+1} for the 2-norm distance; the Frobenius distance uses the
    norm identity ||A||_F^2 = sum sigma_j^2.  Both are 0 for a zero matrix.
    """
    full = min(M.rows, M.cols)
    if k > full:
        raise ValueError(f"k={k} exceeds min(m, n) = {full} of the "
                         f"{M.rows}x{M.cols} matrix")
    k_solve = min(k + 1, full)
    triplets, _ = solve_partial_svd(M, dataclasses.replace(opts, k=k_solve))
    sigma1 = float(triplets.sigmas[0])
    rel2 = float(triplets.sigmas[k]) / sigma1 if k < full and sigma1 else 0.0
    normF = M.frobenius_norm()
    # Relative to normF before squaring, so that neither overflows.
    tail = 1.0 - float(((triplets.sigmas[:k] / normF) ** 2).sum()) \
        if normF > 0 else 0.0
    relF = math.sqrt(max(tail, 0.0))
    return triplets, rel2, relF


def _cmd_approx(args) -> int:
    opts = _options(args)
    img = qio.read_image_ppm(args.image)
    M = image_to_quat(img)
    triplets, rel2, relF = _reconstruction_report(M, args.k, opts)
    [recon] = rebuild_frames(triplets, args.k, img.height)
    qio.write_image_ppm(recon, args.out)
    qio.write_csv(args.report, "k,psnr,ssim,rel2,relF",
                  [(args.k, psnr(img, recon), ssim(img, recon), rel2, relF)])
    print(f"rank-{args.k} reconstruction written to {args.out}, "
          f"report to {args.report}")
    return EXIT_OK if triplets.all_converged else EXIT_UNCONVERGED


def _cmd_video(args) -> int:
    opts = _options(args)
    names = sorted(f for f in os.listdir(args.frames) if f.endswith(".ppm"))
    if not names:
        raise ValueError(f"no .ppm frames in {args.frames}")
    # The frames live on only as M's blocks, and are scored from there.
    M = stack_frames([qio.read_image_ppm(os.path.join(args.frames, f))
                      for f in names])
    triplets, rel2, relF = _reconstruction_report(M, args.k, opts)
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
    h = M.rows // len(names)
    rows = []
    for i, (name, fk) in enumerate(zip(names, rebuild_frames(
            triplets, args.k, h))):
        if args.out_dir:
            qio.write_image_ppm(fk, os.path.join(args.out_dir, name))
        f = RgbImage(*(b[i * h:(i + 1) * h] for b in M.blocks[1:]))
        rows.append((i + 1, psnr(f, fk), ssim(f, fk), rel2, relF))
    rows.append(("avg", sum(r[1] for r in rows) / len(rows),
                 sum(r[2] for r in rows) / len(rows), rel2, relF))
    qio.write_csv(args.report, "frame,psnr,ssim,rel2,relF", rows)
    print(f"{len(names)} frames reconstructed at rank {args.k}; "
          f"report in {args.report}")
    return EXIT_OK if triplets.all_converged else EXIT_UNCONVERGED


def _cmd_gen(args) -> int:
    if args.kind == "dense":
        check_count("--m", args.m, 1)
        check_count("--n", args.n, 1)
        rng = np.random.default_rng(args.seed)
        blocks = [rng.standard_normal((args.m, args.n)) for _ in range(4)]
        qio.write_qmx(QuatMatrix(*blocks), args.out)
        print(f"dense {args.m}x{args.n} matrix written to {args.out}")
    else:
        base, _ = os.path.splitext(args.out)
        for i in range(4):
            block = qio.gen_sparse_block(
                args.n, args.seed + i, band=args.band,
                offband_density=args.density,
                diagonal_shift=args.shift if i == 0 else 0.0)
            qio.write_matrix_market(block, f"{base}_{i}.mtx")
        print(f"sparse blocks written to {base}_0.mtx .. {base}_3.mtx")
    return EXIT_OK


def _cmd_verify(args) -> int:
    rng = np.random.default_rng(args.seed)
    M = _load_matrix(args.input, args.n)
    # Check the matrix the solver would run on.
    e = safe_range_exponent(M)
    M = M.scaled(-e) if e else M
    failures = 0

    def report(name: str, err: float, bound: float) -> None:
        nonlocal failures
        ok = err <= bound
        print(f"{'PASS' if ok else 'FAIL'}  {name}  (err={err:.2e})")
        failures += 0 if ok else 1

    # The compact kernel on a small principal submatrix, against its
    # expanded real counterpart.
    ns = min(20, M.rows, M.cols)
    S = QuatMatrix(*(b[:ns, :ns] for b in M.blocks))
    x = random_unit_vector(ns, rng)
    err = float(np.abs(expand_vector(structured_matvec(S, x)) -
                       expand_real_counterpart(S) @ expand_vector(x)).max())
    report("compact matvec vs expanded counterpart <= 1e-12 * max entry", err,
           1e-12 * max(S.max_abs))

    k = min(20, M.rows, M.cols)
    F = lanczos_bidiag(M, random_unit_vector(M.cols, rng), k, rng)
    errs = factorization_errors(M, F)
    report("Lanczos basis orthogonality <= 1e-12",
           max(errs["P_orth"], errs["Q_orth"]), 1e-12)
    report("factorization identities <= 1e-12 * scale",
           max(errs["direct"], errs["adjoint"]), 1e-12 * F.scale)
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
    p.add_argument("--n", default=None,
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
    p.add_argument("--m", default=100)
    p.add_argument("--n", default=100)
    p.add_argument("--seed", default=SolverOptions.seed)
    p.add_argument("--band", default=2,
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
    p.add_argument("--n", default=None)
    p.add_argument("--seed", default=SolverOptions.seed)
    p.set_defaults(func=_cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        _read_integers(args)
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
