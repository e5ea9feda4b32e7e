"""Which quatsvd functions the traced run wraps, and the per-layer metrics
computed from the recorded spans.

Layers are the package modules.  Self time of a wrapped function is
charged to its module; time in functions that are not wrapped (vector
arithmetic, private helpers) is charged to the wrapped function that
called them.  The harness's own code inside the timed solve is reported
as ``trace.glue_s``, so the layer self times plus the glue add up to the
traced ``trace.solve_s``.
"""

from __future__ import annotations

import os

import scipy.sparse as sp

from tracer import COUNTS, END, NAME, PARENT, START, Target, Tracer

SOLVE_SPAN = "harness.solve"
SETUP_SPAN = "harness.setup"


def _block_bytes(M) -> int:
    """Bytes held by the four blocks of a QuatMatrix (index arrays too)."""
    total = 0
    for b in M.blocks:
        if sp.issparse(b):
            total += b.data.nbytes + b.indices.nbytes + b.indptr.nbytes
        else:
            total += b.nbytes
    return total


def _matvec_bytes(args, result, pre):
    # Sixteen block products: each of the four blocks is swept four times.
    return {"bytes": 4 * _block_bytes(args[0])}


def _basis_bytes(args, result, pre):
    return {"bytes": int(args[0].data.nbytes)}


def _extend_before(args):
    state = args[1]
    return state.steps, len(state.deflations)


def _extend_after(args, result, pre):
    return {"steps": result.steps - pre[0],
            "deflations": len(result.deflations) - pre[1]}


def _written_bytes(args, result, pre):
    return {"bytes": os.path.getsize(args[1])}


Q, B, R, D, IO, L = ("quatsvd.quatlin", "quatsvd.bidiag", "quatsvd.restart",
                     "quatsvd.smalldense", "quatsvd.io", "quatsvd.lowrank")

TARGETS = (
    Target("quatlin.structured_matvec", Q, "structured_matvec",
           after=_matvec_bytes),
    Target("quatlin.orthogonalize_against_basis", Q,
           "orthogonalize_against_basis"),
    Target("quatlin.orthogonalize_with_coeffs", Q, "orthogonalize_with_coeffs"),
    Target("quatlin.dot_all", Q, "CompactBasis.dot_all", after=_basis_bytes),
    Target("quatlin.combine_quat", Q, "CompactBasis.combine_quat",
           after=_basis_bytes),
    Target("quatlin.combine_real", Q, "CompactBasis.combine_real"),
    Target("quatlin.combine_matrix", Q, "CompactBasis.combine_matrix"),
    Target("bidiag.lanczos_extend", B, "lanczos_extend",
           before=_extend_before, after=_extend_after),
    Target("bidiag.start_state", B, "start_state"),
    Target("restart.solve_partial_svd", R, "solve_partial_svd"),
    Target("restart.check_convergence", R, "check_convergence"),
    Target("restart.ritz_augment_cycle", R, "ritz_augment_cycle"),
    Target("restart.harmonic_augment_cycle", R, "harmonic_augment_cycle"),
    Target("restart.verify_residual", R, "verify_residual"),
    Target("smalldense.dense_svd", D, "dense_svd"),
    Target("smalldense.qr_factor", D, "qr_factor"),
    Target("smalldense.solve_upper", D, "solve_upper"),
    Target("smalldense.tri_solve_upper", D, "tri_solve_upper"),
    Target("smalldense.bidiag_solve", D, "bidiag_solve"),
    Target("io.gen_sparse_block", IO, "gen_sparse_block"),
    Target("io.write_matrix_market", IO, "write_matrix_market",
           after=_written_bytes),
    Target("io.read_matrix_market", IO, "read_matrix_market"),
    Target("io.assemble_jrs_blocks", IO, "assemble_jrs_blocks"),
    Target("io.write_image_ppm", IO, "write_image_ppm"),
    Target("io.read_image_ppm", IO, "read_image_ppm"),
    Target("lowrank.image_to_quat", L, "image_to_quat"),
    Target("lowrank.low_rank_approx", L, "low_rank_approx"),
    Target("lowrank.quat_to_image", L, "quat_to_image"),
    Target("lowrank.psnr", L, "psnr"),
    Target("lowrank.ssim", L, "ssim"),
)

SOLVE_LAYERS = ("quatlin", "bidiag", "restart", "smalldense", "lowrank")
REORTH = ("quatlin.orthogonalize_against_basis",
          "quatlin.orthogonalize_with_coeffs")

# name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = {
    "quatlin.matvec.calls": "count",
    "quatlin.matvec.s": "s",
    "quatlin.matvec.bytes": "B_computed",
    "quatlin.reorth.calls": "count",
    "quatlin.reorth.s": "s",
    "quatlin.reorth.bytes": "B_computed",
    "quatlin.combine.calls": "count",
    "quatlin.combine.s": "s",
    "quatlin.self_s": "s",
    "bidiag.steps": "count",
    "bidiag.deflations": "count",
    "bidiag.extend.self_s": "s",
    "bidiag.self_s": "s",
    "restart.cycles": "count",
    "restart.matvecs": "count",
    "restart.augment.calls": "count",
    "restart.augment.self_s": "s",
    "restart.check.s": "s",
    "restart.fallbacks": "count",
    "restart.useful_cycle_ratio": "ratio",
    "restart.self_s": "s",
    "smalldense.svd.calls": "count",
    "smalldense.svd.s": "s",
    "smalldense.solve.calls": "count",
    "smalldense.solve.s": "s",
    "smalldense.self_s": "s",
    "io.gen.s": "s",
    "io.mtx_write.s": "s",
    "io.mtx_read.s": "s",
    "io.assemble.s": "s",
    "io.ppm.s": "s",
    "io.mtx.bytes": "B",
    "lowrank.encode.s": "s",
    "lowrank.reconstruct.s": "s",
    "lowrank.quality.s": "s",
    "lowrank.self_s": "s",
    "ref.svds_s": "s",
    "ref.svds_ratio": "ratio",
    "trace.solve_s": "s",
    "trace.glue_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class SpanView:
    """Aggregates over the spans nested below one harness root span."""

    def __init__(self, tracer: Tracer, root: int):
        self.tracer = tracer
        self.root = root
        self.idx = tracer.descendants(root)
        self.own = tracer.self_times()

    def _pick(self, names) -> list:
        names = {names} if isinstance(names, str) else set(names)
        return [i for i in self.idx if self.tracer.spans[i][NAME] in names]

    def calls(self, names) -> int:
        return len(self._pick(names))

    def seconds(self, names) -> float:
        spans = self.tracer.spans
        return sum(spans[i][END] - spans[i][START] for i in self._pick(names))

    def self_seconds(self, names) -> float:
        return sum(self.own[i] for i in self._pick(names))

    def count(self, names, key: str) -> int:
        spans = self.tracer.spans
        return sum((spans[i][COUNTS] or {}).get(key, 0)
                   for i in self._pick(names))

    def layer_self(self, layer: str) -> float:
        spans = self.tracer.spans
        return sum(self.own[i] for i in self.idx
                   if spans[i][NAME].split(".", 1)[0] == layer)

    def outermost(self, names) -> int:
        """Calls of ``names`` not nested directly in another of them."""
        spans = self.tracer.spans
        return sum(1 for i in self._pick(names)
                   if spans[spans[i][PARENT]][NAME] not in names)

    @property
    def duration(self) -> float:
        s = self.tracer.spans[self.root]
        return s[END] - s[START]


def solve_metrics(view: SpanView, trace) -> dict:
    """Per-layer metrics of one traced solve.

    ``trace`` is the ConvergenceTrace the solver returned; cycle and
    matvec counts are read from it, not from the spans.
    """
    cycles = trace.cycles
    fallbacks = len(trace.events)
    matvec = "quatlin.structured_matvec"
    reorth_kernels = ("quatlin.dot_all", "quatlin.combine_quat")
    combine = ("quatlin.combine_matrix", "quatlin.combine_real")
    augment = ("restart.ritz_augment_cycle", "restart.harmonic_augment_cycle")
    solves = ("smalldense.qr_factor", "smalldense.solve_upper",
              "smalldense.tri_solve_upper", "smalldense.bidiag_solve")
    out = {
        "quatlin.matvec.calls": view.calls(matvec),
        "quatlin.matvec.s": view.seconds(matvec),
        "quatlin.matvec.bytes": view.count(matvec, "bytes"),
        "quatlin.reorth.calls": view.outermost(REORTH),
        "quatlin.reorth.s": view.seconds(reorth_kernels),
        "quatlin.reorth.bytes": view.count(reorth_kernels, "bytes"),
        "quatlin.combine.calls": view.calls(combine),
        "quatlin.combine.s": view.seconds(combine),
        "bidiag.steps": view.count("bidiag.lanczos_extend", "steps"),
        "bidiag.deflations": view.count("bidiag.lanczos_extend", "deflations"),
        "bidiag.extend.self_s": view.self_seconds("bidiag.lanczos_extend"),
        "restart.cycles": cycles,
        "restart.matvecs": trace.rows[-1][3] if trace.rows else 0,
        "restart.augment.calls": view.calls(augment),
        "restart.augment.self_s": view.self_seconds(augment),
        "restart.check.s": view.seconds("restart.check_convergence"),
        "restart.fallbacks": fallbacks,
        "restart.useful_cycle_ratio": (cycles - fallbacks) / cycles if cycles else 0.0,
        "smalldense.svd.calls": view.calls("smalldense.dense_svd"),
        "smalldense.svd.s": view.seconds("smalldense.dense_svd"),
        "smalldense.solve.calls": view.calls(solves),
        "smalldense.solve.s": view.seconds(solves),
        "lowrank.reconstruct.s": view.seconds(("lowrank.low_rank_approx",
                                               "lowrank.quat_to_image")),
        "lowrank.quality.s": view.seconds(("lowrank.psnr", "lowrank.ssim")),
        "trace.solve_s": view.duration,
        "trace.glue_s": view.own[view.root],
        "trace.spans": len(view.idx),
    }
    for layer in SOLVE_LAYERS:
        out[f"{layer}.self_s"] = view.layer_self(layer)
    return out


def setup_metrics(view: SpanView) -> dict:
    return {
        "io.gen.s": view.seconds("io.gen_sparse_block"),
        "io.mtx_write.s": view.seconds("io.write_matrix_market"),
        "io.mtx_read.s": view.seconds("io.read_matrix_market"),
        "io.assemble.s": view.seconds("io.assemble_jrs_blocks"),
        "io.ppm.s": view.seconds(("io.write_image_ppm", "io.read_image_ppm")),
        "io.mtx.bytes": view.count("io.write_matrix_market", "bytes"),
        "lowrank.encode.s": view.seconds("lowrank.image_to_quat"),
    }
