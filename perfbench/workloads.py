"""The benchmark's workloads: seeded inputs, the timed solve, and oracles.

Each workload builds its inputs from the seed alone, hands the solver the
same in-memory ``QuatMatrix`` a user of the CLI would get, and checks the
result against an oracle that never goes through quatsvd's compact
arithmetic: ``scipy.sparse.linalg.svds`` on the complex adjoint, a 2m x 2n
expansion half the size of the real counterpart.  The traced run also
times svds on the 4m x 4n real counterpart, the paper's yardstick, and
checks that it agrees.

Code here calls quatsvd through module attributes (``quatsvd.io.x``), never
through names bound at import, so that the tracer's patches apply.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import svds

import quatsvd
import quatsvd.io
import quatsvd.lowrank

# Oracle agreement, relative to the Frobenius norm of the matrix.  The
# solver's default delta is 1e-10 relative to sigma_max <= ||M||_F.
SIGMA_RTOL = 1e-9
RESIDUAL_RTOL = 1e-9
ORACLE_TOL = 1e-10  # ARPACK tolerance of the svds runs, the solver's delta


def subseed(seed: int, *path: int) -> int:
    """A 32-bit seed derived from the workload seed and a position."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


@dataclass
class Input:
    M: object               # quatsvd.QuatMatrix handed to the solver
    blocks: tuple           # its four real blocks, as the oracles read them
    scale: float            # ||M||_F, computed here from the blocks
    image: object = None    # RgbImage read back from disk (image workload)


@dataclass
class Outcome:
    triplets: object        # quatsvd.TripletSet
    trace: object           # quatsvd.ConvergenceTrace
    psnr: float = math.nan
    ssim: float = math.nan


@dataclass
class Oracle:
    sigmas: np.ndarray      # k quaternion singular values, in target order
    spread: float           # largest disagreement inside a multiplicity group
    seconds: float          # time the svds call took


def _frobenius(blocks) -> float:
    total = 0.0
    for b in blocks:
        data = b.data if sp.issparse(b) else np.asarray(b)
        total += float(np.dot(data.ravel(), data.ravel()))
    return math.sqrt(total)


def _svds(X, k: int, which: str, multiplicity: int) -> Oracle:
    """k distinct values from svds on an expansion that repeats every
    quaternion singular value ``multiplicity`` times."""
    start = time.perf_counter()
    s = svds(X, k=multiplicity * k, which="LM" if which == "largest" else "SM",
             tol=ORACLE_TOL, return_singular_vectors=False, random_state=0)
    seconds = time.perf_counter() - start
    s = np.sort(s)
    if which == "largest":
        s = s[::-1]
    groups = s.reshape(k, multiplicity)
    return Oracle(sigmas=groups.mean(axis=1),
                  spread=float(np.ptp(groups, axis=1).max()), seconds=seconds)


def complex_adjoint_oracle(inp: Input, k: int, which: str) -> Oracle:
    """svds on the complex adjoint [[A, B], [-conj B, conj A]] of
    M = A + B j, with A = M0 + M1 i and B = M2 + M3 i."""
    b0, b1, b2, b3 = inp.blocks
    A, B = b0 + 1j * b1, b2 + 1j * b3
    if sp.issparse(A):
        X = sp.bmat([[A, B], [-B.conj(), A.conj()]]).tocsr()
    else:
        X = np.block([[A, B], [-B.conj(), A.conj()]])
    return _svds(X, k, which, multiplicity=2)


def real_counterpart_reference(inp: Input, k: int, which: str) -> Oracle:
    """svds on the 4m x 4n real counterpart, the paper's yardstick."""
    b0, b1, b2, b3 = inp.blocks
    stack = sp.bmat if sp.issparse(b1) else np.block
    X = stack([[b0, b2, b1, b3],
               [-b2, b0, b3, -b1],
               [-b1, -b3, b0, b2],
               [-b3, b1, -b2, b0]])
    if sp.issparse(X):
        X = X.tocsr()
    return _svds(X, k, which, multiplicity=4)


@dataclass(frozen=True)
class SparseWorkload:
    """Four ``gen_sparse_block`` blocks, the ``quatsvd gen --kind sparse``
    recipe, round-tripped through Matrix Market files."""

    name: str
    n: int
    which: str
    k: int
    inputs: int
    band: int = 2
    density: float = 2e-3
    shift: float = 3.0

    def setup(self, seed: int, index: int, workdir: str) -> Input:
        paths = []
        for i in range(4):
            block = quatsvd.io.gen_sparse_block(
                self.n, subseed(seed, index, i), band=self.band,
                offband_density=self.density,
                diagonal_shift=self.shift if i == 0 else 0.0)
            path = os.path.join(workdir, f"{self.name}-{index}-{i}.mtx")
            quatsvd.io.write_matrix_market(block, path)
            paths.append(path)
        read = [quatsvd.io.read_matrix_market(p) for p in paths]
        M = quatsvd.io.assemble_jrs_blocks(*read, self.n)
        blocks = tuple(sp.csr_matrix(b) for b in M.blocks)
        return Input(M=M, blocks=blocks, scale=_frobenius(blocks))

    def solve(self, inp: Input) -> Outcome:
        opts = quatsvd.SolverOptions(k=self.k, which=self.which)
        triplets, trace = quatsvd.solve_partial_svd(inp.M, opts)
        return Outcome(triplets=triplets, trace=trace)

    def check_extra(self, inp: Input, outcome: Outcome, oracle: Oracle) -> list:
        return []

    def smoke(self) -> "SparseWorkload":
        return replace(self, n=max(self.n // 10, 100))


@dataclass(frozen=True)
class ImageWorkload:
    """A synthetic RGB image round-tripped through PPM, encoded as a pure
    quaternion matrix, solved for the largest triplets and reconstructed
    at rank ``k - 1`` as ``quatsvd approx`` does."""

    name: str
    height: int
    width: int
    k: int
    inputs: int
    which: str = "largest"
    terms: int = 40
    noise: float = 6.0

    @property
    def rank(self) -> int:
        return self.k - 1

    def image(self, seed: int, index: int):
        """Smooth separable pattern with geometrically decaying weights,
        plus seeded Gaussian noise, clipped to [0, 255]."""
        y = np.linspace(0.0, 1.0, self.height)[:, None]
        x = np.linspace(0.0, 1.0, self.width)[:, None]
        j = np.arange(1, self.terms + 1)[None, :]
        amp = 60.0 * 0.88 ** j.ravel()
        rng = np.random.default_rng(subseed(seed, index))
        channels = []
        for c in range(3):
            rows = np.cos(np.pi * (j + 0.37 * c) * y + 0.7 * j + c)
            cols = np.cos(np.pi * (1.3 * j + 0.61 * c) * x + 1.1 * j - c)
            pattern = 128.0 + (rows * amp) @ cols.T
            noise = rng.normal(0.0, self.noise, pattern.shape)
            channels.append(np.clip(pattern + noise, 0.0, 255.0))
        return quatsvd.lowrank.RgbImage(*channels)

    def setup(self, seed: int, index: int, workdir: str) -> Input:
        path = os.path.join(workdir, f"{self.name}-{index}.ppm")
        quatsvd.io.write_image_ppm(self.image(seed, index), path)
        img = quatsvd.io.read_image_ppm(path)
        M = quatsvd.lowrank.image_to_quat(img)
        # The oracles see the channels as read, not the solver's blocks.
        blocks = (np.zeros_like(img.R), img.R, img.G, img.B)
        return Input(M=M, blocks=blocks, scale=_frobenius(blocks), image=img)

    def solve(self, inp: Input) -> Outcome:
        opts = quatsvd.SolverOptions(k=self.k, which=self.which)
        triplets, trace = quatsvd.solve_partial_svd(inp.M, opts)
        Ak = quatsvd.lowrank.low_rank_approx(triplets, self.rank)
        recon = quatsvd.lowrank.quat_to_image(Ak)
        return Outcome(triplets=triplets, trace=trace,
                       psnr=quatsvd.lowrank.psnr(inp.image, recon),
                       ssim=quatsvd.lowrank.ssim(inp.image, recon))

    def check_extra(self, inp: Input, outcome: Outcome, oracle: Oracle) -> list:
        """The reconstruction can be no better than the optimal rank-r
        error, ||M||_F^2 minus the leading sigma_j^2 (clipping and dropping
        the real part only bring it closer to the image)."""
        tail_sq = inp.scale ** 2 - float((oracle.sigmas[:self.rank] ** 2).sum())
        pixels = self.height * self.width
        best = 10.0 * math.log10(255.0 ** 2 * pixels / tail_sq)
        problems = []
        if not outcome.psnr >= best - 1e-6:
            problems.append(f"psnr {outcome.psnr} below optimal {best}")
        if not 0.0 < outcome.ssim <= 1.0:
            problems.append(f"ssim {outcome.ssim} outside (0, 1]")
        return problems

    def smoke(self) -> "ImageWorkload":
        return replace(self, height=48, width=64, k=8)


WORKLOADS = {
    w.name: w for w in (
        SparseWorkload("sparse_ritz", n=5000, which="largest", k=10, inputs=1),
        ImageWorkload("image_rank", height=768, width=1024, k=31, inputs=1),
        SparseWorkload("sparse_harmonic", n=1000, which="smallest", k=5,
                       inputs=3),
    )
}


@dataclass
class Check:
    failed: int             # triplets that failed
    problems: list
    sigma_err: float = math.nan     # max |sigma - oracle| / ||M||_F
    residual: float = math.nan      # verify_residual / ||M||_F


def check(w, inp: Input, outcome: Outcome, oracle: Oracle) -> Check:
    """Compare one solve with the oracle.

    A triplet fails if it is flagged unconverged or its sigma misses the
    oracle; all fail if ``verify_residual`` over the set misses its bound.
    """
    T = outcome.triplets
    if len(T) != w.k:
        return Check(w.k, [f"{len(T)} triplets returned, {w.k} requested"])
    problems = []
    if oracle.spread > SIGMA_RTOL * inp.scale:
        problems.append(f"oracle multiplicity groups disagree by {oracle.spread}")
    err = np.abs(np.asarray(T.sigmas) - oracle.sigmas[:w.k]) / inp.scale
    bad = ~np.asarray(T.converged, dtype=bool) | (err > SIGMA_RTOL)
    residual = quatsvd.verify_residual(inp.M, T) / inp.scale
    if residual > RESIDUAL_RTOL * math.sqrt(w.k):
        problems.append(f"relative verify_residual {residual:.3e} above bound")
        bad[:] = True
    if bad.any():
        problems.append(f"triplets {np.flatnonzero(bad).tolist()} failed "
                        f"(max relative sigma error {err.max():.3e})")
    problems += w.check_extra(inp, outcome, oracle)
    return Check(int(bad.sum()), problems, float(err.max()), residual)
