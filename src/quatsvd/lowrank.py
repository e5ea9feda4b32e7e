"""Color image encoding, rank-k reconstruction and quality metrics.

An RGB image maps to a pure quaternion matrix (red/green/blue on the
i/j/k components, zero real part); a truncated set of singular triplets
reconstructs the rank-k approximation U_k diag(sigma) V_k* entirely in
compact quaternion arithmetic.  PSNR uses the 255-peak formula over all
three channels; SSIM is a single global window over the channel-
concatenated vectors with the standard constants c1 = (0.01*255)^2 and
c2 = (0.03*255)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quatlin import QuatMatrix, weighted_outer
from .restart import TripletSet

SSIM_C1 = (0.01 * 255.0) ** 2
SSIM_C2 = (0.03 * 255.0) ** 2


@dataclass(frozen=True)
class RgbImage:
    """Real-valued RGB channels of equal shape (height, width)."""

    R: np.ndarray
    G: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        if not (self.R.shape == self.G.shape == self.B.shape):
            raise ValueError("channel shapes differ")
        if self.R.ndim != 2:
            raise ValueError("channels must be 2-d")

    @property
    def height(self) -> int:
        return self.R.shape[0]

    @property
    def width(self) -> int:
        return self.R.shape[1]

    def channels(self) -> tuple:
        return self.R, self.G, self.B


@dataclass(frozen=True)
class ApproxReport:
    """Quality summary of a rank-k reconstruction."""

    psnr: float
    ssim: float
    rel2: float
    relF: float


def image_to_quat(img: RgbImage) -> QuatMatrix:
    """Encode an image as a pure quaternion matrix R*i + G*j + B*k."""
    zero = np.zeros_like(np.asarray(img.R, dtype=np.float64))
    return QuatMatrix(zero,
                      np.asarray(img.R, dtype=np.float64),
                      np.asarray(img.G, dtype=np.float64),
                      np.asarray(img.B, dtype=np.float64))


def quat_to_image(M: QuatMatrix) -> RgbImage:
    """Decode the i/j/k components back to channels, clamped to [0, 255].

    The real component is discarded (it is roundoff for reconstructions of
    pure quaternion matrices).
    """
    _, r, g, b = M.dense_blocks()
    clip = lambda c: np.clip(c, 0.0, 255.0)
    return RgbImage(R=clip(r), G=clip(g), B=clip(b))


def low_rank_approx(T: TripletSet, k: int) -> QuatMatrix:
    """Rank-k reconstruction U_k diag(sigma_1..k) V_k* from triplets."""
    if k > len(T):
        raise ValueError(f"k={k} exceeds the {len(T)} available triplets")
    return weighted_outer(T.U.data[:k], T.V.data[:k], T.sigmas[:k])


def psnr(F: RgbImage, Fk: RgbImage) -> float:
    """Peak signal-to-noise ratio 10*log10(255^2 m n / ||Fk - F||_F^2).

    The squared norm runs over all three channels; identical inputs give
    the +inf sentinel.
    """
    if F.R.shape != Fk.R.shape:
        raise ValueError("image dimensions differ")
    err = sum(float(((a - b) ** 2).sum())
              for a, b in zip(F.channels(), Fk.channels()))
    if err == 0.0:
        return math.inf
    m, n = F.R.shape
    return 10.0 * math.log10(255.0 ** 2 * m * n / err)


def ssim(F: RgbImage, Fk: RgbImage) -> float:
    """Global single-window SSIM on the channel-concatenated vectors."""
    if F.R.shape != Fk.R.shape:
        raise ValueError("image dimensions differ")
    x = np.concatenate([c.ravel() for c in F.channels()]).astype(np.float64)
    y = np.concatenate([c.ravel() for c in Fk.channels()]).astype(np.float64)
    mx, my = x.mean(), y.mean()
    vx = ((x - mx) ** 2).mean()
    vy = ((y - my) ** 2).mean()
    cov = ((x - mx) * (y - my)).mean()
    return float((2.0 * mx * my + SSIM_C1) * (2.0 * cov + SSIM_C2)
                 / ((mx ** 2 + my ** 2 + SSIM_C1) * (vx + vy + SSIM_C2)))


def relative_distances(sigmas_full: np.ndarray, k: int,
                       normA2: float, normAF: float):
    """Relative 2-norm and Frobenius distances of the rank-k truncation.

    ``sigmas_full`` must be the full spectrum in descending order; the
    distances are sigma_{k+1}/normA2 and sqrt(sum_{j>k} sigma_j^2)/normAF.
    """
    sigmas_full = np.asarray(sigmas_full, dtype=np.float64)
    if k > sigmas_full.size:
        raise ValueError(f"k={k} exceeds spectrum length {sigmas_full.size}")
    rel2 = float(sigmas_full[k] / normA2) if k < sigmas_full.size else 0.0
    relF = float(np.sqrt((sigmas_full[k:] ** 2).sum()) / normAF)
    return rel2, relF


def stack_frames(frames: list) -> QuatMatrix:
    """Stack video frames row-wise into one (l*m) x n quaternion matrix."""
    if not frames:
        raise ValueError("no frames")
    shape = frames[0].R.shape
    if any(f.R.shape != shape for f in frames):
        raise ValueError("frame dimensions differ")
    r = np.vstack([f.R for f in frames])
    g = np.vstack([f.G for f in frames])
    b = np.vstack([f.B for f in frames])
    return QuatMatrix(np.zeros_like(r), r, g, b)


def unstack_frames(M: QuatMatrix, frame_height: int) -> list:
    """Split a stacked reconstruction back into per-frame images."""
    if M.rows % frame_height:
        raise ValueError("row count is not a multiple of the frame height")
    img = quat_to_image(M)
    l = M.rows // frame_height
    out = []
    for s in range(l):
        rows = slice(s * frame_height, (s + 1) * frame_height)
        out.append(RgbImage(R=img.R[rows], G=img.G[rows], B=img.B[rows]))
    return out


def mean_center_samples(samples: list) -> QuatMatrix:
    """Column-stack vectorized samples minus their mean.

    Column s of the result is vec(F_s) - vec(mean), with vec stacking
    matrix columns (Fortran order).  This is the sample matrix whose
    leading right singular vectors are the color principal components.
    """
    if not samples:
        raise ValueError("no samples")
    rows, cols = samples[0].rows, samples[0].cols
    if any(s.rows != rows or s.cols != cols for s in samples):
        raise ValueError("sample dimensions differ")
    stacked = [np.stack([b.ravel(order="F") for b in s.dense_blocks()])
               for s in samples]                       # each (4, m*n)
    mean = sum(stacked) / len(stacked)
    cols_out = [s - mean for s in stacked]
    blocks = [np.column_stack([c[i] for c in cols_out]) for i in range(4)]
    return QuatMatrix(*blocks)
