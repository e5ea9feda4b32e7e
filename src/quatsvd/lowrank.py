"""Color image encoding, rank-k reconstruction and quality metrics.

An RGB image maps to a pure quaternion matrix (red/green/blue on the
i/j/k components, zero real part); a truncated set of singular triplets
reconstructs the rank-k approximation U_k diag(sigma) V_k* entirely in
compact quaternion arithmetic.  PSNR uses the 255-peak formula over all
three channels; SSIM is a single global window over the channel-
concatenated vectors with the standard constants c1 = (0.01*255)^2 and
c2 = (0.03*255)^2.  Both are accumulated channel by channel in float64,
so any real dtype scores as its float64 copy and no three-channel
temporary is built.
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


def image_to_quat(img: RgbImage) -> QuatMatrix:
    """Encode an image as a pure quaternion matrix R*i + G*j + B*k."""
    r, g, b = (np.asarray(c, dtype=np.float64) for c in img.channels())
    # Untouched np.zeros pages stay off RSS; matvecs skip the zero block.
    return QuatMatrix(np.zeros(r.shape), r, g, b)


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
    # Subtract in float64: integer channels would wrap around.
    err = sum(float((np.subtract(a, b, dtype=np.float64) ** 2).sum())
              for a, b in zip(F.channels(), Fk.channels()))
    if err == 0.0:
        return math.inf
    m, n = F.R.shape
    return 10.0 * math.log10(255.0 ** 2 * m * n / err)


def ssim(F: RgbImage, Fk: RgbImage) -> float:
    """Global single-window SSIM on the channel-concatenated vectors,
    accumulated channel by channel through two reused float64 buffers."""
    if F.R.shape != Fk.R.shape:
        raise ValueError("image dimensions differ")
    N = 3 * F.R.size
    mx = sum(float(c.sum(dtype=np.float64)) for c in F.channels()) / N
    my = sum(float(c.sum(dtype=np.float64)) for c in Fk.channels()) / N
    dx, dy = np.empty(F.R.shape), np.empty(F.R.shape)
    sums = np.zeros(3)
    for a, b in zip(F.channels(), Fk.channels()):
        np.subtract(a, mx, out=dx, dtype=np.float64)
        np.subtract(b, my, out=dy, dtype=np.float64)
        sums += (np.vdot(dx, dx), np.vdot(dy, dy), np.vdot(dx, dy))
    vx, vy, cov = sums / N
    return float((2.0 * mx * my + SSIM_C1) * (2.0 * cov + SSIM_C2)
                 / ((mx ** 2 + my ** 2 + SSIM_C1) * (vx + vy + SSIM_C2)))


def stack_frames(frames: list) -> QuatMatrix:
    """Stack video frames row-wise into one (l*m) x n quaternion matrix."""
    if not frames:
        raise ValueError("no frames")
    shape = frames[0].R.shape
    if any(f.R.shape != shape for f in frames):
        raise ValueError("frame dimensions differ")
    stacked = (np.vstack(c) for c in zip(*(f.channels() for f in frames)))
    return image_to_quat(RgbImage(*stacked))


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
