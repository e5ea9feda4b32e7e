"""Color image encoding, rank-k reconstruction and quality metrics.

An RGB image maps to a pure quaternion matrix (red/green/blue on the
i/j/k components, zero real part); a truncated set of singular triplets
reconstructs the rank-k approximation U_k diag(sigma) V_k* entirely in
compact quaternion arithmetic.  PSNR uses the 255-peak formula over all
three channels; SSIM is a single global window over the channel-
concatenated vectors with the standard constants c1 = (0.01*255)^2 and
c2 = (0.03*255)^2.  Both are accumulated in float64 over row panels of
at most ``_PANEL_ELEMS`` pixels, channel by channel, so any real dtype
scores as its float64 copy and no temporary is larger than a panel.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .quatlin import QuatMatrix, weighted_outer

if TYPE_CHECKING:  # the image tools read triplets but need no solver
    from .restart import TripletSet

SSIM_C1 = (0.01 * 255.0) ** 2
SSIM_C2 = (0.03 * 255.0) ** 2

# Pixels per channel in a row panel of psnr and ssim (256 KB per float64
# temporary).  Best of 7 on two 768x1024 images, one Xeon core, 2 MB L2:
# psnr and ssim took 2.4 and 5.6 ms at 2**15, 2.5-3.5 and 6.1-8.6 ms at
# other budgets from 2**13 to 2**19, and 5.8 and 10.3 ms on whole channels.
_PANEL_ELEMS = 2 ** 15


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
        if self.R.size == 0:
            raise ValueError(f"image is {self.R.shape[0]}x{self.R.shape[1]}: "
                             "it has no pixels")

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
    # Untouched np.zeros pages stay off RSS; matvecs skip the zero block.
    return QuatMatrix(np.zeros(img.R.shape), *img.channels())


def quat_to_image(M: QuatMatrix) -> RgbImage:
    """Decode the i/j/k components back to channels, clamped to [0, 255].

    The real component is discarded.  In a truncated reconstruction of a
    pure quaternion matrix it is not roundoff, but the image's real part
    is zero, so dropping it (like the clamp) can only bring the result
    closer to the image.
    """
    _, r, g, b = M.dense_blocks()
    clip = lambda c: np.clip(c, 0.0, 255.0)
    return RgbImage(R=clip(r), G=clip(g), B=clip(b))


def low_rank_approx(T: TripletSet, k: int) -> QuatMatrix:
    """Rank-k reconstruction U_k diag(sigma_1..k) V_k* from triplets."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise ValueError(f"k={k!r} must be an integer")
    if k < 0:
        raise ValueError(f"k={k} must be non-negative")
    if k > len(T):
        raise ValueError(f"k={k} exceeds the {len(T)} available triplets")
    return weighted_outer(T.U[:k], T.V[:k], T.sigmas[:k])


def _panel_pairs(F: RgbImage, Fk: RgbImage):
    """Each channel pair (a, b) of F and Fk, cut in row panels of at most
    _PANEL_ELEMS pixels (at least one row); the shapes are checked at once."""
    if F.R.shape != Fk.R.shape:
        raise ValueError("image dimensions differ")
    step = max(1, _PANEL_ELEMS // F.width)
    return ((a[s:s + step], b[s:s + step]) for s in range(0, F.height, step)
            for a, b in zip(F.channels(), Fk.channels()))


def psnr(F: RgbImage, Fk: RgbImage) -> float:
    """Peak signal-to-noise ratio 10*log10(255^2 m n / ||Fk - F||_F^2).

    The squared norm runs over all three channels in row panels;
    identical inputs give the +inf sentinel.
    """
    err = 0.0
    for a, b in _panel_pairs(F, Fk):
        # Subtract in float64: integer channels would wrap around.
        d = np.subtract(a, b, dtype=np.float64)
        err += float(np.vdot(d, d))
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0 ** 2 * F.R.size / err)


def ssim(F: RgbImage, Fk: RgbImage) -> float:
    """Global single-window SSIM on the channel-concatenated vectors: the
    means by channel, then the centred products summed in row panels."""
    pairs = _panel_pairs(F, Fk)
    N = 3 * F.R.size
    mx = sum(float(c.sum(dtype=np.float64)) for c in F.channels()) / N
    my = sum(float(c.sum(dtype=np.float64)) for c in Fk.channels()) / N
    sums = np.zeros(3)
    for a, b in pairs:
        dx = np.subtract(a, mx, dtype=np.float64)
        dy = np.subtract(b, my, dtype=np.float64)
        sums += (np.vdot(dx, dx), np.vdot(dy, dy), np.vdot(dx, dy))
    vx, vy, cov = sums / N
    value = ((2.0 * mx * my + SSIM_C1) * (2.0 * cov + SSIM_C2)
             / ((mx ** 2 + my ** 2 + SSIM_C1) * (vx + vy + SSIM_C2)))
    # At most 1 in exact arithmetic; a near-exact rebuild can round above
    # it.  np.minimum, unlike min, keeps a NaN.
    return float(np.minimum(value, 1.0))


def stack_frames(frames: list) -> QuatMatrix:
    """Stack video frames row-wise into one (l*m) x n quaternion matrix."""
    if not frames:
        raise ValueError("no frames")
    shape = frames[0].R.shape
    if any(f.R.shape != shape for f in frames):
        raise ValueError("frame dimensions differ")
    stacked = (np.vstack(c) for c in zip(*(f.channels() for f in frames)))
    return image_to_quat(RgbImage(*stacked))


def rebuild_frames(T: TripletSet, k: int, frame_height: int):
    """Decoded rank-k rebuilds of a stack's frames, one at a time: a frame's
    rows are U_k[rows] diag(sigma) V_k*, so no stack-sized Ak is held."""
    rows = T.U.shape[1]
    if frame_height < 1 or rows % frame_height:
        raise ValueError(f"frame height {frame_height} does not divide the "
                         f"{rows} rows into frames")
    return (quat_to_image(low_rank_approx(
                replace(T, U=T.U[:, s:s + frame_height]), k))
            for s in range(0, rows, frame_height))


def mean_center_samples(samples: list) -> QuatMatrix:
    """Column-stack vectorized samples minus their mean.

    Column s of the result is vec(F_s) - vec(mean), with vec stacking
    matrix columns (Fortran order).  Its leading left singular vectors,
    of length m*n, are the color principal components; the right ones
    hold each sample's coordinates on them.
    """
    if not samples:
        raise ValueError("no samples")
    rows, cols = samples[0].rows, samples[0].cols
    if any(s.rows != rows or s.cols != cols for s in samples):
        raise ValueError("sample dimensions differ")
    X = np.empty((4, rows * cols, len(samples)))       # sample j in X[:, :, j]
    for j, s in enumerate(samples):
        X[:, :, j] = [b.ravel(order="F") for b in s.dense_blocks()]
    X -= X.mean(axis=2, keepdims=True)
    return QuatMatrix(*X)
