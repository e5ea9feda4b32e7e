"""Structure-preserving partial SVD of quaternion matrices.

Quaternion matrices are kept as four real blocks (the compact form of
their JRS-symmetric real counterparts), and a quaternion column vector is
an (n, 4) float64 array.  Partial Lanczos bidiagonalization with Ritz- or
harmonic-Ritz augmented restarting computes the k largest or smallest
singular triplets; helper modules cover low-rank color-image
reconstruction, file formats and a CLI.  The package exports the user
API; the kernels are imported from their modules.
"""

from .lowrank import (
    RgbImage,
    image_to_quat,
    low_rank_approx,
    mean_center_samples,
    psnr,
    quat_to_image,
    ssim,
    stack_frames,
)
from .quatlin import QuatMatrix
from .restart import (
    ConvergenceTrace,
    SolverOptions,
    TripletSet,
    solve_partial_svd,
    verify_residual,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceTrace",
    "QuatMatrix",
    "RgbImage",
    "SolverOptions",
    "TripletSet",
    "image_to_quat",
    "low_rank_approx",
    "mean_center_samples",
    "psnr",
    "quat_to_image",
    "solve_partial_svd",
    "ssim",
    "stack_frames",
    "verify_residual",
]
