"""Structure-preserving partial SVD of quaternion matrices.

Quaternion matrices are kept as four real blocks (the compact form of
their JRS-symmetric real counterparts), and a quaternion column vector is
an (n, 4) float64 array.  Partial Lanczos bidiagonalization with Ritz- or
harmonic-Ritz augmented restarting computes the k largest or smallest
singular triplets; helper modules cover low-rank color-image
reconstruction, file formats and a CLI.
"""

from .bidiag import KrylovState, lanczos_bidiag, lanczos_extend
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
from .quatlin import (
    CompactBasis,
    QuatMatrix,
    expand_real_counterpart,
    orthogonalize_against_basis,
    structured_matvec,
    vec_norm,
)
from .restart import (
    ConvergenceTrace,
    SolverOptions,
    TripletSet,
    check_convergence,
    solve_partial_svd,
    verify_residual,
)

__version__ = "0.1.0"

__all__ = [
    "CompactBasis",
    "ConvergenceTrace",
    "KrylovState",
    "QuatMatrix",
    "RgbImage",
    "SolverOptions",
    "TripletSet",
    "check_convergence",
    "expand_real_counterpart",
    "image_to_quat",
    "lanczos_bidiag",
    "lanczos_extend",
    "low_rank_approx",
    "mean_center_samples",
    "orthogonalize_against_basis",
    "psnr",
    "quat_to_image",
    "solve_partial_svd",
    "ssim",
    "stack_frames",
    "structured_matvec",
    "vec_norm",
    "verify_residual",
]
