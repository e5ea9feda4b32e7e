"""Structure-preserving partial SVD of quaternion matrices.

Quaternion matrices are kept as four real blocks (the compact form of
their JRS-symmetric real counterparts).  Partial Lanczos bidiagonalization
with Ritz- or harmonic-Ritz augmented restarting computes the k largest or
smallest singular triplets; helper modules cover low-rank color-image
reconstruction, file formats and a CLI.
"""

from .bidiag import KrylovState, lanczos_bidiag, lanczos_extend
from .lowrank import (
    ApproxReport,
    RgbImage,
    image_to_quat,
    low_rank_approx,
    mean_center_samples,
    psnr,
    quat_to_image,
    relative_distances,
    ssim,
    stack_frames,
)
from .quatlin import (
    CompactBasis,
    CompactVector,
    QuatMatrix,
    Quaternion,
    expand_real_counterpart,
    orthogonalize_against_basis,
    quat_dot,
    quat_mul,
    structured_matvec,
    vec_norm,
)
from .restart import (
    ConvergenceTrace,
    SolverOptions,
    TripletSet,
    check_convergence,
    harmonic_augment_cycle,
    ritz_augment_cycle,
    solve_partial_svd,
    verify_residual,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxReport",
    "CompactBasis",
    "CompactVector",
    "ConvergenceTrace",
    "KrylovState",
    "QuatMatrix",
    "Quaternion",
    "RgbImage",
    "SolverOptions",
    "TripletSet",
    "check_convergence",
    "expand_real_counterpart",
    "harmonic_augment_cycle",
    "image_to_quat",
    "lanczos_bidiag",
    "lanczos_extend",
    "low_rank_approx",
    "mean_center_samples",
    "orthogonalize_against_basis",
    "psnr",
    "quat_dot",
    "quat_mul",
    "quat_to_image",
    "relative_distances",
    "ritz_augment_cycle",
    "solve_partial_svd",
    "ssim",
    "stack_frames",
    "structured_matvec",
    "vec_norm",
    "verify_residual",
]
