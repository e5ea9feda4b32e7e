"""Hand-written quaternion oracles for the test suite.

A scalar type with the Hamilton product written out term by term, the
inner product of two compact vectors written out per component, the
structure matrices of the real counterpart, and small matrix builders.
None of them reads ``quatlin.QUAT_TABLE``, so the table-driven kernels
are checked against an independent statement of the multiplication
rule.
"""

import math
from dataclasses import dataclass

import numpy as np

from quatsvd.quatlin import QuatMatrix, check_compact


@dataclass(frozen=True)
class Quaternion:
    """A quaternion w + x*i + y*j + z*k."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def norm(self) -> float:
        return math.sqrt(self.w ** 2 + self.x ** 2 + self.y ** 2 + self.z ** 2)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)


def quat_mul(a: Quaternion, b: Quaternion) -> Quaternion:
    """Hamilton product a*b (noncommutative)."""
    return Quaternion(
        a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
        a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
        a.w * b.y + a.y * b.w + a.z * b.x - a.x * b.z,
        a.w * b.z + a.z * b.w + a.x * b.y - a.y * b.x,
    )


def quat_dot(a: np.ndarray, b: np.ndarray) -> Quaternion:
    """Quaternion inner product a* . b (conjugate on the first argument)."""
    check_compact(a, len(a), "left vector")
    check_compact(b, len(a), "right vector")
    a0, a1, a2, a3 = a[:, 0], a[:, 1], a[:, 2], a[:, 3]
    b0, b1, b2, b3 = b[:, 0], b[:, 1], b[:, 2], b[:, 3]
    return Quaternion(
        float(a0 @ b0 + a1 @ b1 + a2 @ b2 + a3 @ b3),
        float(a0 @ b1 - a1 @ b0 - a2 @ b3 + a3 @ b2),
        float(a0 @ b2 - a2 @ b0 - a3 @ b1 + a1 @ b3),
        float(a0 @ b3 - a3 @ b0 - a1 @ b2 + a2 @ b1),
    )


def scalar_matrix(q: Quaternion) -> QuatMatrix:
    """The 1-by-1 quaternion matrix [q]."""
    return QuatMatrix(np.array([[q.w]]), np.array([[q.x]]),
                      np.array([[q.y]]), np.array([[q.z]]))


def zero_matrix(rows: int, cols: int) -> QuatMatrix:
    """The rows-by-cols zero quaternion matrix."""
    z = np.zeros((rows, cols))
    return QuatMatrix(z, z.copy(), z.copy(), z.copy())


def structure_matrices(n: int) -> tuple:
    """The skew-symmetric structure matrices (J_n, R_n, S_n) of size 4n."""
    I = np.eye(n)
    Z = np.zeros((n, n))
    J = np.block([[Z, Z, -I, Z], [Z, Z, Z, -I], [I, Z, Z, Z], [Z, I, Z, Z]])
    R = np.block([[Z, -I, Z, Z], [I, Z, Z, Z], [Z, Z, Z, I], [Z, Z, -I, Z]])
    S = np.block([[Z, Z, Z, -I], [Z, Z, I, Z], [Z, -I, Z, Z], [I, Z, Z, Z]])
    return J, R, S
