"""File formats: Matrix Market blocks, PPM images, qmx containers, CSV.

All readers are strict: malformed input raises :class:`MalformedFileError`
with the byte offset of the offending token, and nothing is returned
partially.  Writers are deterministic; floats are printed with 17
significant digits so a write/read round-trip is bit exact.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .lowrank import RgbImage
from .quatlin import QuatMatrix
from .restart import ConvergenceTrace, TripletSet

QMX_MAGIC = b"QSVDQMX1"

TRIPLET_HEADER = "j,sigma,bound,converged"
TRACE_HEADER = "cycle,j,bound,matvecs"


class MalformedFileError(ValueError):
    """Parse failure; message names the byte offset of the problem."""

    def __init__(self, path, offset: int, reason: str):
        super().__init__(f"{path}: byte {offset}: {reason}")
        self.offset = offset


@dataclass
class SparseBlock:
    """Coordinate-format real sparse matrix; duplicates already summed."""

    rows: int
    cols: int
    triplets: list  # (row, col, value), 0-based

    def to_coo(self) -> sp.coo_matrix:
        if not self.triplets:
            return sp.coo_matrix((self.rows, self.cols))
        r, c, v = zip(*self.triplets)
        return sp.coo_matrix((v, (r, c)), shape=(self.rows, self.cols))

    def principal_submatrix(self, n: int) -> "SparseBlock":
        if n > min(self.rows, self.cols):
            raise ValueError(f"block is {self.rows}x{self.cols}, "
                             f"smaller than requested order {n}")
        kept = [(r, c, v) for r, c, v in self.triplets if r < n and c < n]
        return SparseBlock(rows=n, cols=n, triplets=kept)


# ---------------------------------------------------------------------------
# Matrix Market coordinate format
# ---------------------------------------------------------------------------

_MM_HEADER = re.compile(
    rb"^%%MatrixMarket\s+matrix\s+coordinate\s+(real|integer)\s+"
    rb"(general|symmetric)\s*$", re.IGNORECASE)


def read_matrix_market(path) -> SparseBlock:
    """Read a real coordinate-format file (general or symmetric).

    Symmetric storage is expanded; duplicate entries are summed; indices
    are converted from 1-based to 0-based.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = raw.split(b"\n")
    offset = 0
    match = _MM_HEADER.match(lines[0].rstrip(b"\r"))
    if match is None:
        raise MalformedFileError(path, 0, "bad MatrixMarket header")
    symmetric = match.group(2).lower() == b"symmetric"

    size_seen = False
    rows = cols = nnz = 0
    acc: dict = {}
    count = 0
    offset = len(lines[0]) + 1
    for line in lines[1:]:
        stripped = line.strip()
        if not stripped or stripped.startswith(b"%"):
            offset += len(line) + 1
            continue
        fields = stripped.split()
        if not size_seen:
            if len(fields) != 3:
                raise MalformedFileError(path, offset, "bad size line")
            try:
                rows, cols, nnz = (int(f) for f in fields)
            except ValueError:
                raise MalformedFileError(path, offset, "bad size line") from None
            size_seen = True
        else:
            if len(fields) != 3:
                raise MalformedFileError(path, offset, "bad entry line")
            try:
                r, c = int(fields[0]), int(fields[1])
                v = float(fields[2])
            except ValueError:
                raise MalformedFileError(path, offset, "bad entry line") from None
            if not (1 <= r <= rows and 1 <= c <= cols):
                raise MalformedFileError(
                    path, offset, f"index ({r}, {c}) out of range "
                    f"{rows}x{cols}")
            acc[(r - 1, c - 1)] = acc.get((r - 1, c - 1), 0.0) + v
            if symmetric and r != c:
                acc[(c - 1, r - 1)] = acc.get((c - 1, r - 1), 0.0) + v
            count += 1
        offset += len(line) + 1
    if not size_seen:
        raise MalformedFileError(path, offset, "missing size line")
    if count != nnz:
        raise MalformedFileError(path, len(raw),
                                 f"expected {nnz} entries, found {count}")
    triplets = sorted((r, c, v) for (r, c), v in acc.items())
    return SparseBlock(rows=rows, cols=cols, triplets=triplets)


def write_matrix_market(block: SparseBlock, path) -> None:
    """Write a SparseBlock as a real general coordinate file."""
    with open(path, "w", newline="\n") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{block.rows} {block.cols} {len(block.triplets)}\n")
        for r, c, v in block.triplets:
            fh.write(f"{r + 1} {c + 1} {v:.17g}\n")


def assemble_jrs_blocks(B0: SparseBlock, B1: SparseBlock, B2: SparseBlock,
                        B3: SparseBlock, n: int) -> QuatMatrix:
    """Quaternion matrix from the order-n principal submatrices of four
    sparse blocks."""
    subs = [b.principal_submatrix(n).to_coo() for b in (B0, B1, B2, B3)]
    return QuatMatrix(*subs)


def gen_sparse_block(n: int, seed: int, band: int = 2,
                     offband_density: float = 2e-3,
                     diagonal_shift: float = 0.0) -> SparseBlock:
    """Deterministic synthetic sparse block: banded plus random off-band.

    A stand-in for the published sparse collections when they are not
    available offline; the density matches their order of magnitude.
    """
    rng = np.random.default_rng(seed)
    parts = []                                  # (rows, cols, values)
    for d in range(-band, band + 1):
        vals = rng.uniform(-1.0, 1.0, size=n - abs(d))
        i = np.arange(vals.size)
        parts.append((i + max(-d, 0), i + max(d, 0), vals))
    n_off = int(offband_density * n * n)
    parts.append((rng.integers(0, n, size=n_off), rng.integers(0, n, size=n_off),
                  rng.uniform(-1.0, 1.0, size=n_off)))
    if diagonal_shift:
        parts.append((np.arange(n), np.arange(n), np.full(n, float(diagonal_shift))))
    # Sum duplicates in the order the entries were drawn (np.add.at is
    # sequential), so every value is bit-identical to an entrywise sum.
    rows, cols, vals = (np.concatenate(p) for p in zip(*parts))
    keys, slot = np.unique(rows * n + cols, return_inverse=True)
    acc = np.zeros(keys.size)
    np.add.at(acc, slot, vals)
    triplets = list(zip((keys // n).tolist(), (keys % n).tolist(), acc.tolist()))
    return SparseBlock(rows=n, cols=n, triplets=triplets)


# ---------------------------------------------------------------------------
# binary PPM (P6)
# ---------------------------------------------------------------------------

def _read_ppm_token(raw: bytes, pos: int, path) -> tuple:
    """Next whitespace-delimited header token, skipping # comments."""
    while pos < len(raw):
        ch = raw[pos:pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            while pos < len(raw) and raw[pos:pos + 1] != b"\n":
                pos += 1
        else:
            break
    if pos >= len(raw):
        raise MalformedFileError(path, pos, "truncated header")
    start = pos
    while pos < len(raw) and not raw[pos:pos + 1].isspace():
        pos += 1
    return raw[start:pos], pos


def read_image_ppm(path) -> RgbImage:
    """Read a binary PPM (magic P6, maxval 255)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:2] != b"P6":
        raise MalformedFileError(path, 0, "wrong magic, expected P6")
    pos = 2
    values = []
    for _ in range(3):
        token, pos = _read_ppm_token(raw, pos, path)
        try:
            values.append(int(token))
        except ValueError:
            raise MalformedFileError(path, pos - len(token),
                                     "bad header integer") from None
    width, height, maxval = values
    if maxval != 255:
        raise MalformedFileError(path, pos, f"unsupported maxval {maxval}")
    if width <= 0 or height <= 0:
        raise MalformedFileError(path, pos, "non-positive dimensions")
    pos += 1  # single whitespace after maxval
    need = 3 * width * height
    payload = raw[pos:pos + need]
    if len(payload) < need:
        raise MalformedFileError(path, pos + len(payload),
                                 f"truncated payload, need {need} bytes")
    pix = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    # Channel-major copy: each channel is C-contiguous, so the dense
    # matvecs on the blocks built from it run as BLAS calls.
    arr = np.ascontiguousarray(pix.transpose(2, 0, 1), dtype=np.float64)
    return RgbImage(R=arr[0], G=arr[1], B=arr[2])


def write_image_ppm(img: RgbImage, path) -> None:
    """Write a binary PPM; channels are clamped to [0, 255] and quantized
    by round-half-away-from-zero."""
    h, w = img.R.shape
    quant = [np.floor(np.clip(c, 0.0, 255.0) + 0.5).astype(np.uint8)
             for c in img.channels()]
    pix = np.stack(quant, axis=2)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pix.tobytes())


# ---------------------------------------------------------------------------
# qmx dense container
# ---------------------------------------------------------------------------

def write_qmx(M: QuatMatrix, path) -> None:
    """Binary container: 8-byte magic, uint64 dims, four little-endian
    float64 blocks in row-major order."""
    with open(path, "wb") as fh:
        fh.write(QMX_MAGIC)
        fh.write(struct.pack("<QQ", M.rows, M.cols))
        for b in M.dense_blocks():
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def read_qmx(path) -> QuatMatrix:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != QMX_MAGIC:
        raise MalformedFileError(path, 0, "wrong magic, expected qmx")
    if len(raw) < 24:
        raise MalformedFileError(path, len(raw), "truncated dimensions")
    rows, cols = struct.unpack("<QQ", raw[8:24])
    need = 24 + 4 * rows * cols * 8
    if len(raw) != need:
        raise MalformedFileError(path, min(len(raw), need),
                                 f"expected {need} bytes, file has {len(raw)}")
    blocks = []
    pos = 24
    for _ in range(4):
        size = rows * cols * 8
        arr = np.frombuffer(raw[pos:pos + size], dtype="<f8")
        blocks.append(arr.reshape(rows, cols).astype(np.float64))
        pos += size
    return QuatMatrix(*blocks)


# ---------------------------------------------------------------------------
# CSV outputs
# ---------------------------------------------------------------------------

def write_triplets(T: TripletSet, path) -> None:
    """Triplet summary CSV with header ``j,sigma,bound,converged``."""
    with open(path, "w", newline="\n") as fh:
        fh.write(TRIPLET_HEADER + "\n")
        for j in range(len(T)):
            fh.write(f"{j + 1},{T.sigmas[j]:.17g},{T.bounds[j]:.17g},"
                     f"{int(T.converged[j])}\n")


def read_triplets_csv(path):
    """Read back a triplet CSV as (sigmas, bounds, converged)."""
    with open(path, "r") as fh:
        header = fh.readline().strip()
        if header != TRIPLET_HEADER:
            raise MalformedFileError(path, 0, f"bad header {header!r}")
        sig, bnd, conv = [], [], []
        for line in fh:
            if not line.strip():
                continue
            _, s, b, c = line.strip().split(",")
            sig.append(float(s))
            bnd.append(float(b))
            conv.append(bool(int(c)))
    return np.array(sig), np.array(bnd), np.array(conv, dtype=bool)


def write_trace(trace: ConvergenceTrace, path) -> None:
    """Convergence trace CSV with header ``cycle,j,bound,matvecs``."""
    with open(path, "w", newline="\n") as fh:
        fh.write(TRACE_HEADER + "\n")
        for cycle, j, bound, matvecs in trace.rows:
            fh.write(f"{cycle},{j},{bound:.17g},{matvecs}\n")
