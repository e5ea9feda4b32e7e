"""File formats: Matrix Market blocks, PPM images, qmx containers, CSV.

A sparse block is a ``scipy.sparse.coo_matrix``, duplicates summed and
entries sorted row-major when :func:`gen_sparse_block` or
:func:`read_matrix_market` makes one.

All readers are strict: malformed input raises :class:`MalformedFileError`
with the byte offset of the offending token, and nothing is returned
partially.  The entries of a Matrix Market file are parsed in one numpy
call; a body that call does not take whole is parsed again line by line,
which either returns the same entries or names the offending line.
Writers are deterministic; floats are printed with 17 significant digits
(``%.16e`` in Matrix Market files) so a write/read round-trip is bit exact.
"""

from __future__ import annotations

import io
import re
import struct

import numpy as np
import scipy.sparse as sp

from .lowrank import RgbImage
from .quatlin import QuatMatrix

QMX_MAGIC = b"QSVDQMX1"


class MalformedFileError(ValueError):
    """Parse failure; message names the byte offset of the problem."""

    def __init__(self, path, offset: int, reason: str):
        super().__init__(f"{path}: byte {offset}: {reason}")
        self.offset = offset


def _ascii_int(path, token: bytes, offset: int, reason: str) -> int:
    """``token`` as an integer; a sign, ``_`` or other non-digit raises.
    The one rule for header integers and entry indices."""
    if not token.isdigit():
        raise MalformedFileError(path, offset, reason)
    return int(token)


# ---------------------------------------------------------------------------
# Matrix Market coordinate format
# ---------------------------------------------------------------------------

_MM_HEADER = re.compile(
    rb"^%%MatrixMarket\s+matrix\s+coordinate\s+(real|integer)\s+"
    rb"(general|symmetric)\s*$", re.IGNORECASE)


def _summed_coo(rows, cols, vals, shape) -> sp.coo_matrix:
    """COO matrix of the given entries, duplicates summed, sorted row-major.

    Duplicates are added in input order (``np.add.at`` is sequential) from
    -0.0, so each value, -0.0 included, is bit-identical to an
    entry-by-entry sum; coo ``sum_duplicates`` would move some by 1 ulp.
    """
    width = shape[1]
    keys = np.asarray(rows, dtype=np.int64) * width + np.asarray(cols, dtype=np.int64)
    keys, slot = np.unique(keys, return_inverse=True)
    acc = np.full(keys.size, -0.0)
    np.add.at(acc, slot, np.asarray(vals, dtype=np.float64))
    return sp.coo_matrix((acc, (keys // width, keys % width)), shape=shape)


def _content_lines(raw: bytes, offset: int):
    """(offset, line, stripped) for each line of ``raw[offset:].split(b"\\n")``
    that is neither blank nor a ``%`` comment, at its offset in ``raw``."""
    while offset < len(raw):
        end = raw.find(b"\n", offset)
        if end < 0:
            end = len(raw)
        line = raw[offset:end]
        stripped = line.strip()
        if stripped and not stripped.startswith(b"%"):
            yield offset, line, stripped
        offset = end + 1


# numpy splits fields on unicode whitespace, bytes.split() only on ASCII
# space, tab, CR, LF, VT and FF.  A body with a non-ASCII byte or one of
# these bytes (a comment marker, or the ASCII separators that are unicode
# whitespace) is left to the line loop, and so is one with a '+' not after
# e or E that has fewer than two fields before it on its line: an index
# sign, which numpy's integer parser would take.
_MM_LOOP_BYTES = (b"%", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_MM_ENTRY = np.dtype([("r", np.int64), ("c", np.int64), ("v", np.float64)])


def _parse_body(body: bytes, rows: int, cols: int, nnz: int):
    """The (row, col, value) arrays of the entry lines in one numpy parse,
    or None when the body is not plain ASCII entries that all pass the
    count and range checks; the line loop then decides."""
    if (not nnz or not body.strip() or not body.isascii()
            or any(b in body for b in _MM_LOOP_BYTES)):
        return None
    # One byte test (a regex took 80 times as long).  A '+' at byte 0 is
    # read against itself, and | 0x20 maps E to e.
    a = np.frombuffer(body, dtype=np.uint8)
    plus = np.flatnonzero(a == ord("+"))
    for p in plus[(a[np.maximum(plus - 1, 0)] | 0x20) != ord("e")]:
        if len(body[body.rfind(b"\n", 0, p) + 1:p].split()) < 2:
            return None
    try:
        entries = np.loadtxt(io.BytesIO(body), dtype=_MM_ENTRY, comments=None,
                             ndmin=1)
    except ValueError:
        return None
    r, c, v = entries["r"], entries["c"], entries["v"]
    if (r.size != nnz or r.min() < 1 or r.max() > rows
            or c.min() < 1 or c.max() > cols):
        return None
    return r, c, v


def _parse_lines(path, raw: bytes, start: int, rows: int, cols: int,
                 nnz: int):
    """The entry lines from byte ``start`` on, parsed one line at a time;
    a malformed line, or an index that is not ASCII digits, raises with
    its byte offset."""
    rs, cs, vs = [], [], []
    for offset, _, stripped in _content_lines(raw, start):
        try:
            r, c, v = stripped.split()
            v = float(v)
        except ValueError:
            raise MalformedFileError(path, offset, "bad entry line") from None
        r, c = (_ascii_int(path, t, offset, "bad entry line") for t in (r, c))
        if not (1 <= r <= rows and 1 <= c <= cols):
            raise MalformedFileError(
                path, offset, f"index ({r}, {c}) out of range "
                f"{rows}x{cols}")
        rs.append(r)
        cs.append(c)
        vs.append(v)
    if len(rs) != nnz:
        raise MalformedFileError(path, len(raw),
                                 f"expected {nnz} entries, found {len(rs)}")
    return (np.array(rs, dtype=np.int64), np.array(cs, dtype=np.int64),
            np.array(vs, dtype=np.float64))


def read_matrix_market(path) -> sp.coo_matrix:
    """Read a real coordinate-format file (general or symmetric).

    Symmetric storage is expanded; duplicate entries are summed in file
    order; indices are converted from 1-based to 0-based.  The entries of
    the returned COO matrix are sorted row-major.

    The header and size line are read line by line, the entries in one
    numpy parse.  A body that parse does not take whole (a comment line, an
    index sign, a malformed or out-of-range entry, a wrong count) is read again
    one line at a time, which returns the same entries or raises at the
    offending line's byte offset.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    end = raw.find(b"\n")
    head = raw if end < 0 else raw[:end]
    match = _MM_HEADER.match(head.rstrip(b"\r"))
    if match is None:
        raise MalformedFileError(path, 0, "bad MatrixMarket header")
    symmetric = match.group(2).lower() == b"symmetric"

    size = next(_content_lines(raw, len(head) + 1), None)
    if size is None:
        raise MalformedFileError(path, len(raw) + 1, "missing size line")
    offset, line, stripped = size
    fields = stripped.split()
    if len(fields) != 3:
        raise MalformedFileError(path, offset, "bad size line")
    rows, cols, nnz = (_ascii_int(path, f, offset, "bad size line")
                       for f in fields)
    if symmetric and rows != cols:
        raise MalformedFileError(path, offset, "symmetric matrix is not square")
    # _summed_coo keys an entry as row * cols + col in int64.
    if rows * cols > 2 ** 63:
        raise MalformedFileError(path, offset, f"dimensions {rows}x{cols} too large")

    start = offset + len(line) + 1
    entries = _parse_body(raw[start:], rows, cols, nnz)
    if entries is None:
        entries = _parse_lines(path, raw, start, rows, cols, nnz)
    r, c, v = entries
    if symmetric:
        # Each off-diagonal entry is followed by its mirror, so duplicates
        # are still summed in file order.
        keep = np.stack([np.ones_like(r, dtype=bool), r != c], axis=1).ravel()
        r, c = (np.stack([r, c], axis=1).ravel()[keep],
                np.stack([c, r], axis=1).ravel()[keep])
        v = np.repeat(v, 2)[keep]
    return _summed_coo(r - 1, c - 1, v, (rows, cols))


def write_matrix_market(block: sp.coo_matrix, path) -> None:
    """Write a COO matrix as a real general coordinate file, entries in
    storage order, by scipy's compiled writer: a ``%`` line follows the
    header, and values are printed as ``%.16e`` (inf as ``Infinity``)."""
    import scipy.io  # here, so that runs that write no Matrix Market skip it
    # A path would get ".mtx" appended, and without symmetry="general" a
    # small symmetric block would be stored as its lower triangle.
    with open(path, "wb") as fh:
        scipy.io.mmwrite(fh, block, field="real", precision=17,
                         symmetry="general")


def assemble_jrs_blocks(B0, B1, B2, B3, n: int) -> QuatMatrix:
    """Quaternion matrix from the order-n principal submatrices (leading
    n rows and columns) of four sparse blocks, as ``coo_matrix`` from
    :func:`read_matrix_market` or :func:`gen_sparse_block`.

    Raises ``ValueError`` when ``n < 1`` or a block has fewer than n rows
    or columns.
    """
    blocks = (B0, B1, B2, B3)
    if n < 1:
        raise ValueError(f"order n={n} must be at least 1")
    for b in blocks:
        if n > min(b.shape):
            raise ValueError(f"block is {b.shape[0]}x{b.shape[1]}, "
                             f"smaller than requested order {n}")
    return QuatMatrix(*(b.tocsr()[:n, :n] for b in blocks))


def gen_sparse_block(n: int, seed: int, band: int = 2,
                     offband_density: float = 2e-3,
                     diagonal_shift: float = 0.0) -> sp.coo_matrix:
    """Deterministic synthetic n-by-n sparse block: banded plus random
    off-band entries, duplicates summed in draw order.

    A stand-in for the published sparse collections when they are not
    available offline; the density matches their order of magnitude.
    """
    if n < 1:
        raise ValueError(f"order n={n} must be at least 1")
    if band < 0:
        raise ValueError(f"half bandwidth {band} must be non-negative")
    if not (np.isfinite(offband_density) and offband_density >= 0.0):
        raise ValueError(f"off-band density {offband_density} must be finite "
                         "and non-negative")
    if offband_density > 1.0:
        raise ValueError(f"off-band density {offband_density} must be at most 1")
    if not np.isfinite(diagonal_shift):
        raise ValueError(f"diagonal shift {diagonal_shift} must be finite")
    band = min(band, n - 1)     # a wider band only draws empty diagonals
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
    return _summed_coo(*(np.concatenate(p) for p in zip(*parts)), (n, n))


# ---------------------------------------------------------------------------
# binary PPM (P6)
# ---------------------------------------------------------------------------

# Whitespace and # comments, then a header token: bytes \s is the six
# bytes of bytes.isspace(), and an empty token means the file ended.
_PPM_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


def read_image_ppm(path) -> RgbImage:
    """Read a binary PPM (magic P6, maxval 255)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:2] != b"P6":
        raise MalformedFileError(path, 0, "wrong magic, expected P6")
    if not raw[2:3].isspace():
        raise MalformedFileError(path, 2, "expected whitespace after P6")
    pos = 2
    values = []
    for _ in range(3):
        match = _PPM_TOKEN.match(raw, pos)
        token, pos = match.group(1), match.end()
        if not token:
            raise MalformedFileError(path, pos, "truncated header")
        values.append(_ascii_int(path, token, pos - len(token),
                                 "bad header integer"))
    width, height, maxval = values
    if maxval != 255:
        raise MalformedFileError(path, pos, f"unsupported maxval {maxval}")
    if width <= 0 or height <= 0:
        raise MalformedFileError(path, pos, "non-positive dimensions")
    pos += 1  # single whitespace after maxval
    need = 3 * width * height
    if len(raw) - pos < need:
        raise MalformedFileError(path, max(pos, len(raw)),
                                 f"truncated payload, need {need} bytes")
    pix = np.frombuffer(raw, dtype=np.uint8, count=need,
                        offset=pos).reshape(height, width, 3)
    # Channel-major copy: each channel is C-contiguous, so the dense
    # matvecs on the blocks built from it run as BLAS calls.
    arr = np.ascontiguousarray(pix.transpose(2, 0, 1), dtype=np.float64)
    return RgbImage(R=arr[0], G=arr[1], B=arr[2])


def write_image_ppm(img: RgbImage, path) -> None:
    """Write a binary PPM; channels are clamped to [0, 255] and quantized
    by round-half-away-from-zero.  NaN cannot be clamped: it raises."""
    h, w = img.R.shape
    pix = np.empty((h, w, 3), dtype=np.uint8)
    for i, c in enumerate(img.channels()):
        if np.isnan(c.max()):                   # max propagates NaN
            raise ValueError(f"channel {'RGB'[i]} has NaN entries")
        q = np.clip(c, 0.0, 255.0)
        q += 0.5
        pix[:, :, i] = np.floor(q, out=q)
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
    # numpy forms an array only if its nonzero dimensions' byte product
    # fits an intp, even when another dimension is 0 and it holds nothing.
    if 4 * max(rows, 1) * max(cols, 1) * 8 > np.iinfo(np.intp).max:
        raise MalformedFileError(path, 8, f"dimensions {rows}x{cols} too large")
    need = 24 + 4 * rows * cols * 8
    if len(raw) != need:
        raise MalformedFileError(path, min(len(raw), need),
                                 f"expected {need} bytes, file has {len(raw)}")
    blocks = np.frombuffer(raw, "<f8", offset=24).reshape(4, rows, cols)
    return QuatMatrix(*blocks)


# ---------------------------------------------------------------------------
# CSV outputs
# ---------------------------------------------------------------------------

def write_csv(path, header: str, rows) -> None:
    """A ``header`` line, then one line per row: text and integer fields
    as they are, floats as ``%.17g``, which reads back bit exact."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(f"{x:.17g}" if isinstance(x, float) else str(x)
                               for x in row) + "\n" for row in rows)

