"""The environment recorded next to every benchmark result."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np
import scipy


def _openblas_runtime() -> dict:
    """Thread count and build string reported by numpy's own OpenBLAS,
    or an empty dict when numpy links another BLAS."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return {}
    out = {}
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            try:
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}get_config{suffix}")
            except AttributeError:
                continue
            threads.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            out["threads"] = int(threads())
            out["config"] = config().decode("ascii", "replace")
            return out
    return out


def source_lines(root: Path) -> int:
    total = 0
    for path in sorted((root / "src").rglob("*.py")):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def environment(root: Path) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in
                ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_build": blas,
        "blas_runtime": _openblas_runtime(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "src_lines": source_lines(root),
    }
