"""In-memory span tracer that wraps quatsvd functions from outside.

The tracer replaces functions and methods by timing wrappers for the
length of a ``with tracer.installed(targets):`` block and restores them
afterwards.  Modules of the package import one another's functions by
name (``from .quatlin import structured_matvec``), so a function is
patched in every ``quatsvd`` module that binds it, not only where it is
defined; otherwise calls through the other bindings would go untraced.

A span is ``[name, start, end, parent, counts]``: ``parent`` is the index
of the enclosing span (-1 for a root) and ``counts`` a dict filled by an
optional hook.  Spans stay in memory until :meth:`Tracer.write_csv`.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

NAME, START, END, PARENT, COUNTS = range(5)
PACKAGE = "quatsvd"


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``module`` is the defining module, ``attr`` the function name or
    ``Class.method``.  ``before(args)`` runs ahead of the call and its value
    is handed to ``after(args, result, before_value)``, which returns counts
    to store on the span.
    """

    span: str
    module: str
    attr: str
    before: Callable | None = None
    after: Callable | None = None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.missing: list = []
        self._stack: list = []
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span stack out of order: {popped} != {idx}")

    @contextmanager
    def span(self, name: str):
        """A span opened by the harness itself, e.g. the timed solve."""
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = target.before(args) if target.before else None
            idx = tracer._open(target.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if target.after:
                tracer.spans[idx][COUNTS] = target.after(args, result, pre)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def _package_modules(self) -> list:
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or
                                      name.startswith(PACKAGE + "."))]

    @contextmanager
    def installed(self, targets):
        """Wrap every target for the duration of the block."""
        modules = self._package_modules()
        try:
            for t in targets:
                self._install(t, modules)
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def _install(self, t: Target, modules: list) -> None:
        home = sys.modules.get(t.module)
        owner_name, _, method = t.attr.rpartition(".")
        owner = getattr(home, owner_name, None) if owner_name else home
        original = getattr(owner, method, None) if owner is not None else None
        if original is None:
            # Renamed or removed in the program: report it, trace the rest.
            self.missing.append(f"{t.module}.{t.attr}")
            return
        wrapper = self._wrap(original, t)
        if owner_name:
            self._patches.append((owner, method, original))
            setattr(owner, method, wrapper)
            return
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list:
        """Each span's duration minus the time its direct children cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def descendants(self, root: int) -> list:
        """Indices of all spans nested below ``root``."""
        inside = {root}
        out = []
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][PARENT] in inside:
                inside.add(i)
                out.append(i)
        return out

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start_s", "end_s", "parent",
                          "counts"])
            t0 = self.spans[0][START] if self.spans else 0.0
            for i, s in enumerate(self.spans):
                counts = ";".join(f"{k}={v}" for k, v in (s[COUNTS] or {}).items())
                out.writerow([i, s[NAME], f"{s[START] - t0:.9f}",
                              f"{s[END] - t0:.9f}", s[PARENT], counts])
