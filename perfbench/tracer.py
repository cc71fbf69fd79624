"""Spans around the public layers of steklov_cusp, recorded from outside the
package.

A Tracer replaces every module-level binding of each traced function with a
wrapper, in every loaded steklov_cusp module: `solve_spd` is imported by name
into `eigensolver`, `solve_p` and `triangulate` into `analysis`, and so on,
and patching only the defining module would miss those calls.  The wrappers
keep spans in memory (id, name, start, end, parent id, case), aggregate
per-layer totals while running, and restore the originals on `uninstall`.

`SparseSym.matvec` is the one method traced.  PCG calls it about a million
times in a run, so its spans are aggregated and not stored one by one.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

# (module, function) pairs whose spans make up the per-layer metrics
LAYERS = (
    ("mesh", "triangulate"),
    ("mesh", "refine_uniform"),
    ("fem", "assemble_p2"),
    ("fem", "energy"),
    ("fem", "energy_gradient"),
    ("fem", "linearized_energy_matrix"),
    ("linalg", "solve_spd"),
    ("linalg", "generalized_eig_sym"),
    ("eigensolver", "solve_p"),
    ("eigensolver", "_descent"),
    ("eigensolver", "orthogonalize_shift"),
    ("eigensolver", "weakform_residual"),
    ("eigensolver", "solve_p2"),
    ("analysis", "trace_spectrum"),
    ("analysis", "fp_constant"),
)
MATVEC = "linalg.matvec"
LAYER_NAMES = tuple(f"{mod}.{fn}" for mod, fn in LAYERS) + (MATVEC,)
PACKAGE = "steklov_cusp"


def _solve_spd_maxiter(args, kwargs):
    # mirrors the default of linalg.solve_spd(A, b, tol, maxiter, ...)
    maxiter = kwargs.get("maxiter", args[3] if len(args) > 3 else None)
    if maxiter is None:
        maxiter = max(20 * args[0].n, 2000)
    return maxiter


class _Layer:
    __slots__ = ("calls", "s", "self_s", "matvecs", "rhs", "capped", "n_max", "iterations")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.matvecs = 0
        self.rhs = 0
        self.capped = 0
        self.n_max = 0
        self.iterations = 0


class Tracer:
    """Records spans for the traced layers while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.layers = {name: _Layer() for name in LAYER_NAMES}
        self.case_seconds: dict[str, float] = {}
        self.case = None
        self._stack: list[list] = []   # open spans: [id, name, start, child_s, matvecs]
        self._next_id = 0
        self._saved: list[tuple] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of the traced functions in the loaded package."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        by_name = {m.__name__: m for m in modules}
        for mod, fn in LAYERS:
            original = getattr(by_name[f"{PACKAGE}.{mod}"], fn)
            wrapper = self._wrap(f"{mod}.{fn}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, value))
                        setattr(module, attr, wrapper)
        cls = by_name[f"{PACKAGE}.linalg"].SparseSym
        original = cls.__dict__["matvec"]
        wrapper = self._wrap_matvec(original)
        for attr, value in list(vars(cls).items()):
            if value is original:
                self._saved.append((cls, attr, value))
                setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original binding back."""
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- spans ------------------------------------------------------------

    def _open(self, name):
        rec = [self._next_id, name, time.perf_counter(), 0.0, 0]
        self._next_id += 1
        self._stack.append(rec)
        return rec

    def _close(self, rec):
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child_s, _ = rec
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        layer = self.layers.get(name)
        if layer is not None:
            layer.calls += 1
            layer.s += duration
            layer.self_s += duration - child_s
        self.spans.append((span_id, name, start, end,
                           parent[0] if parent is not None else None, self.case))
        return duration

    @contextmanager
    def case_span(self, case: str):
        """Top-level span for one case; layer spans inside carry its name."""
        self.case = case
        rec = self._open(f"case.{case}")
        try:
            yield
        finally:
            duration = self._close(rec)
            self.case_seconds[case] = self.case_seconds.get(case, 0.0) + duration
            self.case = None

    def _wrap(self, name, fn):
        layer = self.layers.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if name == "linalg.solve_spd":
                b = args[1] if len(args) > 1 else kwargs["b"]
                layer.rhs += 1 if getattr(b, "ndim", 1) == 1 else b.shape[1]
                layer.matvecs += rec[4]
                if rec[4] >= _solve_spd_maxiter(args, kwargs):
                    layer.capped += 1
            elif name == "linalg.generalized_eig_sym":
                layer.n_max = max(layer.n_max, len(args[0]))
            elif name == "eigensolver.solve_p":
                layer.iterations += int(result.iterations)
            return result

        return wrapper

    def _wrap_matvec(self, fn):
        layer = self.layers[MATVEC]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def matvec(matrix, x):
            start = clock()
            try:
                return fn(matrix, x)
            finally:
                duration = clock() - start
                layer.calls += 1
                layer.s += duration
                layer.self_s += duration
                if stack:
                    parent = stack[-1]
                    parent[3] += duration
                    parent[4] += 1

        return matvec

    # -- overhead ---------------------------------------------------------

    @staticmethod
    def call_costs(n: int = 20000) -> tuple[float, float]:
        """Seconds one traced call adds, for a traced function and for the
        matvec wrapper, timed on a function that does nothing."""
        def noop(*_args):
            return None

        def per_call(fn):
            start = time.perf_counter()
            for _ in range(n):
                fn(None, None)
            return (time.perf_counter() - start) / n

        probe = Tracer()
        bare = per_call(noop)
        return (per_call(probe._wrap("calibration", noop)) - bare,
                per_call(probe._wrap_matvec(noop)) - bare)

    # -- output -----------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON object per stored span, in closing order."""
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, case in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "case": case}) + "\n")
