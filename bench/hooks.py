"""Tracing from outside the program: one hook table, in-memory spans, self time.

Every hook wraps a name that ``xdiff.run`` looks up at call time, so
replacing the module attribute for the length of a traced run is enough to
see each call into a layer without editing the package.  FFT entry points are
wrapped with a counter only: timing each of the ~10^5 FFT calls in a run from
Python costs about a third of the run, while counting stays within noise.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# (layer, module, attribute path).  Several targets may feed one layer; the
# three evolution forms all count as ``model.rhs``.
SPAN_HOOKS = (
    ("integrator.step", "xdiff.integrator", "_step_arrays"),
    ("model.rhs", "xdiff.integrator", "_rhs_core"),
    ("model.rhs", "xdiff.integrator", "_rhs_regularized_core"),
    ("model.rhs", "xdiff.integrator", "_rhs_sqrt_core"),
    ("integrator.cfl_dt", "xdiff.integrator", "cfl_dt"),
    ("integrator.positivity", "xdiff.integrator", "_apply_positivity"),
    ("diagnostics.record", "xdiff.integrator", "_record"),
    ("model.energy", "xdiff.integrator", "energy"),
    ("diagnostics.support", "xdiff.integrator", "support"),
    ("diagnostics.curvature", "xdiff.integrator", "second_derivative_at_center"),
    ("diagnostics.symmetry", "xdiff.integrator", "symmetry_defect"),
    ("kernel.symbol", "xdiff.kernel", "BoxKernel.symbol"),
    ("kernel.symbol", "xdiff.kernel", "SampledKernel.symbol"),
)
COUNT_HOOKS = (
    ("grid.fft", "numpy.fft", "rfft"),
    ("grid.fft", "numpy.fft", "irfft"),
)


def _resolve(module: str, path: str):
    """Return (owner, attribute name, current value), or None when missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, name, None)
    return None if value is None else (owner, name, value)


class Tracer:
    """Spans ``[name, start, end, parent, run_id]`` and per-layer call counts.

    Spans are appended on entry so a parent always precedes its children;
    ``parent`` is the index of the enclosing span, or -1 at the root.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.fft_bytes = 0
        self.run_id = 0
        self._stack: list[int] = [-1]
        self.absent: list[tuple[str, str]] = []

    def begin_run(self, run_id: int) -> None:
        """Tag later spans with ``run_id`` and zero the per-run counters."""
        self.run_id = run_id
        for layer in self.counts:
            self.counts[layer] = 0
        self.fft_bytes = 0

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [name, time.perf_counter(), 0.0, self._stack[-1], self.run_id]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _span_wrapper(self, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [layer, clock(), 0.0, stack[-1], self.run_id]
            spans.append(rec)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def _count_wrapper(self, layer: str, fn):
        counts = self.counts
        counts.setdefault(layer, 0)

        def counted(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            counts[layer] += 1
            self.fft_bytes += getattr(a, "nbytes", 0) + out.nbytes
            return out

        return counted

    @contextmanager
    def installed(self):
        """Wrap every hook target present; restore the originals on exit.

        A missing target marks its layer absent instead of failing the run.
        """
        saved = []
        self.absent = []
        try:
            tables = ((SPAN_HOOKS, self._span_wrapper), (COUNT_HOOKS, self._count_wrapper))
            for table, wrap in tables:
                for layer, module, path in table:
                    found = _resolve(module, path)
                    if found is None:
                        self.absent.append((layer, f"{module}.{path}"))
                        continue
                    owner, name, original = found
                    saved.append((owner, name, original))
                    setattr(owner, name, wrap(layer, original))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    def layer_times(self, run_id: int) -> dict[str, dict[str, float]]:
        """Per layer: calls, total seconds, and self seconds (total minus children)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, rid in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent, rid) in enumerate(self.spans):
            if rid != run_id:
                continue
            agg = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
            agg["calls"] += 1
            agg["total"] += end - start
            agg["self"] += end - start - child[i]
        return out
