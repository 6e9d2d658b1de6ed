"""Span tracing for the benchmark, done from outside the library.

binoether's modules call each other through names they import at module
level (``systems`` calls ``check_jacobi``, ``verify`` calls ``schouten_bb``,
``spectral`` calls ``evaluate_jet``).  The tracer replaces those names, where
the caller looks them up, by wrappers that record a span per call.  Spans
stay in memory as ``[name, start_ns, end_ns, parent]`` and are written out
when the run ends.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name).  A span name is "<layer>.<what>"; the
# layer is the module that implements the function.
WRAPS = (
    ("binoether.systems", "check_jacobi", "verify.jacobi"),
    ("binoether.systems", "check_regularity", "verify.regularity"),
    ("binoether.systems", "check_symmetry", "verify.symmetry"),
    ("binoether.systems", "check_non_noether", "verify.non_noether"),
    ("binoether.systems", "check_yang_baxter", "verify.yang_baxter"),
    ("binoether.systems", "check_compatibility", "verify.compat"),
    ("binoether.systems", "check_spectral_routes", "verify.routes"),
    ("binoether.systems", "conservation_drift", "verify.drift"),
    ("binoether.systems", "check_involution", "verify.involution"),
    ("binoether.systems", "sample_regular_points", "verify.sample"),
    ("binoether.systems", "lie_derivative_mv", "geometry.lie"),
    ("binoether.verify", "sample_regular_points", "verify.sample"),
    ("binoether.verify", "integrate_flow", "verify.flow"),
    ("binoether.verify", "lie_derivative_mv", "geometry.lie"),
    ("binoether.verify", "schouten_bb", "geometry.schouten"),
    ("binoether.verify", "hamiltonian_vf", "geometry.hamiltonian_vf"),
    ("binoether.verify", "evaluate_mv", "geometry.evaluate_mv"),
    ("binoether.verify", "regularity_margin", "spectral.regularity_margin"),
    ("binoether.verify", "pencil_coefficient_jets", "spectral.pencil_coefficient_jets"),
    ("binoether.verify", "root_gradients", "spectral.root_gradients"),
    ("binoether.spectral", "evaluate_mv", "geometry.evaluate_mv"),
    ("binoether.spectral", "lie_derivative_mv", "geometry.lie"),
    ("binoether.spectral", "evaluate_jet", "expr.evaluate_jet"),
)


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named ``name``."""
        index = len(self.spans)
        record = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def _wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if name == "verify.flow":
                self.counts["rk4_steps"] += len(result) - 1
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every name in WRAPS for the duration of the block."""
        for module_name, attr, name in WRAPS:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(name, original))
        try:
            yield self
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, total and self time in seconds.

        Self time is a span's duration minus the durations of its direct
        children."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - covered) / 1e9
        return out

    def layer_self(self) -> dict[str, float]:
        """Self time in seconds per layer (the span-name prefix)."""
        out: dict[str, float] = defaultdict(float)
        for name, entry in self.summary().items():
            out[name.split(".", 1)[0]] += entry["self_s"]
        return dict(out)

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "names": names,
            "fields": ["name", "start_ns", "end_ns", "parent"],
            "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
