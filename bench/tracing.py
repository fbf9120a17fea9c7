"""Spans and counts recorded around calls into nanospin's modules.

The program carries no instrumentation of its own, so the benchmark
replaces module attributes with timing wrappers, each under the name its
caller module imports it by (``nanospin.torque.integrate`` is the
``integrate`` that the torque kernels call). A span is one call: its id,
name, start and end (perf_counter nanoseconds), the span that caused it
and the benchmark operation it belongs to. Spans stay in memory, in one
flat int64 array, until the run saves them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from array import array
from collections import Counter

import numpy as np

# Module -> attributes to wrap. Span names are "<module>.<attribute>"
# with the "nanospin." prefix dropped.
TARGETS = {
    "nanospin.torque": (
        "integrate",
        "integrate_with_diagnostics",
        "im_polarizability",
        "d_im_polarizability",
        "abs2_transverse_sum",
        "im_g_self_transverse_sum",
    ),
    "nanospin.dynamics": ("vacuum_torque", "mutual_torque", "friction_coefficients"),
    "nanospin.cli": (
        "parse_config",
        "run_sweep",
        "run",
        "friction_coefficients",
        "solve_linear",
        "solve_nonlinear",
        "sync_time",
    ),
}

INTEGRALS = ("torque.integrate", "torque.integrate_with_diagnostics")
KERNEL = "quadrature.kernel"
MATERIAL = ("torque.im_polarizability", "torque.d_im_polarizability")
GREENS = ("torque.abs2_transverse_sum", "torque.im_g_self_transverse_sum")
COEFFICIENTS = ("bench.friction_coefficients", "dynamics.friction_coefficients", "cli.friction_coefficients")
TORQUE_PUBLIC = COEFFICIENTS + ("dynamics.vacuum_torque", "dynamics.mutual_torque")
SOLVES = ("bench.solve_nonlinear", "cli.solve_nonlinear", "cli.solve_linear")
PARSES = ("bench.parse_config", "cli.parse_config")

_FIELDS = 6  # id, name id, start ns, end ns, parent id (-1: none), operation


class Tracer:
    """Collects spans from the wrappers it hands out."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = array("q")
        self.failures: Counter[str] = Counter()
        self.kernel_points = 0
        self.gamma_s_evals = 0
        self.op = -1
        self._name_ids: dict[str, int] = {}
        self._gamma_s_inputs: set = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def traced(self, name: str, fn, on_call=None):
        """fn wrapped in a span; on_call(args, kwargs) may replace args."""
        nid = self._name_id(name)
        spans, ids, clock, stack_of = self.spans, self._ids, time.perf_counter_ns, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                args = on_call(args, kwargs)
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                with self._lock:
                    self.failures[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans.extend((sid, nid, start, end, parent, self.op))

        return wrapper

    def _count_points(self, args, kwargs):
        with self._lock:
            self.kernel_points += int(np.size(args[0]))
        return args

    def _trace_kernel(self, args, kwargs):
        return (self.traced(KERNEL, args[0], on_call=self._count_points),) + args[1:]

    def _record_gamma_s(self, args, kwargs):
        # friction_coefficients(particle, d, thermal, quad, *, coth_half_argument=...)
        key = (self.op, args[0], args[2], args[3], kwargs.get("coth_half_argument", False))
        with self._lock:
            self.gamma_s_evals += 1
            self._gamma_s_inputs.add(key)
        return args

    def wrap(self, name: str, fn):
        """The wrapper for a function of the given span name."""
        if name in INTEGRALS:
            return self.traced(name, fn, on_call=self._trace_kernel)
        if name in COEFFICIENTS:
            return self.traced(name, fn, on_call=self._record_gamma_s)
        return self.traced(name, fn)

    def install(self) -> None:
        """Replace every TARGETS attribute by its wrapper."""
        for module_name, attrs in TARGETS.items():
            module = importlib.import_module(module_name)
            short = module_name.removeprefix("nanospin.")
            for attr in attrs:
                original = getattr(module, attr)
                self._undo.append((module, attr, original))
                setattr(module, attr, self.wrap(f"{short}.{attr}", original))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-side span, such as one whole operation."""
        nid, stack = self._name_id(name), self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.extend((sid, nid, start, end, parent, self.op))

    def snapshot(self) -> dict:
        """Spans as an (n, 6) array plus the counters, the shape load() returns."""
        return {
            "spans": np.frombuffer(self.spans, dtype=np.int64).reshape(-1, _FIELDS).copy(),
            "names": list(self.names),
            "failures": dict(self.failures),
            "kernel_points": self.kernel_points,
            "gamma_s_evals": self.gamma_s_evals,
            "gamma_s_distinct": len(self._gamma_s_inputs),
        }


def save(path, trace: dict) -> None:
    counters = {k: v for k, v in trace.items() if k not in ("spans", "names")}
    names = np.array(trace["names"], dtype=str)
    np.savez_compressed(path, spans=trace["spans"], names=names, counters=np.array(json.dumps(counters)))


def load(path) -> dict:
    with np.load(path) as data:
        trace = {"spans": data["spans"], "names": [str(n) for n in data["names"]]}
        trace.update(json.loads(str(data["counters"])))
    return trace


def layer_metrics(trace: dict, n_ops: int) -> dict[str, float]:
    """Per-layer metrics, per operation, from a trace of n_ops operations."""
    spans, names = trace["spans"], trace["names"]
    sid, nid, start, end, parent = (spans[:, i] for i in range(5))
    dur = (end - start) * 1e-9
    order = np.argsort(sid)
    has_parent = parent >= 0
    parent_row = order[np.searchsorted(sid, parent[has_parent], sorter=order)]
    child_time = np.bincount(parent_row, weights=dur[has_parent], minlength=len(sid))
    self_time = dur - child_time
    by_name_total = np.bincount(nid, weights=dur, minlength=len(names))
    by_name_self = np.bincount(nid, weights=self_time, minlength=len(names))
    by_name_count = np.bincount(nid, minlength=len(names))
    index = {n: i for i, n in enumerate(names)}

    def summed(per_name, group):
        return float(sum(per_name[index[n]] for n in group if n in index))

    def total(group):
        return summed(by_name_total, group)

    def self_(group):
        return summed(by_name_self, group)

    def count(group):
        return summed(by_name_count, group)

    integrals, kernel_calls = count(INTEGRALS), count((KERNEL,))
    material_calls = count(MATERIAL)
    run_sweep_s = total(("cli.run_sweep",))
    evals = trace["gamma_s_evals"]
    per = 1.0 / n_ops
    return {
        "config.parse_s": total(PARSES) * per,
        "quadrature.integrals": integrals * per,
        "quadrature.kernel_calls": kernel_calls * per,
        "quadrature.kernel_points": trace["kernel_points"] * per,
        "quadrature.points_per_kernel_call": trace["kernel_points"] / kernel_calls if kernel_calls else 0.0,
        "quadrature.self_s": self_(INTEGRALS) * per,
        "quadrature.failures": sum(trace["failures"].get(n, 0) for n in INTEGRALS) * per,
        "torque.kernel_self_s": self_((KERNEL,)) * per,
        "torque.self_s": self_(TORQUE_PUBLIC) * per,
        "torque.vacuum_calls": count(("dynamics.vacuum_torque",)) * per,
        "torque.mutual_calls": count(("dynamics.mutual_torque",)) * per,
        "torque.coefficient_calls": count(COEFFICIENTS) * per,
        "torque.gamma_s_useful_ratio": trace["gamma_s_distinct"] / evals if evals else 0.0,
        "material.calls": material_calls * per,
        "material.s": total(MATERIAL) * per,
        "material.calls_per_kernel_call": material_calls / kernel_calls if kernel_calls else 0.0,
        "greens.calls": count(GREENS) * per,
        "greens.s": total(GREENS) * per,
        "dynamics.direct_torque_calls": count(("dynamics.vacuum_torque", "dynamics.mutual_torque")) * per,
        "dynamics.self_s": self_(SOLVES) * per,
        "dynamics.linear_s": total(("cli.solve_linear",)) * per,
        "cli.self_s": self_(("cli.run",)) * per,
        "cli.sweep_overlap": total(("cli.run",)) / run_sweep_s if run_sweep_s else 0.0,
    }
