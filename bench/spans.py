"""In-memory span tracing of hzreach's layers, installed from outside.

``Tracer.installed()`` replaces each traced function at every name the
program looks it up by (``hzreach.sets.milp_solve``,
``hzreach.cli.state_pairs``, a method of ``HybridZonotope``, ...) with a
wrapper that records a span (name, start, end, parent), and puts the
originals back on exit.  Outside that block the library runs untouched, so
untraced timings carry no tracing cost.  No file of the library changes.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute) of each traced function as defined.  Every
# module attribute bound to the same object is patched too, so imports by
# name (``from .lp import milp_solve``) are covered.
FUNCTIONS = (
    ("lp.linprog", "hzreach.lp", "linprog"),
    ("lp.lp_solve", "hzreach.lp", "lp_solve"),
    ("lp.milp_solve", "hzreach.lp", "milp_solve"),
    ("lp.enumerate_binary_leaves", "hzreach.lp", "enumerate_binary_leaves"),
    ("projection.emit_projection", "hzreach.projection", "emit_projection"),
    ("projection.write", "hzreach.projection", "write_svg"),
    ("projection.write", "hzreach.projection", "write_points_csv"),
    ("reach.state_pairs", "hzreach.reach", "state_pairs"),
    ("reach.rank_unstable", "hzreach.reach", "rank_unstable"),
    ("reach.frs_brs", "hzreach.reach", "frs"),
    ("reach.frs_brs", "hzreach.reach", "brs"),
    ("bounds.propagate_intervals", "hzreach.bounds", "propagate_intervals"),
    ("relu.relu_layer_graph", "hzreach.relu", "relu_layer_graph"),
    ("verify.verify_forward", "hzreach.verify", "verify_forward"),
    ("verify.verify_backward", "hzreach.verify", "verify_backward"),
    ("model.simulate", "hzreach.model", "simulate"),
    ("cli", "hzreach.cli", "main"),
)
# HybridZonotope queries; interval_hull is traced in its exact mode only.
METHODS = ("is_empty", "contains_point", "support", "interval_hull",
           "sample_points", "feasible_binary_assignments")
# Spans whose result length is summed: leaves and polygons.
SIZED = ("lp.enumerate_binary_leaves", "projection.emit_projection")
# Units of the figures that are neither call counts nor self times.
DERIVED_UNITS = {"lp.enumerate_binary_leaves.leaves": "count",
                 "lp.enumerate_binary_leaves.leaves_per_lp": "leaves/LP",
                 "lp.milp_solve.lps_per_call": "LPs/call",
                 "projection.polygons": "count", "trace.overhead_s": "s"}
SPAN_NAMES = tuple(dict.fromkeys([n for n, _, _ in FUNCTIONS] + [f"sets.{m}" for m in METHODS]))


class Tracer:
    """Spans as [name, start, end, parent index] plus per-span result sizes."""

    def __init__(self):
        self.spans: list = []
        self.sizes: dict = defaultdict(int)
        self._open: list = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "sets.interval_hull":
                mode = args[1] if len(args) > 1 else kwargs.get("mode", "exact")
                if mode != "exact":
                    return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append([name, perf_counter(), None, self._open[-1] if self._open else -1])
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[idx][2] = perf_counter()
            if name in SIZED:
                self.sizes[name] += len(result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        import hzreach.sets

        undo = []
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "hzreach"]
        for name, mod, attr in FUNCTIONS:
            original = getattr(sys.modules[mod], attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        undo.append((m, key, value))
                        setattr(m, key, wrapper)
        cls = hzreach.sets.HybridZonotope
        for meth in METHODS:
            original = cls.__dict__[meth]
            undo.append((cls, meth, original))
            setattr(cls, meth, self._wrap(f"sets.{meth}", original))
        try:
            yield self
        finally:
            for owner, key, value in reversed(undo):
                setattr(owner, key, value)


def unit(metric: str) -> str:
    if metric in DERIVED_UNITS:
        return DERIVED_UNITS[metric]
    return "count" if metric.endswith(".calls") else "s"


def summarize(spans: list, sizes: dict, rounds: int) -> dict:
    """Per-round per-layer figures: calls and self time per span name, plus
    leaves, polygons and LPs per enumeration or B&B query."""
    calls: dict = defaultdict(int)
    self_s: dict = defaultdict(float)
    child_s = [0.0] * len(spans)
    lps_under = {"lp.milp_solve": 0, "lp.enumerate_binary_leaves": 0}
    for name, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    for idx, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child_s[idx]
        if name == "lp.linprog":  # charge the LP to the query that made it
            while parent >= 0 and spans[parent][0] not in lps_under:
                parent = spans[parent][3]
            if parent >= 0:
                lps_under[spans[parent][0]] += 1
    out = {}
    for name in SPAN_NAMES:
        if name == "cli":
            out["cli.self.s"] = self_s[name] / rounds
        else:
            out[f"{name}.calls"] = calls[name] / rounds
            out[f"{name}.s"] = self_s[name] / rounds
    leaves = sizes.get("lp.enumerate_binary_leaves", 0)
    out["lp.enumerate_binary_leaves.leaves"] = leaves / rounds
    enum_lps = lps_under["lp.enumerate_binary_leaves"]
    out["lp.enumerate_binary_leaves.leaves_per_lp"] = leaves / enum_lps if enum_lps else 0.0
    milps = calls.get("lp.milp_solve", 0)
    out["lp.milp_solve.lps_per_call"] = lps_under["lp.milp_solve"] / milps if milps else 0.0
    out["projection.polygons"] = sizes.get("projection.emit_projection", 0) / rounds
    return out
