"""Span recording around calls into storage_pricer, attached from outside.

``hooks(recorder)`` replaces public module-level names of the package's
modules with timing wrappers and puts the originals back on exit.  Because
the package's modules look those names up in their own globals at call
time, the traced run calls exactly the same functions as the untraced run.
The ``solve_convex`` wrapper also wraps the program's value/grad/hess
callbacks (the expected-cost kernel) in a copy of the program before
delegating.

Spans record their thread and parent.  A span opened on a pool thread has no
parent in its own context; it is given the innermost span of the caller
thread that encloses it, which is the call that is waiting for the pool.
Self time is a span's duration minus the part of it that its children cover.

A hook that cannot attach is listed in ``recorder.missing``; the metrics that
need it are left out instead of failing the run.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import itertools
import threading
from contextlib import contextmanager
from time import perf_counter

from storage_pricer import baseline, dispatch, scenarios, theory

MODULES = {"baseline": baseline, "dispatch": dispatch, "scenarios": scenarios, "theory": theory}

# (module, public name, span name).  ``solver.solve`` hooks also time the
# program callbacks as ``costs.kernel``.
HOOKS = (
    ("dispatch", "solve_dispatch", "dispatch.solve"),
    ("baseline", "solve_dispatch", "dispatch.solve"),
    ("dispatch", "build_dispatch", "dispatch.build"),
    ("dispatch", "check_expected_cost_convexity", "costs.gate"),
    ("dispatch", "solve_convex", "solver.solve"),
    ("baseline", "solve_convex", "solver.solve"),
    ("dispatch", "check_complementarity", "dispatch.audit"),
    ("dispatch", "verify_equilibrium", "dispatch.audit"),
    ("theory", "verify_price_coupling", "theory.coupling"),
    ("baseline", "compare_mechanisms", "baseline.compare"),
    ("baseline", "simulate_price_scenarios", "baseline.price_scenarios"),
    ("baseline", "dp_value_function", "baseline.dp"),
    ("baseline", "bids_from_value", "baseline.bids"),
    ("baseline", "clear_with_bids", "baseline.clearing"),
    ("baseline", "sample_net_load", "scenarios.sample"),
    ("scenarios", "synth_test_system", "scenarios.synth"),
)
KERNEL_CALLBACKS = ("value", "grad", "hess")


@dataclasses.dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = dataclasses.field(default_factory=dict)


class Recorder:
    """Keeps spans in memory while ``enabled``; the wrappers are inert otherwise."""

    def __init__(self):
        self.enabled = False
        self.spans = []
        self.missing = {}
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name):
        s = Span(next(self._ids), self._current.get(), name, threading.get_ident(), perf_counter())
        token = self._current.set(s.id)
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._current.reset(token)
            with self._lock:
                self.spans.append(s)

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def wrap_solver(self, fn):
        @functools.wraps(fn)
        def traced(program, *args, **kwargs):
            if not self.enabled:
                return fn(program, *args, **kwargs)
            try:
                program = dataclasses.replace(program, **{
                    cb: self.wrap(getattr(program, cb), "costs.kernel") for cb in KERNEL_CALLBACKS})
            except (TypeError, AttributeError) as exc:
                self.missing["costs.kernel"] = f"cannot wrap program callbacks: {exc}"
            with self.span("solver.solve") as s:
                result = fn(program, *args, **kwargs)
            try:
                p, m = program.A.shape[0], program.G.shape[0]
                s.attrs = {"kkt_dim": program.n + p, "m": m, "iterations": int(result.iterations)}
            except (AttributeError, IndexError, TypeError) as exc:
                self.missing["solver.sizes"] = f"cannot read program sizes: {exc}"
            return result
        return traced


@contextmanager
def hooks(recorder):
    """Install every hook that can attach; restore the original names on exit."""
    installed = []
    try:
        for module_name, attr, span_name in HOOKS:
            module = MODULES[module_name]
            fn = getattr(module, attr, None)
            if not callable(fn):
                recorder.missing[span_name] = f"{module_name}.{attr} not found"
                continue
            wrapped = recorder.wrap_solver(fn) if span_name == "solver.solve" else recorder.wrap(fn, span_name)
            setattr(module, attr, wrapped)
            installed.append((module, attr, fn))
        yield recorder
    finally:
        for module, attr, fn in reversed(installed):
            setattr(module, attr, fn)


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


class SpanTree:
    """Parent links (pool threads attached to their waiting caller) and the
    sums the per-layer metrics are made of."""

    def __init__(self, spans, caller_thread):
        self.spans = spans
        by_id = {s.id: s for s in spans}
        callers = [s for s in spans if s.thread == caller_thread]
        for s in spans:
            if s.parent is None and s.thread != caller_thread:
                enclosing = [c for c in callers if c.start <= s.start and s.end <= c.end]
                if enclosing:
                    s.parent = max(enclosing, key=lambda c: c.start).id
        self.parent = {s.id: by_id.get(s.parent) for s in spans}
        self.children = {s.id: [] for s in spans}
        for s in spans:
            if self.parent[s.id] is not None:
                self.children[s.parent].append(s)

    def _ancestors(self, s):
        p = self.parent[s.id]
        while p is not None:
            yield p
            p = self.parent[p.id]

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def within(self, name, ancestor):
        return [s for s in self.named(name) if any(a.name == ancestor for a in self._ancestors(s))]

    def total(self, name):
        return sum(s.end - s.start for s in self.named(name))

    def count(self, name):
        return len(self.named(name))

    def self_time(self, name):
        return sum(s.end - s.start - _covered([(c.start, c.end) for c in self.children[s.id]],
                                              s.start, s.end)
                   for s in self.named(name))


def _largest(tree, attr):
    return max((s.attrs[attr] for s in tree.named("solver.solve")), default=0)


# name -> (unit, span names it needs, function of (tree, operations))
LAYER_METRICS = {
    "costs.gate_s": ("s", ("costs.gate",), lambda t, n: t.total("costs.gate") / n),
    "costs.gate_calls": ("count", ("costs.gate",), lambda t, n: t.count("costs.gate") / n),
    "costs.kernel_s": ("s", ("costs.kernel", "solver.solve"), lambda t, n: t.total("costs.kernel") / n),
    "costs.kernel_calls": ("count", ("costs.kernel", "solver.solve"),
                           lambda t, n: t.count("costs.kernel") / n),
    "solver.self_s": ("s", ("solver.solve", "costs.kernel"), lambda t, n: t.self_time("solver.solve") / n),
    "solver.iterations": ("count", ("solver.solve", "solver.sizes"),
                          lambda t, n: sum(s.attrs["iterations"] for s in t.named("solver.solve")) / n),
    "solver.kkt_dim": ("count", ("solver.solve", "solver.sizes"), lambda t, n: _largest(t, "kkt_dim")),
    "solver.m": ("count", ("solver.solve", "solver.sizes"), lambda t, n: _largest(t, "m")),
    "solver.kkt_bytes_computed": ("bytes", ("solver.solve", "solver.sizes"),
                                  lambda t, n: 8 * _largest(t, "kkt_dim") ** 2),
    "dispatch.assemble_s": ("s", ("dispatch.build", "costs.gate"),
                            lambda t, n: t.self_time("dispatch.build") / n),
    "dispatch.audit_s": ("s", ("dispatch.audit",), lambda t, n: t.total("dispatch.audit") / n),
    "theory.coupling_s": ("s", ("theory.coupling",), lambda t, n: t.total("theory.coupling") / n),
    "baseline.price_scenarios_s": ("s", ("baseline.price_scenarios",),
                                   lambda t, n: t.total("baseline.price_scenarios") / n),
    "baseline.price_solves": ("count", ("baseline.price_scenarios", "dispatch.solve"),
                              lambda t, n: len(t.within("dispatch.solve", "baseline.price_scenarios")) / n),
    "baseline.dp_s": ("s", ("baseline.dp",), lambda t, n: t.total("baseline.dp") / n),
    "baseline.bids_s": ("s", ("baseline.bids",), lambda t, n: t.total("baseline.bids") / n),
    "baseline.clearing_s": ("s", ("baseline.clearing",), lambda t, n: t.total("baseline.clearing") / n),
    "baseline.compare_self_s": ("s", ("baseline.compare", "baseline.price_scenarios", "baseline.dp",
                                      "baseline.bids", "baseline.clearing", "dispatch.solve",
                                      "scenarios.sample"),
                                lambda t, n: t.self_time("baseline.compare") / n),
    "scenarios.sample_s": ("s", ("scenarios.sample",), lambda t, n: t.total("scenarios.sample") / n),
}


def layer_metrics(recorder, operations, caller_thread):
    """Per-operation layer metrics from the spans of ``operations`` traced operations."""
    tree = SpanTree(recorder.spans, caller_thread)
    out = {}
    for name, (unit, needs, fn) in LAYER_METRICS.items():
        if not any(need in recorder.missing for need in needs):
            out[name] = {"value": float(fn(tree, operations)), "unit": unit}
    return out
