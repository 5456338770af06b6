"""Spans around calls into dualris, recorded from outside the package.

Each traced function is replaced at the attribute its caller looks up: modules
that import a name directly (``from .geometry import link_geometry``) are
patched at that import site. ``ExactObjective.__init__`` is wrapped in place so
the class, and isinstance checks against it, stay unchanged. Spans and counts
are kept in memory and written out when the run ends. The code under test is
single-threaded and takes no locks, so a span has no waiting time to record.
"""
from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass, field
from typing import Callable

from dualris.qubo import ExactObjective

SOLVER_SPANS = ("solvers.bcd", "solvers.anneal", "solvers.tabu", "solvers.brute_force")


@dataclass
class Span:
    id: int
    name: str
    start: float
    op: object
    parent: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _solver_attrs(span: Span, args, kwargs, result) -> None:
    obj = args[0]
    span.attrs["evals"] = result.evaluations
    if isinstance(obj, ExactObjective):
        span.attrs["n"] = obj.n
        # kept until the pass ends, when the oracle scores it; never serialized
        span.attrs["_objective"] = obj
        span.attrs["value"] = result.best_value
    else:
        span.attrs["quadratic"] = True


def _security_attrs(span: Span, args, kwargs, result) -> None:
    # a fallback replaces the winner by the best feasible state it kept
    span.attrs["fallback"] = int(result.best_bits is result.best_feasible_bits)


# (module, attribute, span name, hook after return)
SITES: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("dualris.experiments", "link_geometry", "geometry.link_geometry", None),
    ("dualris.experiments", "optical_direct_gain", "channels.direct_gain", None),
    ("dualris.experiments", "rf_direct_gain", "channels.direct_gain", None),
    ("dualris.experiments", "cascade_gains", "ris.cascade_gains", None),
    ("dualris.experiments", "link_metrics", "metrics.link_metrics", None),
    ("dualris.qubo", "link_metrics", "metrics.link_metrics", None),
    ("dualris.qubo.ExactObjective", "__init__", "qubo.objective_init", None),
    ("dualris.qubo", "build_qubo", "qubo.build_qubo",
     lambda s, a, k, r: s.attrs.update(n=r.n_elements, pairs=len(r.pair_w))),
    ("dualris.qubo", "export_qubo", "qubo.export_qubo",
     lambda s, a, k, r: s.attrs.update(bytes=os.path.getsize(a[1]))),
    ("dualris.qubo", "load_qubo", "qubo.load_qubo",
     lambda s, a, k, r: s.attrs.update(bytes=os.path.getsize(a[0]))),
    ("dualris.solvers", "block_coordinate_descent", "solvers.bcd", _solver_attrs),
    ("dualris.solvers", "simulated_annealing", "solvers.anneal", _solver_attrs),
    ("dualris.solvers", "tabu_search", "solvers.tabu", _solver_attrs),
    ("dualris.solvers", "brute_force", "solvers.brute_force",
     lambda s, a, k, r: s.attrs.update(evals=r.evaluations)),
    ("dualris.solvers", "enforce_security", "solvers.enforce_security", _security_attrs),
    ("dualris.experiments", "enforce_security", "solvers.enforce_security",
     _security_attrs),
    ("dualris.experiments", "calibrate", "experiments.calibrate", None),
    ("dualris.cli", "calibrate", "experiments.calibrate", None),
    ("dualris.experiments", "build_channel_state", "experiments.build_channel_state",
     None),
    ("dualris.experiments", "sweep_elevation", "experiments.sweep_elevation", None),
    ("dualris.experiments", "phase_histogram", "experiments.phase_histogram", None),
    ("dualris.cli", "write_sweep_csv", "cli.write_csv",
     lambda s, a, k, r: s.attrs.update(bytes=os.path.getsize(a[0]))),
    ("dualris.cli", "write_histogram_csv", "cli.write_csv",
     lambda s, a, k, r: s.attrs.update(bytes=os.path.getsize(a[0]))),
)


def _resolve(target: str):
    """Module or class named by a dotted path."""
    try:
        return importlib.import_module(target)
    except ImportError:
        module, _, attr = target.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Installs span-recording wrappers and holds the spans they record."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: object = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(len(spans), name, 0.0, self.op, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span.id)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, sites=SITES) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for target, attr, name, hook in sites:
            try:
                owner = _resolve(target)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{target}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, hook))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the durations of its direct children.

    Children of one span never overlap because the traced code runs on one
    thread, so their durations add up to the part of the parent they cover.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - child_time.get(s.id, 0.0) for s in spans}


def nearest(spans_by_id: dict[int, Span], span: Span, names: tuple[str, ...]) -> Span | None:
    """Closest ancestor of span whose name is in names."""
    pid = span.parent
    while pid is not None:
        parent = spans_by_id[pid]
        if parent.name in names:
            return parent
        pid = parent.parent
    return None


def serializable(spans: list[Span]) -> list[dict]:
    return [{"id": s.id, "name": s.name, "op": s.op, "parent": s.parent,
             "start": s.start, "end": s.end,
             **{k: v for k, v in s.attrs.items() if not k.startswith("_")}}
            for s in spans]
