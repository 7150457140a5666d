"""Spans around pbsolve's public entry points, installed from outside the package.

While installed, every call of a wrapped function records one span: its
name, start, end and the span that was open when it began (its parent).
Spans stay in compact arrays in memory; :meth:`Tracer.summary` turns them into
total time, self time (the span minus the time its child spans cover) and
call counts per name, and :meth:`Tracer.write` saves them when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

CORE_RULES = ("cancel", "weaken", "partial_weaken", "saturate", "divide", "multiply")


def entry_points():
    """(owner, attribute, span name) for every wrapped call.

    Module functions are wrapped where their callers look them up:
    ``pbsolve.solver`` imports ``resolve_step`` by name, so the solver's
    binding is the one replaced; the analysis and trace modules reach the
    rules through the ``core`` module attribute.
    """
    from pbsolve import core, opb, propagation, solver, trace

    return [
        (opb, "parse_opb", "opb.parse"),
        (solver.Solver, "__init__", "solver.init"),
        (solver.Solver, "solve", "solver.solve"),
        (solver.Solver, "analyze_conflict", "solver.analyze"),
        (solver.Solver, "decide_literal", "solver.decide"),
        (solver.Solver, "reduce_db", "solver.reduce_db"),
        (propagation.PropagationEngine, "propagate_all", "propagation.propagate"),
        (propagation.PropagationEngine, "backjump_to", "propagation.backjump"),
        (propagation.PropagationEngine, "add_constraint", "propagation.add_constraint"),
        (solver, "resolve_step", "analysis.resolve"),
        *[(core, rule, f"core.{rule}") for rule in CORE_RULES],
        (trace.DerivationTrace, "record", "trace.record"),
        (trace.DerivationTrace, "write", "trace.write"),
        (trace.DerivationTrace, "read", "trace.read"),
        (trace, "verify_trace", "trace.verify"),
    ]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("H")
        self._parent = array("q")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(i)
            starts[i] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` (the benchmark's own spans)."""
        return self._wrap(fn, name)(*args, **kwargs)

    @contextmanager
    def installed(self, points):
        """Replace each entry point by its traced wrapper; restore on exit."""
        saved = []
        try:
            for owner, attr, name in points:
                static = inspect.getattr_static(owner, attr)
                saved.append((owner, attr, static))
                if isinstance(static, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(static.__func__, name)))
                else:
                    setattr(owner, attr, self._wrap(static, name))
            yield self
        finally:
            for owner, attr, static in reversed(saved):
                setattr(owner, attr, static)

    def arrays(self):
        name = np.array(self._name, dtype=np.int64)
        parent = np.array(self._parent, dtype=np.int64)
        start = np.array(self._start, dtype=np.int64)
        end = np.array(self._end, dtype=np.int64)
        return name, parent, start, end

    def summary(self, exclude_under: str | None = None) -> dict[str, tuple[float, float, int]]:
        """name -> (total seconds, self seconds, calls).

        Spans whose direct parent is named ``exclude_under`` are left out of
        every name but that parent's own total.
        """
        name, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.zeros(len(dur), dtype=np.int64)
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        keep = np.ones(len(dur), dtype=bool)
        if exclude_under in self._ids:
            under = np.zeros(len(dur), dtype=bool)
            under[has_parent] = name[parent[has_parent]] == self._ids[exclude_under]
            keep = ~under
        k = len(self.names)
        total = np.bincount(name[keep], weights=dur[keep], minlength=k)
        selft = np.bincount(name[keep], weights=own[keep], minlength=k)
        calls = np.bincount(name[keep], minlength=k)
        return {
            n: (float(total[i]) * 1e-9, float(selft[i]) * 1e-9, int(calls[i]))
            for i, n in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Save every span: names, and per span name id, parent index, start, end (ns)."""
        name, parent, start, end = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name=name, parent=parent, start=start, end=end)
