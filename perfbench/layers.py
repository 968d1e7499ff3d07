"""The traced run: spans around each layer's public entry points.

``instrument(log)`` replaces the entry points listed in ``TARGETS`` with
wrappers that record one span per call -- name, start, end, parent span
and the benchmark's query id -- and puts the originals back on exit.
Nothing under ``src/`` records these spans; they are taken from outside,
at the attribute each caller looks the entry point up through.

A span opened on a worker thread with no open span of its own takes the
innermost span open on the main thread as its parent: the morsel pool
runs ``SpanRunner.run_span_safe`` while the main thread waits inside
``MorselExecutor.run``.

Self time is a span's duration minus the part of it its children cover
(the union of their intervals, so parallel children count once).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# (layer, module, attribute).  A dotted attribute is a method on a class.
# ``evaluate`` is wrapped only where the executors look it up, so its
# own recursion into sub-expressions is not split into spans.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("dbgen.generate", "repro.tpch", "generate"),
    ("storage.save", "repro.storage.io", "save_catalog"),
    ("storage.load", "repro.storage.io", "load_catalog"),
    ("plan.build", "repro.tpch", "query"),
    ("executor.execute", "repro.engine.executor", "Engine.execute"),
    ("executor.execute", "repro.engine.executor", "Engine.execute_relation"),
    ("expr.evaluate", "repro.engine.executor", "evaluate"),
    ("expr.evaluate", "repro.engine.morsel", "evaluate"),
    ("operators.join", "repro.engine.executor", "inner_join_indices"),
    ("operators.join", "repro.engine.executor", "semi_join_mask"),
    ("operators.join", "repro.core.simulator", "inner_join_indices"),
    ("operators.join", "repro.core.simulator", "semi_join_mask"),
    ("operators.group", "repro.engine.executor", "group_rows"),
    ("operators.group", "repro.engine.morsel", "group_rows"),
    ("operators.sort", "repro.engine.executor", "multi_key_order"),
    ("operators.sort", "repro.engine.morsel", "multi_key_order"),
    ("morsel.run", "repro.engine.morsel", "MorselExecutor.run"),
    ("morsel.span", "repro.engine.morsel", "SpanRunner.run_span_safe"),
    ("compiler.compile", "repro.core.compiler", "QueryCompiler.compile"),
    ("simulator.run", "repro.core.simulator", "AquomanSimulator.run"),
    ("simulator.device", "repro.core.simulator", "DeviceExecutor.run"),
    ("device.charge", "repro.core.device", "AquomanDevice.charge_column_read"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS))


class SpanLog:
    """In-memory span records: (id, parent, name, start_ns, end_ns, query)."""

    def __init__(self):
        self.records: list[tuple[int, int, str, int, int, str]] = []
        self.query = ""
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._stacks: dict[int, list[int]] = defaultdict(list)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            me = threading.get_ident()
            stack = self._stacks[me]
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks[self._main]
                parent = main[-1] if me != self._main and main else 0
            sid = next(self._ids)
            query = self.query
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.records.append((sid, parent, name, start, end, query))

        return traced


def _resolve(module_name: str, attribute: str):
    owner = importlib.import_module(module_name)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


@contextmanager
def instrument(log: SpanLog):
    """Wrap every entry point in ``TARGETS`` for the ``with`` block."""
    saved = []
    try:
        for layer, module_name, attribute in TARGETS:
            owner, leaf = _resolve(module_name, attribute)
            original = owner.__dict__[leaf]
            saved.append((owner, leaf, original))
            setattr(owner, leaf, log.wrap(layer, original))
        yield log
    finally:
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)


def _covered_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(records) -> list[int]:
    """Self time (ns) of each record, in record order."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _sid, parent, _name, start, end, _q in records:
        if parent:
            children[parent].append((start, end))
    return [
        (end - start) - _covered_ns(children.get(sid, []), start, end)
        for sid, _parent, _name, start, end, _q in records
    ]


def covered_ns(records, windows: list[tuple[str, int, int]]) -> int:
    """Time inside the query windows covered by top-level spans."""
    tops: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for _sid, parent, _name, start, end, query in records:
        if not parent:
            tops[query].append((start, end))
    return sum(
        _covered_ns(tops.get(query, []), lo, hi) for query, lo, hi in windows
    )


def layer_table(records) -> dict[str, dict[str, float]]:
    """Per layer: calls, inclusive seconds and self seconds."""
    table = {
        layer: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for layer in LAYERS
    }
    for record, self_ns in zip(records, self_times(records)):
        row = table[record[2]]
        row["calls"] += 1
        row["incl_s"] += (record[4] - record[3]) / 1e9
        row["self_s"] += self_ns / 1e9
    return table
