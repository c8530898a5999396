"""Spans and counts for the traced run, recorded from outside the package.

The tracer wraps module-level names: the public entry points the benchmark
calls, and the names through which the layers call each other
(`fuzzylos.pipeline.classify`, `fuzzylos.regions.infer`, ...).  A span is
(id, parent id, name, start, end, busy, outcome); busy is end - start except
for generators, where it is the time spent inside the generator only.
Spans stay in memory, in flat arrays, until `write` at the end of the run.

A wrapped name that no longer exists is skipped, and one that is no longer
called simply records nothing, so the same benchmark runs across refactors.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import itertools
import math
from array import array
from time import perf_counter

# (module, attribute, span name, how to wrap).  "call" records a span,
# "generator" a span of the time spent inside the generator, "count" only
# counts calls (it sits under every rule of every inference, so a span there
# would cost more than the call).
WRAPPED = (
    ("fuzzylos.pipeline", "label_csv", "pipeline.label_csv", "call"),
    ("fuzzylos.pipeline", "ingest", "pipeline.ingest", "call"),
    ("fuzzylos.pipeline", "evaluate", "pipeline.evaluate", "call"),
    ("fuzzylos.pipeline", "export_surface", "pipeline.export_surface", "call"),
    ("fuzzylos.pipeline", "surface_grid", "pipeline.surface_grid", "generator"),
    ("fuzzylos.pipeline", "classify", "regions.classify", "call"),
    ("fuzzylos.pipeline", "oracle_label", "regions.oracle_label", "call"),
    ("fuzzylos.pipeline", "infer", "engine.infer", "call"),
    ("fuzzylos.regions", "infer", "engine.infer", "call"),
    ("fuzzylos.rulegen", "generate_rules", "rulegen.generate_rules", "call"),
    ("fuzzylos.rulegen", "oracle_label", "regions.oracle_label", "call"),
    ("fuzzylos.dsl", "serialize", "dsl.serialize", "call"),
    ("fuzzylos.dsl", "parse_fis", "dsl.parse_fis", "call"),
    ("fuzzylos.engine", "firing_strength", "engine.firing_strength", "count"),
)


def _outcome(name: str, result) -> int:
    """A small integer a span keeps about its result: rules fired for an
    inference, 1 for a labeled oracle answer, 1 for a boundary classification."""
    if name == "engine.infer":
        return getattr(result, "fired_rule_count", -1)
    if name == "regions.oracle_label":
        return result is not None
    if name == "regions.classify":
        return bool(getattr(result, "boundary", False))
    return 0


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids = array("q")
        self.parents = array("q")
        self.codes = array("h")
        self.starts = array("d")
        self.ends = array("d")
        self.busy = array("d")
        self.outcomes = array("h")
        self.counts: dict[str, int] = {}
        self.skipped: list[str] = []
        self._stack = [0]
        self._next_id = itertools.count(1).__next__

    def _code(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _record(self, span_id, parent, code, start, end, busy, outcome) -> None:
        self.ids.append(span_id)
        self.parents.append(parent)
        self.codes.append(code)
        self.starts.append(start)
        self.ends.append(end)
        self.busy.append(busy)
        self.outcomes.append(outcome)

    def _wrap_call(self, name: str, fn):
        code, stack, next_id, record = self._code(name), self._stack, self._next_id, self._record

        def traced(*args, **kwargs):
            span_id, parent = next_id(), stack[-1]
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter()
                stack.pop()
                record(span_id, parent, code, start, end, end - start, -1)
                raise
            end = perf_counter()
            stack.pop()
            record(span_id, parent, code, start, end, end - start, _outcome(name, result))
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        code, stack, next_id, record = self._code(name), self._stack, self._next_id, self._record

        def traced(*args, **kwargs):
            span_id, parent = next_id(), stack[-1]
            stack.append(span_id)
            first = perf_counter()
            try:
                iterator = iter(fn(*args, **kwargs))
            finally:
                last = perf_counter()
                stack.pop()
            busy = last - first
            try:
                while True:
                    stack.append(span_id)
                    start = perf_counter()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        last = perf_counter()
                        stack.pop()
                        busy += last - start
                    yield item
            finally:
                record(span_id, parent, code, first, last, busy, 0)

        return traced

    def _wrap_count(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Wrap every name in WRAPPED for the duration of the block."""
        wrap = {"call": self._wrap_call, "generator": self._wrap_generator, "count": self._wrap_count}
        restore = []
        try:
            for module_name, attr, name, kind in WRAPPED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if not callable(original):
                    self.skipped.append(f"{module_name}.{attr}")
                    continue
                restore.append((module, attr, original))
                setattr(module, attr, wrap[kind](name, original))
            yield self
        finally:
            for module, attr, original in reversed(restore):
                setattr(module, attr, original)

    def __len__(self) -> int:
        return len(self.ids)

    def write(self, path) -> None:
        """Write the spans as gzip-compressed CSV (a genrules run holds about
        a million of them)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("id,parent,name,start,end,busy,outcome\n")
            for row in zip(self.ids, self.parents, self.codes, self.starts, self.ends, self.busy, self.outcomes):
                handle.write("%d,%d,%s,%.9f,%.9f,%.9f,%d\n" % (row[0], row[1], self.names[row[2]], *row[3:]))


class SpanStats:
    """Aggregates over a tracer's spans, by name and by (parent name, name)."""

    def __init__(self, tracer: Tracer) -> None:
        names = tracer.names
        code_of = array("h", [-1]) * (max(tracer.ids, default=0) + 1)
        for span_id, code in zip(tracer.ids, tracer.codes):
            code_of[span_id] = code
        self.durations: dict[str, array] = {name: array("d") for name in names}
        # (parent name, name) -> [busy total, calls, outcome total]; "" is no parent
        self.under: dict[tuple[str, str], list] = {}
        for parent, code, busy, outcome in zip(tracer.parents, tracer.codes, tracer.busy, tracer.outcomes):
            name = names[code]
            self.durations[name].append(busy)
            parent_code = code_of[parent] if parent else -1
            entry = self.under.setdefault((names[parent_code] if parent_code >= 0 else "", name), [0.0, 0, 0])
            entry[0] += busy
            entry[1] += 1
            entry[2] += outcome

    def _sum(self, name: str, field: int):
        return sum(entry[field] for (_, child), entry in self.under.items() if child == name)

    def calls(self, name: str) -> int:
        return self._sum(name, 1)

    def total(self, name: str) -> float:
        return self._sum(name, 0)

    def outcome_total(self, name: str) -> int:
        return self._sum(name, 2)

    def child_total(self, parent: str, *children: str) -> float:
        return sum(self.under.get((parent, child), (0.0,))[0] for child in children)

    def child_calls(self, parent: str, child: str) -> int:
        return self.under.get((parent, child), (0.0, 0))[1]

    def child_outcomes(self, parent: str, child: str) -> int:
        return self.under.get((parent, child), (0.0, 0, 0))[2]

    def self_total(self, name: str, *children: str) -> float:
        return self.total(name) - self.child_total(name, *children)

    def percentile(self, name: str, q: float) -> float:
        return percentile(self.durations.get(name, ()), q)


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile; 0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]
