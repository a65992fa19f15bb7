"""Layer tracer: timing spans around calls into the program's modules.

Each target is a function looked up as a module attribute. The tracer
replaces that attribute with a wrapper while it is installed, so it must be
the attribute the caller actually looks up: a module that did
``from .metrics import tpe`` calls ``controller.tpe``, not ``metrics.tpe``.
A target the program no longer has is recorded as absent, never an error.

Spans (name, start, end, parent, op id) stay in memory until the run ends.
Hot leaf functions (called thousands of times per operation, with no traced
calls inside) are kept as one aggregate per parent span instead of one span
per call. Wrapped calls made outside an operation are not recorded.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter_ns

SPAN, LEAF, GENERATOR = "span", "leaf", "generator"


@dataclass(frozen=True)
class Target:
    module: str
    attr: str
    span: str
    kind: str = SPAN


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, op id]
        self.leaves: dict[tuple[int, str], list[int]] = {}  # (parent, name) -> [ns, calls]
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._op = None
        self._in_leaf = False
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for target in self.targets:
            module = importlib.import_module(target.module)
            original = getattr(module, target.attr, None)
            if not callable(original):
                self.absent.append(f"{target.module}.{target.attr}")
                continue
            self._saved.append((module, target.attr, original))
            setattr(module, target.attr, self._wrap(original, target.span, target.kind))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def op(self, op_id, name: str = "bench.op") -> "_OpSpan":
        """Context manager for one operation; its span is the root of the op."""
        return _OpSpan(self, op_id, name)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), None, parent, self._op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name: str, kind: str):
        tracer = self

        if kind == LEAF:

            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                if tracer._op is None or tracer._in_leaf:
                    return fn(*args, **kwargs)
                tracer._in_leaf = True
                start = perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter_ns() - start
                    tracer._in_leaf = False
                    entry = tracer.leaves.setdefault((tracer._stack[-1], name), [0, 0])
                    entry[0] += elapsed
                    entry[1] += 1

            return leaf

        def traced_steps(inner):
            while True:
                index = tracer._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._close(index)
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None or tracer._in_leaf:
                return fn(*args, **kwargs)
            if kind == GENERATOR:
                return traced_steps(fn(*args, **kwargs))
            index = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return wrapper

    def records(self) -> list[dict]:
        """Spans and leaf aggregates as plain dicts, in span order."""
        out = [
            {"i": i, "name": n, "start_ns": s, "end_ns": e, "parent": p, "op": op}
            for i, (n, s, e, p, op) in enumerate(self.spans)
        ]
        for (parent, name), (ns, calls) in sorted(self.leaves.items()):
            out.append(
                {"name": name, "parent": parent, "op": self.spans[parent][4],
                 "total_ns": ns, "calls": calls}
            )
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for record in self.records():
                handle.write(json.dumps(record) + "\n")


class _OpSpan:
    def __init__(self, tracer: Tracer, op_id, name: str):
        self.tracer, self.op_id, self.name = tracer, op_id, name

    def __enter__(self):
        self.tracer._op = self.op_id
        self.index = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.index)
        self.tracer._op = None

    @property
    def wall_ns(self) -> int:
        _, start, end, _, _ = self.tracer.spans[self.index]
        return end - start


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    covered, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def self_times(spans: list[list], leaves: dict[tuple[int, str], list[int]]) -> dict:
    """Self nanoseconds per (op id, name).

    A span's self time is its duration minus the part of its interval that
    its direct child spans cover, and minus the time of its leaf aggregates.
    A leaf's self time is its whole aggregated time.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    leaf_ns: dict[int, int] = defaultdict(int)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            children[parent].append((max(start, p_start), min(end, p_end)))
    totals: dict[tuple, int] = defaultdict(int)
    for (parent, name), (ns, _) in leaves.items():
        leaf_ns[parent] += ns
        totals[(spans[parent][4], name)] += ns
    for i, (name, start, end, _, op) in enumerate(spans):
        own = (end - start) - _union_ns(children[i]) - leaf_ns[i]
        totals[(op, name)] += own
    return dict(totals)


def call_counts(spans: list[list], leaves: dict[tuple[int, str], list[int]]) -> dict:
    """Calls per (op id, name); a generator span counts one call per item."""
    counts: dict[tuple, int] = defaultdict(int)
    for name, _, _, _, op in spans:
        counts[(op, name)] += 1
    for (parent, name), (_, calls) in leaves.items():
        counts[(spans[parent][4], name)] += calls
    return dict(counts)
