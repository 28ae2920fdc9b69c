"""Span tracing from outside the package.

A Tracer records one span per call at each module boundary by replacing,
for the length of one operation, the names the calling module looks up
(``sepmatch.cli.read_wav``, ``sepmatch.metrics.solve_hungarian`` ...) with
timing wrappers. The untraced operation runs the very same code with the
original names in place. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable

import sepmatch.assignment
import sepmatch.cli
import sepmatch.metrics


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the enclosing span in Tracer.spans, -1 at an op's root
    op_id: int
    info: dict = field(default_factory=dict)  # exact counts measured at this boundary


def _file_bytes(args, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _pairs(args, result) -> dict:
    return {"pairs": result.size**2}


def _solve(args, result) -> dict:
    return {"size": int(result.permutation.size), "rounds": int(result.iterations)}


# (module, attribute the module looks up, span name, counter or None).
# Counters run after the op has finished, outside every span.
BOUNDARIES: tuple[tuple[object, str, str, Callable | None], ...] = (
    (sepmatch.cli, "main", "cli.main", None),
    (sepmatch.cli, "read_wav", "wavio.read_wav", _file_bytes),
    (sepmatch.cli, "write_wav", "wavio.write_wav", _file_bytes),
    (sepmatch.cli, "truncate_to_min", "mixtures.truncate_to_min", None),
    (sepmatch.cli, "generate_sources", "mixtures.generate_sources", None),
    (sepmatch.cli, "mix", "mixtures.mix", None),
    (sepmatch.cli, "SeparationInstance", "metrics.SeparationInstance", None),
    (sepmatch.cli, "hungarian_loss", "metrics.hungarian_loss", None),
    (sepmatch.cli, "si_sdr_improvement", "metrics.si_sdr_improvement", None),
    (sepmatch.cli, "load_matrix", "assignment.load_matrix", _file_bytes),
    (sepmatch.cli, "solve_hungarian", "assignment.solve_hungarian", _solve),
    (sepmatch.metrics, "pairwise_cost_matrix", "metrics.pairwise_cost_matrix", _pairs),
    (sepmatch.metrics, "solve_hungarian", "assignment.solve_hungarian", _solve),
    (sepmatch.assignment, "solve_batch", "assignment.solve_batch", None),
    (sepmatch.assignment, "solve_sinkhorn", "assignment.solve_sinkhorn", None),
    (sepmatch.assignment, "solve_hungarian", "assignment.solve_hungarian", _solve),
)


class Tracer:
    """Collects spans and their counts, one operation at a time."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._pending: list[tuple[Span, Callable, tuple, object]] = []
        self._op_id = -1

    def _wrap(self, fn: Callable, name: str, counter: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            span = Span(name, 0, 0, self._stack[-1] if self._stack else -1, self._op_id)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                self._stack.pop()
            if counter is not None:
                self._pending.append((span, counter, args, result))
            return result

        return traced

    @contextmanager
    def op(self, op_id: int):
        """Trace one operation: patch every boundary, then restore and count."""
        self._op_id = op_id
        saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in BOUNDARIES]
        for (module, attr, original), (_, _, name, counter) in zip(saved, BOUNDARIES):
            setattr(module, attr, self._wrap(original, name, counter))
        try:
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)
            for span, counter, args, result in self._pending:
                span.info.update(counter(args, result))
            self._pending.clear()

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0, span.start_ns
        for child in sorted(children[index], key=lambda s: s.start_ns):
            start, end = max(child.start_ns, reach), min(child.end_ns, span.end_ns)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end_ns - span.start_ns - covered)
    return out


def op_totals(spans: list[Span]) -> dict[int, dict[str, list[int]]]:
    """Per op, per span name: [inclusive ns, self ns, calls]."""
    totals: dict[int, dict[str, list[int]]] = defaultdict(lambda: defaultdict(lambda: [0, 0, 0]))
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span.op_id][span.name]
        entry[0] += span.end_ns - span.start_ns
        entry[1] += own
        entry[2] += 1
    return totals


def exact_counts(spans: list[Span]) -> dict[str, int]:
    """Calls and every counted quantity, summed per span name (and size)."""
    counts: dict[str, int] = defaultdict(int)
    for span in spans:
        suffix = f".c{span.info['size']}" if "size" in span.info else ""
        counts[f"{span.name}.calls{suffix}"] += 1
        for key, value in span.info.items():
            if key != "size":
                counts[f"{span.name}.{key}{suffix}"] += value
    return dict(counts)
