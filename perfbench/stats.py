"""The benchmark's metric math, kept free of I/O so it can be self-tested.

Spans are plain tuples ``(id, parent, name, start, end, unit)`` with times
from the system-wide monotonic clock, so spans recorded by forked worker
processes line up with the parent's on one time axis.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import Counter
from pathlib import Path
from typing import Iterable, Sequence

SPAN_ID, SPAN_PARENT, SPAN_NAME, SPAN_START, SPAN_END, SPAN_UNIT = range(6)


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be within 0..100, got {q}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_summary(values: Sequence[float], q: float = 90) -> dict:
    """Median, the ``q``-th percentile and the sample count behind them."""
    return {"p50": percentile(values, 50), f"p{q:g}": percentile(values, q), "n": len(values)}


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else math.inf


def fail_frac(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("fail_frac needs at least one attempted unit")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..attempted={attempted}")
    return failed / attempted


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_time(span: tuple, spans: Iterable[tuple]) -> float:
    """A span's duration minus the part of it its child spans cover.

    Children recorded in other processes may overlap each other (parallel
    workers); they are merged before subtracting, so the result is never
    negative.
    """
    children = (
        (child[SPAN_START], child[SPAN_END]) for child in spans if child[SPAN_PARENT] == span[SPAN_ID]
    )
    duration = span[SPAN_END] - span[SPAN_START]
    return duration - covered(children, span[SPAN_START], span[SPAN_END])


def total_self_time(spans: Sequence[tuple], name: str) -> float:
    """Summed self time of every span called ``name``."""
    children: dict = {}
    for span in spans:
        children.setdefault(span[SPAN_PARENT], []).append(span)
    return sum(
        self_time(span, children.get(span[SPAN_ID], ())) for span in spans if span[SPAN_NAME] == name
    )


def durations(spans: Iterable[tuple], name: str) -> list[float]:
    return [span[SPAN_END] - span[SPAN_START] for span in spans if span[SPAN_NAME] == name]


def total(spans: Iterable[tuple], name: str) -> float:
    return sum(durations(spans, name))


class TraceData:
    """Spans, counters and profile samples merged from every traced process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.samples: Counter = Counter()
        self.meta: dict = {}
        self.processes: set[int] = set()

    def add_record(self, record: dict) -> None:
        self.spans.extend(tuple(span) for span in record.get("spans", ()))
        self.counters.update(record.get("counters", {}))
        self.samples.update(record.get("samples", {}))
        self.meta.update(record.get("meta", {}))
        self.processes.add(record["pid"])

    def share(self, layer: str) -> float:
        """Fraction of all profile samples whose innermost frame is ``layer``."""
        everything = sum(self.samples.values())
        return self.samples.get(layer, 0) / everything if everything else 0.0


def merge_trace_files(paths: Iterable[Path]) -> TraceData:
    """Merge per-process JSON-lines trace files into one :class:`TraceData`.

    Each line is one flush of one process: the spans closed since the
    previous flush plus counter and sample deltas, so lines add up.
    """
    data = TraceData()
    for path in sorted(paths):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    data.add_record(json.loads(line))
    return data

