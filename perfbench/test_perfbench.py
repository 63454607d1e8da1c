"""Self-tests for the benchmark's own metric math and trace plumbing.

    python -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import statistics
from pathlib import Path

import pytest

import stats
import tracer
from run import END_TO_END, PER_LAYER
from workloads import table_rows

ROOT = Path(__file__).resolve().parent.parent


def span(span_id, parent, name, start, end, unit=None):
    return (span_id, parent, name, start, end, unit)


def test_median_and_percentile():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    values = [float(v) for v in range(1, 11)]  # 1..10
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 10.0
    assert stats.percentile(values, 90) == pytest.approx(9.1)
    assert stats.percentile([5.0], 90) == 5.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile(values, 101)


def test_tail_summary_reports_its_sample_count():
    summary = stats.tail_summary([0.1] * 9 + [1.0], 90)
    assert summary == {"p50": pytest.approx(0.1), "p90": pytest.approx(0.19), "n": 10}


def test_quartile_spread_is_relative_to_the_median():
    assert stats.quartile_spread([10.0] * 10) == 0.0
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / 3.0)


def test_fail_frac():
    assert stats.fail_frac(0, 5) == 0.0
    assert stats.fail_frac(2, 8) == 0.25
    with pytest.raises(ValueError):
        stats.fail_frac(0, 0)
    with pytest.raises(ValueError):
        stats.fail_frac(3, 2)


def test_self_time_subtracts_covered_child_time_once():
    parent = span("p", None, "cache.lookup", 0.0, 10.0)
    spans = [
        parent,
        span("a", "p", "cache.compute", 1.0, 4.0),
        span("b", "p", "cache.compute", 3.0, 6.0),  # overlaps a (parallel worker)
        span("c", "p", "x", 9.0, 12.0),  # runs past the parent's end
        span("d", "other", "x", 0.0, 10.0),  # not a child
    ]
    assert stats.self_time(parent, spans) == pytest.approx(10.0 - 5.0 - 1.0)
    assert stats.self_time(span("q", None, "n", 0.0, 2.0), spans) == 2.0


def test_total_self_time_sums_every_span_of_a_name():
    spans = [
        span("1", None, "cache.lookup", 0.0, 2.0),
        span("2", "1", "cache.compute", 0.5, 1.5),
        span("3", None, "cache.lookup", 5.0, 6.0),
    ]
    assert stats.total_self_time(spans, "cache.lookup") == pytest.approx(1.0 + 1.0)
    assert stats.total(spans, "cache.lookup") == pytest.approx(3.0)


def test_merge_adds_up_flushes_from_several_processes(tmp_path):
    records = {
        "trace-10.jsonl": [
            {"pid": 10, "spans": [span("10:1", None, "fleet.engine", 0, 9)], "counters": {"sim.frames": 5},
             "samples": {"net": 3}, "meta": {"fleet.workers": 2}},
        ],
        "trace-11.jsonl": [
            {"pid": 11, "spans": [span("11:1", "10:1", "fleet.unit", 1, 2, 0)], "counters": {"sim.frames": 7},
             "samples": {"net": 1, "sim": 4}, "meta": {}},
            {"pid": 11, "spans": [span("11:2", "10:1", "fleet.unit", 2, 4, 1)], "counters": {"sim.frames": 1},
             "samples": {"sim": 2}, "meta": {}},
        ],
    }
    for name, lines in records.items():
        (tmp_path / name).write_text("".join(json.dumps(line) + "\n" for line in lines))
    data = stats.merge_trace_files(tmp_path.glob("trace-*.jsonl"))
    assert data.counters["sim.frames"] == 13
    assert data.processes == {10, 11}
    assert data.meta == {"fleet.workers": 2}
    assert stats.durations(data.spans, "fleet.unit") == [1, 2]
    assert data.share("sim") == pytest.approx(6 / 10)
    assert data.share("core") == 0.0


def test_forked_worker_spans_merge_under_the_parents_span(tmp_path):
    session = tracer.Session(tmp_path, "/nowhere/")
    outer = session.open("fleet.engine")
    pid = os.fork()
    if pid == 0:  # the worker: record one unit, flush, leave
        try:
            session.after_fork()
            unit = session.open("fleet.unit", unit=3)
            session.counters["sim.frames"] += 4
            session.close(unit)  # outermost span closed: a worker flushes here
        finally:
            os._exit(0)
    os.waitpid(pid, 0)
    session.counters["sim.frames"] += 1
    session.close(outer)
    session.flush()
    data = stats.merge_trace_files(tmp_path.glob("trace-*.jsonl"))
    assert data.processes == {os.getpid(), pid}
    assert data.counters["sim.frames"] == 5
    (unit_span,) = [s for s in data.spans if s[stats.SPAN_NAME] == "fleet.unit"]
    assert unit_span[stats.SPAN_PARENT] == outer
    assert unit_span[stats.SPAN_UNIT] == 3


def test_nested_spans_of_one_name_are_timed_once(tmp_path):
    session = tracer.Session(tmp_path, "/nowhere/")
    outer = session.open("reports.render")
    assert session.open("reports.render") is None
    session.close(None)
    session.close(outer)
    assert [s[stats.SPAN_NAME] for s in session.spans] == ["reports.render"]


def test_layer_of():
    package = os.sep.join(["", "x", "src", "repro", ""])
    assert tracer.layer_of(package + os.sep.join(["net", "tcp.py"]), package) == "net"
    assert tracer.layer_of(package + "cli.py", package) == "cli"
    assert tracer.layer_of("/usr/lib/python3.11/ipaddress.py", package) == "ipaddress"
    assert tracer.layer_of("/usr/lib/python3.11/heapq.py", package) == "other"


def test_table_rows_reads_an_aligned_report_table():
    report = (
        "Fleet summary: 3/3 homes simulated\n"
        "==================================\n"
        "Config      Homes  Devices\n"
        "----------  -----  -------\n"
        "ipv6-only       1        4\n"
        "dual-stack      2       10\n"
        "Fleet totals: 1 line of prose\n"
    )
    assert table_rows(report, "Fleet summary:") == [["ipv6-only", "1", "4"], ["dual-stack", "2", "10"]]


def test_benchmark_json_lists_exactly_the_metrics_the_command_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
