"""The repo benchmark: run a workload of the real ``repro`` CLI and print
its metrics.

    python3 perfbench/run.py --workload {study,fleet,faults,all} --seed N \\
        [--seconds S] [--trace 0|1]

Run from the repository root. With ``--trace 0`` each CLI run is a fresh
process, measured from outside, repeated (closed loop, one run at a time)
until ``--seconds`` of runs have been measured; the end-to-end metrics are
medians over those runs. With ``--trace 1`` the same command line runs
once untraced and twice in-process under :mod:`tracer`, and the per-layer
metrics come from the first traced run. Every run's output is checked.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

import stats
from measure import Run, spawn
from workloads import WORKLOADS

ROOT = Path.cwd()
BUDGET_S = 170.0  # a benchmark run of one workload must end within 180 s
SETUP_PROBES = 10
CALIBRATION_LOOPS = 9

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "homes_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.import_s": "s",
    "devices.build_inventory_calls": "count",
    "devices.build_inventory_s": "s",
    "testbed.lab_builds": "count",
    "testbed.lab_build_s": "s",
    "testbed.experiment_s": "s",
    "testbed.portscan_s": "s",
    "testbed.active_dns_s": "s",
    "sim.events": "count",
    "sim.run_s": "s",
    "sim.compactions": "count",
    "sim.self_share": "fraction",
    "sim.frames": "count",
    "sim.frames_per_home": "count",
    "net.encodes": "count",
    "net.decodes": "count",
    "net.prime_rate": "fraction",
    "net.encodes_per_frame": "ratio",
    "net.decode_errors": "count",
    "net.self_share": "fraction",
    "stack.flow_records": "count",
    "stack.dns_queries": "count",
    "stack.dns_retries": "count",
    "stack.dns_timeouts": "count",
    "stack.fallbacks": "count",
    "stack.self_share": "fraction",
    "stack.ipaddress_self_share": "fraction",
    "cloud.self_share": "fraction",
    "cloud.dropped": "count",
    "core.records_indexed": "count",
    "core.index_s": "s",
    "core.flags_s": "s",
    "core.self_share": "fraction",
    "reports.render_s": "s",
    "fleet.units": "count",
    "fleet.home_s.p50": "s",
    "fleet.home_s.p90": "s",
    "fleet.home_s.n": "count",
    "fleet.summarize_s": "s",
    "fleet.queue_wait_s": "s",
    "fleet.aggregate_s": "s",
    "fleet.worker_busy_frac": "fraction",
    "faults.cells": "count",
    "cache.fingerprints": "count",
    "cache.fingerprint_s": "s",
    "cache.memory_hits": "count",
    "cache.disk_hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "fraction",
    "cache.overhead_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.repeat_mismatches": "count",
    "calib.loop_s": "s",
    "calib.loop_spread": "fraction",
}

# Counters that are a pure function of the workload and seed: two traced
# runs of one seed must agree on every one, or the program is not
# deterministic (a bug, not noise).
DETERMINISTIC = (
    "devices.build_inventory_calls",
    "testbed.lab_builds",
    "sim.events",
    "sim.compactions",
    "sim.frames",
    "net.encodes",
    "net.decodes",
    "stack.flow_records",
    "stack.dns_queries",
    "stack.dns_retries",
    "stack.dns_timeouts",
    "stack.fallbacks",
    "cloud.dropped",
    "core.records_indexed",
    "fleet.units",
    "faults.cells",
    "cache.fingerprints",
    "cache.memory_hits",
    "cache.disk_hits",
    "cache.misses",
)


def calibrate() -> list[float]:
    """Time a fixed pure-Python loop, to show how fast and steady the
    machine was during this run."""
    readings = []
    for _ in range(CALIBRATION_LOOPS):
        started = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i % 7
        readings.append(time.perf_counter() - started)
    return readings


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, name: str, seed: int, seconds: float, deadline: float, workdir: Path):
        self.name = name
        self.seconds = seconds
        self.deadline = deadline
        self.workdir = workdir
        self.workload = WORKLOADS[name](ROOT, workdir, seed)
        self.problems: list = []  # per attempted run: None, or what failed
        self.lines: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.problems)

    @property
    def failed(self) -> int:
        return sum(problem is not None for problem in self.problems)

    def fail(self, problem: str) -> None:
        """Mark the latest run failed (a run counts once, however it failed)."""
        if self.problems[-1] is None:
            self.problems[-1] = problem
            self.note(f"FAILED run {len(self.problems)}: {problem}")

    def note(self, line: str) -> None:
        self.lines.append(line)

    def _time_left(self) -> float:
        return self.deadline - time.monotonic()

    def run_once(self, trace_dir: Optional[Path] = None) -> Run:
        """One checked CLI run; failures count, they do not stop the loop."""
        self.workload.before_run()
        run = spawn(
            ROOT, self.workdir, self.workload.modules, self.workload.argv(),
            trace_dir=trace_dir, timeout=max(1.0, self._time_left()),
        )
        self.problems.append(None)
        problem = self.workload.check(run.returncode, run.stdout, run.stderr)
        if problem is not None:
            self.fail(problem)
            tail = run.stderr.strip().splitlines()[-3:]
            self.note("  stderr: " + " | ".join(tail))
        return run

    def measure(self) -> dict:
        probes = [spawn(ROOT, self.workdir, self.workload.modules, []) for _ in range(SETUP_PROBES)]
        setups = [probe.setup_s for probe in probes if probe.setup_s is not None]
        runs = []
        measured = 0.0
        while not runs or (measured < self.seconds and self._time_left() > 2 * runs[-1].wall_s):
            run = self.run_once()
            runs.append(run)
            measured += run.wall_s
        setups += [run.setup_s for run in runs if run.setup_s is not None]
        if not setups:
            raise RuntimeError("no run reported its set-up time")
        homes = self.workload.homes
        series = {
            "setup_s": setups,
            "wall_s": [run.wall_s for run in runs],
            "cpu_s": [run.cpu_s for run in runs],
            "homes_per_s": [
                homes / (run.wall_s - run.setup_s) for run in runs if run.setup_s is not None
            ],
            "peak_rss_mb": [run.peak_rss_mb for run in runs],
        }
        metrics = {}
        for name, unit in END_TO_END.items():
            values = series[name]
            metrics[name] = stats.median(values)
            self.note(
                f"{name:<12} {metrics[name]:.4f} {unit}  (median of {len(values)}, "
                f"min {min(values):.4f}, max {max(values):.4f})"
            )
        return metrics

    def trace(self) -> dict:
        # Traced, untraced, traced: the untraced run sits between the two
        # traced ones, so a slow spell of the machine is less likely to land
        # on one side of the overhead figure only.
        runs, traced = [], []
        for attempt, traced_run in enumerate((True, False, True)):
            trace_dir = None
            if traced_run:
                trace_dir = self.workdir / f"trace-{attempt}"
                trace_dir.mkdir()
            run = self.run_once(trace_dir)
            if runs and run.stdout != runs[0].stdout:
                self.fail("stdout differs from the first run of the same seed")
            runs.append(run)
            if traced_run:
                traced.append((run, stats.merge_trace_files(trace_dir.glob("trace-*.jsonl"))))
        untraced = runs[1]
        (_, data), (_, again) = traced
        mismatches = [key for key in DETERMINISTIC if data.counters.get(key, 0) != again.counters.get(key, 0)]
        if mismatches:
            self.fail("exact-repeat check: counters differ between runs of one seed: "
                      + ", ".join(mismatches))
        metrics = layer_metrics(data, self.workload.homes)
        traced_wall = stats.median([run.wall_s for run, _ in traced])
        metrics["trace.untraced_wall_s"] = untraced.wall_s
        metrics["trace.traced_wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - untraced.wall_s
        metrics["trace.repeat_mismatches"] = len(mismatches)
        return metrics


def layer_metrics(data: stats.TraceData, workload_homes: int) -> dict:
    """Per-layer metrics from one traced run's merged spans and counts."""
    spans, counters = data.spans, data.counters
    m = {name: counters.get(name, 0) for name in PER_LAYER}
    for name, span in (
        ("devices.build_inventory_s", "devices.build_inventory"),
        ("testbed.lab_build_s", "testbed.lab_build"),
        ("testbed.experiment_s", "testbed.experiment"),
        ("testbed.portscan_s", "testbed.portscan"),
        ("testbed.active_dns_s", "testbed.active_dns"),
        ("sim.run_s", "sim.run_until"),
        ("core.index_s", "core.index"),
        ("core.flags_s", "core.flags"),
        ("reports.render_s", "reports.render"),
        ("fleet.summarize_s", "fleet.summarize"),
        ("fleet.aggregate_s", "fleet.aggregate"),
        ("cache.fingerprint_s", "cache.fingerprint"),
    ):
        m[name] = stats.total(spans, span)

    units = stats.durations(spans, "fleet.unit")
    m["fleet.units"] = len(units)
    if units:
        tail = stats.tail_summary(units, 90)
        m["fleet.home_s.p50"], m["fleet.home_s.p90"], m["fleet.home_s.n"] = tail["p50"], tail["p90"], tail["n"]
    engine = stats.total(spans, "fleet.engine")
    workers = data.meta.get("fleet.workers", 1)
    m["fleet.worker_busy_frac"] = sum(units) / (workers * engine) if engine else 0.0
    m["fleet.queue_wait_s"] = counters.get("fleet.queue_wait_s", 0.0)

    homes = len(units) or workload_homes
    frames = counters.get("sim.frames", 0)
    m["sim.frames_per_home"] = frames / homes
    encodes = counters.get("net.encodes", 0)
    m["net.encodes_per_frame"] = encodes / frames if frames else 0.0
    m["net.prime_rate"] = counters.get("net.primes", 0) / encodes if encodes else 0.0

    hits = counters.get("cache.memory_hits", 0) + counters.get("cache.disk_hits", 0)
    lookups = hits + counters.get("cache.misses", 0)
    m["cache.hit_ratio"] = hits / lookups if lookups else 0.0
    m["cache.overhead_s"] = stats.total_self_time(spans, "cache.lookup")

    for layer in ("sim", "net", "stack", "cloud", "core"):
        m[f"{layer}.self_share"] = data.share(layer)
    m["stack.ipaddress_self_share"] = data.share("ipaddress")
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> Bench:
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=ROOT / ".perfbench"))
    try:
        bench = Bench(name, seed, seconds, deadline, workdir)
        problem = bench.workload.prepare()
        if problem is not None:
            raise SystemExit(f"perfbench: cannot prepare {name}: {problem}")
        calibration = calibrate()
        if trace:
            metrics = bench.trace()
            metrics["calib.loop_s"] = stats.median(calibration)
            metrics["calib.loop_spread"] = stats.quartile_spread(calibration)
            for name, unit in PER_LAYER.items():
                bench.note(f"{name:<30} {metrics[name]:.6g} {unit}")
        else:
            metrics = bench.measure()
        bench.metrics = metrics
        bench.note(
            f"calibration loop {stats.median(calibration):.4f} s (median of {len(calibration)}, "
            f"quartile spread {stats.quartile_spread(calibration):.3f})"
        )
        bench.note(
            f"{'fail_frac':<12} {stats.fail_frac(bench.failed, bench.attempted):.4f} fraction  "
            f"({bench.failed} of {bench.attempted} CLI runs failed)"
        )
        return bench
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0 (the CLI rejects negative seeds)")
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: {ROOT} holds no repro sources (src/repro); run from the repo root",
              file=sys.stderr)
        return 2

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        deadline = time.monotonic() + BUDGET_S
        bench = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        print(f"== {name} (seed {args.seed}, CLI seed {bench.workload.cli_seed}, trace {args.trace})")
        for line in bench.lines:
            print(f"   {line}")
        results.append(bench)

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for bench in results:
        prefix = f"{bench.name}." if len(results) > 1 else ""
        for name, unit in units.items():
            metrics[prefix + name] = {"value": bench.metrics.get(name, 0), "unit": unit}
    attempted = sum(bench.attempted for bench in results)
    failed = sum(bench.failed for bench in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
