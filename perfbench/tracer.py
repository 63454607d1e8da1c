"""The traced run: spans and counts around calls into each layer.

Nothing here edits the program. :func:`install` replaces selected public
functions of ``repro`` with timing wrappers, at every place a caller looks
the name up (module attributes that hold the function, class attributes
for methods), and starts a CPU-time sampling profiler. Worker processes
forked by the fleet engines inherit both; each process appends its spans,
counts and samples to its own ``trace-<pid>.jsonl`` file, which
:func:`stats.merge_trace_files` adds up afterwards.

Self-time shares of the layers that run millions of times per study (sim,
net, stack, cloud, core and stdlib ``ipaddress``) come from the profiler,
which attributes each ``SIGPROF`` sample to the innermost Python frame's
file; wrapping those layers call by call would cost more than they do.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Optional

SAMPLE_INTERVAL_S = 0.002

# The process's session. Forked workers inherit it through fork, which is
# the only way to reach code that the fleet engines run in a pool.
_session: Optional["Session"] = None


def layer_of(filename: str, package_dir: str) -> str:
    """The layer a source file belongs to: ``repro``'s subpackage name,
    its top-level module name, ``ipaddress`` for the stdlib module, or
    ``other``."""
    if filename.startswith(package_dir):
        relative = filename[len(package_dir):]
        head = relative.split(os.sep, 1)[0]
        return head[:-3] if head.endswith(".py") else head
    if os.path.basename(filename) == "ipaddress.py":
        return "ipaddress"
    return "other"


class Session:
    """One process's spans, counts and profile samples."""

    def __init__(self, out_dir: Path, package_dir: str):
        self.out_dir = out_dir
        self.package_dir = package_dir
        self.worker = False
        self.sampling = False
        self.fork_parent: Optional[str] = None
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.samples: Counter = Counter()
        self.meta: dict = {}
        self.testbeds: list = []
        self._stack: list[tuple] = []  # (id, name, unit, parent, start)
        self._open: Counter = Counter()
        self._next = 0
        self._layers: dict[str, str] = {}

    # -- spans ----------------------------------------------------------------

    def open(self, name: str, unit=None) -> Optional[str]:
        """Start a span; None (nothing recorded) inside a span of the same
        name, so recursive or nested calls are timed once, outermost."""
        if self._open[name]:
            return None
        self._next += 1
        span_id = f"{self.pid}:{self._next}"
        top = self._stack[-1] if self._stack else None
        parent = top[0] if top else self.fork_parent
        if unit is None and top is not None:
            unit = top[2]
        self._open[name] += 1
        self._stack.append((span_id, name, unit, parent, time.monotonic()))
        return span_id

    def close(self, span_id: Optional[str]) -> None:
        if span_id is None:
            return
        end = time.monotonic()
        _, name, unit, parent, start = self._stack.pop()
        self._open[name] -= 1
        self.spans.append((span_id, parent, name, start, end, unit))
        if self.worker and not self._stack:
            self.flush()

    # -- profile --------------------------------------------------------------

    def _sample(self, signum, frame) -> None:
        filename = frame.f_code.co_filename if frame is not None else ""
        layer = self._layers.get(filename)
        if layer is None:
            layer = self._layers[filename] = layer_of(filename, self.package_dir)
        self.samples[layer] += 1

    def start_sampler(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self.sampling = True

    def stop_sampler(self) -> None:
        if self.sampling:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, signal.SIG_IGN)
            self.sampling = False

    def after_fork(self) -> None:
        """Start afresh in a forked worker: nothing recorded so far is its
        own, and interval timers are not inherited across fork."""
        top = self._stack[-1][0] if self._stack else self.fork_parent
        self._reset()
        self.fork_parent = top
        self.worker = True
        if self.sampling:
            signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    # -- output ---------------------------------------------------------------

    def flush(self) -> None:
        harvest_testbeds(self)
        samples, self.samples = self.samples, Counter()
        record = {
            "pid": self.pid,
            "spans": self.spans,
            "counters": dict(self.counters),
            "samples": dict(samples),
            "meta": self.meta,
        }
        with open(self.out_dir / f"trace-{self.pid}.jsonl", "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        self.spans, self.counters, self.meta = [], Counter(), {}

    def finish(self) -> None:
        self.stop_sampler()
        while self._stack:  # spans left open by an exception
            self.close(self._stack[-1][0])
        self.flush()


def _after_fork_in_child() -> None:
    if _session is not None:
        _session.after_fork()


# -- wrapping -----------------------------------------------------------------


def replace_everywhere(original: Callable, replacement: Callable) -> int:
    """Point every ``repro`` module attribute holding ``original`` at
    ``replacement`` (callers that imported the name bound it early)."""
    replaced = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                replaced += 1
    if not replaced:
        raise RuntimeError(f"no module holds {original!r}; the tracer is out of date")
    return replaced


def timed(session: Session, fn: Callable, name: Optional[str], *, unit=None, before=None, after=None):
    """``fn`` inside a span ``name`` (no span when None); ``before(args,
    kwargs)`` and ``after(args, kwargs, result)`` record counts at the same
    boundary."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        span_id = None
        if name is not None:
            span_id = session.open(name, unit(args) if unit is not None else None)
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result
        finally:
            session.close(span_id)

    return wrapper


def wrap_function(session: Session, module, attr: str, name: Optional[str], **hooks) -> None:
    original = getattr(module, attr)
    replace_everywhere(original, timed(session, original, name, **hooks))


def wrap_method(session: Session, cls, attr: str, name: Optional[str], **hooks) -> None:
    setattr(cls, attr, timed(session, getattr(cls, attr), name, **hooks))


class _QueueTimedPool:
    """A process pool whose tasks record how long they waited to start."""

    def __init__(self, pool):
        self._pool = pool

    def submit(self, fn, /, *args, **kwargs):
        return self._pool.submit(_queued_call, time.monotonic(), fn, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._pool, name)


def _queued_call(submitted: float, fn, *args, **kwargs):
    if _session is not None:
        _session.counters["fleet.queue_wait_s"] += time.monotonic() - submitted
    return fn(*args, **kwargs)


# -- counters read from the program's own objects ---------------------------


def _scheduled_events(sim) -> int:
    # Simulator numbers every scheduled event from an itertools.count;
    # its repr is "count(N)" with N the next number, i.e. events so far.
    return int(repr(sim._sequence)[len("count("):-1])


def harvest_testbeds(session: Session) -> None:
    """Add the whole-life counters of every testbed built since the last
    harvest (events, compactions, frame-cache work, cloud drops)."""
    for testbed in session.testbeds:
        counters = session.counters
        counters["sim.events"] += _scheduled_events(testbed.sim)
        counters["sim.compactions"] += testbed.sim.compactions
        frames = testbed.link.frames
        counters["net.encodes"] += frames.encode_count
        counters["net.primes"] += frames.primes
        counters["net.decodes"] += frames.decode_count
        counters["net.decode_errors"] += frames.decode_errors
        counters["cloud.dropped"] += testbed.internet.dropped
    session.testbeds.clear()


STACK_METRICS = ("dns_queries", "dns_retries", "dns_timeouts", "fallbacks")


def install(trace_dir: str, *, import_s: float) -> Session:
    """Wrap the layer boundaries and start the profiler in this process."""
    global _session
    import repro
    import repro.cache.store as cache_store
    import repro.core.analysis as core_analysis
    import repro.core.capture as core_capture
    import repro.devices.inventory as inventory
    import repro.faults.analysis as faults_analysis
    import repro.faults.population as faults_population
    import repro.fleet.aggregate as fleet_aggregate
    import repro.fleet.runner as runner
    import repro.fleet.shard as shard
    import repro.fleet.stream as fleet_stream
    import repro.fleet.summary as fleet_summary
    import repro.reports as reports
    import repro.sim.engine as engine
    import repro.testbed.activedns as activedns
    import repro.testbed.experiments as experiments
    import repro.testbed.lab as lab
    import repro.testbed.portscan as portscan
    import repro.testbed.study as study
    from repro.cache import fingerprint

    session = Session(Path(trace_dir), os.path.dirname(repro.__file__) + os.sep)
    session.counters["cli.import_s"] += import_s

    def count(name: str, n=1) -> None:
        # Looked up per call: a worker's flush starts a fresh Counter.
        session.counters[name] += n

    # repro.devices
    wrap_function(
        session, inventory, "build_inventory", "devices.build_inventory",
        before=lambda a, k: count("devices.build_inventory_calls"),
    )

    # repro.testbed
    def built(args, kwargs, result):
        count("testbed.lab_builds")
        session.testbeds.append(args[0])

    def experiment_done(args, kwargs, result):
        count("sim.frames", len(result.records))
        count("stack.flow_records", len(result.flow_records))
        for device in args[0].everyone:
            metrics = device.stack.metrics
            for field in STACK_METRICS:
                count(f"stack.{field}", getattr(metrics, field))

    wrap_method(session, lab.Testbed, "__init__", "testbed.lab_build", after=built)
    wrap_function(
        session, experiments, "run_connectivity_experiment", "testbed.experiment", after=experiment_done
    )
    wrap_method(session, portscan.PortScanner, "run", "testbed.portscan")
    wrap_function(session, activedns, "active_dns_queries", "testbed.active_dns")
    harvest = lambda args, kwargs, result: harvest_testbeds(session)  # noqa: E731
    wrap_function(session, study, "run_full_study", None, after=harvest)
    wrap_function(session, study, "run_home_study", None, after=harvest)

    # repro.sim
    wrap_method(session, engine.Simulator, "run_until", "sim.run_until")

    # repro.core
    def indexed(args, kwargs, result):
        index = args[0]
        count("core.records_indexed", index.frame_count + index.flow_record_count)

    wrap_method(session, core_capture.CaptureIndex, "__init__", "core.index", after=indexed)
    flags = core_analysis.StudyAnalysis.__dict__["flags_by_experiment"]
    flags.func = timed(session, flags.func, "core.flags")

    # repro.reports
    for attr in sorted(vars(reports)):
        if attr.startswith("render_"):
            wrap_function(session, reports, attr, "reports.render")

    # repro.fleet: engines, units, summaries, aggregation
    def engine_workers(count_of):
        def record(args, kwargs):
            session.meta["fleet.workers"] = count_of(args, kwargs)

        return record

    wrap_function(
        session, runner, "run_fleet", "fleet.engine",
        before=engine_workers(lambda a, k: min(k.get("jobs", 1), len(a[0])) or 1),
    )
    wrap_function(
        session, shard, "run_sharded", "fleet.engine",
        before=engine_workers(lambda a, k: min(k.get("shards", 1), a[0]) or 1),
    )
    wrap_function(session, runner, "_execute_group", "fleet.unit", unit=lambda a: a[0][0].home_id)
    wrap_function(session, shard, "run_unit", "fleet.unit", unit=lambda a: a[1])
    original_start_pool = runner.start_pool
    replace_everywhere(
        original_start_pool,
        functools.wraps(original_start_pool)(lambda workers: _QueueTimedPool(original_start_pool(workers))),
    )
    wrap_function(session, fleet_summary, "summarize_home", "fleet.summarize")
    wrap_function(session, faults_analysis, "observe_study", "fleet.summarize")
    wrap_function(session, fleet_aggregate, "aggregate_fleet", "fleet.aggregate")
    wrap_function(session, faults_population, "aggregate_faults", "fleet.aggregate")
    for fold in (fleet_stream.FleetFold, faults_population.FaultFold):
        for attr in ("add", "merge", "finalize"):
            wrap_method(session, fold, attr, "fleet.aggregate")

    # repro.faults
    wrap_function(
        session, faults_analysis, "run_home_faults", None,
        before=lambda a, k: count("faults.cells", 1 + len(a[0].fault_names)),
    )

    # repro.cache
    wrap_function(
        session, fingerprint, "study_fingerprint", "cache.fingerprint",
        before=lambda a, k: count("cache.fingerprints"),
    )
    lookup = cache_store.StudyCache.get_or_run

    @functools.wraps(lookup)
    def get_or_run(self, fingerprint, extractor, version, compute):
        span_id = session.open("cache.lookup")
        try:
            return lookup(self, fingerprint, extractor, version, timed(session, compute, "cache.compute"))
        finally:
            session.close(span_id)

    cache_store.StudyCache.get_or_run = get_or_run
    events = {"hit-memory": "cache.memory_hits", "hit-disk": "cache.disk_hits", "miss": "cache.misses"}
    wrap_method(
        session, cache_store.StudyCache, "_note", None,
        before=lambda a, k: count(events[a[2]]),
    )

    _session = session
    os.register_at_fork(after_in_child=_after_fork_in_child)
    session.start_sampler()
    return session
