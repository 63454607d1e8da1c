"""The fleet executor: fan homes out over a process pool, serially if asked.

Every home is an independent seeded simulator, so homes parallelize
perfectly. The runner guarantees:

- **error isolation** — all exceptions (and optional per-home wall-clock
  timeouts) are caught *inside* the worker and returned as a failed
  :class:`HomeResult`; one crashed home never kills the fleet;
- **deterministic ordering** — results are sorted by the spec's ``sort_key``
  (``home_id`` for plain homes) before they are returned, so worker
  scheduling cannot leak into the output;
- **serial fallback** — ``jobs=1`` (or an environment where a process pool
  cannot start) runs everything in-process with identical results.

The runner is worker-agnostic: any picklable ``worker(spec) -> summary``
callable can be fanned out (the exposure subsystem reuses it with
:func:`repro.exposure.analysis.run_home_exposure`).
"""

from __future__ import annotations

import dataclasses
import functools
import signal
import threading
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from repro.cache import CacheSettings, CachingWorker, cached_artifact
from repro.fleet.scenario import HomeSpec
from repro.fleet.summary import HomeSummary, summarize_home
from repro.testbed.study import resolve_home_inputs, run_home_study


class HomeTimeout(Exception):
    """A home exceeded its per-home wall-clock budget."""


@dataclass(frozen=True)
class HomeResult:
    """Outcome for one home: a worker summary, or an error string."""

    spec: object                    # HomeSpec, ExposureSpec, or any sort_key-able spec
    summary: Optional[object] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.summary is not None


@dataclass(frozen=True)
class FleetResult:
    """All per-home outcomes, ordered by spec ``sort_key``."""

    results: tuple[HomeResult, ...]
    jobs: int

    @property
    def summaries(self) -> list:
        return [result.summary for result in self.results if result.ok]

    @property
    def failures(self) -> list[HomeResult]:
        return [result for result in self.results if not result.ok]


@contextmanager
def _deadline(seconds: Optional[float]) -> Iterator[None]:
    """Raise :class:`HomeTimeout` after ``seconds`` of wall-clock time.

    Uses SIGALRM, so it only arms on platforms that have it and only on the
    main thread of the (worker or fallback-serial) process; otherwise it is
    a no-op and homes run without a budget.
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _expired(signum, frame):
        raise HomeTimeout(f"home exceeded {seconds:.3f}s wall-clock budget")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def simulate_home(spec: HomeSpec) -> HomeSummary:
    """Run one home end-to-end and summarize it (raises on failure).

    Consults the ambient study cache: the stored artifact is the summary
    with its ``home_id`` neutralized (the id labels the row, it does not
    shape the simulation), reattached from the spec on every hit — which is
    how paired flip scenarios share their unflipped homes.
    """
    config, profiles = resolve_home_inputs(
        spec.config_name, spec.device_names, fidelity=spec.fidelity
    )

    def compute() -> HomeSummary:
        study = run_home_study(
            spec.sim_seed, config, spec.device_names, checkins=spec.checkins, profiles=profiles
        )
        return dataclasses.replace(summarize_home(study, spec), home_id=-1)

    summary = cached_artifact(
        "fleet-summary", 1, compute, sim_seed=spec.sim_seed, config=config, profiles=profiles, checkins=spec.checkins
    )
    return dataclasses.replace(summary, home_id=spec.home_id)


WorkerFn = Callable[[object], object]


def _execute_home(spec: HomeSpec, timeout: Optional[float] = None, worker: WorkerFn = simulate_home) -> HomeResult:
    """The guarded worker entry point: never raises, always returns."""
    try:
        with _deadline(timeout):
            return HomeResult(spec=spec, summary=worker(spec))
    except Exception:
        return HomeResult(spec=spec, error=traceback.format_exc(limit=8))


ProgressFn = Callable[[int, int, HomeResult], None]


def _run_serial(
    specs: Sequence[HomeSpec],
    timeout: Optional[float],
    progress: Optional[ProgressFn],
    worker: WorkerFn,
) -> list[HomeResult]:
    results = []
    for done, spec in enumerate(specs, start=1):
        result = _execute_home(spec, timeout, worker)
        results.append(result)
        if progress is not None:
            progress(done, len(specs), result)
    return results


def _fork_context():
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


def _probe_pool() -> bool:
    return True


def start_pool(workers: int):
    """A :class:`~concurrent.futures.ProcessPoolExecutor` proven usable.

    A probe task runs eagerly so that environments where no worker process
    can start at all (sandboxes, fd exhaustion) surface here as ``OSError``
    — which callers treat as "degrade to serial" — rather than as a broken
    future later, which means "a worker died mid-run" and is reported
    per-home instead.
    """
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers, mp_context=_fork_context())
    try:
        pool.submit(_probe_pool).result()
    except Exception as exc:
        pool.shutdown(wait=True, cancel_futures=True)
        raise OSError(f"no usable process pool: {exc!r}") from exc
    return pool


DEAD_WORKER_ERROR = (
    "worker process died before returning a result "
    "(killed or crashed, e.g. OOM-killed; the home was not completed)"
)


def plan_groups(specs: Sequence[HomeSpec], group: Callable[[object], object]) -> list[tuple]:
    """Partition specs into dedup groups, first-appearance order throughout.

    The in-run dedup planner: specs sharing a group key (the home id — the
    axis along which population sweeps repeat a baseline arm) are submitted
    to *one* pool task, so their shared studies collide in that worker's
    memory-tier cache instead of being simulated once per worker.
    """
    grouped: dict = {}
    for spec in specs:
        grouped.setdefault(group(spec), []).append(spec)
    return [tuple(members) for members in grouped.values()]


def _execute_group(
    specs: tuple, timeout: Optional[float] = None, worker: WorkerFn = simulate_home
) -> tuple[HomeResult, ...]:
    """One pool task covering a whole dedup group, one guarded run per spec."""
    return tuple(_execute_home(spec, timeout, worker) for spec in specs)


def _run_parallel(
    specs: Sequence[HomeSpec],
    jobs: int,
    timeout: Optional[float],
    progress: Optional[ProgressFn],
    worker: WorkerFn,
    group: Optional[Callable[[object], object]] = None,
) -> list[HomeResult]:
    from concurrent.futures import as_completed
    from concurrent.futures.process import BrokenProcessPool

    groups = plan_groups(specs, group) if group is not None else [(spec,) for spec in specs]
    entry = functools.partial(_execute_group, timeout=timeout, worker=worker)
    results = []
    done = 0
    pool = start_pool(jobs)
    try:
        futures = {pool.submit(entry, members): members for members in groups}
        for future in as_completed(futures):
            try:
                outcomes = future.result()
            except BrokenProcessPool:
                # A worker died without returning (OOM kill, segfault,
                # os._exit). The executor marks every in-flight future
                # broken, so each such home becomes a failed HomeResult —
                # the old Pool.imap_unordered path hung forever here.
                outcomes = tuple(
                    HomeResult(spec=spec, error=DEAD_WORKER_ERROR) for spec in futures[future]
                )
            for result in outcomes:
                done += 1
                results.append(result)
                if progress is not None:
                    progress(done, len(specs), result)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    return results


def _sort_key(result: HomeResult):
    return getattr(result.spec, "sort_key", result.spec.home_id)


def run_fleet(
    specs: Sequence[HomeSpec],
    *,
    jobs: int = 1,
    timeout: Optional[float] = None,
    progress: Optional[ProgressFn] = None,
    worker: WorkerFn = simulate_home,
    cache: Optional[CacheSettings] = None,
    group: Optional[Callable[[object], object]] = None,
) -> FleetResult:
    """Run ``worker`` over every spec and return ordered results.

    ``jobs > 1`` fans out over a ``multiprocessing`` pool; ``jobs = 1`` (or a
    pool that fails to start) runs serially. Both paths produce identical
    :class:`FleetResult`\\ s — each home is a pure function of its spec, and
    results are re-sorted by spec ``sort_key`` (``home_id`` for specs without
    one) after collection. ``worker`` must be a picklable module-level
    callable taking one spec.

    ``cache`` activates the study cache (:mod:`repro.cache`) around every
    spec. ``group`` — a ``spec -> key`` planner function — additionally
    colocates specs sharing a key in one pool task, so studies they have in
    common are simulated once and served from the worker's memory tier;
    results are re-sorted afterwards, so the bytes never change.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    specs = list(specs)
    effective_jobs = min(jobs, len(specs)) or 1
    if cache is not None:
        worker = CachingWorker(worker, cache)

    if effective_jobs == 1:
        results = _run_serial(specs, timeout, progress, worker)
    else:
        try:
            results = _run_parallel(specs, effective_jobs, timeout, progress, worker, group)
        except (OSError, ImportError):
            # No process pool available here (e.g. sandboxed); degrade to serial.
            results = _run_serial(specs, timeout, progress, worker)

    results.sort(key=_sort_key)
    return FleetResult(results=tuple(results), jobs=effective_jobs)
