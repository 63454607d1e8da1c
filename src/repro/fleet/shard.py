"""Sharded streaming fleet execution: constant-memory populations.

The classic runner (:mod:`repro.fleet.runner`) materializes every spec and
retains every per-home summary — O(homes) memory, which tops out around
thousands of homes. This module is the simbricks-style alternative the
ROADMAP calls for: ``--shards N`` spawns N *long-lived* worker shards, each
owning one contiguous slice of the population. A shard generates each
home's specs lazily from its index, simulates the home, folds the outcome
straight into a small mergeable accumulator, and drops the summary. Memory
is O(shards), independent of population size, which is what makes a
million-home run fit on one machine.

Three contracts make sharded output byte-identical to a serial run:

- **unit = whole home.** The work unit is *all* of one home's specs (every
  firewall / config / epoch cell), so a shard boundary never splits a home
  and per-home cross-cell logic (distinct-home counts, epoch-to-epoch
  movement) stays exact.
- **exactly associative folds.** Accumulators are integer counters,
  ``Fraction``-backed :class:`~repro.fleet.aggregate.StreamStats`,
  bucketwise :class:`~repro.fleet.aggregate.QuantileSketch` merges, and
  list concatenation sorted at finalize — any grouping of partial folds
  renders the same bytes (see tests/fleet/test_shards.py for the
  order-invariance property test).
- **deterministic generation.** Home ``index`` plus the run seed fully
  determine each home (common random numbers), so a shard can generate its
  slice without ever seeing the full spec list.

Resumability rides on the same structure: with a journal
(:mod:`repro.fleet.store`), each shard periodically appends its running
accumulator plus a completed-unit watermark; a re-launched run seeds each
shard from its last checkpoint and skips the completed range.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from repro.cache import CacheSettings, CachingWorker
from repro.fleet.runner import HomeResult, WorkerFn, _execute_home, start_pool
from repro.fleet.store import JournalStore, spec_token

DEFAULT_CHECKPOINT_EVERY = 25

# unit index -> the specs making up that unit (all cells of one home)
UnitSource = Callable[[int], Sequence]
# (shards_done, shards_total, shard_index, units_in_shard)
ShardProgressFn = Callable[[int, int, int, int], None]


class Fold:
    """A mergeable streaming aggregation over per-unit outcomes.

    Subclasses define a monoid: ``empty()`` is the identity, ``add``
    absorbs one unit's :class:`HomeResult` tuple, ``merge`` combines two
    accumulators, and ``finalize`` renders the aggregate dataclass the
    reports consume. Accumulators must be plain picklable values (they
    cross the pool boundary and land in journals) and every operation must
    be exactly associative — sort anything order-sensitive in ``finalize``,
    never rely on arrival order. ``add`` and ``merge`` may mutate and
    return their first argument.

    Fold instances themselves are configuration (frozen, picklable); all
    run state lives in the accumulator.
    """

    def empty(self):
        raise NotImplementedError

    def add(self, acc, outcomes: tuple[HomeResult, ...]):
        raise NotImplementedError

    def merge(self, left, right):
        raise NotImplementedError

    def finalize(self, acc):
        raise NotImplementedError


def fold_results(fold: Fold, results: Iterable[HomeResult]):
    """Fold retained results the way a shard folds its units.

    Results are grouped by ``spec.home_id`` in first-appearance order, so a
    home's cells reach ``add`` together even when they are not adjacent;
    the pool engine's aggregate is therefore the sharded engine's.
    """
    homes: dict = {}
    for result in results:
        homes.setdefault(result.spec.home_id, []).append(result)
    acc = fold.empty()
    for outcomes in homes.values():
        acc = fold.add(acc, tuple(outcomes))
    return fold.finalize(acc)


def shard_ranges(units: int, shards: int) -> list[tuple[int, int]]:
    """Split ``range(units)`` into ``shards`` contiguous balanced slices."""
    if shards < 1:
        raise ValueError("shards must be >= 1")
    bounds = [units * shard // shards for shard in range(shards + 1)]
    return [(bounds[shard], bounds[shard + 1]) for shard in range(shards)]


def run_unit(
    source: UnitSource, index: int, worker: WorkerFn, timeout: Optional[float]
) -> tuple[HomeResult, ...]:
    """Execute every spec of one unit through the guarded worker entry."""
    return tuple(_execute_home(spec, timeout, worker) for spec in source(index))


def _fold_range(
    source: UnitSource,
    lo: int,
    hi: int,
    fold: Fold,
    worker: WorkerFn,
    timeout: Optional[float],
    journal: Optional[JournalStore],
    shard: int,
    checkpoint_every: int,
):
    """One shard's whole life: resume, simulate, fold, checkpoint."""
    acc = fold.empty()
    start = lo
    if journal is not None:
        done, saved = journal.restore(shard)
        if saved is not None:
            acc = saved
            start = min(lo + done, hi)
    for index in range(start, hi):
        acc = fold.add(acc, run_unit(source, index, worker, timeout))
        completed = index - lo + 1
        if journal is not None and (completed % checkpoint_every == 0 or index == hi - 1):
            journal.append(shard, completed, acc)
    return acc


def _shard_entry(payload) -> object:
    (shard, lo, hi, source, fold, worker, timeout, journal, checkpoint_every) = payload
    return _fold_range(source, lo, hi, fold, worker, timeout, journal, shard, checkpoint_every)


def _run_shards_parallel(
    ranges: list[tuple[int, int]],
    source: UnitSource,
    fold: Fold,
    worker: WorkerFn,
    timeout: Optional[float],
    journal: Optional[JournalStore],
    checkpoint_every: int,
    progress: Optional[ShardProgressFn],
) -> list:
    from concurrent.futures import as_completed
    from concurrent.futures.process import BrokenProcessPool

    accs: list = [None] * len(ranges)
    rerun: list[int] = []
    pool = start_pool(len(ranges))
    try:
        futures = {
            pool.submit(
                _shard_entry,
                (shard, lo, hi, source, fold, worker, timeout, journal, checkpoint_every),
            ): shard
            for shard, (lo, hi) in enumerate(ranges)
        }
        for done, future in enumerate(as_completed(futures), start=1):
            shard = futures[future]
            try:
                accs[shard] = future.result()
            except BrokenProcessPool:
                # The shard process died mid-range. Its journal (if any)
                # still holds the last checkpoint, so re-running it
                # in-process below repeats at most checkpoint_every units.
                rerun.append(shard)
            if progress is not None:
                lo, hi = ranges[shard]
                progress(done, len(ranges), shard, hi - lo)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    for shard in rerun:
        lo, hi = ranges[shard]
        accs[shard] = _fold_range(
            source, lo, hi, fold, worker, timeout, journal, shard, checkpoint_every
        )
    return accs


def run_sharded(
    units: int,
    source: UnitSource,
    *,
    fold: Fold,
    worker: WorkerFn,
    shards: int = 1,
    timeout: Optional[float] = None,
    progress: Optional[ShardProgressFn] = None,
    journal_dir: Optional[str] = None,
    journal_token: str = "",
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    cache: Optional[CacheSettings] = None,
):
    """Fold ``units`` home-units into one aggregate across ``shards`` workers.

    Returns ``fold.finalize`` of the merged accumulator. ``shards > 1``
    fans the contiguous ranges out over a process pool (falling back to
    in-process execution when no pool can start, exactly like
    :func:`repro.fleet.runner.run_fleet`); shard accumulators merge in
    shard order, and because the folds are exactly associative the result
    is byte-identical for any shard count.

    With ``journal_dir`` set, each shard checkpoints every
    ``checkpoint_every`` completed units and a re-launch with the same
    ``journal_token`` (a :func:`repro.fleet.store.spec_token` over the run
    parameters) resumes from the checkpoints instead of re-simulating.

    ``cache`` activates the study cache (:mod:`repro.cache`) inside every
    shard. The unit is already a whole home, so a home's arms (configs,
    firewalls, schedules) land in one shard process back to back — the
    memory tier dedups their shared studies, and a ``--cache`` directory
    additionally persists artifacts across runs.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    effective = min(shards, units) or 1
    ranges = shard_ranges(units, effective)
    if cache is not None:
        worker = CachingWorker(worker, cache)

    journal = None
    if journal_dir is not None:
        journal = JournalStore(
            directory=str(journal_dir), token=journal_token, units=units, shards=effective
        ).open()

    if effective == 1:
        accs = [
            _fold_range(source, 0, units, fold, worker, timeout, journal, 0, checkpoint_every)
        ]
        if progress is not None:
            progress(1, 1, 0, units)
    else:
        try:
            accs = _run_shards_parallel(
                ranges, source, fold, worker, timeout, journal, checkpoint_every, progress
            )
        except (OSError, ImportError):
            # No process pool available here (e.g. sandboxed); shards run
            # in-process one after another — same bytes, just slower.
            accs = []
            for shard, (lo, hi) in enumerate(ranges):
                accs.append(
                    _fold_range(
                        source, lo, hi, fold, worker, timeout, journal, shard, checkpoint_every
                    )
                )
                if progress is not None:
                    progress(shard + 1, len(ranges), shard, hi - lo)

    total = fold.empty()
    for acc in accs:
        total = fold.merge(total, acc)
    return fold.finalize(total)


__all__ = [
    "DEFAULT_CHECKPOINT_EVERY",
    "Fold",
    "JournalStore",
    "fold_results",
    "run_sharded",
    "run_unit",
    "shard_ranges",
    "spec_token",
]
