"""The fleet subsystem on the sharded engine: ``repro fleet --shards N``.

:func:`run_fleet_stream` generates each home from its index and folds its
outcome through :class:`repro.fleet.aggregate.FleetFold` — the same fold
:func:`repro.fleet.aggregate.aggregate_fleet` runs over a retained
:class:`~repro.fleet.runner.FleetResult` — so both engines render the same
bytes and no summary outlives its fold.
"""

from __future__ import annotations

import functools
from typing import Optional

from repro.cache import CacheSettings
from repro.fleet.aggregate import FleetAggregate, FleetFold
from repro.fleet.runner import simulate_home
from repro.fleet.scenario import RolloutScenario, generate_home
from repro.fleet.shard import DEFAULT_CHECKPOINT_EVERY, ShardProgressFn, run_sharded
from repro.fleet.store import spec_token


def _fleet_unit(index: int, *, seed: int, scenario: RolloutScenario, fidelity: str):
    return (generate_home(index, seed, scenario, fidelity=fidelity),)


def run_fleet_stream(
    homes: int,
    *,
    seed: int,
    scenario: RolloutScenario,
    fidelity: str = "packet",
    shards: int = 1,
    timeout: Optional[float] = None,
    journal_dir: Optional[str] = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    progress: Optional[ShardProgressFn] = None,
    cache: Optional[CacheSettings] = None,
) -> FleetAggregate:
    """Simulate ``homes`` across ``shards`` and stream-fold the aggregate.

    Byte-identical to ``aggregate_fleet(run_fleet(generate_fleet(...)))`` at
    any shard count, in O(shards) memory.
    """
    if homes < 0:
        raise ValueError("homes must be >= 0")
    return run_sharded(
        homes,
        functools.partial(_fleet_unit, seed=seed, scenario=scenario, fidelity=fidelity),
        fold=FleetFold(),
        worker=simulate_home,
        shards=shards,
        timeout=timeout,
        progress=progress,
        journal_dir=journal_dir,
        journal_token=spec_token("fleet", homes, seed, scenario, fidelity, timeout),
        checkpoint_every=checkpoint_every,
        cache=cache,
    )


__all__ = ["FleetFold", "run_fleet_stream"]
