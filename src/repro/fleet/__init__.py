"""repro.fleet — parallel multi-home fleet simulation.

The paper's lab is one home with 93 devices; this package scales the same
simulation to *populations* of synthetic homes so rollout questions ("what
breaks when an ISP flips X% of homes to IPv6-only?") can be answered at the
scale related work studies them.

- :mod:`repro.fleet.scenario` — seeded home generation + rollout scenarios
- :mod:`repro.fleet.runner` — parallel (multiprocessing) fleet executor
- :mod:`repro.fleet.summary` — compact picklable per-home analytics
- :mod:`repro.fleet.aggregate` — population-level statistics (``FleetFold``)
- :mod:`repro.fleet.shard` — sharded streaming execution (O(shards) memory)
- :mod:`repro.fleet.store` — resumable on-disk shard journals
- :mod:`repro.fleet.stream` — the fleet subcommand on the sharded engine
"""

from repro.fleet.aggregate import ConfigStats, FleetAggregate, ShareDistribution, aggregate_fleet
from repro.fleet.runner import FleetResult, HomeResult, HomeTimeout, run_fleet, simulate_home
from repro.fleet.shard import Fold, run_sharded, shard_ranges
from repro.fleet.store import JournalStore, spec_token
from repro.fleet.stream import FleetFold, run_fleet_stream
from repro.fleet.scenario import (
    SCENARIOS,
    HomeSpec,
    RolloutScenario,
    generate_fleet,
    generate_home,
    get_scenario,
    ipv6_only_flip,
)
from repro.fleet.summary import HomeSummary, summarize_home

__all__ = [
    "SCENARIOS",
    "ConfigStats",
    "FleetAggregate",
    "FleetFold",
    "FleetResult",
    "Fold",
    "HomeResult",
    "HomeSpec",
    "HomeSummary",
    "HomeTimeout",
    "JournalStore",
    "RolloutScenario",
    "ShareDistribution",
    "aggregate_fleet",
    "generate_fleet",
    "generate_home",
    "get_scenario",
    "ipv6_only_flip",
    "run_fleet",
    "run_fleet_stream",
    "run_sharded",
    "shard_ranges",
    "simulate_home",
    "spec_token",
    "summarize_home",
]
