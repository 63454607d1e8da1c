"""``fold_results``: the pool engine's aggregation, on hand-built results.

No simulation runs here. The results are constructed directly so the
grouping contract — one ``Fold.add`` per home, however the home's cells are
interleaved — is checked in isolation.
"""

import pytest

from repro.adversary import WormParams
from repro.adversary.population import AdversaryFold
from repro.exposure.population import ExposureFold
from repro.faults.analysis import CellOutcome, HomeFaultSummary
from repro.faults.population import FaultAggregate, FaultFold, FaultSpec
from repro.fleet import FleetFold, FleetResult, HomeResult
from repro.fleet.shard import fold_results
from repro.lifecycle.population import LifecycleFold


def _spec(home_id: int, config_name: str) -> FaultSpec:
    return FaultSpec(
        home_id=home_id,
        sim_seed=100 + home_id,
        config_name=config_name,
        device_names=("Device A",),
        fault_names=("dns-blackout",),
    )


def _ok(home_id: int, config_name: str) -> HomeResult:
    cell = CellOutcome(
        device="Device A",
        fault="dns-blackout",
        outcome="recovered",
        time_to_recover=12.0,
        dns_retries=1,
        dns_timeouts=0,
        flow_failures=0,
        fallbacks=0,
    )
    summary = HomeFaultSummary(
        home_id=home_id,
        config_name=config_name,
        device_count=1,
        cells=(cell,),
        injected=(("dns-blackout", 2),),
    )
    return HomeResult(spec=_spec(home_id, config_name), summary=summary)


def test_non_adjacent_arms_of_one_home_count_it_once():
    results = (_ok(0, "dual-stack"), _ok(1, "dual-stack"), _ok(0, "ipv6-only"))
    aggregate = fold_results(FaultFold(), FleetResult(results=results, jobs=1).results)
    assert aggregate.homes == 2
    assert aggregate.total_runs == 3
    assert aggregate.cell("dual-stack", "dns-blackout").homes == 2
    assert aggregate.cell("ipv6-only", "dns-blackout").homes == 1


@pytest.mark.parametrize(
    "fold",
    [
        FleetFold(),
        ExposureFold(),
        FaultFold(),
        LifecycleFold(wave_name="none"),
        AdversaryFold(params=WormParams(), seed=1),
    ],
    ids=lambda fold: type(fold).__name__,
)
def test_empty_fleet_finalizes_to_the_empty_aggregate(fold):
    assert fold_results(fold, FleetResult(results=(), jobs=1).results) == fold.finalize(fold.empty())


def test_empty_faults_fleet_aggregate():
    aggregate = fold_results(FaultFold(), ())
    assert aggregate == FaultAggregate(total_runs=0, failed=(), homes=0, fault_names=(), cells=())


def test_failed_cell_lands_in_failed_with_its_last_traceback_line():
    failed = HomeResult(
        spec=_spec(4, "ipv6-only"),
        error='Traceback (most recent call last):\n  File "x.py", line 1\nRuntimeError: arm exploded\n',
    )
    aggregate = fold_results(FaultFold(), (_ok(4, "dual-stack"), failed))
    assert aggregate.failed == ((4, "ipv6-only", "RuntimeError: arm exploded"),)
    assert aggregate.total_runs == 2
    assert aggregate.completed == 1
    assert aggregate.homes == 1
