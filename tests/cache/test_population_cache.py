"""Integration: cached populations return the same results, faster.

The cache's correctness contract is byte-identity — a cached run's
aggregate (and the report rendered from it) must equal the uncached run's
exactly, at any ``--jobs``, warm or cold. These tests exercise the faults
population (the subsystem with the richest sharing structure: a clean
baseline arm common to every schedule) end to end through both the
retained fleet path and the CLI.
"""

import sys

import pytest

from repro.cache import (
    CacheSettings,
    activated,
    process_counters,
    read_disk_stats,
    reset_process_caches,
)
from repro.cache import fingerprint
from repro.faults.population import aggregate_faults, generate_fault_specs, run_fault_fleet
from repro.reports import render_faults

FLEET_KW = dict(config_names=("ipv6-only",), fault_names=("dns-blackout", "ra-blackout"), fidelity="flow")


@pytest.fixture(autouse=True)
def fresh_process_caches():
    reset_process_caches()
    yield
    reset_process_caches()


@pytest.fixture(scope="module")
def uncached_report():
    specs = generate_fault_specs(1, seed=11, **FLEET_KW)
    return render_faults(aggregate_faults(run_fault_fleet(specs)))


def test_cached_run_matches_uncached_byte_for_byte(tmp_path, uncached_report):
    specs = generate_fault_specs(1, seed=11, **FLEET_KW)
    cache = CacheSettings(directory=str(tmp_path / "store"), scope="pop")
    fleet = run_fault_fleet(specs, cache=cache)
    assert render_faults(aggregate_faults(fleet)) == uncached_report
    assert process_counters()["study_cache_misses"] == 3  # baseline + 2 arms


def test_warm_rerun_is_all_disk_hits(tmp_path, uncached_report):
    specs = generate_fault_specs(1, seed=11, **FLEET_KW)
    cache = CacheSettings(directory=str(tmp_path / "store"), scope="warm")
    run_fault_fleet(specs, cache=cache)

    reset_process_caches()  # a new run: memory gone, disk remains
    fleet = run_fault_fleet(specs, cache=cache)
    assert render_faults(aggregate_faults(fleet)) == uncached_report
    snapshot = process_counters()
    assert snapshot["study_cache_misses"] == 0
    assert snapshot["study_cache_disk_hits"] == 3
    assert read_disk_stats(cache.directory)["miss"] == 3  # only the cold run


def test_arm_per_spec_sweep_shares_one_baseline():
    # Split the two-fault spec into one spec per schedule: without the cache
    # each spec re-simulates the clean baseline; with it the second spec's
    # baseline is a memory hit — and the outcome grid is unchanged.
    [combined] = generate_fault_specs(1, seed=11, **FLEET_KW)
    import dataclasses

    split = [
        dataclasses.replace(combined, fault_names=(name,)) for name in combined.fault_names
    ]
    plain = render_faults(aggregate_faults(run_fault_fleet(split)))

    reset_process_caches()
    fleet = run_fault_fleet(split, cache=CacheSettings(scope="sweep"))
    assert render_faults(aggregate_faults(fleet)) == plain
    snapshot = process_counters()
    assert snapshot["studies_deduped"] == 1   # the shared baseline
    assert snapshot["study_cache_misses"] == 3


def test_memory_only_cache_needs_no_directory(uncached_report):
    specs = generate_fault_specs(1, seed=11, **FLEET_KW)
    fleet = run_fault_fleet(specs, cache=CacheSettings(scope="mem"))
    assert render_faults(aggregate_faults(fleet)) == uncached_report


def test_cli_cache_flag_end_to_end(tmp_path, capsys):
    from repro.cli import main

    argv = [
        "faults", "--homes", "1", "--seed", "11", "--configs", "ipv6-only",
        "--faults", "dns-blackout", "--fidelity", "flow",
        "--cache", str(tmp_path / "clistore"),
    ]
    assert main(argv) == 0
    cold = capsys.readouterr()
    assert "miss(es)" in cold.err

    reset_process_caches()
    assert main(argv) == 0
    warm = capsys.readouterr()
    assert warm.out == cold.out  # byte-identical stdout
    assert "0 miss(es)" in warm.err
    assert "2 hit(s) (2 from disk)" in warm.err


@pytest.fixture
def fingerprint_calls(monkeypatch):
    """Count study_fingerprint calls wherever a repro module holds the name."""
    calls = []
    original = fingerprint.study_fingerprint

    def counting(**closure):
        calls.append(closure)
        return original(**closure)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "study_fingerprint", None) is original:
            monkeypatch.setattr(module, "study_fingerprint", counting)
    return calls


def test_uncached_worker_never_fingerprints(fingerprint_calls):
    from repro.fleet import HomeSpec, simulate_home

    spec = HomeSpec(home_id=3, sim_seed=5, config_name="dual-stack", device_names=("Echo Dot 3rd gen",), fidelity="flow")
    assert simulate_home(spec).home_id == 3
    assert fingerprint_calls == []

    with activated(CacheSettings(scope="fp")):
        simulate_home(spec)
    assert len(fingerprint_calls) == 1  # the hook does reach the worker's lookup

