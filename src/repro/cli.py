"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``study``    run the full measurement campaign and print every table/figure
- ``tables``   run the campaign and print only the selected tables
- ``pcap``     run the campaign and export per-experiment pcap files
- ``devices``  print the curated 93-device inventory summary
- ``fleet``    simulate N synthetic homes under a rollout scenario and print
  population-level analytics (bricked homes, IPv6 traffic share, EUI-64
  exposure); ``--jobs`` fans homes out over a process pool
- ``exposure`` scan N synthetic homes from the WAN under one or more router
  firewall modes and print the population attack surface (discoverable /
  reachable devices by address type)
- ``faults``   run N synthetic homes under injected network impairments
  (DNS outages, uplink flaps, RA suppression, ...) paired against clean runs
  and print the degradation grid (unaffected / recovered / degraded /
  bricked, with time-to-recover distributions)
- ``adversary`` run a scanning campaign (EUI-64 sweep, low-IID sweep, or
  hitlist replay) and worm outbreak against a fleet and print deterministic
  time-to-compromise curves by firewall mode, address kind and fleet mix
- ``lifecycle`` advance a fleet through simulated months: device churn,
  firmware updates, RFC 8981 address rotation and a staged ISP rollout
  wave, printing brick-rate / readiness / exposure trajectories per epoch

``faults --list-presets`` and ``lifecycle --list-waves`` print the known
preset/wave names one per line and exit 0 without running anything.

Every simulation command accepts ``--fidelity {packet,flow}``: ``flow``
advances steady-state data flows as aggregate records (DESIGN.md §13) and
produces byte-identical analysis output several times faster; ``pcap``
exports then contain control-plane frames only.

The five population commands (``fleet``, ``exposure``, ``faults``,
``lifecycle``, ``adversary``) share one driver, :func:`_run_population`.
Each describes itself once — banner, progress label, its two engine entry
points, its fold and its renderer — and runs on the ``--jobs`` process pool
or, with ``--shards``/``--journal``, on long-lived shards (DESIGN.md §14).
Both engines end in the subsystem's one fold, so the report, the exit code
and the failure block on stderr are the same whichever ran.

Population commands exit 2 when no work was generated (e.g. ``--homes 0``)
or the arguments are invalid (negative seed, duplicate spec names, unknown
scenario/preset), and 1 when any home worker failed, after printing
whatever completed.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from typing import Callable, NamedTuple

TABLE_CHOICES = ["2", "3", "4", "5", "6", "7", "8", "9", "10", "12", "13"]
FIGURE_CHOICES = ["2", "3", "4", "5"]

# Mirrors repro.faults.population defaults (kept literal: the CLI must not
# import simulation modules before a subcommand actually needs them).
_DEFAULT_FAULT_CONFIGS = ("dual-stack", "ipv6-only")
_DEFAULT_FAULT_NAMES = ("dns-blackout", "uplink-flap")

# Mirrors repro.stack.config.FIDELITY_MODES (same literal-import rule).
_FIDELITY_MODES = ("packet", "flow")


def _add_fidelity(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--fidelity",
        default="packet",
        choices=list(_FIDELITY_MODES),
        help="simulation fidelity: per-packet, or flow-level data plane (same analysis output)",
    )


def _add_sharding(subparser: argparse.ArgumentParser) -> None:
    """Sharded streaming flags, shared by every population command.

    ``--shards`` or ``--journal`` switches the command onto the
    O(shards)-memory sharded engine (DESIGN.md §14); output stays
    byte-identical to the ``--jobs`` engine at any shard count.
    """
    subparser.add_argument(
        "--shards",
        type=_positive_int,
        default=None,
        help="long-lived worker shards; streams aggregates in O(shards) memory",
    )
    subparser.add_argument(
        "--journal",
        metavar="DIR",
        default=None,
        help="checkpoint shard aggregates here; re-running the same spec resumes",
    )
    subparser.add_argument(
        "--checkpoint-every",
        type=_positive_int,
        default=25,
        metavar="N",
        help="journal a shard's running aggregate every N completed homes",
    )


def _add_cache(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="content-addressed study cache; re-runs reuse extracted artifacts",
    )


def _report_cache(directory: str, before: dict) -> None:
    """Print this run's cache hit/miss delta to stderr (stdout untouched)."""
    from repro.cache import read_disk_stats

    after = read_disk_stats(directory)
    delta = {event: after[event] - before.get(event, 0) for event in after}
    hits = delta.get("hit-memory", 0) + delta.get("hit-disk", 0)
    print(
        f"cache: {hits} hit(s) ({delta.get('hit-disk', 0)} from disk), "
        f"{delta.get('miss', 0)} miss(es)",
        file=sys.stderr,
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _duplicates(values) -> list[str]:
    """The values that appear more than once, in first-appearance order."""
    seen: set = set()
    dups: list[str] = []
    for value in values:
        if value in seen and value not in dups:
            dups.append(value)
        seen.add(value)
    return dups


def _reject_duplicates(what: str, values) -> int | None:
    """Exit code 2 when a name list repeats itself (None = fine).

    Repeated scenario/spec names silently double-count cells in every
    aggregate, so they are an input error, not a request.
    """
    dups = _duplicates(values)
    if not dups:
        return None
    print(f"error: duplicate {what}: {', '.join(str(d) for d in dups)}", file=sys.stderr)
    return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    study = sub.add_parser("study", help="run everything, print all tables and figures")
    study.add_argument("--seed", type=int, default=42)
    study.add_argument("--no-scan", action="store_true", help="skip the port scans")
    _add_fidelity(study)

    tables = sub.add_parser("tables", help="run the campaign, print selected tables")
    tables.add_argument("numbers", nargs="+", choices=TABLE_CHOICES, metavar="N")
    tables.add_argument("--seed", type=int, default=42)
    _add_fidelity(tables)

    pcap = sub.add_parser("pcap", help="run the campaign, export pcap files")
    pcap.add_argument("directory")
    pcap.add_argument("--seed", type=int, default=42)
    _add_fidelity(pcap)

    sub.add_parser("devices", help="print the 93-device inventory")

    fleet = sub.add_parser("fleet", help="simulate a fleet of homes, print population analytics")
    fleet.add_argument("--homes", type=_non_negative_int, default=20, help="number of synthetic homes")
    fleet.add_argument("--seed", type=_non_negative_int, default=42)
    fleet.add_argument("--jobs", type=_positive_int, default=1, help="worker processes (1 = serial)")
    fleet.add_argument(
        "--scenario",
        default="flip50",
        help="rollout scenario name (e.g. baseline, flip25, flip50, ipv6-only, legacy, flipNN)",
    )
    fleet.add_argument("--timeout", type=float, default=None, help="per-home wall-clock budget in seconds")
    _add_fidelity(fleet)
    _add_sharding(fleet)
    _add_cache(fleet)

    exposure = sub.add_parser("exposure", help="WAN-scan a fleet of homes, print the population attack surface")
    exposure.add_argument("--homes", type=_non_negative_int, default=8, help="number of synthetic homes")
    exposure.add_argument("--seed", type=_non_negative_int, default=42)
    exposure.add_argument("--jobs", type=_positive_int, default=1, help="worker processes (1 = serial)")
    exposure.add_argument(
        "--config",
        default="dual-stack",
        choices=["ipv6-only", "ipv6-only-rdnss", "ipv6-only-stateful", "dual-stack", "dual-stack-stateful"],
        help="network configuration every home runs (must have IPv6)",
    )
    exposure.add_argument(
        "--firewall",
        nargs="+",
        default=["open", "stateful", "pinhole"],
        choices=["open", "stateful", "pinhole"],
        help="router firewall mode(s) to scan each home under",
    )
    exposure.add_argument("--timeout", type=float, default=None, help="per-scan wall-clock budget in seconds")
    _add_fidelity(exposure)
    _add_sharding(exposure)
    _add_cache(exposure)

    faults = sub.add_parser("faults", help="inject network impairments into a fleet, print the degradation grid")
    faults.add_argument("--homes", type=_non_negative_int, default=4, help="number of synthetic homes")
    faults.add_argument("--seed", type=_non_negative_int, default=42)
    faults.add_argument("--jobs", type=_positive_int, default=1, help="worker processes (1 = serial)")
    faults.add_argument(
        "--configs",
        nargs="+",
        default=list(_DEFAULT_FAULT_CONFIGS),
        choices=[
            "ipv4-only",
            "ipv6-only",
            "ipv6-only-rdnss",
            "ipv6-only-stateful",
            "dual-stack",
            "dual-stack-stateful",
        ],
        help="network configuration(s) every home runs under",
    )
    faults.add_argument(
        "--faults",
        nargs="+",
        default=list(_DEFAULT_FAULT_NAMES),
        metavar="PRESET",
        help="fault preset(s) to inject (e.g. dns-blackout, uplink-flap, v6-brownout, flaky-lan)",
    )
    faults.add_argument("--timeout", type=float, default=None, help="per-home wall-clock budget in seconds")
    faults.add_argument(
        "--list-presets", action="store_true", help="print the known fault preset names and exit"
    )
    _add_fidelity(faults)
    _add_sharding(faults)
    _add_cache(faults)

    lifecycle = sub.add_parser(
        "lifecycle", help="advance a fleet through simulated months, print per-epoch trajectories"
    )
    lifecycle.add_argument("--homes", type=_non_negative_int, default=4, help="number of synthetic homes")
    lifecycle.add_argument("--epochs", type=_positive_int, default=6, help="simulated months per home")
    lifecycle.add_argument("--seed", type=_non_negative_int, default=42)
    lifecycle.add_argument("--jobs", type=_positive_int, default=1, help="worker processes (1 = serial)")
    lifecycle.add_argument(
        "--wave",
        default="staged-v6only",
        help="ISP rollout wave (e.g. none, flash-cut, staged-v6only, v4-sunset, canary)",
    )
    lifecycle.add_argument(
        "--fault",
        default="none",
        metavar="PRESET",
        help="fault preset injected in each home's transition epochs (e.g. ra-blackout)",
    )
    lifecycle.add_argument(
        "--exposure", action="store_true", help="WAN-scan every epoch (IPv6-capable configs only)"
    )
    lifecycle.add_argument(
        "--no-rotation",
        action="store_true",
        help="disable RFC 8981 rotate-out on privacy-addressed devices",
    )
    lifecycle.add_argument("--leave-rate", type=float, default=0.06, help="per-device departure probability per epoch")
    lifecycle.add_argument("--join-rate", type=float, default=0.35, help="per-home arrival probability per epoch")
    lifecycle.add_argument(
        "--update-rate", type=float, default=0.18, help="per-device firmware-update probability per epoch"
    )
    lifecycle.add_argument("--timeout", type=float, default=None, help="per-epoch wall-clock budget in seconds")
    lifecycle.add_argument(
        "--list-waves", action="store_true", help="print the known rollout wave names and exit"
    )
    _add_fidelity(lifecycle)
    _add_sharding(lifecycle)
    _add_cache(lifecycle)

    adversary = sub.add_parser(
        "adversary", help="run a scanning campaign + worm outbreak against a fleet, print time-to-compromise"
    )
    adversary.add_argument("--homes", type=_non_negative_int, default=6, help="number of synthetic homes")
    adversary.add_argument("--seed", type=_non_negative_int, default=42)
    adversary.add_argument("--jobs", type=_positive_int, default=1, help="worker processes (1 = serial)")
    adversary.add_argument(
        "--scenario",
        default="baseline",
        help="rollout scenario the fleet mix is drawn from (e.g. baseline, flip50, stateful-rollout)",
    )
    adversary.add_argument(
        "--firewall",
        nargs="+",
        default=["open", "stateful", "pinhole"],
        choices=["open", "stateful", "pinhole"],
        help="router firewall mode(s) to run the outbreak under",
    )
    adversary.add_argument(
        "--strategy",
        default="eui64-sweep",
        choices=["eui64-sweep", "low-iid", "hitlist"],
        help="how the attacker (and the worm) targets addresses",
    )
    adversary.add_argument(
        "--fault",
        default="none",
        metavar="PRESET",
        help="fault schedule injected into every home (e.g. ra-settle-outage, dhcpv6-outage)",
    )
    adversary.add_argument("--scan-rate", type=float, default=2000.0, help="probes/sec per scanning vantage")
    adversary.add_argument("--dt", type=float, default=30.0, help="epidemic clock tick in seconds")
    adversary.add_argument("--horizon", type=float, default=3600.0, help="outbreak duration in seconds")
    adversary.add_argument(
        "--seeds", type=_positive_int, default=1, help="homes the bootstrap campaign compromises before it stops"
    )
    adversary.add_argument(
        "--recover", type=float, default=None, help="mean seconds before an infected home is patched (SIR removal)"
    )
    adversary.add_argument(
        "--hitlist-background",
        type=_non_negative_int,
        default=200_000,
        help="leaked addresses on the replay list beyond this population (hitlist strategy only)",
    )
    adversary.add_argument("--timeout", type=float, default=None, help="per-home wall-clock budget in seconds")
    _add_fidelity(adversary)
    _add_sharding(adversary)
    _add_cache(adversary)
    return parser


def _population_exit(aggregate) -> int:
    """Exit code for a population aggregate: 0 clean, 1 when any run failed.

    ``failed`` entries are tuples whose first element is the home id and
    whose last is the error's final line (middle elements, when present,
    name the firewall / config / epoch cell — already part of the line the
    report renders, so only the ends are printed here).
    """
    failed = aggregate.failed
    if not failed:
        return 0
    print(f"error: {len(failed)}/{aggregate.total_runs} home run(s) failed:", file=sys.stderr)
    for entry in failed:
        print(f"  home {entry[0]}: {entry[-1]}", file=sys.stderr)
    return 1


class _Population(NamedTuple):
    """How one population subcommand runs on either engine.

    ``banner`` is the stderr banner up to (not including) its engine field;
    ``cell`` labels a spec in the per-home progress line. ``stream`` runs
    the sharded engine and returns the aggregate; ``specs`` + ``run`` run
    the pool engine, whose results ``fold`` aggregates into the same value.
    """

    banner: str
    empty: str
    cell: Callable[[object], str]
    stream: Callable[..., object]
    specs: Callable[[], list]
    run: Callable[..., object]
    fold: object
    render: Callable[[object], str]


def _run_population(args, population: _Population) -> int:
    """Run a population subcommand on the engine its flags select.

    ``--shards``/``--journal`` pick the sharded engine, anything else the
    ``--jobs`` pool; both end in the same aggregate, report and exit code.
    """
    from repro.fleet.shard import fold_results

    if args.homes == 0:
        print(f"error: nothing to run — {population.empty}", file=sys.stderr)
        return 2
    sharded = args.shards is not None or args.journal is not None
    engine = f"shards={args.shards or 1}" if sharded else f"jobs={args.jobs}"
    print(f"{population.banner}, {engine}) ...", file=sys.stderr)

    def progress(done, total, result):
        status = "ok" if result.ok else "FAILED"
        cell = population.cell(result.spec)
        print(f"  home {result.spec.home_id:4d} {cell}[{done}/{total}] {status}", file=sys.stderr)

    def shard_progress(done, total, shard, units):
        print(f"  shard {shard} [{done}/{total}] done ({units} home(s))", file=sys.stderr)

    cache = before = None
    if args.cache is not None:
        from repro.cache import CacheSettings, read_disk_stats

        cache = CacheSettings(directory=args.cache)
        before = read_disk_stats(args.cache)
    start = time.time()
    try:
        if sharded:
            aggregate = population.stream(
                shards=args.shards or 1,
                timeout=args.timeout,
                journal_dir=args.journal,
                checkpoint_every=args.checkpoint_every,
                progress=shard_progress,
                cache=cache,
            )
        else:
            fleet = population.run(
                population.specs(), jobs=args.jobs, timeout=args.timeout, progress=progress, cache=cache
            )
            aggregate = fold_results(population.fold, fleet.results)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    print(f"done in {time.time() - start:.1f}s", file=sys.stderr)
    if cache is not None:
        _report_cache(args.cache, before)
    print(population.render(aggregate))
    return _population_exit(aggregate)


def _run_study(seed: int, with_scan: bool = True, fidelity: str = "packet"):
    from repro.core.analysis import StudyAnalysis
    from repro.testbed.study import run_full_study

    start = time.time()
    print(f"running the full study (seed={seed}, fidelity={fidelity}) ...", file=sys.stderr)
    study = run_full_study(seed=seed, with_port_scan=with_scan, fidelity=fidelity)
    print(f"done in {time.time() - start:.0f}s ({study.total_frames()} frames)", file=sys.stderr)
    return study, StudyAnalysis(study)


def _print_tables(analysis, numbers: list[str]) -> None:
    from repro import reports

    renderers = {
        "2": lambda a: reports.render_table2(),
        "3": reports.render_table3,
        "4": reports.render_table4,
        "5": reports.render_table5,
        "6": reports.render_table6,
        "7": reports.render_table7,
        "8": reports.render_table8,
        "9": reports.render_table9,
        "10": reports.render_table10,
        "12": reports.render_table12,
        "13": reports.render_table13,
    }
    for number in numbers:
        print(renderers[number](analysis), end="\n\n")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "devices":
        from repro.devices import build_inventory

        for profile in build_inventory():
            print(
                f"{profile.name:24s} {profile.category.value:10s} "
                f"{profile.manufacturer:22s} {profile.os or '-':14s} {profile.purchase_year}"
            )
        return 0

    if args.command == "study":
        from repro import reports

        study, analysis = _run_study(args.seed, with_scan=not args.no_scan, fidelity=args.fidelity)
        _print_tables(analysis, TABLE_CHOICES)
        for renderer in (
            reports.render_figure2,
            reports.render_figure3,
            reports.render_figure4,
            reports.render_figure5,
        ):
            print(renderer(analysis), end="\n\n")
        return 0

    if args.command == "tables":
        # No table renderer consumes port-scan results, so skip the scan.
        _, analysis = _run_study(args.seed, with_scan=False, fidelity=args.fidelity)
        _print_tables(analysis, args.numbers)
        return 0

    if args.command == "fleet":
        from repro.fleet import FleetFold, generate_fleet, get_scenario, run_fleet, run_fleet_stream
        from repro.reports import render_fleet_summary

        try:
            scenario = get_scenario(args.scenario)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        setup = dict(seed=args.seed, scenario=scenario, fidelity=args.fidelity)
        return _run_population(
            args,
            _Population(
                banner=f"simulating {args.homes} homes (scenario={scenario.name}, seed={args.seed}",
                empty="--homes 0 generates an empty fleet",
                cell=lambda spec: "",
                stream=functools.partial(run_fleet_stream, args.homes, **setup),
                specs=functools.partial(generate_fleet, args.homes, **setup),
                run=run_fleet,
                fold=FleetFold(),
                render=render_fleet_summary,
            ),
        )

    if args.command == "exposure":
        from repro.exposure import generate_exposure_specs, run_exposure_fleet
        from repro.exposure.population import ExposureFold, run_exposure_stream
        from repro.reports import render_exposure

        code = _reject_duplicates("firewall mode(s)", args.firewall)
        if code is not None:
            return code
        setup = dict(seed=args.seed, config_name=args.config, firewalls=tuple(args.firewall), fidelity=args.fidelity)
        return _run_population(
            args,
            _Population(
                banner=(
                    f"WAN-scanning {args.homes} homes x {len(args.firewall)} firewall mode(s) "
                    f"(config={args.config}, seed={args.seed}"
                ),
                empty="--homes 0 generates an empty scan fleet",
                cell=lambda spec: f"[{spec.firewall}] ",
                stream=functools.partial(run_exposure_stream, args.homes, **setup),
                specs=functools.partial(generate_exposure_specs, args.homes, **setup),
                run=run_exposure_fleet,
                fold=ExposureFold(),
                render=render_exposure,
            ),
        )

    if args.command == "faults":
        if args.list_presets:
            from repro.faults.schedule import FAULT_PRESETS

            for name in sorted(FAULT_PRESETS):
                print(name)
            return 0

        from repro.faults import generate_fault_specs, run_fault_fleet
        from repro.faults.population import FaultFold, run_faults_stream
        from repro.reports import render_faults

        for what, values in (("config(s)", args.configs), ("fault preset(s)", args.faults)):
            code = _reject_duplicates(what, values)
            if code is not None:
                return code
        setup = dict(
            seed=args.seed,
            config_names=tuple(args.configs),
            fault_names=tuple(args.faults),
            fidelity=args.fidelity,
        )
        return _run_population(
            args,
            _Population(
                banner=(
                    f"injecting {len(args.faults)} fault(s) into {args.homes} homes x "
                    f"{len(args.configs)} config(s) (seed={args.seed}"
                ),
                empty="--homes 0 generates an empty fault fleet",
                cell=lambda spec: f"[{spec.config_name}] ",
                stream=functools.partial(run_faults_stream, args.homes, **setup),
                specs=functools.partial(generate_fault_specs, args.homes, **setup),
                run=run_fault_fleet,
                fold=FaultFold(),
                render=render_faults,
            ),
        )

    if args.command == "lifecycle":
        if args.list_waves:
            from repro.lifecycle.rollout import WAVES

            for name in sorted(WAVES):
                print(name)
            return 0

        from repro.lifecycle import LifecycleParams, build_timelines, run_lifecycle_fleet, timeline_specs
        from repro.lifecycle.population import LifecycleFold, run_lifecycle_stream
        from repro.reports import render_lifecycle

        try:
            params = LifecycleParams(
                epochs=args.epochs,
                wave=args.wave,
                leave_rate=args.leave_rate,
                join_rate=args.join_rate,
                update_rate=args.update_rate,
                fault_name=args.fault,
                exposure=args.exposure,
                rotation=not args.no_rotation,
                fidelity=args.fidelity,
            )
        except (KeyError, ValueError) as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        return _run_population(
            args,
            _Population(
                banner=(
                    f"advancing {args.homes} homes through {args.epochs} epochs "
                    f"(wave={args.wave}, fault={args.fault}, seed={args.seed}"
                ),
                empty="--homes 0 generates an empty timeline",
                cell=lambda spec: f"[epoch {spec.epoch}] ",
                stream=functools.partial(run_lifecycle_stream, args.homes, seed=args.seed, params=params),
                specs=lambda: timeline_specs(build_timelines(args.homes, seed=args.seed, params=params)),
                run=run_lifecycle_fleet,
                fold=LifecycleFold(wave_name=args.wave),
                render=render_lifecycle,
            ),
        )

    if args.command == "adversary":
        from repro.adversary import WormParams, generate_adversary_specs, run_adversary_fleet
        from repro.adversary.population import AdversaryFold, run_adversary_stream
        from repro.fleet import get_scenario
        from repro.reports import render_adversary

        code = _reject_duplicates("firewall mode(s)", args.firewall)
        if code is not None:
            return code
        try:
            scenario = get_scenario(args.scenario)
            params = WormParams(
                strategy=args.strategy,
                scan_rate=args.scan_rate,
                dt=args.dt,
                horizon=args.horizon,
                seeds=args.seeds,
                recovery=args.recover,
                hitlist_background=args.hitlist_background,
            )
        except (KeyError, ValueError) as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        setup = dict(
            seed=args.seed,
            scenario=scenario,
            firewalls=tuple(args.firewall),
            fault_name=args.fault,
            fidelity=args.fidelity,
        )
        return _run_population(
            args,
            _Population(
                banner=(
                    f"attacking {args.homes} homes x {len(args.firewall)} firewall mode(s) "
                    f"(strategy={args.strategy}, scenario={scenario.name}, fault={args.fault}, "
                    f"seed={args.seed}"
                ),
                empty="--homes 0 generates an empty target population",
                cell=lambda spec: f"[{spec.firewall}] ",
                stream=functools.partial(run_adversary_stream, args.homes, params=params, **setup),
                specs=functools.partial(generate_adversary_specs, args.homes, **setup),
                run=run_adversary_fleet,
                fold=AdversaryFold(params=params, seed=args.seed, scenario_name=scenario.name),
                render=render_adversary,
            ),
        )

    if args.command == "pcap":
        study, _ = _run_study(args.seed, with_scan=False, fidelity=args.fidelity)
        for path in study.export_pcaps(args.directory):
            print(path)
        return 0

    return 1


if __name__ == "__main__":
    raise SystemExit(main())
