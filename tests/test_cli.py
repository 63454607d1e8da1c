"""Smoke tests for the command-line interface."""

import pytest

from repro.cli import main


def test_devices_command(capsys):
    assert main(["devices"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 93
    assert "Samsung Fridge" in out and "Speaker" in out


def test_unknown_table_rejected():
    with pytest.raises(SystemExit):
        main(["tables", "11"])  # Table 11 is firmware versions; not generated


def test_help_lists_commands(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for command in ("study", "tables", "pcap", "devices", "fleet"):
        assert command in out


def test_fleet_command(capsys):
    assert main(["fleet", "--homes", "3", "--jobs", "1", "--seed", "7", "--scenario", "flip50"]) == 0
    captured = capsys.readouterr()
    assert "Fleet summary: 3/3 homes simulated" in captured.out
    assert "E[bricked/home]" in captured.out


def test_fleet_unknown_scenario(capsys):
    assert main(["fleet", "--homes", "1", "--scenario", "bogus"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_exposure_command(capsys):
    assert main(["exposure", "--homes", "1", "--seed", "3", "--jobs", "1", "--firewall", "stateful"]) == 0
    captured = capsys.readouterr()
    assert "WAN exposure: dual-stack" in captured.out
    assert "stateful" in captured.out
    assert "Homes w/ reach" in captured.out


def test_exposure_rejects_ipv4_only():
    with pytest.raises(SystemExit):
        main(["exposure", "--homes", "1", "--config", "ipv4-only"])


def test_faults_command(capsys):
    assert main(["faults", "--homes", "1", "--seed", "3", "--jobs", "1",
                 "--configs", "dual-stack", "--faults", "dns-blackout"]) == 0
    captured = capsys.readouterr()
    assert "Fault degradation:" in captured.out
    assert "dual-stack/dns-blackout" in captured.out
    assert "TTR med" in captured.out


def test_faults_unknown_preset(capsys):
    assert main(["faults", "--homes", "1", "--faults", "meteor-strike"]) == 2
    assert "unknown fault preset" in capsys.readouterr().err


# ---- exit-code regressions: --homes 0 and worker failures must not exit 0


@pytest.mark.parametrize("command", ["fleet", "exposure", "faults"])
def test_homes_zero_exits_nonzero(command, capsys):
    assert main([command, "--homes", "0"]) == 2
    captured = capsys.readouterr()
    assert "nothing to run" in captured.err
    assert captured.out == ""


# ---- argument validation: negative seeds and duplicate names exit 2


@pytest.mark.parametrize("command", ["fleet", "exposure", "faults", "adversary"])
def test_negative_seed_rejected(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--homes", "1", "--seed", "-1"])
    assert excinfo.value.code == 2
    assert "must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("argv", "what"),
    [
        (["exposure", "--homes", "1", "--firewall", "open", "open"], "firewall mode(s)"),
        (["adversary", "--homes", "1", "--firewall", "stateful", "stateful"], "firewall mode(s)"),
        (["faults", "--homes", "1", "--configs", "dual-stack", "dual-stack"], "config(s)"),
        (["faults", "--homes", "1", "--faults", "dns-blackout", "dns-blackout"], "fault preset(s)"),
    ],
)
def test_duplicate_names_rejected(argv, what, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "duplicate" in err and what.split("(")[0] in err


def test_adversary_command(capsys):
    assert main(["adversary", "--homes", "2", "--seed", "7", "--jobs", "1",
                 "--firewall", "open", "--horizon", "600", "--strategy", "eui64-sweep"]) == 0
    out = capsys.readouterr().out
    assert "Worm outbreak (eui64-sweep" in out
    assert "Entry surface by address kind" in out


def test_adversary_unknown_scenario(capsys):
    assert main(["adversary", "--homes", "1", "--scenario", "bogus"]) == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("argv", "expected"),
    [
        (["faults", "--list-presets"], "dns-blackout"),
        (["lifecycle", "--list-waves"], "staged-v6only"),
    ],
)
def test_list_flags_print_one_name_per_line(argv, expected, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    names = out.splitlines()
    assert expected in names
    assert "none" in names
    assert names == sorted(names)
    # one bare name per line: no spaces, no prose, nothing else
    assert all(name and " " not in name for name in names)


def test_lifecycle_command(capsys):
    assert main(["lifecycle", "--homes", "2", "--epochs", "3", "--seed", "5",
                 "--jobs", "1", "--wave", "flash-cut"]) == 0
    captured = capsys.readouterr()
    assert "Lifecycle (flash-cut, 2 homes x 3 epochs): 6/6 epoch-studies" in captured.out
    assert "Address surface drift" in captured.out
    assert "time to transition" in captured.out


def test_lifecycle_unknown_wave(capsys):
    assert main(["lifecycle", "--homes", "1", "--wave", "warp"]) == 2
    assert "unknown rollout wave" in capsys.readouterr().err


def test_lifecycle_unknown_fault(capsys):
    assert main(["lifecycle", "--homes", "1", "--fault", "solar-flare"]) == 2
    assert "unknown fault preset" in capsys.readouterr().err


def test_lifecycle_no_homes(capsys):
    assert main(["lifecycle", "--homes", "0"]) == 2
    assert "nothing to run" in capsys.readouterr().err


def test_lifecycle_rejects_negative_seed():
    with pytest.raises(SystemExit):
        main(["lifecycle", "--homes", "1", "--seed", "-1"])


FIDELITY_COMMANDS = ("study", "tables", "pcap", "fleet", "exposure", "faults", "lifecycle", "adversary")


@pytest.mark.parametrize("command", FIDELITY_COMMANDS)
def test_fidelity_rejects_unknown_mode(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--fidelity", "frame"])
    assert excinfo.value.code == 2
    assert "--fidelity" in capsys.readouterr().err


def test_fleet_flow_fidelity_runs(capsys):
    assert main(["fleet", "--homes", "1", "--jobs", "1", "--seed", "7", "--fidelity", "flow"]) == 0
    assert "Fleet summary: 1/1 homes simulated" in capsys.readouterr().out


def test_fleet_fidelity_output_identical(capsys):
    args = ["fleet", "--homes", "2", "--jobs", "1", "--seed", "9", "--scenario", "flip50"]
    assert main(args) == 0
    packet_out = capsys.readouterr().out
    assert main(args + ["--fidelity", "flow"]) == 0
    assert capsys.readouterr().out == packet_out


def test_fleet_shards_render_identical_to_jobs(capsys):
    base = ["fleet", "--homes", "3", "--seed", "7", "--fidelity", "flow", "--scenario", "flip50"]
    assert main(base + ["--jobs", "1"]) == 0
    retained = capsys.readouterr().out
    assert main(base + ["--shards", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == retained
    assert "shards=2" in captured.err


def test_fleet_journal_resume_renders_identical(capsys, tmp_path):
    journal = str(tmp_path / "journal")
    base = ["fleet", "--homes", "3", "--seed", "7", "--fidelity", "flow",
            "--shards", "2", "--journal", journal, "--checkpoint-every", "1"]
    assert main(base) == 0
    first = capsys.readouterr().out
    assert main(base) == 0  # everything restored from the journal
    assert capsys.readouterr().out == first


def test_fleet_journal_mismatch_exits_nonzero(capsys, tmp_path):
    journal = str(tmp_path / "journal")
    base = ["fleet", "--homes", "2", "--fidelity", "flow", "--shards", "1", "--journal", journal]
    assert main(base + ["--seed", "7"]) == 0
    capsys.readouterr()
    assert main(base + ["--seed", "8"]) == 2
    assert "different run" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fleet", "exposure", "faults", "lifecycle", "adversary"])
def test_shards_zero_homes_exits_nonzero(command, capsys):
    assert main([command, "--homes", "0", "--shards", "2"]) == 2
    assert "nothing to run" in capsys.readouterr().err


# ---- worker failures: both engines exit 1 with the same report and block

# subcommand -> (module whose worker lookup is broken, attribute, argv, report title)
WORKER_FAILURES = {
    # simulate_home is baked in as run_fleet's default worker at def time,
    # so fail the study call it makes instead.
    "fleet": ("repro.fleet.runner", "run_home_study", ["--homes", "2", "--seed", "7"], "Fleet summary"),
    "exposure": ("repro.exposure.population", "run_home_exposure", ["--homes", "1", "--firewall", "open"],
                 "WAN exposure"),
    "faults": ("repro.faults.population", "run_home_faults",
               ["--homes", "1", "--configs", "dual-stack", "--faults", "none"], "Fault degradation"),
    "lifecycle": ("repro.lifecycle.population", "run_home_epoch", ["--homes", "1", "--epochs", "1"], "Lifecycle"),
    "adversary": ("repro.adversary.population", "run_home_susceptibility", ["--homes", "1", "--firewall", "open"],
                  "Worm outbreak"),
}
ENGINES = (["--jobs", "1"], ["--shards", "1"])


@pytest.mark.parametrize("engine", ENGINES, ids=lambda argv: argv[0].lstrip("-"))
@pytest.mark.parametrize("command", sorted(WORKER_FAILURES))
def test_worker_failure_exits_1_with_the_same_report_on_both_engines(command, engine, capsys, monkeypatch):
    import importlib

    module, attr, argv, title = WORKER_FAILURES[command]

    def exploding_worker(*args, **kwargs):
        raise RuntimeError(f"{command} worker crashed")

    monkeypatch.setattr(importlib.import_module(module), attr, exploding_worker)
    # The case's engine runs first, the other one second: neither order may
    # change a byte of the report or of the failure block.
    runs = []
    for flags in (engine, *(other for other in ENGINES if other != engine)):
        assert main([command, *argv, *flags]) == 1
        captured = capsys.readouterr()
        block = captured.err[captured.err.index("error: "):]
        runs.append((captured.out, block))

    (out, block), (other_out, other_block) = runs
    assert out == other_out
    assert block == other_block
    assert out.startswith(title)  # the report still rendered before the failure exit
    header, *lines = block.splitlines()
    assert header == f"error: {len(lines)}/{len(lines)} home run(s) failed:"
    assert lines and all(line.endswith(f"RuntimeError: {command} worker crashed") for line in lines)
