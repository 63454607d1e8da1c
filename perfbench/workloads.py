"""The three workloads: what each runs, how it is prepared and checked.

Every workload is the real ``repro`` CLI. ``study`` passes the benchmark's
seed to the CLI unchanged: its work and its output do not depend on the
seed. The population workloads draw their homes from the seed, and how
much work a population holds swings with it (60-home fleets over seeds
1-10 schedule 204k-270k simulator events, a quartile spread of about 20%
of the median), so they run one of two shipped populations instead: the
benchmark's seed picks which, and the whole report is checked byte for
byte against ``expected/<workload>-<seed>.txt``. The first of each pair
is the default to develop against, the second is held out to confirm a
claim on; the pairs were chosen to need about the same CPU time.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Optional

from measure import child_env, spawn

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"

TABLES = ("2", "3", "4", "5", "6", "7", "8", "9", "10", "12", "13")
FIGURES = ("2", "3", "4", "5")

FLEET_HOMES = 60
FAULT_HOMES = 10
FAULT_CONFIGS = ("dual-stack", "ipv6-only")  # the CLI's default --configs
SEEDED_FAULTS = ("dns-blackout", "uplink-flap")
SWEPT_FAULTS = SEEDED_FAULTS + ("v6-brownout", "ra-blackout", "flaky-lan")


class Workload:
    """A CLI command line plus its preparation and its output check."""

    name: str
    homes: int
    modules: tuple[str, ...]  # imported before ``setup_s`` ends

    def __init__(self, root: Path, workdir: Path, seed: int):
        self.root = root
        self.workdir = workdir
        self.cli_seed = self.cli_seed_for(seed)

    @classmethod
    def cli_seed_for(cls, seed: int) -> int:
        return seed

    def prepare(self) -> Optional[str]:
        """Work done once per benchmark run, outside every metric."""
        return None

    def before_run(self) -> None:
        """Work done before each CLI run, outside every metric."""

    def argv(self) -> list[str]:
        raise NotImplementedError

    def check(self, returncode: int, stdout: str, stderr: str) -> Optional[str]:
        """None when the run's output is right, else what is wrong."""
        raise NotImplementedError


class Study(Workload):
    """The paper-reproduction run: 93 devices x 6 configs, packet fidelity."""

    name = "study"
    homes = 1  # the lab is one home
    modules = ("repro.cli", "repro.core.analysis", "repro.testbed.study", "repro.reports")

    def prepare(self) -> Optional[str]:
        outputs = self.root / "benchmarks" / "output"
        parts = []
        for kind, numbers in (("table", TABLES), ("figure", FIGURES)):
            for number in numbers:
                path = outputs / f"{kind}{number}.txt"
                if not path.exists():
                    return f"missing golden output {path.relative_to(self.root)}"
                parts.append(path.read_text(encoding="utf-8") + "\n")  # then a blank line
        self.golden = "".join(parts)
        return None

    def argv(self) -> list[str]:
        return ["study", "--seed", str(self.cli_seed)]

    def check(self, returncode, stdout, stderr):
        if returncode != 0:
            return f"exit code {returncode}"
        if stdout != self.golden:
            return "stdout differs from the table/figure goldens in benchmarks/output"
        return None


def table_rows(report: str, title_prefix: str) -> list[list[str]]:
    """The data rows of the first aligned table whose title starts so."""
    lines = report.splitlines()
    for at, line in enumerate(lines):
        if line.startswith(title_prefix):
            columns = len(lines[at + 3].split())  # the dashed rule under the header
            rows = []
            for row in lines[at + 4:]:
                cells = re.split(r"\s{2,}", row.strip())
                if len(cells) != columns:
                    break
                rows.append(cells)
            return rows
    return []


class Population(Workload):
    """A fleet-style workload run on one of its two shipped populations."""

    shipped: tuple[int, int]  # (default seed, held-out seed)

    @classmethod
    def cli_seed_for(cls, seed: int) -> int:
        return cls.shipped[seed % len(cls.shipped)]

    @property
    def expected_path(self) -> Path:
        return EXPECTED / f"{self.name}-{self.cli_seed}.txt"

    def prepare(self) -> Optional[str]:
        path = self.expected_path
        self.expected = path.read_text(encoding="utf-8") if path.exists() else None
        return None

    def check(self, returncode, stdout, stderr):
        if returncode != 0:
            return f"exit code {returncode}"
        if self.expected is None:
            return f"no expected/{self.expected_path.name} to check against"
        if stdout != self.expected:
            return f"stdout differs from expected/{self.expected_path.name}"
        return None

    def structure_problem(self, stdout: str, stderr: str) -> Optional[str]:
        """What is wrong with a report that has no expected copy yet
        (used when recording one): its rows must cover the generated homes."""
        raise NotImplementedError

    def shape(self) -> dict:
        out = subprocess.run(
            [sys.executable, str(HERE / "shape.py"), str(self.homes), str(self.cli_seed)],
            cwd=self.root,
            env=child_env(self.root),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        return json.loads(out.stdout)


class Fleet(Population):
    """Many small flow-fidelity homes on the retained ``--jobs`` engine."""

    name = "fleet"
    homes = FLEET_HOMES
    shipped = (42, 5)
    modules = ("repro.cli", "repro.fleet", "repro.reports")

    def argv(self) -> list[str]:
        return [
            "fleet", "--homes", str(self.homes), "--seed", str(self.cli_seed),
            "--fidelity", "flow", "--scenario", "flip50", "--jobs", "2",
        ]

    def structure_problem(self, stdout, stderr):
        title = f"Fleet summary: {self.homes}/{self.homes} homes simulated\n"
        if not stdout.startswith(title):
            return "report does not cover every home"
        seen = {row[0]: [int(row[1]), int(row[2])] for row in table_rows(stdout, "Fleet summary:")}
        generated = self.shape()["configs"]
        if seen != generated:
            return f"per-config homes/devices {seen} != generated {generated}"
        return None


class Faults(Population):
    """An incremental fault sweep over a store seeded with two presets."""

    name = "faults"
    homes = FAULT_HOMES
    shipped = (42, 6)
    modules = ("repro.cli", "repro.faults", "repro.faults.population", "repro.reports", "repro.cache")

    def _args(self, faults: tuple[str, ...], store: Path) -> list[str]:
        return [
            "faults", "--homes", str(self.homes), "--seed", str(self.cli_seed),
            "--fidelity", "flow", "--shards", "2", "--cache", str(store), "--faults", *faults,
        ]

    def prepare(self) -> Optional[str]:
        self.seeded = self.workdir / "seeded-store"
        self.store = self.workdir / "store"
        run = spawn(self.root, self.workdir, (), self._args(SEEDED_FAULTS, self.seeded))
        if run.returncode != 0:
            return f"seeding the cache store failed with exit code {run.returncode}"
        return super().prepare()

    def before_run(self) -> None:
        shutil.rmtree(self.store, ignore_errors=True)
        shutil.copytree(self.seeded, self.store)

    def argv(self) -> list[str]:
        return self._args(SWEPT_FAULTS, self.store)

    def _cache_problem(self, stderr: str) -> Optional[str]:
        arms = self.homes * len(FAULT_CONFIGS)
        reused = arms * (len(SEEDED_FAULTS) + 1)  # seeded presets + baseline
        fresh = arms * (len(SWEPT_FAULTS) - len(SEEDED_FAULTS))
        line = f"cache: {reused} hit(s) ({reused} from disk), {fresh} miss(es)"
        return None if line in stderr.splitlines() else f"stderr lacks {line!r}"

    def check(self, returncode, stdout, stderr):
        return super().check(returncode, stdout, stderr) or self._cache_problem(stderr)

    def structure_problem(self, stdout, stderr):
        arms = self.homes * len(FAULT_CONFIGS)
        title = f"Fault degradation: {self.homes} homes, {arms}/{arms} cells\n"
        if not stdout.startswith(title):
            return "report does not cover every cell"
        rows = table_rows(stdout, "Fault degradation:")
        if len(rows) != len(FAULT_CONFIGS) * len(SWEPT_FAULTS):
            return f"{len(rows)} config/fault rows, expected {len(FAULT_CONFIGS) * len(SWEPT_FAULTS)}"
        devices = self.shape()["devices"]
        for row in rows:
            homes, row_devices, *outcomes = (int(value) for value in row[1:7])
            if homes != self.homes or row_devices != devices or sum(outcomes) != devices:
                return f"row {row[0]}: homes/devices/outcomes do not add up"
        return self._cache_problem(stderr)


WORKLOADS = {workload.name: workload for workload in (Study, Fleet, Faults)}
