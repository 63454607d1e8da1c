"""Write expected/<workload>-<seed>.txt for every shipped population.

    python3 perfbench/record_expected.py

Run from the repository root. Each report is produced by the workload's
own command line and must pass the workload's structural check (every
generated home and cell covered) before it is written. Re-record only
when a change is meant to alter these reports.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from measure import spawn
from workloads import EXPECTED, WORKLOADS, Population

ROOT = Path.cwd()


def record(workload: Population) -> str:
    problem = workload.prepare()
    if problem is None:
        workload.before_run()
        run = spawn(ROOT, workload.workdir, workload.modules, workload.argv())
        problem = f"exit code {run.returncode}" if run.returncode else None
        problem = problem or workload.structure_problem(run.stdout, run.stderr)
    if problem is not None:
        raise SystemExit(f"{workload.name} seed {workload.cli_seed}: {problem}")
    return run.stdout


def main() -> int:
    EXPECTED.mkdir(exist_ok=True)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    for cls in WORKLOADS.values():
        if not issubclass(cls, Population):
            continue
        for index in range(len(cls.shipped)):  # benchmark seed i runs shipped[i]
            workdir = Path(tempfile.mkdtemp(prefix="record-", dir=ROOT / ".perfbench"))
            try:
                workload = cls(ROOT, workdir, index)
                report = record(workload)
                workload.expected_path.write_text(report, encoding="utf-8")
                print(f"recorded {workload.expected_path.name}")
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
