"""Spawn one CLI run and measure it from outside.

- ``setup_s``: spawn until the child reports its entry modules imported
  (it writes its monotonic clock to a pipe; the clock is system-wide).
- ``wall_s``: spawn until the process has exited and been reaped.
- ``cpu_s``: user+system CPU of the process and every worker it reaped,
  from ``wait4``.
- ``peak_rss_mb``: the largest summed resident set of the process tree,
  polled from ``/proc`` every 50 ms, never below the largest single
  process's own peak.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

CHILD = Path(__file__).resolve().parent / "child.py"
POLL_S = 0.05  # one poll costs ~0.5 ms of CPU; keep the poller near 1% of a core
DEFAULT_TIMEOUT_S = 170.0
_PAGE = os.sysconf("SC_PAGE_SIZE")


@dataclass
class Run:
    """One measured CLI run."""

    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    setup_s: Optional[float]
    cpu_s: float
    peak_rss_mb: float


def _tree(pid: int) -> list[int]:
    pids, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        pids.append(current)
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    frontier.extend(int(child) for child in handle.read().split())
            except OSError:
                continue
    return pids


def _tree_rss(pid: int) -> int:
    total = 0
    for member in _tree(pid):
        try:
            with open(f"/proc/{member}/statm") as handle:
                total += int(handle.read().split()[1]) * _PAGE
        except (OSError, IndexError, ValueError):
            continue
    return total


class _RssPoller(threading.Thread):
    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid = pid
        self.peak = 0
        self.done = threading.Event()

    def run(self) -> None:
        while not self.done.is_set():
            self.peak = max(self.peak, _tree_rss(self.pid))
            self.done.wait(POLL_S)


def _kill_group(pid: int) -> None:
    """Kill a timed-out CLI run and every worker it started."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # it ended on its own just now


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(
    root: Path,
    workdir: Path,
    modules: tuple[str, ...],
    cli_args: list[str],
    *,
    trace_dir: Optional[Path] = None,
    timeout: float = DEFAULT_TIMEOUT_S,
) -> Run:
    """Run ``child.py`` once (a set-up probe when ``cli_args`` is empty)."""
    argv = [sys.executable, str(CHILD), ",".join(modules)]
    if trace_dir is not None:
        argv += ["--trace", str(trace_dir)]
    argv += ["--", *cli_args]
    env = child_env(root)
    out_path = workdir / "stdout.txt"
    err_path = workdir / "stderr.txt"
    ready_r, ready_w = os.pipe()
    env["PERFBENCH_READY_FD"] = str(ready_w)
    with os.fdopen(ready_r, "rb") as ready, open(out_path, "wb") as out, open(err_path, "wb") as err:
        try:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                argv,
                cwd=root,
                env=env,
                stdout=out,
                stderr=err,
                pass_fds=(ready_w,),
                start_new_session=True,
            )
        finally:
            os.close(ready_w)
        poller = _RssPoller(proc.pid)
        poller.start()
        killer = threading.Timer(timeout, _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            ended = time.monotonic()
            killer.cancel()
            poller.done.set()
            poller.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        reported = ready.read().decode()
    setup_s = float(reported) - spawned if reported else None
    peak = max(poller.peak, usage.ru_maxrss * 1024)
    return Run(
        returncode=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        wall_s=ended - spawned,
        setup_s=setup_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=peak / 2**20,
    )
