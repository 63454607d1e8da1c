"""The process the benchmark spawns for every CLI run.

    python perfbench/child.py MODULES [--trace DIR] -- <repro CLI args>

``MODULES`` is a comma-separated list of the workload's entry modules.
The child imports them, writes the monotonic clock reading to the file
descriptor named by ``PERFBENCH_READY_FD`` (that instant ends ``setup_s``)
and then runs ``repro.cli.main`` on the remaining arguments, exactly as
``python -m repro`` would. With no CLI arguments it exits after the ready
signal (a set-up probe). With ``--trace DIR`` it first installs the
tracer and leaves one trace file per process in ``DIR``.
"""

from __future__ import annotations

import importlib
import os
import sys
import time


def main(argv: list[str]) -> int:
    split = argv.index("--")
    options, cli_args = argv[:split], argv[split + 1:]
    modules = [name for name in options[0].split(",") if name]
    trace_dir = options[options.index("--trace") + 1] if "--trace" in options else None

    started = time.monotonic()
    for name in modules:
        importlib.import_module(name)
    imported = time.monotonic()
    ready_fd = os.environ.get("PERFBENCH_READY_FD")
    if ready_fd is not None:
        os.write(int(ready_fd), repr(imported).encode())
        os.close(int(ready_fd))
    if not cli_args:
        return 0

    from repro.cli import main as cli_main

    if trace_dir is None:
        return cli_main(cli_args)

    import tracer

    session = tracer.install(trace_dir, import_s=imported - started)
    try:
        code = cli_main(cli_args)
    finally:
        sys.stdout.flush()
        session.finish()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
