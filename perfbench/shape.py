"""Print the generated population a fleet-style report must cover.

    python perfbench/shape.py HOMES SEED

Prints JSON: ``{"configs": {name: [homes, devices]}, "devices": total}``
for the ``flip50`` fleet, whose portfolio stream (and so every home's
device count) is shared by the fault sweep's homes. Generation only; no
simulation runs.
"""

from __future__ import annotations

import json
import sys

from repro.fleet import generate_fleet, get_scenario


def main(homes: int, seed: int) -> None:
    configs: dict[str, list[int]] = {}
    for spec in generate_fleet(homes, seed=seed, scenario=get_scenario("flip50")):
        row = configs.setdefault(spec.config_name, [0, 0])
        row[0] += 1
        row[1] += spec.size
    devices = sum(row[1] for row in configs.values())
    print(json.dumps({"configs": configs, "devices": devices}, sort_keys=True))


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
