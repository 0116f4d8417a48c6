"""Pinned result digests: which seeds have them, and how to regenerate them.

``pins.json`` maps workload -> key -> the digest of every item of a run
with that seed (``"1234"``) or of a ``--smoke`` run (``"smoke-1234"``).
``run.py`` fails any item whose digest differs from its pin.

Regenerate after a change that is meant to alter simulated results::

    python bench/pins.py

The digests are computed by simulating each item's cells in this
process with ``run_single``; the benchmark's service workload therefore
also checks that the service returns exactly what a direct call does.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
PINS = BENCH / "pins.json"
PINNED_SEED = 1234

#: Items pinned per workload: more than one default-length run reaches.
PINNED_ITEMS = {"fig4-ref": 32, "border-reads": 56, "downgrades": 56, "service-jobs": 112}


def key(seed: int, smoke: bool) -> str:
    return f"smoke-{seed}" if smoke else str(seed)


def load() -> dict:
    return json.loads(PINS.read_text()) if PINS.exists() else {}


def main() -> int:
    sys.path.insert(0, str(BENCH))
    sys.path.insert(0, str(BENCH.parent / "src"))
    from workloads import WORKLOADS, item_digest, result_dict

    pins = {}
    for name, wl in WORKLOADS.items():
        pins[name] = {}
        for smoke, count in ((True, wl.smoke_items), (False, PINNED_ITEMS[name])):
            pins[name][key(PINNED_SEED, smoke)] = [
                item_digest([result_dict(cell.run())
                             for cell in wl.item_cells(PINNED_SEED, index, smoke)])
                for index in range(count)
            ]
            print(f"{name} {key(PINNED_SEED, smoke)}: {count} items", flush=True)
    PINS.write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
