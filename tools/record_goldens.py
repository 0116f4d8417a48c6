#!/usr/bin/env python
"""Record the fast-path determinism goldens.

Runs every golden cell defined in ``tests/test_fastpath_determinism.py``
with the *current* simulation core and writes the results to
``tests/goldens/core_fastpath.json``. The committed snapshot was recorded
with the pre-optimization core; regenerating it is a deliberate act (a
behavior-changing PR must say so), never part of a normal test run.

Usage::

    PYTHONPATH=src python tools/record_goldens.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(REPO_ROOT))
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from tests.test_fastpath_determinism import GOLDEN_PATH, record_goldens

    payload = record_goldens()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    for key in payload["fig4"]:
        print(f"  fig4 golden: {key}")
    for key, digest in payload["border_trace"].items():
        print(f"  border_trace golden: {key} "
              f"({digest['length']} crossings, sha256 {digest['sha256'][:12]})")
    print("  chaos + recovery signatures recorded")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
