"""Run ``border-control serve`` with span wrappers around its layers.

Usage: ``python bench/serve_traced.py SPAN_DIR serve [serve options...]``
(with ``src`` on ``PYTHONPATH``).

Before handing over to ``repro.cli.main``, this wraps the host layers
(wire, admission, run journal, sweep, supervisor pool, result cache) of
the server process, and the simulator layers that its sweep pool
workers inherit when they fork. When the server exits, its host spans
go to ``SPAN_DIR/host.json``; each pool worker appends one line per
cell to ``SPAN_DIR/cells-<pid>.jsonl`` as the cell ends.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Spans, install_cell_log, install_host_spans  # noqa: E402


def main(argv) -> int:
    directory = Path(argv[0])
    host = Spans()
    install_host_spans(host)
    install_cell_log(Spans(), directory)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[1:])
    finally:
        host.dump(directory / "host.json")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
