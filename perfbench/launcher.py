"""Run the stock ``repro`` CLI with the layer wrappers installed.

Usage (what a traced run spawns instead of ``python -m repro``)::

    PERFBENCH_SPANS_DIR=<dir> PYTHONPATH=src python perfbench/launcher.py serve --port 0

The spans recorded while the server runs are written to
``<dir>/spans-<pid>.json`` when the CLI returns (after a ``shutdown`` op).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import layers
from serverproc import SPANS_DIR_ENV
from spans import Recorder


def main(argv: list[str]) -> int:
    out_dir = Path(os.environ[SPANS_DIR_ENV])
    rec = Recorder(enabled=True)
    layers.install_server_side(rec)
    layers.install_common(rec)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        layers.dump_rows(rec, out_dir / f"spans-{os.getpid()}.json")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
