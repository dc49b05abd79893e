"""The perfbench harness wraps ``src`` functions by name at run time
(``perfbench/layers.py``).  Installing every hook here makes a deleted or
renamed name that the benchmark times fail the test suite, not only
``make perfbench-smoke``.  The check only reads ``perfbench/``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL_ALL = """
import sys
sys.path.insert(0, sys.argv[1])
import layers
from spans import Recorder

rec = Recorder(enabled=False)
layers.install_server_side(rec)
layers.install_common(rec)
layers.install_client_side(rec)
print("hooks installed")
"""


def test_every_perfbench_hook_finds_its_target():
    # A subprocess: the hooks patch classes and modules for good.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL_ALL, str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120, env=env, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "hooks installed"
