"""Spawning the stock ``repro serve`` and talking to it outside the client.

Every server is a fresh process with a pinned environment: a fixed
``PYTHONHASHSEED`` and one BLAS/OpenMP thread, so hash-order effects and
BLAS thread pools do not differ between runs.  Traced runs start the same
CLI entry point through ``launcher.py``, which installs the layer wrappers
first.
"""

from __future__ import annotations

import json
import os
import re
import socket
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Environment pins applied to every spawned process (and to the
#: benchmark process itself, which re-executes under them).
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

#: Where a traced server writes its spans at exit (one file per pid).
SPANS_DIR_ENV = "PERFBENCH_SPANS_DIR"

_BANNER_RE = re.compile(r"listening on ([\d.]+):(\d+)")


def pinned_environ(src_dir: Path, spans_dir: Path | None = None) -> dict:
    """The environment of a spawned server."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(src_dir)
    env.pop("REPRO_FAULT_PLAN", None)
    if spans_dir is not None:
        env[SPANS_DIR_ENV] = str(spans_dir)
    else:
        env.pop(SPANS_DIR_ENV, None)
    return env


def serve_argv(traced: bool) -> list[str]:
    """``repro serve`` with every CLI default and an ephemeral port."""
    head = ([sys.executable, str(HERE / "launcher.py")] if traced
            else [sys.executable, "-m", "repro"])
    return head + ["serve", "--port", "0"]


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def raw_request(address: tuple[str, int], message: dict,
                timeout: float = 120.0) -> bytes:
    """One JSON-lines request on a fresh connection; returns the reply
    line as received (its length is what the wire carried)."""
    with socket.create_connection(address, timeout=timeout) as sock:
        with sock.makefile("rwb") as fh:
            fh.write(json.dumps(message).encode("utf-8") + b"\n")
            fh.flush()
            line = fh.readline()
    if not line:
        raise ConnectionError(f"no reply to {message.get('op')!r}")
    return line


class Server:
    """One spawned ``repro serve`` process on an ephemeral port."""

    def __init__(self, src_dir: Path, traced: bool = False,
                 spans_dir: Path | None = None):
        self.proc = subprocess.Popen(
            serve_argv(traced), stdout=subprocess.PIPE, text=True,
            env=pinned_environ(src_dir, spans_dir if traced else None))
        self.address = self._wait_banner(timeout_s=60.0)

    def _wait_banner(self, timeout_s: float) -> tuple[str, int]:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            m = _BANNER_RE.search(line)
            if m:
                return m.group(1), int(m.group(2))
        self.kill()
        raise RuntimeError("server did not report its address")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def shutdown(self, timeout_s: float = 60.0) -> None:
        """Stop over the wire and reap; SIGKILL if that fails."""
        if self.proc.poll() is not None:
            return
        try:
            raw_request(self.address, {"op": "shutdown"}, timeout=10.0)
            self.proc.wait(timeout=timeout_s)
        except (OSError, subprocess.TimeoutExpired):
            self.kill()
        finally:
            self.proc.stdout.close()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
