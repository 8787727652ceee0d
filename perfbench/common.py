"""Helpers shared by ``run.py`` and its workload modules."""

from __future__ import annotations

import os
import selectors
import statistics
import time

from calib import chunk

#: Scratch directory (inside the checkout) for sockets, child results
#: and span dumps; listed in the repository's ``.gitignore``.
WORK_DIR = ".perfbench"


def child_env(root: str) -> dict:
    """Environment for every child: the source tree on the path, and a
    fixed hash seed so set iteration (P2P source tie-breaks) and hence
    simulated results repeat across processes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def read_line(proc, deadline: float) -> bytes:
    """The child's next stdout line (binary pipe), or ``RuntimeError``
    if it exits or ``deadline`` (``perf_counter`` seconds) passes."""
    buf = b""
    fd = proc.stdout.fileno()
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        while not buf.endswith(b"\n"):
            left = deadline - time.perf_counter()
            if left <= 0:
                raise RuntimeError("timed out waiting for a child")
            if not sel.select(timeout=left):
                continue
            chunk = os.read(fd, 1)
            if not chunk:
                raise RuntimeError(
                    f"child exited early (code {proc.wait()})")
            buf += chunk
    return buf


def latency_ms(seconds: list[float]) -> dict[str, float]:
    """p50, p75 and p90 of request latencies, in milliseconds."""
    if len(seconds) < 2:
        seconds = seconds * 2
    cuts = statistics.quantiles(seconds, n=20, method="inclusive")
    return {"p50": cuts[9] * 1e3, "p75": cuts[14] * 1e3,
            "p90": cuts[17] * 1e3}


def calibrate(reps: int = 5) -> list[float]:
    """Host-speed probe: milliseconds per calibration chunk (``calib.py``).

    Taken before and after each run, so drift of the machine between
    two sets of runs can be told apart from a change in the code.
    """
    return [chunk() * 1e3 for _ in range(reps)]
