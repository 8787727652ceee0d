"""serve-mix: the real ``grout serve`` daemon under a seeded request mix.

The daemon runs as its own process with the default configuration,
listening on a unix socket inside the benchmark's work directory.  One
client forms a closed loop: it sends its next request only after the
previous reply arrived (``POST /v1/run`` blocks until the program
completes), so the daemon has one program in flight at a time.  Latency
is timed at the client, connect to last reply byte.

The request order and every per-request seed come from ``--seed``; the
daemon only ever sees the generated specs.
"""

from __future__ import annotations

import json
import random
import socket
import subprocess
import time

from calib import chunk
from common import read_line

#: One shuffled block of the mix: the hot tenant twice, five registry
#: programs, one inline polyglot manifest.
BLOCK = ("hot", "hot", "bs", "spmv", "bfs", "join", "img", "manifest")
REGISTRY_FOOTPRINT = 64 * 1024 * 1024

#: y <- a*x + y, twice, then read back: compiled from CUDA C and run
#: inline on the daemon's event loop.
MANIFEST = {
    "arrays": [{"name": "x", "type": "float[256]"},
               {"name": "y", "type": "float[256]"}],
    "kernels": [{
        "name": "fma",
        "source": "__global__ void fma(const float* x, float* y, float a,"
                  " int n) { int i = blockIdx.x * blockDim.x"
                  " + threadIdx.x; if (i < n) y[i] = a * x[i] + y[i]; }",
        "signature": "fma(x: const pointer float, y: inout pointer float,"
                     " a: float, n: sint32)",
    }],
    "program": [
        {"op": "write", "array": "x", "fill": "random"},
        {"op": "write", "array": "y", "fill": "ones"},
        {"op": "launch", "kernel": "fma", "grid": 8, "block": 32,
         "args": ["x", "y", 0.5, 256]},
        {"op": "launch", "kernel": "fma", "grid": 8, "block": 32,
         "args": ["x", "y", 0.5, 256]},
        {"op": "read", "array": "y", "as": "y"},
    ],
}

REQUEST_TIMEOUT = 60.0


def spec_for(kind: str, rng: random.Random, hot_seed: int) -> dict:
    """The workload spec of one request of ``kind``."""
    if kind == "hot":
        return {"workload": "mv", "gb": 1.0, "n_chunks": 4,
                "tenant": "hot", "seed": hot_seed}
    if kind == "manifest":
        return {"manifest": MANIFEST, "tenant": "polyglot",
                "seed": rng.randrange(2**31)}
    return {"workload": kind, "footprint_bytes": REGISTRY_FOOTPRINT,
            "tenant": f"tenant-{kind}", "seed": rng.randrange(2**31)}


def request_stream(seed: int):
    """Endless (kind, spec) sequence: shuffled blocks of :data:`BLOCK`."""
    rng = random.Random(seed)
    hot_seed = rng.randrange(2**31)
    while True:
        block = list(BLOCK)
        rng.shuffle(block)
        for kind in block:
            yield kind, spec_for(kind, rng, hot_seed)


def warmup_specs(seed: int) -> list[tuple[str, dict]]:
    """One request of every kind, so lazy imports and kernel compiles
    finish before timing starts."""
    rng = random.Random(seed ^ 0x5EED)
    return [(kind, spec_for(kind, rng, 0)) for kind in dict.fromkeys(BLOCK)]


# -- HTTP over the unix socket ---------------------------------------------------

def http(path: str, method: str, target: str, payload=None,
         timeout: float = REQUEST_TIMEOUT) -> tuple[int, object]:
    """One request on a fresh connection; returns (status, JSON body).

    Raises ``OSError`` (refused, reset, timeout) or ``ValueError``
    (empty or unparseable reply).
    """
    body = json.dumps(payload).encode() if payload is not None else b""
    head = (f"{method} {target} HTTP/1.1\r\nHost: grout\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1")
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        sock.connect(path)
        sock.sendall(head + body)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    status_line, _, rest = raw.partition(b"\r\n")
    parts = status_line.split()
    if len(parts) < 2 or not parts[1].isdigit():
        raise ValueError(f"malformed or empty reply: {raw[:80]!r}")
    _, _, reply = rest.partition(b"\r\n\r\n")
    return int(parts[1]), json.loads(reply)


def check_report(kind: str, status: int, report) -> bool:
    """Whether one reply is a correct, completed run-report.

    Registry programs must come back oracle-verified; the protocol
    reports ``verified: null`` for manifests (they carry no oracle), so
    a manifest must complete with a non-empty CE count.
    """
    if status != 200 or not isinstance(report, dict):
        return False
    if report.get("completed") is not True:
        return False
    if kind == "manifest":
        return (report.get("verified") is None
                and report.get("ce_count", 0) > 0)
    return report.get("verified") is True


# -- the daemon ------------------------------------------------------------------

class Daemon:
    """One daemon process: started, awaited until healthy, shut down."""

    def __init__(self, cmd: list[str], sock: str, env: dict,
                 deadline: float):
        self.sock = sock
        self.deadline = deadline
        started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, env=env)
        try:
            self._await_ready()
        except BaseException:
            self.kill()
            raise
        #: Spawn to the first ``/healthz`` 200, host seconds.
        self.setup_s = time.perf_counter() - started

    def _await_ready(self) -> None:
        line = read_line(self.proc, self.deadline)
        if b"listening on" not in line:
            raise RuntimeError(f"daemon did not come up: {line!r}")
        status, body = http(self.sock, "GET", "/healthz", timeout=30)
        if status != 200 or body.get("status") != "ok":
            raise RuntimeError(f"/healthz answered {status}: {body}")

    def peak_rss_mib(self) -> float:
        """The daemon's high-water resident set (Linux ``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def shutdown(self) -> None:
        """Ask for a clean exit and wait for it."""
        try:
            status, _ = http(self.sock, "POST", "/v1/shutdown", timeout=30)
            if status != 200:
                raise RuntimeError(f"/v1/shutdown answered {status}")
            self.proc.wait(timeout=max(1.0, self.deadline
                                       - time.perf_counter()))
        finally:
            self.kill()
        if self.proc.returncode != 0:
            raise RuntimeError(f"daemon exited with {self.proc.returncode}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


# -- the closed loop -------------------------------------------------------------

def drive(sock: str, seed: int, seconds: float, *, at_count: int = 0,
          probe=None) -> dict:
    """Warm up, then run the closed loop for ``seconds``.

    After each reply the client times one calibration chunk (``calib.py``)
    while the daemon sits idle, outside the request's time.  ``probe()``
    is called once, when ``at_count`` replies have arrived (or at the
    end, if fewer did); its value is returned as ``probed``.
    """
    warmup, warm_ces = warmup_specs(seed), 0
    for kind, spec in warmup:
        status, report = http(sock, "POST", "/v1/run", spec)
        if not check_report(kind, status, report):
            raise RuntimeError(f"warm-up {kind} failed: {status} {report}")
        warm_ces += report["ce_count"]

    stream = request_stream(seed)
    records: list[tuple[str, float, bool, int, float]] = []
    probed = None
    stop_at = time.perf_counter() + seconds
    while time.perf_counter() < stop_at:
        kind, spec = next(stream)
        sent = time.perf_counter()
        try:
            status, report = http(sock, "POST", "/v1/run", spec)
            ok = check_report(kind, status, report)
        except (OSError, ValueError):
            ok, report = False, None
        latency = time.perf_counter() - sent
        ces = report.get("ce_count", 0) if ok else 0
        records.append((kind, latency, ok, ces, chunk()))
        if probe is not None and len(records) == at_count:
            probed = probe()
    if probe is not None and probed is None:
        probed = probe()
    return {"records": records, "probed": probed,
            "warm_ces": warm_ces, "warm_requests": len(warmup)}
