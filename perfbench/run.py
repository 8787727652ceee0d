"""The repository's benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload sched-iterative --seed 1 \
        --seconds 25 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

``sched-iterative``
    The CG-shaped loop of ``repro.bench.scale.build_iterative`` on one
    in-process runtime (default configuration: three workers,
    round-robin, 1 GiB test GPUs), in fixed 7999-CE programs.
``serve-mix``
    The real ``grout serve`` daemon (default configuration) on a unix
    socket, driven by a one-client closed loop with a seeded mix.
``fault-chain``
    Read-modify-write chains (``build_deep``) under a seeded fault plan
    of transfer flakes and a link degrade: the fabric's resilient path.

With ``--trace 0`` the last stdout line is one JSON object with every
end-to-end metric; with ``--trace 1`` a separate traced run times the
calls into each layer (``tracer.py``) and reports the per-layer
metrics instead.  Every output is checked; a failed check makes
``correct`` false.  Exits non-zero, printing no result, when the source
tree is missing or a child misbehaves.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import calib
from common import WORK_DIR, calibrate, child_env, latency_ms, read_line

WORKLOADS = ("sched-iterative", "serve-mix", "fault-chain")
#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Every wait of a run ends by this many seconds after it started.
RUN_BUDGET = 170.0
#: serve-mix reads the daemon's peak RSS after this many replies per
#: second of run length: about a third of the ~40 requests/s a 2-vCPU
#: host serves, so every run gets there.
RSS_REQUESTS_PER_S = 15
HERE = os.path.dirname(os.path.abspath(__file__))


def _spawn(cmd: list[str], env: dict, deadline: float
           ) -> tuple[subprocess.Popen, float]:
    """Start an in-process child; returns it and spawn-to-ready seconds."""
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
    try:
        line = read_line(proc, deadline)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if line.strip() != b"ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"unexpected child output {line!r}")
    return proc, time.perf_counter() - started


def _finish(proc: subprocess.Popen, deadline: float) -> None:
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("child overran the run budget") from None
    finally:
        proc.stdout.close()
    if code != 0:
        raise RuntimeError(f"child exited with code {code}")


# -- in-process workloads ----------------------------------------------------------

def _rescaled(program: dict) -> tuple[list[float], float]:
    """A program's request times and its tail, each rescaled to the
    reference host speed by the calibration chunks timed around it."""
    requests = calib.rescale(program["request_s"], program["calib_s"])
    last = program["request_s"][-1]
    return requests, program["tail_s"] * requests[-1] / last


def _host_seconds(program: dict) -> float:
    """A program's wall time at the reference host speed."""
    requests, tail = _rescaled(program)
    return sum(requests) + tail


def run_inproc(args, env: dict, deadline: float) -> dict:
    """sched-iterative / fault-chain: set-up probes, then one measured child."""
    out = os.path.join(WORK_DIR, f"{args.workload}.json")
    spans = os.path.join(WORK_DIR, f"{args.workload}-spans.json")
    base = [sys.executable, os.path.join(HERE, "inproc.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--out", out]
    # The first child compiles bytecode and warms the page cache; untimed.
    probes = 1 if args.trace else SETUP_SAMPLES
    # Each set-up is rescaled by a calibration chunk timed just before it.
    setups = []
    for i in range(probes):
        speed = calib.chunk()
        proc, seconds = _spawn(base + ["--probe"], env, deadline)
        _finish(proc, deadline)
        if i:
            setups.append(seconds * calib.REF_S / speed)
    cmd = base + (["--spans", spans] if args.trace else [])
    speed = calib.chunk()
    proc, seconds = _spawn(cmd, env, deadline)
    setups.append(seconds * calib.REF_S / speed)
    _finish(proc, deadline)
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)

    programs = result["programs"]
    requests = [s for p in programs for s in _rescaled(p)[0]]
    expected = result["expected"]
    failed = sum(len(p["request_s"]) for p in programs
                 if not p["complete"] or p["ces"] != expected["ces"])
    fingerprints = {(p["makespan"], p["events"]) for p in programs}
    correct = failed == 0 and len(fingerprints) == 1 and all(
        p["retries"] == expected["retries"] and p["transfer_failures"] == 0
        and expected["makespan"] in (None, p["makespan"])
        for p in programs)

    ces = sum(p["ces"] for p in programs)
    wall = sum(_host_seconds(p) for p in programs)
    latency = latency_ms(requests)
    summary = {
        "correct": correct,
        "attempted": len(requests),
        "failed": failed,
        "request_p75_ms": latency["p75"],
        "programs": len(programs),
        "makespan": sorted(fingerprints),
        "unscaled_ces_per_s": ces / sum(
            sum(p["request_s"]) + p["tail_s"] for p in programs),
        "chunk_ms_mean": statistics.mean(
            c for p in programs for c in p["calib_s"]) * 1e3,
    }
    if not args.trace:
        summary["metrics"] = {
            "setup_s": statistics.median(setups),
            "peak_rss_mib": result["peak_rss_mib"],
            "ces_per_s": ces / wall,
            "requests_per_s": len(requests) / wall,
            "request_p50_ms": latency["p50"],
            "request_p90_ms": latency["p90"],
        }
        return summary

    import layers
    untraced = result["untraced"]
    untraced_rate = (sum(p["ces"] for p in untraced)
                     / sum(_host_seconds(p) for p in untraced))
    summary["metrics"] = layers.per_layer(
        layers.load_spans(spans), ces=ces, requests=len(requests),
        events=sum(p["events"] for p in programs),
        dag_size_end=statistics.mean(p["dag_size"] for p in programs),
        transfers=sum(p["transfers"] for p in programs),
        retries=sum(p["retries"] for p in programs))
    summary["metrics"]["trace.overhead_ratio"] = untraced_rate / (ces / wall)
    return summary


# -- serve-mix ---------------------------------------------------------------------

def _latencies(records: list[tuple]) -> list[float]:
    """serve-mix request latencies at the reference host speed."""
    return calib.rescale([r[1] for r in records], [r[4] for r in records])


def run_serve(args, env: dict, deadline: float) -> dict:
    """Daemon set-ups, then the closed loop against one daemon."""
    import serve_mix

    sock = os.path.join(WORK_DIR, "grout.sock")
    plain = [sys.executable, "-m", "repro", "serve", "--unix-socket", sock]

    def start(cmd):
        if os.path.exists(sock):
            os.unlink(sock)
        return serve_mix.Daemon(cmd, sock, env, deadline)

    probes = 1 if args.trace else SETUP_SAMPLES
    setups = []
    for i in range(probes):
        speed = calib.chunk()
        daemon = start(plain)
        daemon.shutdown()
        if i:
            setups.append(daemon.setup_s * calib.REF_S / speed)

    measured = args.seconds / 3 if args.trace else args.seconds
    speed = calib.chunk()
    daemon = start(plain)
    setups.append(daemon.setup_s * calib.REF_S / speed)
    try:
        # The daemon's memory grows with requests served, so its peak is
        # read after a fixed count, not at the end of a timed window.
        run = serve_mix.drive(sock, args.seed, measured,
                              at_count=int(RSS_REQUESTS_PER_S * measured),
                              probe=daemon.peak_rss_mib)
    finally:
        daemon.shutdown()
    if args.trace:
        untraced_rate = len(run["records"]) / sum(_latencies(run["records"]))
        spans = os.path.join(WORK_DIR, "serve-mix-spans.json")
        launcher = [sys.executable, os.path.join(HERE, "serve_launch.py"),
                    "--spans", spans, "--", "--unix-socket", sock]
        daemon = start(launcher)
        try:
            run = serve_mix.drive(sock, args.seed, args.seconds - measured)
        finally:
            daemon.shutdown()

    records = run["records"]
    with open(os.path.join(WORK_DIR, "serve-mix.json"), "w",
              encoding="utf-8") as fh:
        json.dump(run, fh)
    latencies = _latencies(records)
    busy = sum(latencies)
    failed = sum(1 for r in records if not r[2])
    ces = sum(r[3] for r in records)
    latency = latency_ms(latencies)
    summary = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "request_p75_ms": latency["p75"],
        "hot_request_p50_ms": statistics.median(
            t for r, t in zip(records, latencies) if r[0] == "hot") * 1e3,
    }
    if not args.trace:
        summary["unscaled_requests_per_s"] = \
            len(records) / sum(r[1] for r in records)
        summary["chunk_ms_mean"] = \
            statistics.mean(r[4] for r in records) * 1e3
        summary["metrics"] = {
            "setup_s": statistics.median(setups),
            "peak_rss_mib": run["probed"],
            "ces_per_s": ces / busy,
            "requests_per_s": len(records) / busy,
            "request_p50_ms": latency["p50"],
            "request_p90_ms": latency["p90"],
        }
        return summary

    import layers
    payload = layers.load_spans(spans)
    counters = payload["counters"]
    summary["metrics"] = layers.per_layer(
        payload, ces=ces + run["warm_ces"],
        requests=len(records) + run["warm_requests"],
        events=counters["events"], dag_size_end=counters["dag_size"],
        transfers=counters["transfers"], retries=counters["retries"])
    summary["metrics"]["trace.overhead_ratio"] = \
        untraced_rate / (len(records) / busy)
    return summary


# -- entry point -------------------------------------------------------------------

UNITS = {"setup_s": "s", "peak_rss_mib": "MiB", "ces_per_s": "1/s",
         "requests_per_s": "1/s", "request_p50_ms": "ms",
         "request_p90_ms": "ms"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the repository root; src/repro is "
              "missing here", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_BUDGET
    os.makedirs(WORK_DIR, exist_ok=True)
    env = child_env(root)

    calib = calibrate()
    try:
        if args.workload == "serve-mix":
            summary = run_serve(args, env, deadline)
        else:
            summary = run_inproc(args, env, deadline)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    calib += calibrate()

    metrics = summary.pop("metrics")
    if args.trace:
        metrics["host.calib_ms"] = statistics.median(calib)
        import layers
        units = dict(layers.METRICS)
    else:
        units = UNITS
    # Diagnostics for a human reader; the last stdout line is the result.
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "calib_ms": [round(c, 2) for c in calib],
                      **summary}), file=sys.stderr)
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
