"""Child process of the in-process workloads (sched-iterative, fault-chain).

Run by ``run.py``, never by hand::

    python3 perfbench/inproc.py --workload sched-iterative --seed 1 \
        --seconds 25 --out result.json [--probe] [--spans spans.json]

The child imports the runtime, builds it with the default configuration
and prints ``ready`` on stdout; that line ends the set-up time the parent
measures.  With ``--probe`` it exits there.  Otherwise it runs fixed-size
*programs* — each on a fresh runtime, the first on the one built during
set-up — until ``--seconds`` have passed, and writes one JSON result.

A program is a fixed number of CEs, so its per-CE cost does not depend on
the run length.  Inside it, a *request* is one unit a caller blocks on:
a convergence check of the CG loop (launches, then a blocking host read),
or one read-modify-write chain followed by ``sync``.  After each request
the child times one calibration chunk (``calib.py``), outside the
request's time, so the parent can rescale it to the reference host speed.

With ``--spans`` (traced run) the first third of the time runs untraced,
the rest with the layer tracer installed; spans go to that file.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time

from calib import chunk
from repro.bench.scale import build_deep, build_iterative
from repro.core.config import RuntimeConfig
from repro.gpu.specs import TEST_GPU_1GB
from repro.sim.faults import (LINK_DEGRADE, TRANSFER_FLAKE, Fault,
                              FaultPlan)

#: CG iterations per convergence check (one check = 4 * 32 kernels + 1
#: host read = 129 CEs) and CEs per sched-iterative program: the initial
#: host write plus 62 checks, so the program ends on a check.
ITERATIVE_SYNC_EVERY = 32
ITERATIVE_CES = 1 + 62 * (4 * ITERATIVE_SYNC_EVERY + 1)
#: Simulated makespan of one sched-iterative program (seed-independent):
#: the fidelity fingerprint every program must reproduce exactly.
ITERATIVE_MAKESPAN = 14.767435811202063

#: fault-chain program: CHAINS chains of CHAIN_LEN CEs, each one request.
CHAIN_LEN = 128
CHAINS = 32
#: Worker nodes of the default three-worker cluster (link endpoints).
NODES = ("controller", "worker0", "worker1", "worker2")


def fault_plan(seed: int) -> tuple[FaultPlan, int]:
    """Seeded flakes plus one link degrade, all in the first simulated
    seconds; returns the plan and the retries it must cause.

    Flakes are spaced wider than the retry backoff, so no transfer sees
    more failures than the fabric's three attempts absorb.
    """
    rng = random.Random(seed)
    faults, expected_retries = [], 0
    at = rng.uniform(0.0, 0.05)
    for _ in range(rng.randint(3, 5)):
        count = rng.choice((1, 2))
        faults.append(Fault(TRANSFER_FLAKE, at=at, count=count))
        expected_retries += count
        at += rng.uniform(0.3, 0.6)
    a, b = rng.sample(NODES, 2)
    faults.append(Fault(LINK_DEGRADE, at=rng.uniform(0.0, 0.05),
                        link=(a, b), factor=rng.uniform(0.25, 0.75)))
    return FaultPlan(tuple(faults)), expected_retries


class _Requests:
    """Request timer: each :meth:`mark` ends one request and times one
    calibration chunk (:mod:`calib`) right after it, outside the timing,
    so every request carries the host speed it ran at."""

    def __init__(self) -> None:
        self.request_s: list[float] = []
        self.calib_s: list[float] = []
        self.started = time.perf_counter()

    def mark(self) -> None:
        self.request_s.append(time.perf_counter() - self.started)
        self.calib_s.append(chunk())
        self.started = time.perf_counter()


class _CheckClock:
    """Runtime proxy ending a request each time a blocking read returns."""

    def __init__(self, runtime, requests: _Requests):
        self._runtime = runtime
        self._requests = requests

    def __getattr__(self, name):
        return getattr(self._runtime, name)

    def host_read(self, *args, **kwargs):
        data = self._runtime.host_read(*args, **kwargs)
        self._requests.mark()
        return data


def build(workload: str, seed: int):
    """One runtime, default configuration (plus the fault plan)."""
    config = RuntimeConfig(policy="round-robin", n_workers=3,
                           gpu_spec=TEST_GPU_1GB)
    if workload == "fault-chain":
        config = config.merge(faults=fault_plan(seed)[0])
    return config.build_runtime()


def run_program(workload: str, runtime) -> dict:
    """Drive one fixed-size program to completion; returns its record."""
    requests = _Requests()
    if workload == "sched-iterative":
        ces = build_iterative(_CheckClock(runtime, requests), ITERATIVE_CES,
                              sync_every=ITERATIVE_SYNC_EVERY)
        complete = runtime.sync()
    else:
        ces, complete = 0, True
        for _ in range(CHAINS):
            ces += build_deep(runtime, CHAIN_LEN)
            complete = runtime.sync() and complete
            requests.mark()
    # Work after the last request (sched-iterative's final sync, which
    # finds nothing left to run); counted at the last request's speed.
    tail_s = time.perf_counter() - requests.started
    controller = runtime.controller
    fabric = runtime.cluster.fabric
    record = {
        "ces": ces,
        "request_s": requests.request_s,
        "calib_s": requests.calib_s,
        "tail_s": tail_s,
        "complete": complete and not controller.pending_events(),
        "makespan": runtime.engine.now,
        "events": runtime.engine.events_processed,
        "dag_size": controller.dag.size,
        "transfers": fabric.transfer_count,
        "retries": fabric.retry_count,
        "transfer_failures": fabric.failure_count,
    }
    runtime.shutdown()
    return record


def run_phase(workload: str, seed: int, runtime, until: float
              ) -> list[dict]:
    """Programs back to back (at least one) until ``until``."""
    programs = []
    while True:
        if runtime is None:
            runtime = build(workload, seed)
        programs.append(run_program(workload, runtime))
        runtime = None
        if time.perf_counter() >= until:
            return programs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sched-iterative", "fault-chain"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    runtime = build(args.workload, args.seed)
    print("ready", flush=True)
    if args.probe:
        runtime.shutdown()
        return 0

    if args.workload == "sched-iterative":
        expected = {"ces": ITERATIVE_CES, "makespan": ITERATIVE_MAKESPAN,
                    "retries": 0}
    else:
        expected = {"ces": CHAINS * CHAIN_LEN, "makespan": None,
                    "retries": fault_plan(args.seed)[1]}
    result: dict = {"expected": expected}
    start = time.perf_counter()
    if args.spans is None:
        result["programs"] = run_phase(args.workload, args.seed, runtime,
                                       start + args.seconds)
    else:
        from tracer import LayerTracer
        result["untraced"] = run_phase(args.workload, args.seed, runtime,
                                       start + args.seconds / 3)
        tracer = LayerTracer().install()
        result["programs"] = run_phase(args.workload, args.seed, None,
                                       start + args.seconds)
        tracer.uninstall()
        tracer.dump(args.spans, {})
    result["peak_rss_mib"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
