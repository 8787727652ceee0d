"""Byte-identical schedule regression for the staged pipeline refactor.

``tests/data/golden_schedule.json`` was captured from the pre-pipeline
monolithic ``Controller.schedule`` (PR 3 build).  The staged pipeline must
reproduce every recorded span — lane, category, name, start and end — and
the final simulated clock *exactly*, for every scenario: the refactor is a
restructuring, not a behaviour change, and the default single-session path
carries the same guarantee PR 3 made for its knobs.

``tests/data/golden_schedule_faults.json`` pins the same program under
armed fault plans — transfer flakes, a worker crash, chunked transfers
under flakes, and an armed per-attempt watchdog — together with the
fault counters that prove each scenario reached its recovery path.

Regenerating the fixture (only after an *intentional* schedule change)::

    PYTHONPATH=src python tests/core/pipeline/test_schedule_regression.py
"""

import json
import pathlib

import numpy as np

from repro.cluster import paper_cluster
from repro.core import GroutRuntime, MinTransferSizePolicy, RoundRobinPolicy
from repro.gpu import ArrayAccess, Direction, KernelSpec, TEST_GPU_1GB
from repro.gpu.specs import MIB
from repro.net.fabric import RetryPolicy
from repro.sim import FaultPlan

GOLDEN = pathlib.Path(__file__).resolve().parents[2] \
    / "data" / "golden_schedule.json"
GOLDEN_SHARDS2 = pathlib.Path(__file__).resolve().parents[2] \
    / "data" / "golden_schedule_shards2.json"
GOLDEN_FAULTS = pathlib.Path(__file__).resolve().parents[2] \
    / "data" / "golden_schedule_faults.json"


def _kernel(name, directions):
    """A kernel whose parameter directions are fixed per position."""
    def access_fn(args):
        return [ArrayAccess(a, d) for a, d in zip(args, directions)
                if hasattr(a, "buffer_id")]
    return KernelSpec(name, flops_per_byte=2.0, access_fn=access_fn)


def drive(rt: GroutRuntime) -> None:
    """A deterministic program exercising every scheduling phase.

    Host writes (controller CEs), a shared read-only input consumed by a
    fan of kernels (broadcast-shaped replication), a RAW/WAW chain on one
    buffer (coherence invalidations + P2P), a user-directed prefetch and
    closing host reads — all with explicit labels so the recorded spans
    never depend on global CE-id numbering.
    """
    shared = rt.device_array(8, np.float32, virtual_nbytes=48 * MIB,
                             name="g.shared")
    accum = rt.device_array(8, np.float32, virtual_nbytes=32 * MIB,
                            name="g.accum")
    outs = [rt.device_array(8, np.float32, virtual_nbytes=16 * MIB,
                            name=f"g.out{i}") for i in range(3)]
    rt.host_write(shared, lambda: shared.data.fill(1.0),
                  label="g.init_shared")
    rt.host_write(accum, lambda: accum.data.fill(0.0),
                  label="g.init_accum")

    fan = _kernel("fan", (Direction.IN, Direction.OUT))
    for i, out in enumerate(outs):
        rt.launch(fan, 8, 128, (shared, out), label=f"g.fan{i}")

    chain = _kernel("chain", (Direction.INOUT, Direction.IN))
    for i, out in enumerate(outs):
        rt.launch(chain, 8, 128, (accum, out), label=f"g.chain{i}")

    rt.prefetch(shared, worker="worker1", label="g.prefetch")
    tail = _kernel("tail", (Direction.IN, Direction.INOUT))
    rt.launch(tail, 8, 128, (shared, accum), label="g.tail")

    rt.host_read(accum, label="g.read_accum")
    rt.host_read(outs[0], label="g.read_out0")
    rt.sync()


def run_scenario(policy_factory, **runtime_kwargs):
    """Run the driver program and return its serialized event schedule."""
    cluster = paper_cluster(3, gpu_spec=TEST_GPU_1GB)
    rt = GroutRuntime(cluster, policy=policy_factory(), **runtime_kwargs)
    try:
        drive(rt)
        spans = [[s.lane, s.category, s.name, s.start, s.end]
                 for s in rt.tracer.spans]
        return {"spans": spans, "elapsed": rt.engine.now}
    finally:
        rt.shutdown()


SCENARIOS = {
    "round-robin": lambda: run_scenario(RoundRobinPolicy),
    "min-transfer-size": lambda: run_scenario(MinTransferSizePolicy),
    "round-robin+collectives": lambda: run_scenario(
        RoundRobinPolicy, collectives=True, chunk_bytes=8 * MIB),
}


#: Sharded-mode scenarios pin their *own* golden: the conservative
#: exchange quantises cross-process starts to window barriers, so the
#: trace legitimately differs from the in-process schedule — but it must
#: stay deterministic, run to run and commit to commit.  (Collectives
#: are guarded off in shard mode, hence the smaller scenario set.)
SHARDED_SCENARIOS = {
    "round-robin+shards2": lambda: run_scenario(
        RoundRobinPolicy, shards=2),
    "min-transfer-size+shards2": lambda: run_scenario(
        MinTransferSizePolicy, shards=2),
}


#: Fault-free round-robin makespan of :func:`drive` (rounded); fault
#: times are placed relative to it so every fault lands mid-run.
_T = 0.5656


def run_fault_scenario(faults: str, retry: RetryPolicy | None = None,
                       **runtime_kwargs):
    """Run the driver program under an armed fault plan; returns the
    schedule plus the counters showing which recovery path ran."""
    cluster = paper_cluster(3, gpu_spec=TEST_GPU_1GB)
    if retry is not None:
        cluster.fabric.retry = retry
    rt = GroutRuntime(cluster, policy=RoundRobinPolicy(), **runtime_kwargs)
    try:
        rt.install_faults(FaultPlan.parse(faults))
        drive(rt)
        fabric = cluster.fabric
        # Every flaked, killed or re-sourced attempt released its ends.
        for nic in [*fabric._egress.values(), *fabric._ingress.values()]:
            assert nic.count == 0 and nic.queue_length == 0, nic
        spans = [[s.lane, s.category, s.name, s.start, s.end]
                 for s in rt.tracer.spans]
        return {"spans": spans, "elapsed": rt.engine.now,
                "counters": {
                    "retries": fabric.retry_count,
                    "timeouts": fabric.timeout_count,
                    "chunks": fabric.chunk_count,
                    "rerouted": rt.controller.stats.transfers_rerouted}}
    finally:
        rt.shutdown()


FAULT_SCENARIOS = {
    "flakes": lambda: run_fault_scenario(
        f"flake@0*2,flake:worker0-worker1@{0.3 * _T}"),
    "crash": lambda: run_fault_scenario(
        f"flake@0,crash:worker0@{0.3 * _T}"),
    "chunked-flakes": lambda: run_fault_scenario(
        "flake@0*2", chunk_bytes=8 * MIB),
    "watchdog": lambda: run_fault_scenario(
        "flake@0", retry=RetryPolicy(attempt_timeout=0.2)),
}

#: The counter each fault scenario must drive above zero: a scenario that
#: stops reaching its recovery path pins nothing worth pinning.
FAULT_PATHS = {
    "flakes": ("retries",),
    "crash": ("rerouted",),
    "chunked-flakes": ("chunks", "retries"),
    "watchdog": ("timeouts", "retries"),
}


def capture() -> dict:
    return {name: build() for name, build in SCENARIOS.items()}


def capture_sharded() -> dict:
    return {name: build() for name, build in SHARDED_SCENARIOS.items()}


def capture_faults() -> dict:
    return {name: build() for name, build in FAULT_SCENARIOS.items()}


def _assert_matches(golden: dict, current: dict) -> None:
    assert set(current) == set(golden)
    for name in golden:
        got, want = current[name], golden[name]
        assert got["elapsed"] == want["elapsed"], (
            f"{name}: simulated end time drifted "
            f"({got['elapsed']} != {want['elapsed']})")
        assert len(got["spans"]) == len(want["spans"]), (
            f"{name}: span count changed "
            f"({len(got['spans'])} != {len(want['spans'])})")
        for i, (g, w) in enumerate(zip(got["spans"], want["spans"])):
            assert g == w, f"{name}: span {i} drifted: {g} != {w}"
        assert got.get("counters") == want.get("counters"), (
            f"{name}: fault counters drifted "
            f"({got.get('counters')} != {want.get('counters')})")


def test_schedule_is_byte_identical_to_golden():
    _assert_matches(json.loads(GOLDEN.read_text()), capture())


def test_sharded_schedule_matches_pinned_golden():
    _assert_matches(json.loads(GOLDEN_SHARDS2.read_text()),
                    capture_sharded())


def test_fault_schedule_matches_pinned_golden():
    golden = json.loads(GOLDEN_FAULTS.read_text())
    current = capture_faults()
    for name, counters in FAULT_PATHS.items():
        for counter in counters:
            assert current[name]["counters"][counter] > 0, (
                f"{name}: scenario no longer reaches its path "
                f"({counter} is 0)")
    _assert_matches(golden, current)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(capture(), indent=1) + "\n")
    print(f"golden schedule written to {GOLDEN}")
    GOLDEN_SHARDS2.write_text(json.dumps(capture_sharded(), indent=1)
                              + "\n")
    print(f"sharded golden schedule written to {GOLDEN_SHARDS2}")
    GOLDEN_FAULTS.write_text(json.dumps(capture_faults(), indent=1) + "\n")
    print(f"fault-mode golden schedule written to {GOLDEN_FAULTS}")
