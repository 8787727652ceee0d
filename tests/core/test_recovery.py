"""Integration tests of crash recovery: fault injection against real runs.

The headline acceptance test of the failure-resilience work: a seeded run
with one injected mid-run worker crash completes with results bit-identical
to the fault-free run.
"""

import numpy as np
import pytest

from repro.cluster import paper_cluster
from repro.core import GroutRuntime, RoundRobinPolicy
from repro.gpu import TEST_GPU_1GB
from repro.gpu.specs import MIB
from repro.net.fabric import TransferError
from repro.sim import FaultPlan, SimError
from repro.workloads import make_workload

from tests.core.test_controller import make_runtime, simple_kernel

FOOTPRINT = 64 * MIB


def run_bs(faults=None, *, n_workers=2, request_replacement=False):
    """One Black–Scholes run on a fresh cluster; returns (rt, wl, result)."""
    cluster = paper_cluster(n_workers, gpu_spec=TEST_GPU_1GB)
    rt = GroutRuntime(cluster, policy=RoundRobinPolicy())
    if faults is not None:
        rt.install_faults(faults, request_replacement=request_replacement)
    wl = make_workload("bs", FOOTPRINT)
    result = wl.execute(rt)
    return rt, wl, result


@pytest.fixture(scope="module")
def baseline():
    """Fault-free reference: elapsed time and the priced option books."""
    _, wl, result = run_bs()
    assert result.verified
    prices = [(c["call"].data.copy(), c["put"].data.copy())
              for c in wl.chunks]
    return result.elapsed_seconds, prices


class TestCrashRecovery:
    def test_midrun_crash_completes_and_verifies(self, baseline):
        elapsed, _ = baseline
        rt, _, result = run_bs(
            FaultPlan.single_crash("worker0", elapsed / 2))
        assert result.completed and result.verified
        assert rt.controller.stats.worker_crashes == 1
        assert rt.controller.stats.ces_reexecuted >= 1
        assert "worker0" not in rt.controller.workers
        assert list(rt.controller.workers) == ["worker1"]

    def test_crash_results_bit_identical(self, baseline):
        elapsed, prices = baseline
        _, wl, result = run_bs(
            FaultPlan.single_crash("worker0", elapsed / 2))
        assert result.verified
        for chunk, (call, put) in zip(wl.chunks, prices):
            np.testing.assert_array_equal(chunk["call"].data, call)
            np.testing.assert_array_equal(chunk["put"].data, put)

    def test_crash_recovery_is_deterministic(self, baseline):
        elapsed, _ = baseline
        plan = FaultPlan.single_crash("worker0", elapsed / 2)
        first = run_bs(plan)[2]
        second = run_bs(plan)[2]
        assert first.elapsed_seconds == second.elapsed_seconds

    def test_replacement_worker_joins(self, baseline):
        elapsed, _ = baseline
        rt, _, result = run_bs(
            FaultPlan.single_crash("worker0", elapsed / 2),
            request_replacement=True)
        assert result.verified
        assert "worker0" not in rt.controller.workers
        assert len(rt.controller.workers) == 2   # replacement arrived

    def test_crash_of_unknown_worker_raises(self):
        rt = make_runtime()
        with pytest.raises(KeyError):
            rt.controller.handle_worker_crash("nope")

    def test_crash_of_sole_worker_raises(self):
        rt = make_runtime(n_workers=1)
        rt.launch(simple_kernel(), 4, 128,
                  (rt.device_array(4, virtual_nbytes=MIB),))
        with pytest.raises(SimError):
            rt.controller.handle_worker_crash("worker0")

    def test_recovery_report_fields(self):
        rt = make_runtime()
        k = simple_kernel()
        ces = [rt.launch(k, 4, 128, (rt.device_array(
            4, virtual_nbytes=MIB),)) for _ in range(4)]
        report = rt.controller.handle_worker_crash("worker0")
        assert report.node == "worker0"
        assert report.ces_reexecuted == 2      # round-robin gave it 2 of 4
        assert report.replacement is None
        assert rt.sync()
        assert all(ce.done.processed for ce in ces)

    def test_reexecuted_ces_land_on_survivors(self):
        rt = make_runtime(n_workers=3)
        k = simple_kernel()
        ces = [rt.launch(k, 4, 128, (rt.device_array(
            4, virtual_nbytes=MIB),)) for _ in range(6)]
        rt.controller.handle_worker_crash("worker1")
        assert rt.sync()
        assert all(ce.assigned_node in ("worker0", "worker2")
                   for ce in ces)

    @pytest.mark.parametrize("phase", ["wire", "writeback"])
    def test_source_and_destination_crash_together(self, phase):
        # One in-flight move loses its source and its destination in the
        # same instant: the source crash re-sources it, the destination
        # crash cancels it.  The cancel must also stop the restart the
        # re-sourcing began — no orphaned leg holding a NIC, no second
        # completion of the already-failed move.
        rt = make_runtime(n_workers=3)
        fabric = rt.cluster.fabric
        a = rt.device_array(8, np.float32, virtual_nbytes=64 * MIB,
                            name="a")
        rt.host_write(a, lambda: a.data.fill(3.0))
        if phase == "wire":
            rt.prefetch(a, worker="worker0")
            rt.prefetch(a, worker="worker2")
            assert rt.sync()
            rt.prefetch(a, worker="worker1")
        else:
            # worker0 writes the array, so the move flushes its dirty
            # pages before the wire.
            k = rt.launch(simple_kernel(), 1, 8, (a,))
            assert k.assigned_node == "worker0"
            rt.prefetch(a, worker="worker1")
            rt.engine.run(until=k.done)
        directory = rt.controller.directory
        assert directory.state(a).inflight_src["worker1"] == "worker0"
        move = directory.replication_event(a, "worker1")
        rt.engine.run(until=rt.engine.now + 1e-5)
        on_wire = fabric._egress["worker0"].count == 1
        assert on_wire == (phase == "wire") and not move.triggered
        t = rt.engine.now + 1e-6
        rt.install_faults(FaultPlan.parse(
            f"crash:worker0@{t},crash:worker1@{t}"))
        assert rt.sync()
        rt.engine.run()
        assert move.triggered and not move.ok
        assert rt.controller.stats.transfers_rerouted == 1
        for nic in [*fabric._egress.values(), *fabric._ingress.values()]:
            assert nic.count == 0 and nic.queue_length == 0, nic
        np.testing.assert_array_equal(rt.host_read(a), np.full(8, 3.0))


class TestOtherFaults:
    def test_link_degrade_slows_the_run(self, baseline):
        elapsed, _ = baseline
        _, _, result = run_bs(FaultPlan.parse(
            "degrade:controller-worker0@0.0x0.1,"
            "degrade:controller-worker1@0.0x0.1"))
        assert result.verified
        assert result.elapsed_seconds > elapsed

    def test_flake_retries_and_still_verifies(self, baseline):
        elapsed, _ = baseline
        rt, _, result = run_bs(FaultPlan.parse(f"flake@{elapsed / 4}*2"))
        assert result.verified
        assert rt.cluster.fabric.retry_count >= 1

    def test_injector_stats_surface(self, baseline):
        elapsed, _ = baseline
        cluster = paper_cluster(2, gpu_spec=TEST_GPU_1GB)
        rt = GroutRuntime(cluster, policy=RoundRobinPolicy())
        injector = rt.install_faults(
            FaultPlan.single_crash("worker1", elapsed / 2))
        wl = make_workload("bs", FOOTPRINT)
        assert wl.execute(rt).verified
        assert injector.stats.injected == 1
        assert injector.stats.by_kind == {"worker-crash": 1}


class TestMoveRescue:
    """A move whose fabric retries are exhausted re-sources the data from
    another up-to-date holder; from the controller it gives up."""

    def _replicated(self, rt, nbytes=16 * MIB):
        """An array written on the controller and copied to two workers."""
        a = rt.device_array(8, np.float32, virtual_nbytes=nbytes, name="a")
        rt.host_write(a, lambda: a.data.fill(3.0))
        rt.prefetch(a, worker="worker0")
        rt.prefetch(a, worker="worker1")
        assert rt.sync()
        return a

    def test_exhausted_retries_resource_from_another_holder(self):
        rt = make_runtime(n_workers=3)
        a = self._replicated(rt)
        fabric = rt.cluster.fabric
        # Every attempt of the first source fails: the move must give up
        # on it and pull from the other worker holding the data.
        fabric.inject_flake(dst="worker2", count=fabric.retry.max_attempts)
        rt.prefetch(a, worker="worker2")
        first_src = rt.controller.directory.state(a).inflight_src["worker2"]
        assert first_src in ("worker0", "worker1")
        assert rt.sync()
        assert rt.controller.stats.transfers_rerouted == 1
        assert fabric.failure_count == 1
        assert rt.controller.directory.up_to_date_on(a, "worker2")
        np.testing.assert_array_equal(rt.host_read(a), np.full(8, 3.0))

    def test_rescues_are_bounded(self):
        rt = make_runtime(n_workers=3)
        a = self._replicated(rt)
        fabric = rt.cluster.fabric
        fabric.inject_flake(dst="worker2", count=100)
        mover = rt.controller.pipeline.stage("data-movement")
        done = mover.ensure_on_node(a, "worker2")
        with pytest.raises(TransferError):
            rt.engine.run(until=done)
        # Three rescues, then the fourth exhausted source gives up.
        assert rt.controller.stats.transfers_rerouted == 3
        assert fabric.failure_count == 4

    def test_controller_source_raises(self):
        rt = make_runtime(n_workers=2)
        a = rt.device_array(8, np.float32, virtual_nbytes=16 * MIB)
        rt.host_write(a, lambda: a.data.fill(1.0))
        assert rt.sync()
        fabric = rt.cluster.fabric
        fabric.inject_flake(dst="worker0", count=fabric.retry.max_attempts)
        mover = rt.controller.pipeline.stage("data-movement")
        done = mover.ensure_on_node(a, "worker0")
        assert rt.controller.directory.state(a).inflight_src["worker0"] \
            == "controller"
        with pytest.raises(TransferError):
            rt.engine.run(until=done)
        assert rt.controller.stats.transfers_rerouted == 0
        assert fabric.failure_count == 1


class TestFaultFreeEquivalence:
    def test_armed_empty_plan_changes_nothing(self, baseline):
        elapsed, prices = baseline
        _, wl, result = run_bs(FaultPlan())
        assert result.elapsed_seconds == elapsed
        for chunk, (call, put) in zip(wl.chunks, prices):
            np.testing.assert_array_equal(chunk["call"].data, call)
            np.testing.assert_array_equal(chunk["put"].data, put)
