"""Unit tests of the contended transfer fabric."""

import pytest

from repro.net import Fabric, NicSpec, Topology, uniform_topology
from repro.net.fabric import RetryPolicy, TransferError
from repro.sim import Engine, Tracer


@pytest.fixture
def setup():
    engine = Engine()
    topo = uniform_topology(["a", "b", "c"], 1e9, latency=0.0)
    tracer = Tracer()
    return engine, Fabric(engine, topo, tracer=tracer), tracer


class TestTransfers:
    def test_wire_time_matches_topology(self, setup):
        engine, fabric, _ = setup
        done = fabric.transfer("a", "b", 500_000_000)
        engine.run()
        assert done.value == pytest.approx(0.5)
        assert engine.now == pytest.approx(0.5)

    def test_zero_bytes_instant(self, setup):
        engine, fabric, _ = setup
        done = fabric.transfer("a", "b", 0)
        engine.run()
        assert done.value == 0.0 and engine.now == 0.0

    def test_same_node_instant(self, setup):
        engine, fabric, _ = setup
        done = fabric.transfer("a", "a", 10**9)
        engine.run()
        assert done.value == 0.0

    def test_negative_bytes_rejected(self, setup):
        engine, fabric, _ = setup
        fabric.transfer("a", "b", -1)
        with pytest.raises(ValueError):
            engine.run()

    def test_stats_accumulate(self, setup):
        engine, fabric, _ = setup
        fabric.transfer("a", "b", 100)
        fabric.transfer("b", "c", 200)
        engine.run()
        assert fabric.bytes_moved == 300
        assert fabric.transfer_count == 2

    def test_spans_carry_nbytes(self, setup):
        engine, fabric, tracer = setup
        fabric.transfer("a", "b", 123, label="payload")
        engine.run()
        span = tracer.by_category("transfer")[0]
        assert span.meta["nbytes"] == 123
        assert span.lane == "net:a->b"


class TestContention:
    def test_same_ingress_serialises(self, setup):
        engine, fabric, _ = setup
        fabric.transfer("a", "b", 10**9)
        fabric.transfer("c", "b", 10**9)
        engine.run()
        assert engine.now == pytest.approx(2.0)

    def test_same_egress_serialises(self, setup):
        engine, fabric, _ = setup
        fabric.transfer("a", "b", 10**9)
        fabric.transfer("a", "c", 10**9)
        engine.run()
        assert engine.now == pytest.approx(2.0)

    def test_disjoint_pairs_parallel(self, setup):
        engine, fabric, _ = setup
        fabric.transfer("a", "b", 10**9)
        fabric.transfer("c", "a", 10**9)   # different tx and rx ends
        engine.run()
        assert engine.now == pytest.approx(1.0)

    def test_multi_flow_nic_feeds_two_destinations(self):
        """The paper controller NIC: 2 flows at full pair rate."""
        engine = Engine()
        topo = Topology()
        topo.add_node("hub", NicSpec(2e9, latency=0.0, max_flows=2))
        topo.add_node("w0", NicSpec(1e9, latency=0.0))
        topo.add_node("w1", NicSpec(1e9, latency=0.0))
        fabric = Fabric(engine, topo)
        fabric.transfer("hub", "w0", 10**9)
        fabric.transfer("hub", "w1", 10**9)
        engine.run()
        assert engine.now == pytest.approx(1.0)

    def test_no_head_of_line_blocking(self):
        """Two queued flows to a busy destination must not starve a flow
        to an idle destination (regression for the egress/ingress order)."""
        engine = Engine()
        topo = Topology()
        topo.add_node("hub", NicSpec(2e9, latency=0.0, max_flows=2))
        topo.add_node("w0", NicSpec(1e9, latency=0.0))
        topo.add_node("w1", NicSpec(1e9, latency=0.0))
        fabric = Fabric(engine, topo)
        fabric.transfer("hub", "w0", 10**9)
        fabric.transfer("hub", "w0", 10**9)    # queues on w0 ingress
        done = fabric.transfer("hub", "w1", 10**9)
        engine.run(until=done)
        assert engine.now == pytest.approx(1.0)


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert policy.attempt_timeout is None

    def test_backoff_is_exponential(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(attempt_timeout=0.0)


class TestFaults:
    def test_flake_retries_and_completes(self, setup):
        """Flaked attempt burns half the wire, backs off, then succeeds:
        0.5 (half wire) + 0.05 (backoff) + 1.0 (clean wire) = 1.55 s."""
        engine, fabric, _ = setup
        fabric.inject_flake(src="a", dst="b")
        done = fabric.transfer("a", "b", 10**9)
        engine.run()
        assert done.value == pytest.approx(1.0)   # wire time, not queueing
        assert engine.now == pytest.approx(1.55)
        assert fabric.retry_count == 1
        assert fabric.transfer_count == 1
        assert fabric.bytes_moved == 10**9
        assert fabric.failure_count == 0

    def test_retry_span_recorded(self, setup):
        engine, fabric, tracer = setup
        fabric.inject_flake()
        fabric.transfer("a", "b", 10**9, label="payload")
        engine.run()
        (span,) = tracer.by_category("retry")
        assert span.name == "payload#retry1"
        assert span.meta["attempt"] == 1
        assert span.meta["backoff"] == pytest.approx(0.05)

    def test_exhausted_retries_raise(self, setup):
        """Three flakes beat max_attempts=3; the failed transfer process
        aborts the engine run with TransferError."""
        engine, fabric, _ = setup
        fabric.inject_flake(src="a", dst="b", count=3)
        fabric.transfer("a", "b", 10**9)
        with pytest.raises(TransferError):
            engine.run()
        assert fabric.failure_count == 1
        assert fabric.retry_count == 2
        assert fabric.transfer_count == 0

    def test_flake_wildcard_matches_any_edge(self, setup):
        engine, fabric, _ = setup
        fabric.inject_flake()                    # no src/dst filter
        fabric.transfer("b", "c", 10**9)
        engine.run()
        assert fabric.retry_count == 1

    def test_flake_filter_skips_other_edges(self, setup):
        engine, fabric, _ = setup
        fabric.inject_flake(src="a", dst="b")
        fabric.transfer("b", "c", 10**9)         # does not match
        engine.run()
        assert fabric.retry_count == 0
        assert engine.now == pytest.approx(1.0)

    def test_flake_count_validated(self, setup):
        _, fabric, _ = setup
        with pytest.raises(ValueError):
            fabric.inject_flake(count=0)

    def test_flake_releases_nic_slots(self, setup):
        """Regression: a flaked attempt must release both NIC ends so a
        queued transfer starts immediately — and so the retry itself can
        re-acquire them."""
        engine, fabric, _ = setup
        fabric.inject_flake(src="a", dst="b")
        fabric.transfer("a", "b", 10**9)         # flake at 0.5, done 1.55
        done = fabric.transfer("c", "b", 10**9)  # queued on b's ingress
        engine.run(until=done)
        # The queued flow starts when the flake dies at 0.5 — not at
        # 1.55 when the retry finishes (which would mean a leaked slot).
        assert engine.now == pytest.approx(1.5)

    def test_watchdog_times_out_stalled_attempt(self):
        """A transfer stuck behind a hogged ingress is killed by the
        per-attempt watchdog, retries, and eventually goes through."""
        engine = Engine()
        topo = uniform_topology(["a", "b", "c"], 1e9, latency=0.0)
        fabric = Fabric(engine, topo,
                        retry=RetryPolicy(attempt_timeout=1.2,
                                          backoff_base=0.05))
        fabric.transfer("a", "b", 10**9)          # holds b's ingress 1.0 s
        done = fabric.transfer("c", "b", 10**9)   # queued: times out at 1.2
        engine.run(until=done)
        assert fabric.timeout_count >= 1
        assert fabric.retry_count >= 1
        assert fabric.transfer_count == 2

    def test_completed_transfer_cancels_watchdog(self):
        """Regression: a finished attempt must cancel its watchdog Timeout.
        A stale watchdog used to sit in the queue until its horizon, so a
        drain-mode ``run()`` ended at the timeout instead of the transfer."""
        engine = Engine()
        topo = uniform_topology(["a", "b", "c"], 1e9, latency=0.0)
        fabric = Fabric(engine, topo,
                        retry=RetryPolicy(attempt_timeout=30.0))
        done = fabric.transfer("a", "b", 10**9)   # 1.0 s wire
        engine.run()                              # drain the whole queue
        assert done.value == pytest.approx(1.0)
        assert engine.now == pytest.approx(1.0)   # not 30.0
        assert fabric.timeout_count == 0

    def test_failed_attempt_cancels_watchdog(self, setup):
        """The flake/retry path must cancel the per-attempt watchdog too:
        after the retried transfer completes, drain ends at its end-time."""
        engine, fabric, _ = setup
        fabric.retry = RetryPolicy(attempt_timeout=30.0, backoff_base=0.05)
        fabric.inject_flake(src="a", dst="b")
        done = fabric.transfer("a", "b", 10**9)
        engine.run()
        assert done.value == pytest.approx(1.0)
        # 0.5 flaked half-wire + 0.05 backoff + 1.0 clean wire.
        assert engine.now == pytest.approx(1.55)
        assert fabric.retry_count == 1

    def test_watchdog_disabled_by_default(self, setup):
        """Long transfers are fine with the default policy (no timeout)."""
        engine, fabric, _ = setup
        fabric.transfer("a", "b", 5 * 10**9)      # 5 s wire
        engine.run()
        assert fabric.timeout_count == 0
        assert fabric.transfer_count == 1

    def test_cancelled_transfer_releases_slots(self, setup):
        """Regression for the NIC-slot leak: cancelling a transfer
        mid-wire must free both ends for the next flow."""
        engine, fabric, _ = setup
        victim = fabric.transfer("a", "b", 10**9)
        follower = fabric.transfer("c", "b", 10**9)   # queued on b ingress

        def canceller():
            yield engine.timeout(0.25)
            victim.cancel("test cancel")

        engine.process(canceller())
        engine.run(until=follower)
        # Victim dies at 0.25; follower then runs 0.25..1.25.  A leaked
        # ingress slot would block the follower forever.
        assert engine.now == pytest.approx(1.25)
        assert fabric.transfer_count == 1

    def test_cancelled_transfer_under_watchdog_releases_slots(self):
        """Cancelling a transfer racing its watchdog kills the attempt:
        the NIC ends come free at the cancel instant, and the watchdog
        never fires later."""
        engine = Engine()
        topo = uniform_topology(["a", "b", "c"], 1e9, latency=0.0)
        fabric = Fabric(engine, topo,
                        retry=RetryPolicy(attempt_timeout=30.0))
        victim = fabric.transfer("a", "b", 10**9)
        follower = fabric.transfer("c", "b", 10**9)

        def canceller():
            yield engine.timeout(0.25)
            victim.cancel("test cancel")

        engine.process(canceller())
        engine.run(until=follower)
        assert engine.now == pytest.approx(1.25)
        engine.run()
        assert engine.now == pytest.approx(1.25)   # not 30.0
        assert fabric.timeout_count == 0


class TestHopStructure:
    """One engine delivery per logical wait (see ``Transfer``): the
    counts pin the state machine's hop structure, which decides the
    order of same-instant events in every schedule."""

    @pytest.mark.parametrize("retry, flakes, chunk_bytes, deliveries", [
        # start, ingress grant, egress grant, wire end, completion.
        (RetryPolicy(), 0, None, 5),
        # start, [rx, tx, half-wire flake], backoff, [rx, tx, wire],
        # completion.
        (RetryPolicy(), 1, None, 9),
        # start, four chunks x (rx, tx, wire), completion.
        (RetryPolicy(), 0, 10**9 // 4, 14),
        # start, [attempt start, rx, tx, wire, attempt report, race
        # result], completion; the cancelled watchdog never delivers.
        (RetryPolicy(attempt_timeout=30.0), 0, None, 8),
        # start, [attempt start, rx, tx, flake, report, race], backoff,
        # [attempt start, rx, tx, wire, report, race], completion.
        (RetryPolicy(attempt_timeout=30.0), 1, None, 15),
    ])
    def test_deliveries_per_logical_wait(self, retry, flakes, chunk_bytes,
                                         deliveries):
        engine = Engine()
        topo = uniform_topology(["a", "b"], 1e9, latency=0.0)
        fabric = Fabric(engine, topo, retry=retry)
        if flakes:
            fabric.inject_flake(count=flakes)
        engine.process(fabric.transfer_process("a", "b", 10**9,
                                               chunk_bytes=chunk_bytes))
        engine.run()
        assert engine.events_processed == deliveries

    def test_watchdog_kill_releases_one_hop_later(self):
        """Both attempts time out: each kill costs the watchdog, the race
        result and a deferred release; the first attempt's orphaned
        wire end still delivers (at 1.0), like a detached timeout."""
        engine = Engine()
        topo = uniform_topology(["a", "b"], 1e9, latency=0.0)
        fabric = Fabric(engine, topo,
                        retry=RetryPolicy(max_attempts=2,
                                          attempt_timeout=0.6))
        fabric.transfer("a", "b", 10**9)
        with pytest.raises(TransferError):
            engine.run()
        # 0.0: start, attempt start, rx, tx; 0.6: watchdog, race,
        # release, then the 0.05 s backoff; 0.65: attempt start, rx,
        # tx; 1.0: stale wire end; 1.25: watchdog, race, release,
        # failed completion.
        assert engine.events_processed == 16
        assert engine.now == pytest.approx(1.25)
        assert fabric.timeout_count == 2
        for nic in [*fabric._egress.values(), *fabric._ingress.values()]:
            assert nic.count == 0 and nic.queue_length == 0
