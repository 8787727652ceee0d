"""Unit tests of CUDA-stream FIFO semantics on the engine."""

import pytest


def op(engine, duration, log=None, tag=None):
    """An op body sleeping ``duration``, then logging and finishing."""
    def fin(o):
        if log is not None:
            log.append((tag, engine.now))
        o.finish(tag)

    return lambda o: o.sleep(duration, fin)


class TestFifoOrder:
    def test_ops_serialize_in_order(self, engine, gpu):
        stream = gpu.new_stream()
        log = []
        for i, d in enumerate((2.0, 1.0, 3.0)):
            stream.enqueue(op(engine, d, log, i), name=f"op{i}")
        engine.run()
        assert log == [(0, 2.0), (1, 3.0), (2, 6.0)]

    def test_completion_event_value(self, engine, gpu):
        stream = gpu.new_stream()
        done = stream.enqueue(op(engine, 1.0, tag="result"))
        engine.run()
        assert done.value == "result"

    def test_two_streams_overlap(self, engine, gpu):
        s1, s2 = gpu.new_stream(), gpu.new_stream()
        log = []
        s1.enqueue(op(engine, 2.0, log, "a"))
        s2.enqueue(op(engine, 2.0, log, "b"))
        engine.run()
        assert log == [("a", 2.0), ("b", 2.0)]   # concurrent

    def test_wait_events_delay_start(self, engine, gpu):
        s1, s2 = gpu.new_stream(), gpu.new_stream()
        log = []
        first = s1.enqueue(op(engine, 3.0, log, "producer"))
        s2.enqueue(op(engine, 1.0, log, "consumer"), waits=[first])
        engine.run()
        assert log == [("producer", 3.0), ("consumer", 4.0)]

    def test_ops_enqueued_counter(self, engine, gpu):
        stream = gpu.new_stream()
        stream.enqueue(op(engine, 1.0))
        stream.enqueue(op(engine, 1.0))
        assert stream.ops_enqueued == 2


class TestSynchronize:
    def test_empty_stream_sync_fires_immediately(self, engine, gpu):
        stream = gpu.new_stream()
        sync = stream.synchronize()
        engine.run()
        assert sync.processed

    def test_sync_is_last_completion(self, engine, gpu):
        stream = gpu.new_stream()
        stream.enqueue(op(engine, 1.0))
        tail = stream.enqueue(op(engine, 2.0))
        assert stream.synchronize() is tail

    def test_sync_after_completion_fires_immediately(self, engine, gpu):
        stream = gpu.new_stream()
        stream.enqueue(op(engine, 1.0))
        engine.run()
        sync = stream.synchronize()
        engine.run()
        assert sync.processed


class TestTracing:
    def test_spans_recorded_on_lane(self, engine, gpu, tracer):
        stream = gpu.new_stream()
        stream.enqueue(op(engine, 2.0), name="mykernel",
                       category="kernel")
        engine.run()
        spans = tracer.by_category("kernel")
        assert len(spans) == 1
        span = spans[0]
        assert span.name == "mykernel"
        assert span.lane == stream.lane
        assert span.duration == pytest.approx(2.0)

    def test_lane_includes_gpu_and_stream(self, engine, gpu):
        stream = gpu.new_stream()
        assert stream.lane == "n0/gpu0/stream0"


class TestContinuations:
    def test_hold_then_sleep_serializes_on_the_resource(self, engine, gpu):
        s1, s2 = gpu.new_stream(), gpu.new_stream()
        log = []

        def held(tag):
            def fin(o):
                log.append((tag, engine.now))
                o.finish(tag)
            return lambda o: o.hold_then_sleep(gpu.host_link, 1.0, 0.5, fin)

        s1.enqueue(held("a"))
        s2.enqueue(held("b"))
        engine.run()
        # b waits for a's 1.0 s hold, not for a's trailing sleep.
        assert log == [("a", 1.5), ("b", 2.5)]

    def test_failed_wait_fails_the_op(self, engine, gpu):
        stream = gpu.new_stream()
        broken = engine.event()
        done = stream.enqueue(op(engine, 1.0), waits=[broken])
        done._defused = True
        broken.fail(RuntimeError("upstream"))
        engine.run()
        assert not done.ok
        assert isinstance(done.value, RuntimeError)

    def test_abort_pending_kills_ops_and_frees_the_link(self, engine, gpu):
        s1, s2 = gpu.new_stream(), gpu.new_stream()
        running = s1.enqueue(
            lambda o: o.hold_then_sleep(gpu.host_link, 5.0, 0.0,
                                        lambda o: o.finish(None)))
        queued = s1.enqueue(op(engine, 1.0))
        engine.run(until=0.5)
        assert s1.abort_pending("crash") == 2
        other = s2.enqueue(
            lambda o: o.hold_then_sleep(gpu.host_link, 1.0, 0.0,
                                        lambda o: o.finish(engine.now)))
        engine.run()
        assert not running.triggered and not queued.triggered
        assert other.value == pytest.approx(1.5)   # link freed at 0.5
