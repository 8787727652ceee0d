"""The simulated interconnect: contended transfers between nodes.

Each node has one full-duplex NIC modelled as an *egress* and an *ingress*
resource; a transfer holds both ends for its wire time, so concurrent flows
into the same node serialise exactly like they would on a real NIC.  The
fabric is what GrOUT's data-movement step (Algorithm 1, third phase) and
P2P worker transfers ride on.

Transfers are failure-aware: a :class:`RetryPolicy` adds per-attempt
timeouts and retry-with-exponential-backoff, and the fault-injection layer
(:mod:`repro.sim.faults`) can make an attempt flake mid-wire.  With the
default policy and no injected faults the event schedule is byte-identical
to the fault-oblivious fabric — resilience costs nothing until it is
needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.obs import MetricsRegistry
from repro.obs import install as install_metrics
from repro.sim import Engine, Event, Resource, SimError, Timeout, Tracer
from repro.sim.events import EventState
from repro.net.topology import Topology

_PROCESSED = EventState.PROCESSED


class TransferError(SimError):
    """A fabric transfer failed mid-wire (flake, timeout, or dead peer)."""


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Retry/backoff/timeout knobs of the fabric.

    Parameters
    ----------
    max_attempts:
        Total tries per transfer (1 = fail fast, no retry).
    backoff_base:
        Sleep before the first retry, simulated seconds.
    backoff_factor:
        Multiplier applied to the backoff per subsequent retry
        (exponential backoff).
    attempt_timeout:
        Per-attempt cap (queueing + wire), simulated seconds; ``None``
        disables the watchdog entirely (the default — zero overhead).
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    attempt_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if self.backoff_factor < 1:
            raise ValueError("backoff_factor must be >= 1")
        if self.attempt_timeout is not None and self.attempt_timeout <= 0:
            raise ValueError("attempt_timeout must be positive")

    def backoff(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        return self.backoff_base * self.backoff_factor ** (attempt - 1)


@dataclass(slots=True)
class _Flake:
    """One armed mid-wire failure (fault-injection bookkeeping)."""

    src: str | None
    dst: str | None
    remaining: int

    def matches(self, src: str, dst: str) -> bool:
        """Whether this flake applies to a transfer on ``src -> dst``."""
        return ((self.src is None or self.src == src)
                and (self.dst is None or self.dst == dst))


class Transfer(Event):
    """One fabric transfer as an explicit state machine, one engine
    delivery per logical wait:

    * **attempt** — wait for the destination's ingress, then the
      source's egress (ingress first: queuing on a busy destination must
      not pin a source egress slot, or head-of-line blocking would
      serialise a fat NIC's flows to different destinations), then the
      wire.  At wire end the chunk (or transfer) is tallied and traced
      and egress then ingress are released.
    * **flake** — an armed flake (:meth:`Fabric.inject_flake`) spends
      half the wire, releases both ends and fails the attempt.
    * **backoff** — a failed attempt retries after
      :meth:`RetryPolicy.backoff` (traced as a ``retry`` span) until
      ``max_attempts`` is spent; then the transfer fails with
      :class:`TransferError`.
    * **watchdog** — with ``attempt_timeout`` set, each attempt starts
      one hop late and races a cancellable :class:`Timeout`; either side
      reports one hop after it finishes and the race resolves one hop
      after that.  A watchdog win kills the attempt, whose ends are
      released one hop later.

    ``sizes`` are the granules to move in order; ``index`` numbers them
    as pipelined chunks (per-chunk spans, tallies and retries; a failed
    chunk re-sends only itself) and ``whole`` then also counts one
    transfer when the last chunk lands.  The transfer settles inside the
    delivery that decides it and runs its waiters right there, as a
    returning ``yield from`` would, so waiters pay no extra hop.  Its
    value is the wire seconds of the successful attempts.
    """

    __slots__ = ("fabric", "src", "dst", "label", "_sizes", "_first",
                 "_pos", "_part", "_chunked", "_whole", "_attempts",
                 "_epoch", "_rx", "_tx", "_wire_start", "_wire", "_total",
                 "_backoff_start", "_watchdog", "_outcome", "_winner")

    def __init__(self, fabric: "Fabric", src: str, dst: str,
                 sizes: list[int], label: str, *, index: int | None = None,
                 whole: bool = True):
        super().__init__(fabric.engine, name=f"net:{src}->{dst}:{label}")
        self.fabric = fabric
        self.src = src
        self.dst = dst
        self.label = label
        self._sizes = sizes
        self._chunked = index is not None
        self._first = index or 0
        self._whole = whole
        self._pos = self._attempts = 0
        self._part = f"{label}#c{index}" if index is not None else label
        #: Bumped whenever pending deliveries must go stale (next
        #: attempt, killed attempt, abort, settle); scheduled calls
        #: carry the epoch they were issued under.
        self._epoch = 0
        self._rx = self._tx = None
        self._wire_start = self._wire = self._total = 0.0
        self._backoff_start = 0.0
        self._watchdog: Timeout | None = None
        self._outcome: bool | TransferError | None = None
        self._winner: str | None = None
        self._attempt_start()

    def _attempt_start(self) -> None:
        self._attempts += 1
        self._epoch += 1
        engine = self.fabric.engine
        limit = self.fabric.retry.attempt_timeout
        if limit is None:
            self._request_ends(self._epoch)
            return
        self._outcome = self._winner = None
        engine.schedule_call(0.0, self._request_ends, self._epoch)
        self._watchdog = engine.timeout(limit)
        self._watchdog.callbacks.append(self._on_watchdog)

    def _request_ends(self, epoch: int) -> None:
        if epoch == self._epoch:
            self._rx = self.fabric._ingress[self.dst].request()
            self._rx.callbacks.append(self._on_rx)

    def _on_rx(self, ev: Event) -> None:
        if ev is self._rx:
            self._tx = self.fabric._egress[self.src].request()
            self._tx.callbacks.append(self._on_tx)

    def _on_tx(self, ev: Event) -> None:
        if ev is not self._tx:
            return
        fabric = self.fabric
        self._wire_start = fabric.engine.now
        wire = fabric.topology.transfer_seconds(self.src, self.dst,
                                                self._sizes[self._pos])
        if fabric._flakes and fabric._consume_flake(self.src, self.dst):
            fabric.engine.schedule_call(wire / 2, self._flaked, self._epoch)
            return
        self._wire = wire
        fabric.engine.schedule_call(wire, self._landed, self._epoch)

    def _release(self, ends: tuple) -> None:
        tx, rx = ends
        if tx is not None:
            self.fabric._egress[self.src].release(tx)
        if rx is not None:
            self.fabric._ingress[self.dst].release(rx)

    def _take_ends(self) -> tuple:
        ends = (self._tx, self._rx)
        self._tx = self._rx = None
        return ends

    def _landed(self, epoch: int) -> None:
        if epoch != self._epoch:
            return
        fabric = self.fabric
        src, dst = self.src, self.dst
        nbytes = self._sizes[self._pos]
        fabric._link_handle(fabric._h_bytes, fabric._m_bytes,
                            src, dst).inc(nbytes)
        fabric._link_handle(fabric._h_wire, fabric._m_wire,
                            src, dst).inc(self._wire)
        if self._chunked:
            fabric._link_handle(fabric._h_chunks, fabric._m_chunks,
                                src, dst).inc()
        else:
            fabric._link_handle(fabric._h_transfers, fabric._m_transfers,
                                src, dst).inc()
        if fabric.tracer is not None:
            meta = {"nbytes": nbytes}
            if self._chunked:
                meta["chunk"] = self._first + self._pos
            fabric.tracer.record(
                f"net:{src}->{dst}", "chunk" if self._chunked else "transfer",
                self._part, self._wire_start, fabric.engine.now, **meta)
        self._release(self._take_ends())
        if self._watchdog is None:
            self._next_part()
            return
        self._outcome = True
        fabric.engine.schedule_call(0.0, self._attempt_over, epoch)

    def _flaked(self, epoch: int) -> None:
        if epoch != self._epoch:
            return
        self._release(self._take_ends())
        error = TransferError(f"transfer {self.src}->{self.dst} "
                              f"({self._part}) flaked mid-wire")
        if self._watchdog is None:
            self._failed(error)
            return
        self._outcome = error
        self.fabric.engine.schedule_call(0.0, self._attempt_over, epoch)

    def _next_part(self) -> None:
        self._total += self._wire
        self._pos += 1
        if self._pos < len(self._sizes):
            self._part = f"{self.label}#c{self._first + self._pos}"
            self._attempts = 0
            self._attempt_start()
            return
        if self._chunked and self._whole:
            fabric = self.fabric
            fabric._link_handle(fabric._h_transfers, fabric._m_transfers,
                                self.src, self.dst).inc()
        self._settle(True, self._total)

    def _failed(self, error: TransferError) -> None:
        fabric = self.fabric
        if self._attempts >= fabric.retry.max_attempts:
            fabric._m_failures.inc()
            self._settle(False, error)
            return
        fabric._m_retries.inc()
        if self._chunked:
            fabric._m_chunk_retries.inc()
        self._backoff_start = fabric.engine.now
        delay = fabric.retry.backoff(self._attempts)
        if delay > 0:
            fabric.engine.schedule_call(delay, self._retry, self._epoch)
        else:
            self._retry(self._epoch)

    def _retry(self, epoch: int) -> None:
        if epoch != self._epoch:
            return
        fabric = self.fabric
        if fabric.tracer is not None:
            fabric.tracer.record(
                f"net:{self.src}->{self.dst}", "retry",
                f"{self._part}#retry{self._attempts}", self._backoff_start,
                fabric.engine.now, attempt=self._attempts,
                backoff=fabric.retry.backoff(self._attempts))
        self._attempt_start()

    # -- watchdog race -------------------------------------------------------

    def _attempt_over(self, epoch: int) -> None:
        if epoch == self._epoch and self._winner is None:
            self._winner = "attempt"
            self.fabric.engine.schedule_call(0.0, self._race_over, epoch)

    def _on_watchdog(self, ev: Event) -> None:
        if ev is self._watchdog and self._winner is None:
            self._winner = "watchdog"
            self.fabric.engine.schedule_call(0.0, self._race_over,
                                             self._epoch)

    def _race_over(self, epoch: int) -> None:
        if epoch != self._epoch:
            return
        fabric = self.fabric
        watchdog, self._watchdog = self._watchdog, None
        outcome = self._outcome
        if outcome is True or self._winner == "attempt":
            # Landed (even if the watchdog reported first) or flaked
            # first: the watchdog must never drag a drain out.
            watchdog.cancel()
            if outcome is True:
                self._next_part()
            else:
                self._failed(outcome)
            return
        if outcome is None:
            # Kill the live attempt; like an interrupted process it
            # releases its ends one hop later.
            self._epoch += 1
            fabric.engine.schedule_call(0.0, self._release,
                                        self._take_ends())
        fabric._m_timeouts.inc()
        self._failed(TransferError(
            f"transfer {self.src}->{self.dst} ({self._part}) timed out "
            f"after {fabric.retry.attempt_timeout:g}s"))

    # -- settling ------------------------------------------------------------

    def _settle(self, ok: bool, value: object) -> None:
        """Fire inside the deciding delivery; an unwaited failure aborts
        the run like any failed event."""
        self._epoch += 1
        self._ok = ok
        self._value = value
        self._state = _PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            if callback is not None:
                callback(self)
        if not ok and not self._defused:
            raise value  # type: ignore[misc]

    def abort(self) -> None:
        """Stop after the waiter was interrupted or cancelled: held or
        queued NIC ends are released and pending deliveries go stale.
        An attempt racing a watchdog is killed instead, releasing its
        ends one hop later."""
        if self._state is _PROCESSED:
            return
        self._epoch += 1
        watchdog, self._watchdog = self._watchdog, None
        if watchdog is None:
            self._release(self._take_ends())
            return
        watchdog.cancel()
        if self._outcome is None:
            self.fabric.engine.schedule_call(0.0, self._release,
                                             self._take_ends())


def _await(transfer: Transfer) -> Generator:
    """Process body waiting on ``transfer``; an interrupted or cancelled
    waiter aborts it, releasing its NIC ends."""
    try:
        return (yield transfer)
    except BaseException:
        transfer.abort()
        raise


class Fabric:
    """Executes transfers on an :class:`Engine` according to a topology."""

    def __init__(self, engine: Engine, topology: Topology,
                 tracer: Tracer | None = None,
                 retry: RetryPolicy | None = None,
                 metrics: MetricsRegistry | None = None,
                 chunk_bytes: int | None = None):
        if chunk_bytes is not None and chunk_bytes < 1:
            raise ValueError("chunk_bytes must be >= 1 (or None)")
        self.engine = engine
        self.topology = topology
        self.tracer = tracer
        self.retry = retry if retry is not None else RetryPolicy()
        #: Default pipelining granule; ``None`` keeps the classic
        #: monolithic transfers (byte-identical schedules).
        self.chunk_bytes = chunk_bytes
        self._egress = {name: Resource(engine, topology.nic(name).max_flows,
                                       name=f"{name}/tx")
                        for name in topology.nodes}
        self._ingress = {name: Resource(engine, topology.nic(name).max_flows,
                                        name=f"{name}/rx")
                         for name in topology.nodes}
        # Registry-backed tallies (standalone fabrics get a private
        # registry so the stats surface works without a cluster).
        self.metrics = install_metrics(
            metrics if metrics is not None else MetricsRegistry())
        self._m_bytes = self.metrics.family("grout_fabric_bytes_total")
        self._m_transfers = self.metrics.family(
            "grout_fabric_transfers_total")
        self._m_wire = self.metrics.family(
            "grout_fabric_wire_seconds_total")
        self._m_retries = self.metrics.family(
            "grout_fabric_retries_total").labels()
        self._m_timeouts = self.metrics.family(
            "grout_fabric_timeouts_total").labels()
        self._m_failures = self.metrics.family(
            "grout_fabric_failures_total").labels()
        self._m_chunks = self.metrics.family("grout_chunks_total")
        self._m_chunk_retries = self.metrics.family(
            "grout_chunks_retried_total").labels()
        # Per-link bound handles, cached on first use: ``labels()`` is a
        # validate-and-lock round trip, far too heavy per chunk at
        # million-transfer scale.
        self._h_bytes: dict[tuple[str, str], object] = {}
        self._h_wire: dict[tuple[str, str], object] = {}
        self._h_transfers: dict[tuple[str, str], object] = {}
        self._h_chunks: dict[tuple[str, str], object] = {}
        self._flakes: list[_Flake] = []

    def _link_handle(self, cache: dict, family, src: str, dst: str):
        key = (src, dst)
        handle = cache.get(key)
        if handle is None:
            handle = cache[key] = family.labels(src=src, dst=dst)
        return handle

    def add_node(self, name: str) -> None:
        """Wire a node added to the topology after construction
        (autoscaling)."""
        if name in self._egress:
            return
        nic = self.topology.nic(name)
        self._egress[name] = Resource(self.engine, nic.max_flows,
                                      name=f"{name}/tx")
        self._ingress[name] = Resource(self.engine, nic.max_flows,
                                       name=f"{name}/rx")

    # -- stats ---------------------------------------------------------------

    @property
    def bytes_moved(self) -> int:
        """Total bytes successfully transferred (all links)."""
        return int(self._m_bytes.value_sum())

    @property
    def transfer_count(self) -> int:
        """Number of completed transfers (all links)."""
        return int(self._m_transfers.value_sum())

    @property
    def retry_count(self) -> int:
        """Attempts that failed and were retried."""
        return int(self._m_retries.value)

    @property
    def timeout_count(self) -> int:
        """Attempts killed by the per-attempt watchdog."""
        return int(self._m_timeouts.value)

    @property
    def failure_count(self) -> int:
        """Transfers that exhausted every attempt and gave up."""
        return int(self._m_failures.value)

    @property
    def chunk_count(self) -> int:
        """Pipelined chunks successfully moved (all links)."""
        return int(self._m_chunks.value_sum())

    @property
    def chunk_retry_count(self) -> int:
        """Chunk attempts that failed and were re-sent individually."""
        return int(self._m_chunk_retries.value)

    # -- fault injection ------------------------------------------------------

    def inject_flake(self, src: str | None = None, dst: str | None = None,
                     count: int = 1) -> None:
        """Arm ``count`` mid-wire failures on matching future transfers.

        ``None`` endpoints are wildcards; each matching attempt consumes
        one failure, spends half its wire time, then raises
        :class:`TransferError` — exercising the retry path and the
        NIC-slot release guarantees.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        self._flakes.append(_Flake(src, dst, count))

    def _consume_flake(self, src: str, dst: str) -> bool:
        for flake in self._flakes:
            if flake.remaining > 0 and flake.matches(src, dst):
                flake.remaining -= 1
                if flake.remaining == 0:
                    self._flakes.remove(flake)
                return True
        return False

    # -- transfers -----------------------------------------------------------

    def chunk_sizes(self, nbytes: int,
                    chunk_bytes: int | None = None) -> list[int]:
        """Split ``nbytes`` into pipeline granules.

        Uses the fabric default when ``chunk_bytes`` is ``None``; with
        chunking disabled the whole payload is one granule (so relay
        chains degrade to store-and-forward instead of breaking).
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        chunk = chunk_bytes if chunk_bytes is not None else self.chunk_bytes
        if nbytes == 0:
            return []
        if chunk is None or nbytes <= chunk:
            return [nbytes]
        full, rest = divmod(nbytes, chunk)
        return [chunk] * full + ([rest] if rest else [])

    def send(self, src: str, dst: str, nbytes: int,
             label: str = "transfer",
             chunk_bytes: int | None = None) -> Transfer:
        """Start moving ``nbytes`` (> 0) between two distinct nodes; the
        returned :class:`Transfer` fires with the wire seconds spent.

        ``chunk_bytes`` (per-call, else the fabric default) splits the
        move into pipelined chunks: a failed chunk re-sends only itself,
        the watchdog bounds each chunk's stall, and the NIC ends are
        re-arbitrated between chunks so concurrent flows interleave.
        """
        chunk = chunk_bytes if chunk_bytes is not None else self.chunk_bytes
        if chunk is None:
            return Transfer(self, src, dst, [nbytes], label)
        if chunk < 1:
            raise ValueError("chunk_bytes must be >= 1 (or None)")
        return Transfer(self, src, dst, self.chunk_sizes(nbytes, chunk),
                        label, index=0)

    def chunk_process(self, src: str, dst: str, nbytes: int,
                      label: str, index: int) -> Generator:
        """Process body moving one pipeline chunk (retries re-send only
        this chunk); returns its wire seconds."""
        if src == dst or nbytes == 0:
            return 0.0
        return (yield from _await(Transfer(
            self, src, dst, [nbytes], label, index=index, whole=False)))

    def transfer_process(self, src: str, dst: str, nbytes: int,
                         label: str = "transfer",
                         chunk_bytes: int | None = None) -> Generator:
        """Process body moving ``nbytes`` from ``src`` to ``dst``.

        Returns the wire seconds actually spent (excluding queueing).
        Zero-byte or same-node transfers complete immediately.  Failed
        attempts (flake or watchdog timeout) retry with exponential
        backoff up to ``retry.max_attempts``; exhausting them raises
        :class:`TransferError` to the caller.  ``chunk_bytes`` pipelines
        the move (see :meth:`send`); with it and the fabric default both
        ``None`` the transfer is one monolithic granule.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if src == dst or nbytes == 0:
            return 0.0
        return (yield from _await(self.send(src, dst, nbytes, label,
                                            chunk_bytes)))

    def transfer(self, src: str, dst: str, nbytes: int,
                 label: str = "transfer") -> Event:
        """Spawn a transfer; the returned process event fires on completion."""
        return self.engine.process(
            self.transfer_process(src, dst, nbytes, label),
            name=f"net:{src}->{dst}:{label}")
