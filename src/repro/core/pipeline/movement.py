"""Data movement — the replications that feed a placed CE.

The third phase of Algorithm 1: for every parameter of the CE, issue
whatever inter-node transfer makes it up-to-date on the chosen node —
controller→worker when the data only lives on the controller, worker↔
worker P2P otherwise — or coalesce broadcast-shaped replication into the
:class:`~repro.core.planner.TransferPlanner`'s relay chains when
collectives are enabled.  The stage owns the failure-aware mover: crash
interrupts re-source a move from a surviving holder, exhausted fabric
retries fall back toward the controller.

Crash recovery re-enters this stage directly (``ensure_on_node`` with
``reexec_of``), so re-executions flow through the exact same staged path
as first executions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.fabric import Transfer
from repro.sim import Event, Interrupt
from repro.sim.events import EventState

from repro.core.pipeline.base import SchedulingState, Stage

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.arrays import ManagedArray
    from repro.core.ce import ComputationalElement

__all__ = ["DataMovementStage", "Move"]

#: Interrupt-cause tag carried by crash-triggered interruptions.
NODE_CRASH = "node-crash"

#: Rescues (re-sourcing after exhausted fabric retries) before a move
#: gives up.
MAX_RESCUES = 3

_PROCESSED = EventState.PROCESSED


class Move(Event):
    """One replication as an explicit state machine: a zero-delay start
    hop, the producer's delivery, the source GPU's writeback delay, then
    a fabric :class:`~repro.net.fabric.Transfer` (which owns retry,
    backoff, watchdog and chunking).  Fires with the bytes moved.

    * **rescue** — a transfer that exhausted its retries is re-sourced
      from another up-to-date holder (ultimately the controller, which
      regains validity if nobody else holds the array); a failure from
      the controller, or after :data:`MAX_RESCUES` rescues, fails the
      move with the :class:`~repro.net.fabric.TransferError`.
    * **crash** — the :class:`~repro.sim.Process` interrupt API: the
      move stops waiting at once and handles the interruption one hop
      later, aborting its in-flight transfer.  A ``(NODE_CRASH, node)``
      cause (the source died) re-sources from a holder other than
      ``node``; :meth:`cancel` (the destination died) fails the move
      with a defused :class:`~repro.sim.Interrupt`.
    """

    __slots__ = ("stage", "array", "src", "dst", "producer", "for_ce",
                 "_epoch", "_leg", "_producer_index", "_measured_from",
                 "_rescues")

    def __init__(self, stage: "DataMovementStage", array: "ManagedArray",
                 src: str, dst: str, producer: Event | None,
                 for_ce: "ComputationalElement | None"):
        engine = stage.controller.engine
        super().__init__(engine, name=f"move:{array.name}->{dst}")
        self.stage = stage
        self.array = array
        self.src = src
        self.dst = dst
        self.producer = producer
        self.for_ce = for_ce
        #: Bumped when the move stops waiting (interrupt, cancel); stale
        #: deliveries carry an older epoch and are dropped.
        self._epoch = 0
        self._leg: Transfer | None = None
        self._producer_index = -1
        self._measured_from: float | None = None
        self._rescues = 0
        # One hop before anything runs, like a Process's start event.
        engine.schedule_call(0.0, self._begin, 0)

    @property
    def is_alive(self) -> bool:
        """True while the move has not completed (mirrors Process)."""
        return not self.triggered

    # -- states --------------------------------------------------------------

    def _begin(self, epoch: int) -> None:
        if epoch != self._epoch:
            return
        producer = self.producer
        if producer is not None and producer._state is not _PROCESSED:
            producer._defused = True
            self._producer_index = len(producer.callbacks)
            producer.callbacks.append(self._after_producer)
            return
        self._after_producer(None)

    def _after_producer(self, ev: Event | None) -> None:
        if ev is not None:
            if self._producer_index < 0:
                return   # stopped waiting (interrupt) mid-delivery
            self._producer_index = -1
            if not ev._ok:
                # The producer failed: the move fails with its exception.
                self.fail(ev._value)  # type: ignore[arg-type]
                return
        controller = self.stage.controller
        if self._measured_from is None:
            # Profile from after the producer wait: the wait is
            # dependency stall, not data movement.
            self._measured_from = controller.engine.now
        source_worker = controller.workers.get(self.src)
        if source_worker is not None:
            wb = source_worker.writeback_seconds(self.array)
            if wb > 0:
                controller.engine.schedule_call(wb, self._transfer,
                                                self._epoch)
                return
        self._transfer(self._epoch)

    def _transfer(self, epoch: int) -> None:
        if epoch != self._epoch:
            return
        array = self.array
        if self.src == self.dst or array.nbytes == 0:
            self._landed(None)
            return
        leg = self.stage.controller.cluster.fabric.send(
            self.src, self.dst, array.nbytes, label=array.name)
        leg._defused = True
        self._leg = leg
        leg.callbacks.append(self._landed)

    def _landed(self, ev: Event | None) -> None:
        if ev is not None:
            if ev is not self._leg:
                return
            self._leg = None
            if not ev._ok:
                self._rescue(ev._value)  # type: ignore[arg-type]
                return
        controller = self.stage.controller
        if controller.profiler is not None and self.for_ce is not None:
            controller.profiler.record_transfer(
                self.for_ce, controller.engine.now - self._measured_from,
                nbytes=self.array.nbytes, node=self.dst)
        self.succeed(self.array.nbytes)

    def _rescue(self, error: BaseException) -> None:
        self._rescues += 1
        home = self.stage.controller.cluster.controller.name
        if self._rescues > MAX_RESCUES or self.src == home:
            self.fail(error)
            return
        self._resource(exclude=self.src)

    def _resource(self, exclude: str) -> None:
        """Restart from the best live holder other than ``exclude``."""
        self.src = self.stage.surviving_source(self.array, self.dst,
                                               exclude=exclude)
        self.stage.controller.stats.count_rerouted()
        self._begin(self._epoch)

    # -- crash repair --------------------------------------------------------

    def interrupt(self, cause: object = None) -> None:
        """Interrupt the move (see the class docstring)."""
        if self.triggered:
            return
        leg = self._stop_waiting()
        self.engine.schedule_call(0.0, self._interrupted, (cause, leg))

    def _stop_waiting(self) -> Transfer | None:
        """Make pending deliveries stale, tombstone the producer slot and
        detach the in-flight leg (returned for the caller to abort)."""
        self._epoch += 1
        producer = self.producer
        index = self._producer_index
        if (producer is not None and 0 <= index < len(producer.callbacks)
                and producer.callbacks[index] == self._after_producer):
            producer.callbacks[index] = None
        self._producer_index = -1
        leg, self._leg = self._leg, None
        return leg

    def cancel(self, cause: object = None) -> bool:
        """Interrupt the move with its failure defused; returns whether
        it was still alive."""
        self._defused = True
        if self.triggered:
            return False
        self.interrupt(cause)
        return True

    def _interrupted(self, arg: tuple) -> None:
        cause, leg = arg
        # A second interrupt in the same instant may find the move
        # restarted by the first one's re-sourcing: stop that restart too.
        for stale in (leg, self._stop_waiting()):
            if stale is not None:
                stale.abort()
        if self.triggered:
            return
        if isinstance(cause, tuple) and cause and cause[0] == NODE_CRASH:
            self._resource(exclude=cause[1])
        else:
            self.fail(Interrupt(cause))


class DataMovementStage(Stage):
    """Issue the transfers that make every parameter up-to-date."""

    name = "data-movement"

    def process(self, ce, state: SchedulingState) -> SchedulingState:
        """Run this phase for one CE (see the class docstring)."""
        assert state.node is not None, "placement must run before movement"
        session = state.session
        recorder = None if session is None else session._plan_recorder
        if recorder is not None:
            return self._process_recorded(ce, state, recorder)
        for array in ce.arrays:
            ev = self.ensure_on_node(array, state.node, for_ce=ce)
            if ev is not None:
                state.waits.append(ev)
        return state

    def _process_recorded(self, ce, state: SchedulingState,
                          recorder) -> SchedulingState:
        """Recording twin of :meth:`process`: identical decisions, plus
        a note of each array's movement action for the session's plan —
        the replication's source node, or ``None`` when the array was
        already up to date on the chosen node."""
        directory = self.controller.directory
        node = state.node
        for array in ce.arrays:
            fresh = not directory.up_to_date_on(array, node)
            ev = self.ensure_on_node(array, node, for_ce=ce)
            if ev is not None:
                state.waits.append(ev)
            if fresh:
                # "" (never a node name) marks an unreadable source —
                # e.g. a planner relay — and poisons the recording.
                recorder.note_move(
                    directory.state(array).inflight_src.get(node, ""))
            else:
                recorder.note_move(None)
        return state

    # -- Algorithm 1, data-movement phase --------------------------------------

    def ensure_on_node(self, array: "ManagedArray", node_name: str,
                       reexec_of: "ComputationalElement | None" = None,
                       for_ce: "ComputationalElement | None" = None
                       ) -> "Event | None":
        """Return the event a consumer on ``node_name`` must wait for.

        ``reexec_of`` marks a crash re-execution: the directory's
        ``last_writer`` may then be the re-executed CE itself (or a
        program-order-later casualty), and waiting on it would deadlock —
        the DAG parent waits already order the re-execution correctly.
        ``for_ce`` attributes the resulting transfer time to the
        consuming CE in the profiler.
        """
        controller = self.controller
        directory = controller.directory
        if directory.up_to_date_on(array, node_name):
            # Possibly still in flight from an earlier replication.
            return directory.replication_event(array, node_name)

        state = directory.state(array)
        last = state.last_writer
        producer = None
        if last is not None and (reexec_of is None
                                 or last.ce_id < reexec_of.ce_id):
            producer = last.done

        if reexec_of is None and controller.planner.wants(array, producer):
            # Broadcast shape: coalesce same-window replications into one
            # pipelined relay chain (the driver re-records each
            # destination's real predecessor once the chain is fixed).
            src = controller.cluster.controller.name
            done = controller.planner.request(array, node_name, producer,
                                              for_ce=for_ce)
        else:
            if directory.only_on_controller(array):
                src = controller.cluster.controller.name
            else:
                # The P2P source: the up-to-date holder with the best
                # link to the destination (prefer workers over the
                # controller; names break cost ties so the choice never
                # depends on set-iteration order).
                src = min(
                    (h for h in state.up_to_date if h != node_name),
                    key=lambda h: (
                        h == controller.cluster.controller.name,
                        controller.cluster.topology.transfer_seconds(
                            h, node_name, array.nbytes), h))
                if src != controller.cluster.controller.name:
                    controller.stats.count_p2p()
            done = Move(self, array, src, node_name, producer, for_ce)
        directory.record_replication(
            array, node_name, done, src=src,
            producer_id=last.ce_id if producer is not None else None)
        controller.stats.count_transfer(array.nbytes)
        return done

    def surviving_source(self, array: "ManagedArray", dst: str,
                         exclude: str | None = None) -> str:
        """Best live holder to re-ship from; the controller is the
        guaranteed last resort (it regains validity if nobody else holds
        the array)."""
        controller = self.controller
        home = controller.cluster.controller.name
        state = controller.directory.state(array)
        candidates = [
            h for h in state.up_to_date
            if h not in (dst, exclude)
            and (h == home or h in controller.workers)
        ]
        if not candidates:
            state.up_to_date.add(home)
            return home
        return min(candidates, key=lambda h: (
            h == home,
            controller.cluster.topology.transfer_seconds(
                h, dst, array.nbytes),
            h))
