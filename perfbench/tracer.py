"""Outside-in layer tracer: spans around each layer's public entry points.

The program under test carries no tracing of its own for this benchmark.
Instead :class:`LayerTracer` replaces, at class or module level, the
public functions through which one layer calls the next, and records one
span per call: name, start, end (host ``perf_counter`` seconds), the
span that was open when it started (its parent) and one integer
argument: the serve ticket id on ``serve.submit`` and
``workloads.verify`` spans, the call number on generator steps (below),
else -1.

Spans live in flat in-memory lists and are written to a JSON file once,
at exit (:meth:`LayerTracer.dump`).  Install the wrappers *before* the
runtime is built: hot paths pre-bind some methods at construction time.

Generator entry points (``Fabric.transfer_process``) are traced step by
step: every resumption of the generator is one span, and all steps of
one call share the call's sequence number as their argument.
"""

from __future__ import annotations

import functools
import json
import time

__all__ = ["LayerTracer"]


class LayerTracer:
    """Records nested spans from wrapped entry points; single-threaded."""

    def __init__(self) -> None:
        self.names: list[str] = []          # span-name table
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.arg: list[int] = []
        self._stack = [-1]
        self._originals: list[tuple[object, str, object]] = []
        self._calls = 0
        #: id(registry workload instance) -> serve ticket id, filled by
        #: the ``serve.submit`` wrapper so ``workloads.verify`` spans
        #: (run later, inside a pump quantum) carry their request id.
        self._ticket_of_workload: dict[int, int] = {}

    # -- recording -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _call_wrapper(self, fn, name: str, arg_of=None):
        nid = self._name_id(name)
        span_name, start, end = self.span_name, self.start, self.end
        parent, arg, stack = self.parent, self.arg, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            arg.append(-1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if arg_of is not None:
                arg[idx] = arg_of(args, result)
            return result

        return traced

    def _generator_wrapper(self, fn, name: str):
        nid = self._name_id(name)
        span_name, start, end = self.span_name, self.start, self.end
        parent, arg, stack = self.parent, self.arg, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._calls += 1
            call = tracer._calls
            gen = fn(*args, **kwargs)
            value, error = None, None
            while True:
                idx = len(span_name)
                span_name.append(nid)
                parent.append(stack[-1])
                arg.append(call)
                end.append(0.0)
                stack.append(idx)
                start.append(clock())
                try:
                    if error is not None:
                        yielded = gen.throw(error)
                    else:
                        yielded = gen.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    end[idx] = clock()
                    stack.pop()
                try:
                    value, error = (yield yielded), None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # forwarded into the body
                    value, error = None, exc

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, *, arg_of=None) -> None:
        """Trace ``owner.attr`` (a class or module attribute) as ``name``."""
        self._patch(owner, attr,
                    self._call_wrapper(owner.__dict__[attr], name, arg_of))

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Trace every resumption of generator function ``owner.attr``."""
        self._patch(owner, attr,
                    self._generator_wrapper(owner.__dict__[attr], name))

    # -- the layer map -----------------------------------------------------------

    def install(self) -> "LayerTracer":
        """Wrap every layer boundary the benchmark reports on."""
        import repro.polyglot.manifest as manifest_mod
        from repro.core.controller import Controller
        from repro.core.dag import DependencyDag
        from repro.core.intranode import IntraNodeScheduler
        from repro.core.pipeline import Stage
        from repro.net.fabric import Fabric
        from repro.obs.ceprofile import CeProfiler
        from repro.serve.service import GroutService
        from repro.sim.engine import Engine
        from repro.uvm.manager import UvmSpace
        from repro.workloads import WORKLOADS

        self.wrap(Engine, "run", "sim.run")
        self.wrap(Engine, "run_steps", "sim.run_steps")
        self.wrap(DependencyDag, "add", "dag.add")
        self.wrap(DependencyDag, "prune_completed", "dag.prune")
        self.wrap(Controller, "schedule", "pipeline.schedule")
        for stage in _subclasses(Stage):
            if "process" in stage.__dict__:
                self.wrap(stage, "process", f"pipeline.{stage.name}")
        self.wrap(IntraNodeScheduler, "submit", "intranode.submit")
        self.wrap(UvmSpace, "price_kernel", "uvm.price_kernel")
        self.wrap(UvmSpace, "host_access", "uvm.host_access")
        self.wrap(Fabric, "transfer", "fabric.transfer")
        self.wrap_generator(Fabric, "transfer_process",
                            "fabric.transfer_process")
        for method in ("record_sched", "record_transfer", "record_stall",
                       "record_compute"):
            self.wrap(CeProfiler, method, "obs.record")
        self.wrap(GroutService, "submit", "serve.submit",
                  arg_of=self._note_ticket)
        self.wrap(GroutService, "pump", "serve.pump")
        for cls in set(WORKLOADS.values()):
            if "build" in cls.__dict__:
                self.wrap(cls, "build", "workloads.build")
            if "verify" in cls.__dict__:
                self.wrap(cls, "verify", "workloads.verify",
                          arg_of=self._verify_ticket)
        self.wrap(manifest_mod, "run_manifest", "polyglot.manifest")
        return self

    def uninstall(self) -> None:
        """Restore every wrapped attribute (spans recorded so far stay)."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _note_ticket(self, _args, ticket) -> int:
        if ticket.workload is not None:
            self._ticket_of_workload[id(ticket.workload)] = ticket.ticket_id
        return ticket.ticket_id

    def _verify_ticket(self, args, _result) -> int:
        return self._ticket_of_workload.pop(id(args[0]), -1)

    # -- output ------------------------------------------------------------------

    def dump(self, path: str, counters: dict) -> None:
        """Write spans (plus the caller's counters) as one JSON file."""
        payload = {
            "names": self.names,
            "fields": ["name_id", "start", "end", "parent", "arg"],
            "spans": list(zip(self.span_name, self.start, self.end,
                              self.parent, self.arg)),
            "counters": counters,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _subclasses(cls) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found
