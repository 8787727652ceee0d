"""Per-layer metrics derived from a span dump (see ``tracer.py``).

A span's *self time* is its duration minus the durations of its direct
child spans; spans nest strictly (one thread, stack-recorded), so the
children never overlap.  Every ratio below names its base.  A layer that
a workload never enters reports 0 for its time metrics.
"""

from __future__ import annotations

import json
from collections import defaultdict

#: (metric, unit) in the order the benchmark prints them.
METRICS = (
    ("sim.events_per_ce", "count"),
    ("sim.self_us_per_event", "us"),
    ("dag.add_us", "us"),
    ("dag.prune_us_per_ce", "us"),
    ("dag.size_end", "count"),
    ("pipeline.schedule_self_us", "us"),
    ("pipeline.admission_us", "us"),
    ("pipeline.placement_us", "us"),
    ("pipeline.movement_us", "us"),
    ("pipeline.coherence_us", "us"),
    ("pipeline.dispatch_us", "us"),
    ("intranode.submit_self_us", "us"),
    ("uvm.price_kernel_us", "us"),
    ("uvm.price_kernel_calls", "count"),
    ("uvm.host_access_us", "us"),
    ("fabric.transfers_per_ce", "count"),
    ("fabric.retries", "count"),
    ("fabric.transfer_call_us", "us"),
    ("obs.profiler_us_per_ce", "us"),
    ("serve.submit_ms", "ms"),
    ("serve.pump_ms", "ms"),
    ("serve.quanta_per_request", "count"),
    ("serve.between_quanta_ms", "ms"),
    ("serve.daemon_busy_ratio", "ratio"),
    ("workloads.build_ms", "ms"),
    ("workloads.verify_ms", "ms"),
    ("polyglot.manifest_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("host.calib_ms", "ms"),
)

#: Stage span name -> metric name.
_STAGES = {"admission": "admission", "placement": "placement",
           "data-movement": "movement", "coherence": "coherence",
           "dispatch": "dispatch"}


class _Agg:
    __slots__ = ("calls", "total", "self_total", "args")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_total = 0.0
        self.args: set[int] = set()

    def mean(self, scale: float, *, self_time: bool = False) -> float:
        if not self.calls:
            return 0.0
        value = self.self_total if self_time else self.total
        return value / self.calls * scale


def load_spans(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def aggregate(payload: dict) -> dict[str, _Agg]:
    """Calls, total and self time (seconds) per span name."""
    spans = payload["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    aggs: dict[str, _Agg] = defaultdict(_Agg)
    names = payload["names"]
    for i, (nid, start, end, _, arg) in enumerate(spans):
        agg = aggs[names[nid]]
        agg.calls += 1
        agg.total += end - start
        agg.self_total += end - start - child[i]
        agg.args.add(arg)
    return aggs


def _between_quanta(payload: dict) -> float:
    """Mean gap from the end of one pump quantum to the start of the
    next: the event loop's time on HTTP, submissions and idle waits."""
    names = payload["names"]
    if "serve.pump" not in names:
        return 0.0
    pump = names.index("serve.pump")
    ends = [(start, end) for nid, start, end, _, _ in payload["spans"]
            if nid == pump]
    gaps = [b[0] - a[1] for a, b in zip(ends, ends[1:])]
    return sum(gaps) / len(gaps) * 1e3 if gaps else 0.0


def _busy_ratio(payload: dict) -> float:
    """Share of the daemon's serving interval (first submit to last
    quantum) spent inside ``GroutService.submit``/``pump``."""
    names = payload["names"]
    ids = {names.index(n) for n in ("serve.submit", "serve.pump")
           if n in names}
    spans = [s for s in payload["spans"] if s[0] in ids]
    if not spans:
        return 0.0
    busy = sum(end - start for _, start, end, _, _ in spans)
    return busy / (spans[-1][2] - spans[0][1])


def per_layer(payload: dict, *, ces: int, requests: int, events: int,
              dag_size_end: float, transfers: int, retries: int) -> dict:
    """Every layer metric except the two ``run.py`` measures itself
    (``trace.overhead_ratio``, ``host.calib_ms``)."""
    aggs = aggregate(payload)
    get = aggs.get
    empty = _Agg()

    def agg(name: str) -> _Agg:
        return get(name) or empty

    engine_self = agg("sim.run").self_total + agg("sim.run_steps").self_total
    transfer = agg("fabric.transfer_process")
    transfer_calls = len(transfer.args)
    out = {
        "sim.events_per_ce": events / ces,
        "sim.self_us_per_event": engine_self / events * 1e6,
        "dag.add_us": agg("dag.add").mean(1e6),
        "dag.prune_us_per_ce": agg("dag.prune").total / ces * 1e6,
        "dag.size_end": dag_size_end,
        "pipeline.schedule_self_us":
            agg("pipeline.schedule").mean(1e6, self_time=True),
        "intranode.submit_self_us":
            agg("intranode.submit").mean(1e6, self_time=True),
        "uvm.price_kernel_us": agg("uvm.price_kernel").mean(1e6),
        "uvm.price_kernel_calls": agg("uvm.price_kernel").calls / ces,
        "uvm.host_access_us": agg("uvm.host_access").mean(1e6),
        "fabric.transfers_per_ce": transfers / ces,
        "fabric.retries": retries / ces * 1000,
        "fabric.transfer_call_us":
            transfer.total / transfer_calls * 1e6 if transfer_calls else 0.0,
        "obs.profiler_us_per_ce": agg("obs.record").total / ces * 1e6,
        "serve.submit_ms": agg("serve.submit").mean(1e3),
        "serve.pump_ms": agg("serve.pump").mean(1e3),
        "serve.quanta_per_request": agg("serve.pump").calls / requests,
        "serve.between_quanta_ms": _between_quanta(payload),
        "serve.daemon_busy_ratio": _busy_ratio(payload),
        "workloads.build_ms": agg("workloads.build").mean(1e3),
        "workloads.verify_ms": agg("workloads.verify").mean(1e3),
        "polyglot.manifest_ms": agg("polyglot.manifest").mean(1e3),
    }
    for stage, metric in _STAGES.items():
        out[f"pipeline.{metric}_us"] = \
            agg(f"pipeline.{stage}").mean(1e6, self_time=True)
    return out
