"""Host-speed calibration: a fixed chunk of pure-Python work, timed.

The benchmark runs on a few shared cores whose speed drifts by up to
~1.6x on a scale of seconds to minutes (measured by timing this chunk
back to back).  Every wall-clock figure the benchmark gates is therefore
rescaled to a reference host speed: a time ``t`` measured while the chunk
took ``c`` seconds is reported as ``t * REF_S / c``, and a rate as
``rate * c / REF_S``.  The chunk is the benchmark's own code, so a change
to the program under test never moves it; the rescaled figures move only
with the program's cost, not with the host's speed.

The chunk mixes the two kinds of interpreter work the runtime does —
integer arithmetic in a tight loop, and small-object churn through a
heap and a dict — because the host's slow states slow them by different
factors, and a mix follows the runtime more closely than either alone.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Chunk time, in seconds, of the reference host every gated time is
#: rescaled to: about the chunk's median on the 2-vCPU development host.
REF_S = 0.003


class _Item:
    __slots__ = ("when", "key", "data")

    def __init__(self, when: int, key: int, data: dict) -> None:
        self.when = when
        self.key = key
        self.data = data

    def __lt__(self, other: "_Item") -> bool:
        return self.when < other.when


def chunk() -> float:
    """Run the fixed chunk once; returns its wall time in seconds.

    The cyclic garbage collector is paused meanwhile: a collection the
    chunk's allocations trigger would traverse the host process's heap
    and time the program under test, not the host.
    """
    paused = gc.isenabled()
    gc.disable()
    try:
        return _timed_chunk()
    finally:
        if paused:
            gc.enable()


def _timed_chunk() -> float:
    started = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc = (acc + i * i) % 1_000_003
    heap: list[_Item] = []
    table: dict[int, int] = {}
    x = 12345
    for i in range(700):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, _Item(x % 1000, i, {"n": i, "w": [i, x]}))
        table[x % 257] = table.get(x % 257, 0) + 1
        if len(heap) > 64:
            item = heapq.heappop(heap)
            table[item.key % 257] = item.data["w"][0]
    return time.perf_counter() - started


def smooth(samples: list[float], half: int = 2) -> list[float]:
    """Each sample replaced by the mean of its ``2*half+1`` neighbours
    (fewer at the ends): the local host speed, less one chunk's jitter."""
    out = []
    for i in range(len(samples)):
        window = samples[max(0, i - half):i + half + 1]
        out.append(sum(window) / len(window))
    return out


def rescale(times: list[float], chunks: list[float]) -> list[float]:
    """``times[i]`` at the reference host speed, given the chunk time
    ``chunks[i]`` measured right after it (smoothed over neighbours)."""
    return [t * REF_S / c for t, c in zip(times, smooth(chunks))]
