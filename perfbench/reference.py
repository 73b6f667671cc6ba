"""Host-speed reference loop and the scaling it drives.

The loop is a fixed piece of pure-Python work owned by the benchmark:
it never changes with the program under test, so its time on a given
host tracks only how fast the host is running right now.  A measured
run times the loop between its ops, in the same process, and scales
every host-time metric to a nominal host::

    rate_scaled = rate_raw * ref_measured / ref_nominal
    time_scaled = time_raw * ref_nominal / ref_measured

``ref_nominal`` lives in ``reference.json`` beside this file.  Changing
the loop or the nominal value breaks comparability with every earlier
measurement, so neither may change once a baseline exists.

The loop imports nothing beyond the standard library, so it can run
before the program's imports to scale the set-up time as well.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import statistics
import threading
import time
from pathlib import Path

__all__ = [
    "HostClock",
    "busy_reason",
    "load_nominal_ms",
    "ref_chunk",
    "time_chunk_ms",
    "trimmed_mean",
]

#: Objects built, sorted and grouped by one reference chunk (about
#: 3 ms on a 2020s x86 core).
REF_OBJECTS = 1_000

#: Op seconds per interleaved reference chunk.  The host this was tuned
#: on changes speed within a second, so sampling is dense (~7% of the
#: op time).
REF_EVERY_S = 0.04

#: Most chunks run in one go after a long op.
MAX_CHUNKS = 25


class _Item:
    __slots__ = ("key", "weight", "label")

    def __init__(self, key: int, weight: float, label: str) -> None:
        self.key = key
        self.weight = weight
        self.label = label


def ref_chunk() -> float:
    """One chunk of fixed interpreter work shaped like a simulator's.

    It allocates small objects, sorts them by a tuple key, groups them
    in a dict of lists and drains a heap of timestamped entries: the
    mix (allocation, attribute access, comparisons, heap churn) that
    tracks how fast this program's ops run far better than a pure
    arithmetic loop does.
    """
    items = [_Item(i % 13, i * 0.25, str(i)) for i in range(REF_OBJECTS)]
    items.sort(key=lambda it: (it.key, -it.weight))
    groups: dict[int, list[tuple[float, str]]] = {}
    for it in items:
        groups.setdefault(it.key, []).append((it.weight, it.label))
    acc = 0.0
    for values in groups.values():
        acc += sum(w for w, _ in values) / len(values)
    heap: list[tuple[float, int]] = []
    for i in range(REF_OBJECTS):
        heapq.heappush(heap, ((i * 7919) % 1000 * 0.001, i))
    while heap:
        acc += heapq.heappop(heap)[0]
    return acc + len("".join(it.label for it in items[:400]))


def time_chunk_ms() -> float:
    """Host milliseconds one reference chunk takes right now."""
    t0 = time.perf_counter()
    ref_chunk()
    return (time.perf_counter() - t0) * 1e3


def load_nominal_ms() -> float:
    """The fixed nominal chunk time from ``reference.json``."""
    path = Path(__file__).with_name("reference.json")
    return float(json.loads(path.read_text(encoding="utf-8"))["ref_nominal_ms"])


def busy_reason() -> str | None:
    """Why the reference cannot run now, or None if the process is idle.

    The reference must time the host, not the host plus the program's
    own leftover work: an extra thread or a live child process between
    ops would compete with it and skew the scale.
    """
    task_dir = Path("/proc/self/task")
    if task_dir.is_dir():
        tasks = os.listdir(task_dir)
        if len(tasks) > 1:
            return f"{len(tasks)} threads alive between ops"
        children = task_dir / tasks[0] / "children"
        if children.is_file() and children.read_text().split():
            return "child processes alive between ops"
        return None
    if threading.active_count() > 1:
        return f"{threading.active_count()} Python threads alive between ops"
    return None


def trimmed_mean(values: list[float]) -> float:
    """Mean of ``values`` without their lowest and highest tenth."""
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


class HostClock:
    """Interleaves reference chunks with ops and scales each op by them.

    Call :meth:`sample` once before the first op and once after the
    last, and :meth:`after_op` after every op: once :data:`REF_EVERY_S`
    of op time has accrued it runs one chunk per such interval (up to
    :data:`MAX_CHUNKS`) and keeps their trimmed mean.  Each op is scaled
    by the mean of the samples just before and just after it, so a host
    that changes speed mid-run is followed, not averaged away.
    :attr:`unscaled_reason` says why a run could not be scaled;
    :meth:`scaled` then returns the raw op times.
    """

    def __init__(self, nominal_ms: float) -> None:
        self.nominal_ms = nominal_ms
        self.op_s: list[float] = []
        #: (ops completed before the chunk, chunk milliseconds)
        self.marks: list[tuple[int, float]] = []
        self.unscaled_reason: str | None = None
        self._since = 0.0

    def sample(self, chunks: int = 1) -> None:
        reason = busy_reason()
        if reason is not None:
            self.unscaled_reason = reason
            return
        ms = trimmed_mean([time_chunk_ms() for _ in range(chunks)])
        self.marks.append((len(self.op_s), ms))

    def after_op(self, op_seconds: float) -> None:
        self.op_s.append(op_seconds)
        self._since += op_seconds
        if self._since >= REF_EVERY_S:
            self.sample(min(int(self._since / REF_EVERY_S), MAX_CHUNKS))
            self._since = 0.0

    def _op_ref_ms(self) -> list[float]:
        """Reference milliseconds in force during each op."""
        # a rolling median of three damps a single preempted chunk
        ms = [m for _, m in self.marks]
        smooth = [
            statistics.median(ms[max(k - 1, 0):k + 2]) for k in range(len(ms))
        ]
        out = []
        k = 0  # the last chunk taken before op i started
        for i in range(len(self.op_s)):
            while k + 1 < len(self.marks) and self.marks[k + 1][0] <= i:
                k += 1
            after = smooth[min(k + 1, len(smooth) - 1)]
            out.append((smooth[k] + after) / 2)
        return out

    def scaled(self) -> list[float]:
        """Every op's host seconds, scaled to the nominal host."""
        if self.unscaled_reason is not None or len(self.marks) < 2:
            return list(self.op_s)
        return [
            t * self.nominal_ms / r for t, r in zip(self.op_s, self._op_ref_ms())
        ]

    @property
    def measured_ms(self) -> float | None:
        """Op-time-weighted reference milliseconds over the run."""
        if len(self.marks) < 2:
            return None
        refs = self._op_ref_ms()
        return math.fsum(t * r for t, r in zip(self.op_s, refs)) / math.fsum(self.op_s)
