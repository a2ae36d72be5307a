"""Operation times scaled to a fixed machine speed.

The benchmark runs on a shared machine whose speed drifts: the same
pure-Python query takes up to twice as long during spells of seconds to
minutes, and operations in a spell slow alike.  ``ScaledClock`` runs a
fixed reference computation, the probe, between the program's operations
every PROBE_GAP seconds and scales each operation's wall time by
REFERENCE_S / (the median of the probe times around it).  A scaled time is
then the time the operation takes when the machine runs the probe in
REFERENCE_S, whichever spell it was measured in.  The program's own work
is untouched: a change that makes it faster or slower moves its scaled
times as much as its wall times.

The probe is a Dijkstra with ``heapq`` and dicts over a fixed grid, the
same kind of work as the program's reach, heuristic and search layers.  It
does not depend on the workload seed or on gsp.  Large DP calls that
allocate much memory slow down less than the probe does, so their scaled
times still drift a little with the machine.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
from array import array
from collections import defaultdict
from time import perf_counter

PROBE_SIDE = 30  # a 30x30 grid: about 1 ms per probe on a quiet 2 GHz Xeon core
REFERENCE_S = 1.0e-3  # scaled times are those of a machine that runs the probe in 1 ms
PROBE_GAP = 0.02  # seconds of operations between probes, at most (unless one op is longer)
WINDOW = 5  # probes per scale: the WINDOW - 1 before an operation and the one after it


def _grid() -> list[list[tuple[int, int]]]:
    rng = random.Random("probe")
    side, n = PROBE_SIDE, PROBE_SIDE * PROBE_SIDE
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for v in range(n):
        for w in (v + 1 if (v + 1) % side else None, v + side if v + side < n else None):
            if w is not None:
                fuel = rng.randint(1, 10)
                adj[v].append((w, fuel))
                adj[w].append((v, fuel))
    return adj


class ScaledClock:
    """Scales operation times by the probe and keeps them by kind.

    ``note(kind, seconds)`` follows each operation.  Its scale is fixed at
    the next probe, so ``flush`` must follow the last operation.
    """

    def __init__(self):
        self.adj = _grid()
        self.probes: list[float] = []  # seconds per probe run
        self.pending: list[tuple[str, float]] = []
        # Compact samples: a faster program takes more of them, and they
        # should not add much to the peak memory being measured.
        self.samples: defaultdict[str, array] = defaultdict(lambda: array("d"))
        for _ in range(WINDOW):
            self._probe()

    def _probe(self):
        # With the collector on, the probe's allocations would set off
        # collections of the program's heap and time those too.
        gc.disable()
        adj = self.adj
        t0 = perf_counter()
        dist = {0: 0}
        heap = [(0, 0)]
        done = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, w in adj[u]:
                nd = d + w
                if nd < dist.get(v, nd + 1):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        self.last = perf_counter()
        gc.enable()
        self.probes.append(self.last - t0)
        if self.pending:
            scale = REFERENCE_S / statistics.median(self.probes[-WINDOW:])
            for kind, seconds in self.pending:
                self.samples[kind].append(seconds * scale)
            self.pending.clear()

    def note(self, kind: str, seconds: float):
        self.pending.append((kind, seconds))
        if perf_counter() - self.last >= PROBE_GAP:
            self._probe()

    def flush(self):
        if self.pending:
            self._probe()

    def slowdown(self) -> float:
        """Median probe time over REFERENCE_S: how slow the machine ran."""
        return statistics.median(self.probes) / REFERENCE_S
