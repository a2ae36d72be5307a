"""Correctness checks made apart from the program.

Nothing here imports ``gsp``.  Both checks read the benchmark's own copy of
each generated graph (``gen.Net``) and the raw road arcs, never the
program's refuel (reach) graph or its purchase rule:

* ``Replayer.replay`` drives a returned schedule along its route, pricing
  each hop with its own Dijkstra over the raw arcs, and returns the cost it
  recomputed or the first violation it met.
* ``Reference.cost`` is a layered dynamic program over integer fuel levels
  (vertex, fuel 0..q_max).  It may buy any whole amount at any station and
  coast for free along raw arcs, so its optimum bounds every schedule the
  program could find.  With integral fuels the optimum has integral
  purchases, which makes the integer levels exact.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from gen import Net, Query


class Replayer:
    """Replays schedules on one graph; shortest hop fuels are memoised per source.

    Searches stop at ``limit`` fuel (the largest tank in use): a longer hop
    cannot be driven on any tank, so its exact length does not matter.
    """

    def __init__(self, net: Net, limit: int):
        self.net, self.limit = net, limit
        self.out: list[list[tuple[int, int]]] = [[] for _ in range(net.n)]
        for u, v, w in net.arcs:
            self.out[u].append((v, w))
        self._dist: dict[int, dict[int, int]] = {}

    def fuel(self, u: int, v: int) -> float:
        """Least fuel to drive from u to v on the raw arcs; inf beyond the limit."""
        dist = self._dist.get(u)
        if dist is None:
            dist = {u: 0}
            heap = [(0, u)]
            while heap:
                d, x = heapq.heappop(heap)
                if d > dist[x]:
                    continue
                for y, w in self.out[x]:
                    if d + w <= self.limit and d + w < dist.get(y, math.inf):
                        dist[y] = d + w
                        heapq.heappush(heap, (d + w, y))
            self._dist[u] = dist
        return dist.get(v, math.inf)

    def replay(self, q: Query, route: list[int], stops: list[tuple[int, float]],
               bounded: bool) -> float | str:
        """Recomputed cost of a schedule, or a message naming its first fault.

        Stops are matched, in order, to the first later route position at
        the stop's vertex.
        """
        if not route or route[0] != q.start or route[-1] != q.goal:
            return f"route {route[:1]}..{route[-1:]} does not join {q.start} to {q.goal}"
        if bounded and len(stops) > q.k_max:
            return f"{len(stops)} stops exceed k_max {q.k_max}"
        price = self.net.price
        fuel, cost, nxt = float(q.q0), 0.0, 0
        for i, v in enumerate(route):
            if nxt < len(stops) and stops[nxt][0] == v:
                amount = stops[nxt][1]
                if not amount > 0:
                    return f"stop {nxt} buys {amount}"
                if math.isinf(price[v]):
                    return f"stop {nxt} buys at {v}, which sells no fuel"
                fuel += amount
                cost += amount * price[v]
                if fuel > q.q_max:
                    return f"stop {nxt} fills the tank to {fuel} > {q.q_max}"
                nxt += 1
            if i + 1 < len(route):
                fuel -= self.fuel(v, route[i + 1])
                if fuel < 0:
                    return f"hop {i} {v}->{route[i + 1]} leaves fuel {fuel}"
        if nxt != len(stops):
            return f"stop {nxt} at {stops[nxt][0]} is not on the route"
        return cost


class Reference:
    """Integer fuel-level optimum for every query on one graph and tank size."""

    def __init__(self, net: Net, q_max: int):
        self.levels = q_max + 1
        arcs = sorted((w, u, v) for u, v, w in net.arcs if w <= q_max)
        w = np.array([a[0] for a in arcs], dtype=np.int64)
        self._src = np.array([a[1] for a in arcs], dtype=np.int64) * self.levels
        self._dst = np.array([a[2] for a in arcs], dtype=np.int64) * self.levels - w
        # Arcs with fuel <= f are a prefix of the fuel-sorted arc list.
        self._upto = np.searchsorted(w, np.arange(self.levels), side="right")
        price = np.asarray(net.price, dtype=np.float64)
        self._sellers = np.flatnonzero(np.isfinite(price))
        self._sell_price = price[self._sellers][:, None]
        self._fuel = np.arange(self.levels, dtype=np.float64)[None, :]
        self.n = net.n

    def _coast(self, table: np.ndarray) -> np.ndarray:
        """Free moves: (u, f) reaches (v, f - w) along every raw arc (u, v, w).

        Levels are settled from the top down, since a move only lowers fuel.
        """
        flat = table.ravel()
        for f in range(self.levels - 1, 0, -1):
            k = self._upto[f]
            src = flat[self._src[:k] + f]
            live = np.isfinite(src)
            if live.any():
                np.minimum.at(flat, self._dst[:k][live] + f, src[live])
        return table

    def _buy(self, table: np.ndarray) -> np.ndarray:
        """One positive purchase at a station: (v, f) -> (v, f') for f' > f."""
        out = np.full_like(table, math.inf)
        base = table[self._sellers] - self._fuel * self._sell_price
        best_below = np.minimum.accumulate(base, axis=1)
        out[self._sellers, 1:] = best_below[:, :-1] + self._fuel[:, 1:] * self._sell_price
        return out

    def cost(self, q: Query, bounded: bool) -> float:
        """Least cost from (start, q0) to the goal with any fuel left; inf if none."""
        table = np.full((self.n, self.levels), math.inf)
        table[q.start, q.q0] = 0.0
        table = self._coast(table)
        best = table[q.goal].min()
        if bounded:
            for _ in range(q.k_max):
                table = self._coast(self._buy(table))
                best = min(best, table[q.goal].min())
            return float(best)
        while True:
            merged = np.minimum(table, self._coast(self._buy(table)))
            if np.array_equal(merged, table):
                return float(table[q.goal].min())
            table = merged
