"""Seeded random benchmark graphs.

Gilbert G(n, p) sampling: every unordered vertex pair gets an edge
independently with probability p, resampled until the graph comes out as a
single connected component so the distribution stays G(n, p) conditioned
on connectivity.  All draws are integer-only (probability thresholding on
a fixed-denominator scale), so identical seeds reproduce identical graphs
across platforms.
"""

from __future__ import annotations

import random
from collections import deque

from .core import FuelGraph

_SCALE = 1_000_000
MAX_ATTEMPTS = 1000
"""Samples drawn before gen_binomial gives up on a connected graph."""


class GenerationFailed(RuntimeError):
    """No connected sample within the resampling budget."""


def _connected(n: int, pairs: list[tuple[int, int]]) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                queue.append(v)
    return count == n


def gen_binomial(
    n: int,
    p: float,
    seed: int,
    price_lo: int = 1,
    price_hi: int = 10,
    fuel_lo: int = 1,
    fuel_hi: int = 10,
) -> FuelGraph:
    """Connected G(n, p) with integer prices and symmetric integer fuels."""
    if n < 2:
        raise ValueError("need at least two vertices")
    if not (0.0 < p <= 1.0):
        raise ValueError("p must lie in (0, 1]")
    if price_lo > price_hi or fuel_lo > fuel_hi:
        raise ValueError("empty sampling range")
    if fuel_lo < 1:
        raise ValueError("fuel_lo must be at least 1")

    threshold = round(p * _SCALE)
    rng = random.Random(seed)
    for _ in range(MAX_ATTEMPTS):
        pairs = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.randrange(_SCALE) < threshold
        ]
        if _connected(n, pairs):
            break
    else:
        raise GenerationFailed(f"no connected G({n}, {p}) sample in {MAX_ATTEMPTS} attempts")

    prices = [float(rng.randint(price_lo, price_hi)) for _ in range(n)]
    edges = [(u, v, float(rng.randint(fuel_lo, fuel_hi))) for u, v in pairs]
    return FuelGraph.build(prices, edges, undirected=True)
