"""Seeded input generators for the query benchmark.

Each generator takes the workload seed, writes graph JSON files in the
program's file format plus one ``instances.json`` list into a directory,
and returns the benchmark's own in-memory copy of what it wrote.  The
program only ever sees the files; the correctness checks only ever use the
returned copy, so neither side can hide a fault of the other.

All quantities are integers: integral fuels make the fuel-level reference
in ``check.py`` exact, and integral prices make every cost an exact float.
"""

from __future__ import annotations

import json
import math
import random
from collections import deque
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Net:
    """One generated graph: prices (math.inf where no fuel is sold) and
    directed arcs (u, v, fuel), both directions listed for a two-way road."""

    file: str
    price: tuple[float, ...]
    arcs: tuple[tuple[int, int, int], ...]

    @property
    def n(self) -> int:
        return len(self.price)


@dataclass(frozen=True)
class Query:
    net: int  # index into Inputs.nets
    start: int
    goal: int
    q_max: int
    k_max: int
    q0: int = 0


@dataclass(frozen=True)
class Inputs:
    nets: tuple[Net, ...]
    queries: tuple[Query, ...]


def vertex_id(v: int) -> str:
    return f"v{v}"


def _connected(n: int, pairs: list[tuple[int, int]]) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    todo = deque([0])
    while todo:
        for v in adj[todo.popleft()]:
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return len(seen) == n


def _write(out: Path, file: str, price: list[float], edges: list[tuple[int, int, int]]) -> Net:
    """Write a two-way graph file and return its directed in-memory copy."""
    doc = {
        "directed": False,
        "vertices": [{"id": vertex_id(v), "price": None if math.isinf(p) else int(p)}
                     for v, p in enumerate(price)],
        "edges": [{"from": vertex_id(u), "to": vertex_id(v), "fuel": w} for u, v, w in edges],
    }
    (out / file).write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    arcs = tuple(a for u, v, w in edges for a in ((u, v, w), (v, u, w)))
    return Net(file=file, price=tuple(price), arcs=arcs)


def _even(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """count values spread evenly over lo..hi, in random order.

    Large graphs draw fuels and prices this way so that their totals do not
    vary from seed to seed; only the arrangement does.
    """
    values = [lo + i % (hi - lo + 1) for i in range(count)]
    rng.shuffle(values)
    return values


def _gnp(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """Vertex pairs of a connected G(n, p), resampled until connected."""
    while True:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        if _connected(n, pairs):
            return pairs


def _save_queries(out: Path, inputs: Inputs):
    doc = [{"graph": inputs.nets[q.net].file, "start": vertex_id(q.start),
            "goal": vertex_id(q.goal), "q_max": q.q_max, "k_max": q.k_max, "q0": q.q0}
           for q in inputs.queries]
    (out / "instances.json").write_text(json.dumps(doc) + "\n")


DESK_GRAPHS = 2  # per seed, so that one graph does not set the figures


def dense_desk(seed: int, out: Path, pairs: int = 3000) -> Inputs:
    """Desk-scale G(256, 0.3) graphs, fuels and prices 1..10, tank 3x the
    mean fuel.  Queries take the graphs in turn."""
    rng = random.Random(f"dense-desk/{seed}")
    n = 256
    nets, tanks = [], []
    for k in range(DESK_GRAPHS):
        roads = _gnp(rng, n, 0.3)
        edges = [(u, v, w) for (u, v), w in zip(roads, _even(rng, len(roads), 1, 10))]
        price = [float(p) for p in _even(rng, n, 1, 10)]
        tanks.append(round(3 * sum(w for _, _, w in edges) / len(edges)))
        nets.append(_write(out, f"graph{k}.json", price, edges))
    queries = tuple(Query(k % DESK_GRAPHS, *rng.sample(range(n), 2),
                          q_max=tanks[k % DESK_GRAPHS], k_max=6)
                    for k in range(pairs))
    inputs = Inputs(tuple(nets), queries)
    _save_queries(out, inputs)
    return inputs


GRID_SIDE = 45
GRIDS = 4  # independent grids per seed, so one unlucky grid does not set the figures
GRID_RADIUS = 12  # largest grid (Manhattan) distance between start and goal
# Query cost grows with the distance, so every run of DISTANCE_CYCLE
# queries holds each distance d in proportion to d, as a uniform draw from
# the diamond around the start would: d occurs d times per cycle.
DISTANCE_CYCLE = GRID_RADIUS * (GRID_RADIUS + 1) // 2


def sparse_grid(seed: int, out: Path, pairs: int = 3000) -> Inputs:
    """Road-like 45x45 grids: 10% of roads closed, 10% of stations dry.

    Fuels and prices run 1..10; goals lie within GRID_RADIUS grid steps of
    their start, so most queries are feasible.  Queries take the grids in
    turn, and their distances follow DISTANCE_CYCLE.
    """
    rng = random.Random(f"sparse-grid/{seed}")
    side = GRID_SIDE
    n = side * side
    nets = []
    for k in range(GRIDS):
        roads = [(v, v + 1) for v in range(n) if (v + 1) % side]
        roads += [(v, v + side) for v in range(n - side)]
        roads = sorted(rng.sample(roads, len(roads) - len(roads) // 10))
        edges = [(u, v, w) for (u, v), w in zip(roads, _even(rng, len(roads), 1, 10))]
        price = [float(p) for p in _even(rng, n, 1, 10)]
        for v in rng.sample(range(n), n // 10):
            price[v] = math.inf
        nets.append(_write(out, f"grid{k}.json", price, edges))
    cycle = [d for d in range(1, GRID_RADIUS + 1) for _ in range(d)]
    queries = []
    while len(queries) < pairs:
        if len(queries) % DISTANCE_CYCLE == 0:
            rng.shuffle(cycle)
        d = cycle[len(queries) % DISTANCE_CYCLE]
        while True:
            s = rng.randrange(n)
            dr = rng.randint(-d, d)
            dc = rng.choice((-1, 1)) * (d - abs(dr))
            r, c = divmod(s, side)
            if 0 <= r + dr < side and 0 <= c + dc < side:
                break
        queries.append(Query(len(queries) % GRIDS, s, (r + dr) * side + c + dc,
                             q_max=20, k_max=16))
    inputs = Inputs(tuple(nets), tuple(queries))
    _save_queries(out, inputs)
    return inputs


def tiny_batch(seed: int, out: Path, count: int = 2000) -> Inputs:
    """Independent 4-8 vertex instances, one graph file each.

    Shaped like the test corpus: G(n, 0.5), tank 5..15, 1..4 stops.  Every
    other instance starts with fuel in the tank, and a quarter of the graphs
    have one or two stations that sell nothing.
    """
    rng = random.Random(f"tiny-batch/{seed}")
    nets, queries = [], []
    for i in range(count):
        n = rng.randint(4, 8)
        edges = [(u, v, rng.randint(1, 10)) for u, v in _gnp(rng, n, 0.5)]
        price = [float(rng.randint(1, 10)) for _ in range(n)]
        if rng.random() < 0.25:
            for v in rng.sample(range(n), rng.randint(1, 2)):
                price[v] = math.inf
        nets.append(_write(out, f"g{i}.json", price, edges))
        start, goal = rng.sample(range(n), 2)
        q_max = rng.randint(5, 15)
        q0 = rng.randint(1, q_max - 1) if i % 2 else 0
        queries.append(Query(i, start, goal, q_max=q_max, k_max=rng.randint(1, 4), q0=q0))
    inputs = Inputs(tuple(nets), tuple(queries))
    _save_queries(out, inputs)
    return inputs

