import math
import random
from heapq import heapify

import pytest

from gsp import FuelGraph, Infeasible, Instance, Label, compute_reachable_sets, gen_binomial
from gsp import search
from gsp.heuristic import h_for


def worked_example_graph() -> FuelGraph:
    """Four stations o, a, b, t with bidirectional roads.

    Prices 2, 3, 1, 5; fuels o-a 2, o-b 5, a-t 5, b-t 5.  With a tank of 6
    and two stops the optimum from o to t costs 15.
    """
    return FuelGraph.build(
        prices=[2.0, 3.0, 1.0, 5.0],
        edges=[(0, 1, 2.0), (0, 2, 5.0), (1, 3, 5.0), (2, 3, 5.0)],
        names=["o", "a", "b", "t"],
        undirected=True,
    )


def worked_example(q_max: float = 6.0, k_max: int = 2, q0: float = 0.0) -> Instance:
    return Instance(worked_example_graph(), 0, 3, q_max, k_max, q0)


def decimal_price_graph() -> FuelGraph:
    """Three vertices priced 1.1, 2.9 and 1.3 with integral edge fuels.

    Solved from v0 to v2 with tank 10, two stops and 9 units of initial
    fuel, the optimum buys 1 at v0 for 1.1.
    """
    return FuelGraph.build([1.1, 2.9, 1.3],
                           [(0, 1, 5.0), (1, 0, 2.0), (1, 2, 5.0), (2, 0, 6.0), (2, 1, 5.0)])


O, A, B, T = 0, 1, 2, 3

LONG_ROW_TANK = 20.0
SHORT_ROW_TANK = 6.0


def _dry_station_graph(n: int, p: float, seed: int, zero_price: bool) -> FuelGraph:
    """gen_binomial(n, p, seed) with a tenth of vertices 1..n-2 dry, the last
    vertex a dead end with no arcs out, and with zero_price vertex 0 selling
    at price 0."""
    graph = gen_binomial(n, p, seed=seed)
    price = list(graph.price)
    for v in random.Random(seed).sample(range(1, n - 1), n // 10):
        price[v] = math.inf
    if zero_price:
        price[0] = 0.0
    return FuelGraph.build(price, [(u, v, d) for u, v, d in graph.edges if u != n - 1])


def long_row_graph(seed: int, zero_price: bool = False) -> FuelGraph:
    """G(150, 0.9) whose reach rows at LONG_ROW_TANK pass search._ROW_MIN.

    Every row holds all 149 other vertices except the last vertex's, which
    is a dead end with no arcs out: the goal is unreachable from it.  A
    tenth of the other vertices are dry, and with zero_price vertex 0 sells
    at price 0.  The graph takes the Floyd-Warshall build, so with an
    integral initial fuel the heuristic takes its price-aware term.
    """
    return _dry_station_graph(150, 0.9, seed, zero_price)


def sparse_long_row_graph(seed: int) -> FuelGraph:
    """G(160, 0.06) whose reach rows at LONG_ROW_TANK hold every other
    vertex, as in long_row_graph, dry stations and dead end included; too
    sparse for the Floyd-Warshall build, so the heuristic settles d on
    demand and takes no price-aware term."""
    return _dry_station_graph(160, 0.06, seed, False)


def short_row_graph(seed: int, zero_price: bool = False) -> FuelGraph:
    """G(80, 0.15) whose reach rows at SHORT_ROW_TANK stay below
    search._ROW_MIN, dry stations, dead end and zero price as in
    long_row_graph.  It too takes the Floyd-Warshall build, so the loop
    over short rows meets the price-aware term."""
    return _dry_station_graph(80, 0.15, seed, zero_price)


def reference_expand(l: Label, reach, inst: Instance, ctx=None) -> list:
    """search.expand's short-row loop written with one refuel_amount and one
    h_for call per arc, for every row, long or short: the reference that
    search.expand's inlined loop is checked against."""
    price = inst.graph.price
    goal, q_max, q, g = inst.goal, inst.q_max, l.q, l.g
    c_here = price[l.v]
    children = []
    for v2, d in reach.succ[l.v]:
        into_goal = v2 == goal
        if not into_goal and math.isinf(price[v2]):
            continue
        a, arrive = search.refuel_amount(c_here, price[v2], q, d, q_max, into_goal)
        if a <= 0.0:
            continue
        h = h_for(ctx, v2, arrive) if ctx is not None else 0.0
        if h == math.inf:
            continue
        g2 = g + a * c_here
        children.append((g2 + h, -arrive, v2, g2, a))
    heapify(children)
    return children


def label_key(l: Label) -> tuple[int, float, float, int]:
    return (l.v, l.g, l.q, l.k)


@pytest.fixture
def wx() -> Instance:
    return worked_example()


@pytest.fixture
def wx_reach(wx):
    return compute_reachable_sets(wx.graph, wx.q_max)


def random_instance(seed: int, with_q0: bool = False) -> Instance:
    """Small integral instance; the distribution used across the suite."""
    rng = random.Random(9_770_001 + seed)
    n = rng.randint(4, 8)
    graph = gen_binomial(n, 0.5, seed=rng.getrandbits(32))
    start, goal = rng.sample(range(n), 2)
    q_max = float(rng.randint(5, 15))
    k_max = rng.randint(1, 4)
    q0 = float(rng.randint(1, int(q_max) - 1)) if with_q0 else 0.0
    return Instance(graph, start, goal, q_max, k_max, q0)


def child_labels(parent: Label, entries, stops: int = 1) -> list[Label]:
    """The Labels behind the search's (f, -q, v, g, amount) child entries.

    entries is a heap of entries or a search._Run, whose iteration reads
    every entry it holds without taking any off.  Each child uses stops more stops than parent (0 for the start's coasts)
    and links back to it, as the search builds it when the child is taken
    off its parent's cursor.
    """
    return [Label(v, g, -neg_q, parent.k + stops, parent, a) for _, neg_q, v, g, a in entries]


def unpruned_solve(inst: Instance, reach):
    """Cheapest goal label of the whole label tree, with no pruning at all.

    Walks every label that gsp.search.expand generates from the start, plus
    the start's free coasts on initial fuel, with no frontier and no
    heuristic.  Goal labels are leaves and bounded labels stop at k_max, so
    the tree is finite.  A coast straight to the goal costs nothing and
    is the answer, as rfastar_solve finds before its loop.  Returns a
    Solution, or Infeasible when no goal label exists; its cost is what
    pruning must preserve.
    """
    root = Label(inst.start, 0.0, inst.q0, 0)
    stack = [root]
    if inst.q0 > 0.0 and inst.start != inst.goal:
        d = reach.distance(inst.start, inst.goal)
        if d is not None and d <= inst.q0:
            return search._reconstruct(Label(inst.goal, 0.0, inst.q0 - d, 0, root, 0.0), reach)
        stack += child_labels(root, search._coast_children(root, reach, inst, None), stops=0)
    best = None
    while stack:
        l = stack.pop()
        if l.v == inst.goal:
            if best is None or l.g < best.g:
                best = l
        elif l.k < inst.k_max and math.isfinite(inst.graph.price[l.v]):
            stack += child_labels(l, search.expand(l, reach, inst, None))
    return Infeasible() if best is None else search._reconstruct(best, reach)


@pytest.fixture
def generated_labels(monkeypatch) -> list[Label]:
    """Every child label the search computes while the test runs.

    Wraps gsp.search.expand and gsp.search._coast_children by module
    attribute; rfastar_solve looks both up at call time.  Every child either
    function returns, in a heap or in a _Run's arrays, is recorded, whether
    or not the search takes it off its cursor.  The start label, which neither function returns, is not
    recorded.
    """
    labels: list[Label] = []
    for name in ("expand", "_coast_children"):
        def recording(*args, _name=name, _original=getattr(search, name)):
            children = _original(*args)
            labels.extend(child_labels(args[0], children, stops=1 if _name == "expand" else 0))
            return children

        monkeypatch.setattr(search, name, recording)
    return labels
