"""Best-first label search over the refuel graph.

Labels (vertex, cost, fuel, stops) are popped in f = g + h order from a
priority queue.  Expanding a label buys fuel at its vertex following the
optimal refuelling rule: fill the tank when the next stop is pricier, buy
exactly the hop's deficit otherwise, and always buy just enough to arrive
empty at the goal.

Successors are generated lazily (partial-expansion A*).  Expanding a label
computes its children as plain tuples in one per-parent heap, and the open
list holds a single cursor entry for that heap, keyed on its cheapest
child.  Every label enters the open list this way: the start is the one
child of a cursor with no parent, and its free coasts on initial fuel are
one more cursor, pushed when the start is popped.  A child becomes a Label
only when its cursor reaches the top of the open list; it is then checked
against the per-vertex frontier sets, which prune dominated labels once,
when they are materialised and popped.  labels_generated counts exactly
the labels taken off the open list.

Two variants share the loop: the bounded mode enforces the stop limit and
uses three-way dominance; the unbounded mode drops the limit and prunes
with the scalarized rule that prices the fuel gap at the local vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import count
from time import perf_counter

from .core import (
    Infeasible,
    Instance,
    Label,
    SearchStats,
    Solution,
    SolveTimeout,
    dominates,
    scalarized_dominates,
)
from .heuristic import HeuristicContext, build_heuristic, h_for
from .reach import ReachGraph, reach_for

# One child in expand()'s heap: (f, -arrival fuel, vertex, cost, amount bought).
ChildEntry = tuple[float, float, int, float, float]


@dataclass
class SearchOptions:
    """Solver switches.

    use_heuristic off gives the no-heuristic mode (h identically 0).
    unbounded_stops drops the stop limit and prunes with the scalarized rule.
    """

    use_heuristic: bool = True
    unbounded_stops: bool = False


class Frontier:
    """Per-vertex label sets that prune dominated labels.

    unbounded selects the scalarized relation (the fuel gap priced at the
    label's vertex) at refuellable vertices; otherwise three-way dominance.
    Insertion appends without removing stored labels that the newcomer
    dominates; stale entries never change pruning answers because dominance
    is transitive.  Each label is checked once, when it is materialised and
    popped; children still waiting in a cursor's heap are never checked.
    """

    def __init__(self, graph_prices: tuple[float, ...], unbounded: bool = False):
        self._labels: dict[int, list[Label]] = {}  # filled on first insert at a vertex
        self._price = graph_prices
        self.unbounded = unbounded

    def _beats(self, stored: Label, l: Label) -> bool:
        if self.unbounded and math.isfinite(self._price[l.v]):
            return scalarized_dominates(l, stored, self._price[l.v])
        return dominates(stored, l)

    def dominated(self, l: Label) -> bool:
        return any(self._beats(stored, l) for stored in self._labels.get(l.v, ()))

    def insert(self, l: Label):
        self._labels.setdefault(l.v, []).append(l)


def refuel_amount(c_here: float, c_next: float, q: float, d: float, q_max: float,
                  into_goal: bool) -> tuple[float, float]:
    """Amount to buy and resulting arrival fuel for one hop.

    Returns (amount, arrival_fuel).  Into the goal the purchase tops the
    tank to exactly the hop distance, so the goal is reached empty even
    when the local price beats the goal's.
    """
    if into_goal or c_here >= c_next:
        return d - q, 0.0
    return q_max - q, q_max - d


def expand(l: Label, reach: ReachGraph, inst: Instance,
           ctx: HeuristicContext | None = None) -> list[ChildEntry]:
    """Children of l: one purchase at l's vertex, one tankful hop.

    Returns a heapified list of (f, -q, v, g, amount) tuples: the child's
    f = g + h, its arrival fuel negated, its vertex, its cost and the amount
    bought at l's vertex.  The heap order is the open list's pop order, so
    the search can take children off it one at a time.

    No child is created when the required purchase would be non-positive
    (such itineraries are subsumed by the refuel graph's transitive
    distances from the previous stop), when the target cannot refuel and is
    not the goal, or when the heuristic proves the goal unreachable from
    the target.
    """
    price = inst.graph.price
    goal, q_max, q, g = inst.goal, inst.q_max, l.q, l.g
    c_here = price[l.v]
    children: list[ChildEntry] = []
    for v2, d in reach.succ[l.v]:
        into_goal = v2 == goal
        if not into_goal and math.isinf(price[v2]):
            continue
        a, arrive = refuel_amount(c_here, price[v2], q, d, q_max, into_goal)
        if a <= 0.0:
            continue
        h = h_for(ctx, v2, arrive) if ctx is not None else 0.0
        if h == math.inf:
            continue
        g2 = g + a * c_here
        children.append((g2 + h, -arrive, v2, g2, a))
    heapify(children)
    return children


def _coast_children(root: Label, reach: ReachGraph, inst: Instance,
                    ctx: HeuristicContext | None) -> list[ChildEntry]:
    """Free moves on the initial fuel, no purchase and no stop used.

    Returns a heapified list of expand()'s (f, -q, v, g, amount) tuples,
    each buying nothing.  Only the start label can coast: later labels
    arrive with exactly the fuel their last purchase provided, and driving
    further on it is already covered by the previous stop's direct reach
    arcs.
    """
    price = inst.graph.price
    g, q = root.g, root.q
    children: list[ChildEntry] = []
    for v2, d in reach.succ[root.v]:
        if d > q or (v2 != inst.goal and math.isinf(price[v2])):
            continue
        h = h_for(ctx, v2, q - d) if ctx is not None else 0.0
        if h == math.inf:
            continue
        # -(q - d), not d - q: a coast that empties the tank arrives with 0.0.
        children.append((g + h, -(q - d), v2, g, 0.0))
    heapify(children)
    return children


def _reconstruct(goal_label: Label, reach: ReachGraph) -> Solution:
    vertices: list[int] = []
    bought: list[float] = []
    arrival: list[float] = []
    l: Label | None = goal_label
    while l is not None:
        vertices.append(l.v)
        bought.append(l.refuel_at_parent)
        arrival.append(l.q)
        l = l.parent
    # A label's refuel_at_parent was bought at the vertex before it; the
    # start's is always 0 and drops off.
    return Solution.build(reach, vertices[::-1], bought[-2::-1], arrival[::-1], goal_label.g)


def rfastar_solve(
    inst: Instance,
    opts: SearchOptions | None = None,
    *,
    reach: ReachGraph | None = None,
    deadline: float | None = None,
) -> tuple[Solution | Infeasible, SearchStats]:
    """Solve one instance; returns (Solution or Infeasible, stats).

    The refuel graph is computed on demand when not supplied; a supplied
    one must have been built from the instance's graph and tank
    (``reach_for``, else ValueError).  deadline is a perf_counter
    timestamp; crossing it raises SolveTimeout carrying the partial stats.
    """
    opts = opts or SearchOptions()
    stats = SearchStats()
    reach = reach_for(inst, reach)

    ctx: HeuristicContext | None = None
    if opts.use_heuristic:
        t0 = perf_counter()
        ctx = build_heuristic(reach, inst.goal)
        stats.heuristic_build_time = perf_counter() - t0

    t_search = perf_counter()
    try:
        goal_label = _search(inst, opts, reach, ctx, stats, deadline)
    finally:
        stats.search_time = perf_counter() - t_search
        if ctx is not None:
            stats.heuristic_settled = ctx.settled
    if goal_label is None:
        return Infeasible(), stats
    return _reconstruct(goal_label, reach), stats


def _search(inst: Instance, opts: SearchOptions, reach: ReachGraph,
            ctx: HeuristicContext | None, stats: SearchStats,
            deadline: float | None) -> Label | None:
    """The search loop of rfastar_solve: the first goal label popped, or None."""
    price = inst.graph.price
    frontier = Frontier(price, unbounded=opts.unbounded_stops)
    # Entries are (f, -q, k, seq, parent, children): a cursor over a heap of
    # ChildEntry tuples, keyed on its top child; seq is unique, so payloads
    # never compare.  The start is the one child of a cursor with no parent.
    heap: list[tuple] = []
    seq = count()

    def push(parent: Label | None, k: int, children: list[ChildEntry]):
        f, neg_q = children[0][:2]
        heappush(heap, (f, neg_q, k, next(seq), parent, children))

    h0 = h_for(ctx, inst.start, inst.q0) if ctx is not None else 0.0
    if h0 == math.inf:
        return None
    push(None, 0, [(h0, -inst.q0, inst.start, 0.0, 0.0)])

    while heap:
        if deadline is not None and perf_counter() > deadline:
            raise SolveTimeout(stats)
        _, _, k, _, parent, children = heappop(heap)
        _, neg_q, v, g, a = heappop(children)
        if children:
            push(parent, k, children)
        lbl = Label(v, g, -neg_q, k, parent, a)
        stats.labels_generated += 1
        if frontier.dominated(lbl):
            stats.labels_pruned += 1
            continue
        frontier.insert(lbl)
        if lbl.v == inst.goal:
            return lbl
        if parent is None and inst.q0 > 0.0:
            coasts = _coast_children(lbl, reach, inst, ctx)
            if coasts:
                push(lbl, k, coasts)
        if not opts.unbounded_stops and lbl.k >= inst.k_max:
            continue
        if math.isinf(price[lbl.v]):
            continue
        stats.labels_expanded += 1
        children = expand(lbl, reach, inst, ctx)
        if children:
            push(lbl, k + 1, children)
    return None


def refuel_schedule_for_route(
    vertices: tuple[int, ...],
    hop_fuels: tuple[float, ...],
    inst: Instance,
) -> tuple[float, tuple[float, ...]]:
    """Apply the fill-up / fill-enough rule along a fixed stop sequence.

    Returns (total cost, purchase amounts per stop).  Amounts are clamped
    at zero; a zero amount marks a visit the rule would not actually stop
    at.  The arrive-empty rule applies at the last stop of the route; a
    mid-route visit of the goal vertex is an ordinary stop.  Search labels
    terminate on their first goal arrival, so for any stop sequence the
    search can realise this matches expand() exactly.
    """
    price = inst.graph.price
    fuel = inst.q0
    cost = 0.0
    last = len(hop_fuels) - 1
    amounts: list[float] = []
    for i, d in enumerate(hop_fuels):
        here = vertices[i]
        a, _ = refuel_amount(price[here], price[vertices[i + 1]], fuel, d,
                             inst.q_max, i == last)
        a = max(a, 0.0)
        amounts.append(a)
        cost += a * price[here]
        fuel = fuel + a - d
    return cost, tuple(amounts)
