"""Best-first label search over the refuel graph.

Labels (vertex, cost, fuel, stops) are popped in f = g + h order from a
priority queue.  Expanding a label buys fuel at its vertex following the
optimal refuelling rule: fill the tank when the next stop is pricier, buy
exactly the hop's deficit otherwise, and always buy just enough to arrive
empty at the goal.

Successors are generated lazily (partial-expansion A*).  Expanding a label
computes all its children in one per-parent cursor, and the open list holds
a single entry for that cursor, keyed on its cheapest child.  A short row's
cursor is a heap of plain tuples; a long row's is a _Run, whose children
wait in sorted arrays, and a tuple is built for a child only when it is
popped.  Every label enters the open list this way, so the loop treats
every popped label alike.  The start is the one child of a cursor with no
parent; its free coasts on initial fuel are one more cursor, pushed with
it before the loop, whose parent is a root label at the start that is
never popped.  A child becomes a Label only when its cursor reaches the
top of the open list; it is then checked against the per-vertex frontier
sets, which prune dominated labels once, when they are materialised and
popped.  labels_generated counts exactly the labels taken off the open
list.  When the initial fuel reaches the goal, the free coast there is the
answer, as no schedule costs less or stops less; it is returned before the
loop and counts as the two labels it is made of, the start and the coast.

Every child is still priced, in one of two ways chosen by one length test
on the tail's reach row.  A row of at least _ROW_MIN arcs is priced in one
numpy pass over its arrays (``ReachGraph.long_rows``): purchase, arrival
fuel, the filters, both terms of h (``heuristic.h_row``), g and f, then one
lexsort into pop order, kept as a _Run over the arrays.  A shorter row is
priced in a Python loop, whose fixed cost is lower; it applies
refuel_amount's rule and h_for's operations inline, on the same operands,
and both functions stay as the references the tests check it against.
The pass applies the loop's IEEE operations to the same operands in the
same order, so its entries and their pop order, and with them every answer
and counter, are the loop's bit for bit.

Two variants share the loop: the bounded mode enforces the stop limit and
uses three-way dominance; the unbounded mode drops the limit and prunes
with the scalarized rule that prices the fuel gap at the local vertex.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import count
from time import perf_counter

import numpy as np

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
from .heuristic import HeuristicContext, build_heuristic, h_for, h_row
from .reach import ReachGraph, integral

# expand() prices a row of at least _ROW_MIN arcs in one numpy pass
# (_expand_row) and a shorter one in a loop, whose fixed cost is lower.
# Measured on G(256, p) graphs with fuels 1..10 and rows of 64-255 arcs:
# the pass prices a row faster from about 64 arcs, and whole queries gain
# up to 3.5% from a gate of 96 on rows of 71-131 arcs and tie elsewhere.
# On 45x45 road grids, whose rows hold up to 92 arcs, a gate of 64 is 5%
# slower and 96 to 192 tie; the margin keeps grids on the loop (ROADMAP,
# gate table).
_ROW_MIN = 128

# One child of expand(): (f, -arrival fuel, vertex, cost, amount bought).  A
# short row's children are these tuples in a heap; a long row's wait in a
# _Run's arrays, which builds the tuple of a child when it is popped.
ChildEntry = tuple[float, float, int, float, float]


class _Run:
    """A long row's children in _expand_row's arrays, popped in order.

    order holds the kept children's indices in pop order, and top is the
    position of the next one.  pop() builds the one ChildEntry it takes
    off; the other children stay array entries.  Iterating reads the
    remaining entries in pop order and takes none off.
    """

    __slots__ = ("f", "neg_q", "v", "g", "a", "order", "top")

    def __init__(self, f: np.ndarray, neg_q: np.ndarray, v: np.ndarray, g: np.ndarray,
                 a: np.ndarray, order: np.ndarray):
        self.f, self.neg_q, self.v, self.g, self.a = f, neg_q, v, g, a
        self.order, self.top = order, 0

    def __len__(self) -> int:
        return len(self.order) - self.top

    def key(self) -> tuple[float, float]:
        """(f, -q) of the next child: the open-list key of this cursor."""
        j = self.order.item(self.top)
        return self.f.item(j), self.neg_q.item(j)

    def pop(self) -> ChildEntry:
        j = self.order.item(self.top)
        self.top += 1
        return self._entry(j)

    def __iter__(self) -> Iterator[ChildEntry]:
        return map(self._entry, self.order[self.top:].tolist())

    def _entry(self, j: int) -> ChildEntry:
        return self.f.item(j), self.neg_q.item(j), self.v.item(j), self.g.item(j), self.a.item(j)


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

    def dominated(self, l: Label) -> bool:
        stored = self._labels.get(l.v, ())
        c_v = self._price[l.v]
        if self.unbounded and math.isfinite(c_v):
            for s in stored:
                if scalarized_dominates(l, s, c_v):
                    return True
            return False
        for s in stored:
            if dominates(s, l):
                return True
        return False

    def insert(self, l: Label):
        self._labels.setdefault(l.v, []).append(l)


def refuel_amount(c_here: float, c_next: float, q: float, d: float, q_max: float,
                  into_goal: bool) -> tuple[float, float]:
    """Amount to buy and resulting arrival fuel for one hop.

    Returns (amount, arrival_fuel).  Into the goal the purchase tops the
    tank to exactly the hop distance, so the goal is reached empty even
    when the local price beats the goal's.  expand()'s loop applies this
    rule inline; this function is its reference.
    """
    if into_goal or c_here >= c_next:
        return d - q, 0.0
    return q_max - q, q_max - d


def expand(l: Label, reach: ReachGraph, inst: Instance,
           ctx: HeuristicContext | None = None) -> list[ChildEntry] | _Run:
    """Children of l: one purchase at l's vertex, one tankful hop.

    Each child is an (f, -q, v, g, amount) entry: its f = g + h, its
    arrival fuel negated, its vertex, its cost and the amount bought at l's
    vertex.  A row shorter than _ROW_MIN arcs is priced in a loop that
    applies refuel_amount's rule and h_for's operations inline, on the same
    operands and in the same order, and returns its entries as a heapified
    list, whose heap order is the open list's pop order, so the search can
    take children off it one at a time.  A longer row is priced by
    _expand_row in one numpy pass and returns a _Run: the same entries wait
    in its arrays in sorted order, and a tuple is built for each child when
    the search pops it.  As heads are distinct no two entries tie, so
    the pop order is the loop's.

    No child is created when the required purchase would be non-positive
    (such itineraries are subsumed by the refuel graph's transitive
    distances from the previous stop), when the target cannot refuel and is
    not the goal, or when the heuristic proves the goal unreachable from
    the target.
    """
    row = reach.succ[l.v]
    if len(row) >= _ROW_MIN:
        return _expand_row(l, reach, inst, ctx)
    price = inst.graph.price
    goal, q_max, q, g = inst.goal, inst.q_max, l.q, l.g
    c_here = price[l.v]
    fill_a = q_max - q
    fill_g = g + fill_a * c_here
    if ctx is not None:
        dist, settle, c_min, relaxed_row = ctx.dist, ctx.settle, ctx.c_min, ctx.relaxed_row
    inf = math.inf
    children: list[ChildEntry] = []
    append = children.append
    for v2, d in row:
        c_next = price[v2]
        if v2 == goal:
            fill = False
        elif c_next == inf:
            continue
        else:
            fill = c_here < c_next
        if fill:
            if fill_a <= 0.0:
                continue
            a, arrive, g2 = fill_a, q_max - d, fill_g
        else:
            a = d - q
            if a <= 0.0:
                continue
            arrive, g2 = 0.0, g + a * c_here
        if ctx is None:
            h = 0.0
        else:
            dv = dist[v2]
            if dv is None:
                dv = settle(v2)
            if dv == inf:
                continue
            h = (dv - arrive) * c_min
            if relaxed_row is not None and c_next != inf:
                h = max(h, relaxed_row.item(v2) - arrive * c_next, 0.0)
            elif h < 0.0:  # max(h, 0.0), which keeps -0.0
                h = 0.0
        append((g2 + h, -arrive, v2, g2, a))
    heapify(children)
    return children


def _expand_row(l: Label, reach: ReachGraph, inst: Instance,
                ctx: HeuristicContext | None) -> _Run:
    """expand() in one numpy pass over l's row (``ReachGraph.long_rows``).

    Every value is the loop's IEEE operation on the same operands, so the
    entries are the loop's bit for bit; the _Run pops them in the loop's
    order, since heads are distinct.
    """
    heads, fuels = reach.long_rows[l.v]
    c_here, q, q_max = inst.graph.price[l.v], l.q, inst.q_max
    c_next = inst.graph.price_array[heads]
    # The goal is priced 0: the hop into it never fills up, is never dry,
    # and its h is 0 at any price.
    c_next[heads == inst.goal] = 0.0
    fill = c_here < c_next
    a = np.where(fill, q_max - q, fuels - q)
    arrive = np.where(fill, q_max - fuels, 0.0)
    keep = ((a > 0.0) & (c_next < math.inf)).nonzero()[0]
    heads, a, arrive, c_next = heads[keep], a[keep], arrive[keep], c_next[keep]
    g = l.g + a * c_here
    f = g if ctx is None else g + h_row(ctx, heads, arrive, c_next)
    neg_q = -arrive
    # f is +inf where the goal is unreachable; those children sort last.
    order = np.lexsort((heads, neg_q, f))[:np.count_nonzero(f < math.inf)]
    return _Run(f, neg_q, heads, g, a, order)


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
        if d > q or math.isinf(price[v2]):
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
    (``reach_for``, else ValueError).  The search runs in the query's
    integral units (``integral``, which raises InvalidInstance where they
    would not keep every sum exact).  deadline is a perf_counter
    timestamp; crossing it raises SolveTimeout carrying the partial stats.
    """
    opts = opts or SearchOptions()
    stats = SearchStats()
    inst, reach, unit, money = integral(inst, reach,
                                        math.inf if opts.unbounded_stops else inst.k_max)
    coast = Solution.coast(reach, inst) if inst.q0 > 0.0 else None
    if coast is not None:
        stats.labels_generated = 2
        return coast.from_units(unit, money), stats

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
    return _reconstruct(goal_label, reach).from_units(unit, money), stats


def _search(inst: Instance, opts: SearchOptions, reach: ReachGraph,
            ctx: HeuristicContext | None, stats: SearchStats,
            deadline: float | None) -> Label | None:
    """The search loop of rfastar_solve: the first goal label popped, or None."""
    price = inst.graph.price
    frontier = Frontier(price, unbounded=opts.unbounded_stops)
    # Entries are (f, -q, k, seq, parent, children): a cursor, either a heap
    # of ChildEntry tuples or a _Run, keyed on its top child; seq is unique,
    # so payloads never compare.  The start is the one child of a cursor with
    # no parent; its coasts are children of a root label that is never popped.
    heap: list[tuple] = []
    seq = count()

    def push(parent: Label | None, k: int, children: list[ChildEntry] | _Run):
        f, neg_q = children[0][:2] if children.__class__ is list else children.key()
        heappush(heap, (f, neg_q, k, next(seq), parent, children))

    h0 = h_for(ctx, inst.start, inst.q0) if ctx is not None else 0.0
    if h0 == math.inf:
        return None
    push(None, 0, [(h0, -inst.q0, inst.start, 0.0, 0.0)])
    if inst.q0 > 0.0 and inst.start != inst.goal:
        root = Label(inst.start, 0.0, inst.q0, 0)
        coasts = _coast_children(root, reach, inst, ctx)
        if coasts:
            push(root, 0, coasts)

    while heap:
        if deadline is not None and perf_counter() > deadline:
            raise SolveTimeout(stats)
        _, _, k, _, parent, children = heappop(heap)
        if children.__class__ is list:
            _, neg_q, v, g, a = heappop(children)
        else:
            _, neg_q, v, g, a = children.pop()
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
