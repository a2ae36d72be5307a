"""Core domain types shared by every solver.

A problem instance is a directed graph of fuel stations (per-vertex price,
per-edge fuel consumption), a start and goal vertex, a tank capacity and a
limit on the number of refuelling stops.  Partial solutions are labels; full
solutions are refuel schedules that can be replayed and priced independently
of the solver that produced them.

All fuel and money quantities are 64-bit floats and comparisons are exact,
with no epsilon.  Every solver and validate_solution run on integers: a
query counts fuels, tank and initial fuel in one decimal unit 10**-a and
prices in one unit 10**-b, the coarsest in which every such value, read as
its shortest repr, is a whole number (``decimals``, ``in_units`` and
``reach.integral``).  Integral inputs take a = b = 0 and are used as they
are.  A Solution is converted back once, at output (``Solution.from_units``).
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from decimal import Decimal
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .reach import ReachGraph

NON_REFUELLABLE = math.inf
"""Price sentinel for vertices where no fuel can be bought."""


class InvalidInstance(ValueError):
    """A graph or instance violates a structural invariant."""


def decimals(x: float) -> int:
    """The decimal places of x's shortest repr: 0 for 3.0 (and for inf),
    1 for 0.5, 17 for 0.30000000000000004."""
    x = float(x)
    if x.is_integer() or not math.isfinite(x):
        return 0
    return -Decimal(repr(x)).as_tuple().exponent


def in_units(x: float, unit: int) -> float:
    """x counted in units of 1 / unit, read as its shortest repr, so that it
    is exact and whole where x has at most log10(unit) decimal places."""
    if unit == 1:
        return float(x)
    return float(Decimal(repr(float(x))) * unit)


class SolutionError(ValueError):
    """Base class for refuel-schedule replay failures."""


class TankExceeded(SolutionError):
    """A refuel pushed the tank above its capacity."""


class FuelNegative(SolutionError):
    """A hop consumed more fuel than the tank held."""


class TooManyStops(SolutionError):
    """The schedule uses more refuelling stops than allowed."""


class BadEndpoints(SolutionError):
    """The route does not start at the start vertex or end at the goal."""


class InvalidSolution(SolutionError):
    """The solution object itself is malformed."""


class SolveTimeout(Exception):
    """Cooperative per-solve deadline expired.

    Carries the statistics gathered up to the point of interruption so that
    benchmark rows can report partial work.
    """

    def __init__(self, stats: "SearchStats"):
        super().__init__("solve deadline exceeded")
        self.stats = stats


@dataclass(frozen=True)
class FuelGraph:
    """Directed graph of fuel stations.

    price[v] is money per fuel unit at v (math.inf marks vertices where
    refuelling is impossible).  Edges carry strictly positive fuel
    consumption.  At most one arc is stored per ordered pair; duplicates are
    collapsed to the minimum fuel at construction.  Instances are immutable
    and safe to share between concurrent solver runs.
    """

    n: int
    price: tuple[float, ...]
    edges: tuple[tuple[int, int, float], ...]
    names: tuple[str, ...]
    succ: tuple[tuple[tuple[int, float], ...], ...] = field(repr=False)
    pred: tuple[tuple[tuple[int, float], ...], ...] = field(repr=False)

    @classmethod
    def build(
        cls,
        prices: list[float],
        edges: list[tuple[int, int, float]],
        names: list[str] | None = None,
        undirected: bool = False,
    ) -> "FuelGraph":
        n = len(prices)
        if n == 0:
            raise InvalidInstance("graph needs at least one vertex")
        for i, p in enumerate(prices):
            if not (p >= 0.0):  # also rejects NaN
                raise InvalidInstance(f"price of vertex {i} must be >= 0 or inf")
        if names is None:
            names = [f"v{i}" for i in range(n)]
        if len(names) != n or len(set(names)) != n:
            raise InvalidInstance("vertex names must be unique, one per vertex")

        arcs: dict[tuple[int, int], float] = {}
        for u, v, fuel in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidInstance(f"edge ({u}, {v}) references an unknown vertex")
            if u == v:
                raise InvalidInstance(f"self-loop at vertex {u}")
            if not (0.0 < fuel < math.inf):
                raise InvalidInstance(f"edge ({u}, {v}) fuel must be > 0 and finite")
            pairs = [(u, v), (v, u)] if undirected else [(u, v)]
            for key in pairs:
                old = arcs.get(key)
                if old is None or fuel < old:
                    arcs[key] = float(fuel)

        sorted_arcs = tuple(sorted((u, v, d) for (u, v), d in arcs.items()))
        out: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        rev: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for u, v, d in sorted_arcs:
            out[u].append((v, d))
            rev[v].append((u, d))
        return cls(
            n=n,
            price=tuple(float(p) for p in prices),
            edges=sorted_arcs,
            names=tuple(names),
            succ=tuple(tuple(a) for a in out),
            pred=tuple(tuple(a) for a in rev),
        )

    def name_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    @cached_property
    def decimals(self) -> tuple[int, int]:
        """The most decimal places of any fuel and of any finite price, built
        on first use."""
        fuels = [d for _, _, d in self.edges]
        prices = [p for p in self.price if p < math.inf]
        return tuple(0 if all(map(float.is_integer, values)) else max(map(decimals, values))
                     for values in (fuels, prices))

    def in_units(self, fuel: int, price: int) -> "FuelGraph":
        """This graph with fuels counted in units of 1 / fuel and prices in
        units of 1 / price.  With fuel 1 the fuels are unchanged, so a
        ``fuel_to`` already built is handed over, not built again."""
        graph = FuelGraph.build([in_units(p, price) for p in self.price],
                                [(u, v, in_units(d, fuel)) for u, v, d in self.edges],
                                list(self.names))
        if fuel == 1 and "fuel_to" in self.__dict__:
            graph.__dict__["fuel_to"] = self.fuel_to
        return graph

    @cached_property
    def cheapest(self) -> tuple[tuple[float, int], ...]:
        """The two least (price, vertex) pairs, built on first use.

        The least price of every vertex but one is read off them in O(1).
        Not a field, so equality and repr ignore it.
        """
        return tuple(heapq.nsmallest(2, zip(self.price, range(self.n))))

    @cached_property
    def price_array(self) -> np.ndarray:
        """price as a read-only float64 array, built on first use.

        The label search's vector pass gathers a row's head prices from it.
        Not a field, so equality and repr ignore it.
        """
        prices = np.array(self.price)
        prices.setflags(write=False)
        return prices

    @cached_property
    def fuel_to(self) -> np.ndarray:
        """The n x n matrix of least fuel, goal-major: fuel_to[t, v] is the
        least fuel from v to t, uncut by any tank.  Built on first use by
        ``reach._all_pairs_fuel`` and kept, read-only.

        Every Floyd-Warshall reach build on the graph reads it, whatever
        the tank, and so do ``heuristic.relaxed_costs`` and the heuristic's
        d.  Not a field, so equality and repr ignore it.
        """
        from .reach import _all_pairs_fuel
        return _all_pairs_fuel(self)


@dataclass(frozen=True)
class Instance:
    """One routing problem: graph, endpoints, tank and stop budgets.

    q0 is the fuel already in the tank at the start vertex; the default 0
    matches the base formulation where the robot must refuel before moving.
    """

    graph: FuelGraph
    start: int
    goal: int
    q_max: float
    k_max: int
    q0: float = 0.0

    def __post_init__(self):
        if not (0 <= self.start < self.graph.n):
            raise InvalidInstance(f"start vertex {self.start} out of range")
        if not (0 <= self.goal < self.graph.n):
            raise InvalidInstance(f"goal vertex {self.goal} out of range")
        if not (0 < self.q_max < math.inf):  # also rejects NaN
            raise InvalidInstance("q_max must be finite and positive")
        if not (isinstance(self.k_max, int) and self.k_max >= 1):
            raise InvalidInstance("k_max must be an integer >= 1")
        if not (0.0 <= self.q0 <= self.q_max):
            raise InvalidInstance("q0 must lie in [0, q_max]")


@dataclass(frozen=True, eq=False)
class Label:
    """Partial solution: at vertex v with cost g, fuel q on arrival, k stops.

    q is the fuel remaining when arriving at v, before any purchase there.
    Parent links form an append-only chain back to the initial label and are
    used only for path reconstruction; refuel_at_parent is the amount bought
    at the parent's vertex when this label was generated.
    """

    v: int
    g: float
    q: float
    k: int
    parent: "Label | None" = None
    refuel_at_parent: float = 0.0


@dataclass(frozen=True)
class Infeasible:
    """First-class result: no schedule satisfies the instance constraints."""


@dataclass(frozen=True)
class Solution:
    """A full refuel schedule.

    stops are (vertex, amount bought) in visiting order, every amount
    strictly positive.  route lists the refuel-graph hops as (vertex, fuel
    distance from the previous vertex), starting with (start, 0).
    arrival_fuel traces the tank content on arrival at each route vertex.
    """

    stops: tuple[tuple[int, float], ...]
    route: tuple[tuple[int, float], ...]
    total_cost: float
    arrival_fuel: tuple[float, ...]

    @classmethod
    def build(cls, reach: ReachGraph, vertices: Sequence[int], bought: Sequence[float],
              arrival: Sequence[float], cost: float) -> Solution:
        """The schedule visiting vertices in order, buying bought[i] at vertices[i].

        arrival[i] is the tank on arrival at vertices[i], before any purchase
        there; bought may stop short of the last vertices, which then buy
        nothing.  Every hop carries the reach graph's distance, and every
        positive purchase becomes a stop.
        """
        route = [(vertices[0], 0.0)]
        for u, v in zip(vertices, vertices[1:]):
            route.append((v, reach.distance(u, v)))
        stops = tuple((v, a) for v, a in zip(vertices, bought) if a > 0.0)
        return cls(stops, tuple(route), cost, tuple(arrival))

    @classmethod
    def coast(cls, reach: ReachGraph, inst: Instance) -> Solution | None:
        """The free coast from the start straight to the goal on the initial
        fuel, which no schedule beats on cost or stops; None where the
        initial fuel does not reach the goal."""
        d = reach.distance(inst.start, inst.goal)
        if d is None or d > inst.q0:  # d > 0: an empty tank coasts nowhere
            return None
        return cls.build(reach, [inst.start, inst.goal], [], [inst.q0, inst.q0 - d], 0.0)

    def from_units(self, fuel: int, money: int) -> Solution:
        """The schedule with every fuel quantity divided by fuel and the cost
        by money: from a solver's integral units back to the input's.  Each
        quotient is the float nearest the exact decimal."""
        if fuel == money == 1:
            return self
        return Solution(tuple((v, a / fuel) for v, a in self.stops),
                        tuple((v, d / fuel) for v, d in self.route), self.total_cost / money,
                        tuple(q / fuel for q in self.arrival_fuel))


@dataclass
class SearchStats:
    """Work counters shared by all solvers; times are in seconds.

    For the label search, labels_generated counts the labels taken off the
    open list, each as the child of a cursor: the start, its coasts on
    initial fuel and every child of an expanded label.  Children that are
    computed but never reach the top of the open list are not counted.
    labels_pruned counts labels found dominated when popped.
    heuristic_settled counts the vertices the heuristic's backward search
    settled beyond the goal's reach column, on demand; it is 0 when every
    vertex the search asked about lies within one tank of the goal, and on
    graphs where the heuristic reads d from ``FuelGraph.fuel_to``.

    heuristic_build_time covers only seeding the heuristic from the reach
    column or the fuel matrix's row; the settling done on demand is part of
    search_time.

    For the DP, dp_states_computed counts the cells of the naive method,
    k_max times the states, and dp_layers the layers it relaxed before no
    state could beat the goal, or before the deadline.
    """

    labels_generated: int = 0
    labels_expanded: int = 0
    labels_pruned: int = 0
    dp_states_computed: int = 0
    dp_layers: int = 0
    heuristic_settled: int = 0
    heuristic_build_time: float = 0.0
    search_time: float = 0.0


def dominates(l: Label, l2: Label) -> bool:
    """Weak dominance at a shared vertex: cheaper, fuller and fewer stops.

    Equal labels dominate each other, so the first-arrived label wins ties.
    Raises ValueError when the labels sit at different vertices.
    """
    if l.v != l2.v:
        raise ValueError(f"labels at different vertices: {l.v} vs {l2.v}")
    return l.g <= l2.g and l.q >= l2.q and l.k <= l2.k


def scalarized_dominates(l: Label, l2: Label, c_v: float) -> bool:
    """Stop-count-free pruning rule for the unbounded variant.

    True when l2 plus buying the fuel gap q(l) - q(l2) at the local price
    c_v is no more expensive than l, i.e. l can be discarded in favour of
    l2.  c_v must be the finite price at the shared vertex; callers fall
    back to plain dominance where no fuel is sold.
    """
    if l.v != l2.v:
        raise ValueError(f"labels at different vertices: {l.v} vs {l2.v}")
    if not math.isfinite(c_v):
        raise ValueError("scalarized dominance needs a finite vertex price")
    return l2.g + (l.q - l2.q) * c_v <= l.g


def validate_solution(inst: Instance, sol: Solution, reach=None) -> float:
    """Replay a schedule hop by hop and return the recomputed total cost.

    Hops are priced with the refuel graph's minimum-fuel distances.  The
    replay runs in the query's integral units (``reach.integral``), a finer
    one where an amount has more decimal places, so that it is exact.
    Raises TankExceeded, FuelNegative, TooManyStops or BadEndpoints naming
    the first violation, and InvalidSolution for malformed schedules.  A
    reach graph passed in must match the instance (``reach_for``, else
    ValueError).
    """
    from .reach import integral

    inst, reach, unit, money = integral(inst, reach, inst.k_max, [a for _, a in sol.stops])
    if not sol.route:
        raise InvalidSolution("route is empty")
    names = inst.graph.names
    if sol.route[0][0] != inst.start:
        raise BadEndpoints(
            f"route starts at {names[sol.route[0][0]]}, expected {names[inst.start]}"
        )
    if sol.route[-1][0] != inst.goal:
        raise BadEndpoints(
            f"route ends at {names[sol.route[-1][0]]}, expected {names[inst.goal]}"
        )
    if len(sol.stops) > inst.k_max:
        raise TooManyStops(f"{len(sol.stops)} stops exceed the limit {inst.k_max}")
    for j, (v, amount) in enumerate(sol.stops):
        if not (amount > 0.0):
            raise InvalidSolution(f"stop {j} at {names[v]} buys a non-positive amount")

    fuel = inst.q0
    cost = 0.0
    next_stop = 0
    verts = [v for v, _ in sol.route]
    for i, v in enumerate(verts):
        if next_stop < len(sol.stops) and sol.stops[next_stop][0] == v:
            amount = in_units(sol.stops[next_stop][1], unit)
            if math.isinf(inst.graph.price[v]):
                raise InvalidSolution(f"stop {next_stop} at non-refuellable {names[v]}")
            fuel += amount
            cost += amount * inst.graph.price[v]
            if fuel > inst.q_max:
                raise TankExceeded(f"stop {next_stop} at {names[v]}: "
                                   f"tank {fuel / unit} exceeds {inst.q_max / unit}")
            next_stop += 1
        if i + 1 < len(verts):
            d = reach.distance(v, verts[i + 1])
            if d is None:
                raise FuelNegative(
                    f"hop {i} {names[v]}->{names[verts[i + 1]]}: "
                    "no tankful transition exists"
                )
            fuel -= d
            if fuel < 0.0:
                raise FuelNegative(
                    f"hop {i} {names[v]}->{names[verts[i + 1]]}: fuel drops to {fuel / unit}"
                )
    if next_stop != len(sol.stops):
        raise InvalidSolution(
            f"stop {next_stop} at {names[sol.stops[next_stop][0]]} "
            "does not match the route order"
        )
    return cost / money
