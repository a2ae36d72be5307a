"""Graph, solution and reach-cache files.

Graphs are JSON documents:

    {"directed": false,
     "vertices": [{"id": "o", "price": 2}, {"id": "t", "price": null}],
     "edges": [{"from": "o", "to": "a", "fuel": 2}]}

A null price marks a vertex where refuelling is impossible, and nothing
else does: every price and fuel must be a finite number, so 1e400 and
Infinity (which Python's json reads as inf) are rejected.  Undirected files
are expanded to two arcs on ingestion and always written back in directed
form, so parse(write(g)) reproduces g exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

from .core import NON_REFUELLABLE, FuelGraph, Infeasible, Instance, SearchStats, Solution
from .reach import ReachGraph


class ParseError(ValueError):
    """The file is not valid JSON."""


class SchemaError(ValueError):
    """The JSON is well-formed but violates the graph schema."""


def _is_number(x) -> bool:
    """True for a JSON number: an int or float, not a bool, not a string."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# The largest finite float; a JSON int above it would overflow float().
_FLOAT_MAX = sys.float_info.max


def parse_graph(text: str) -> FuelGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno} column {e.colno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    directed = doc.get("directed", True)
    if not isinstance(directed, bool):
        raise SchemaError("directed must be a boolean")
    vertices = doc.get("vertices")
    edges = doc.get("edges")
    if not isinstance(vertices, list) or not vertices:
        raise SchemaError("vertices must be a non-empty list")
    if not isinstance(edges, list):
        raise SchemaError("edges must be a list")

    names: list[str] = []
    prices: list[float] = []
    index: dict[str, int] = {}
    for i, entry in enumerate(vertices):
        if not isinstance(entry, dict) or "id" not in entry:
            raise SchemaError(f"vertices[{i}] must be an object with an id")
        vid = str(entry["id"])
        if vid in index:
            raise SchemaError(f"vertices[{i}].id duplicates {vid!r}")
        price = entry.get("price")
        if price is None:
            p = NON_REFUELLABLE
        elif _is_number(price) and 0 <= price <= _FLOAT_MAX:
            p = float(price)
        else:
            raise SchemaError(f"vertices[{i}].price must be >= 0 and finite, or null")
        index[vid] = i
        names.append(vid)
        prices.append(p)

    arcs: list[tuple[int, int, float]] = []
    for i, entry in enumerate(edges):
        if not isinstance(entry, dict):
            raise SchemaError(f"edges[{i}] must be an object")
        for key in ("from", "to", "fuel"):
            if key not in entry:
                raise SchemaError(f"edges[{i}].{key} is missing")
        for key in ("from", "to"):
            if str(entry[key]) not in index:
                raise SchemaError(f"edges[{i}].{key} references unknown vertex {entry[key]!r}")
        fuel = entry["fuel"]
        if not (_is_number(fuel) and 0 < fuel <= _FLOAT_MAX):
            raise SchemaError(f"edges[{i}].fuel must be > 0 and finite")
        u, v = index[str(entry["from"])], index[str(entry["to"])]
        if u == v:
            raise SchemaError(f"edges[{i}] is a self-loop at {entry['from']!r}")
        arcs.append((u, v, float(fuel)))

    return FuelGraph.build(prices, arcs, names=names, undirected=not directed)


def write_graph(graph: FuelGraph) -> str:
    doc = {
        "directed": True,
        "vertices": [
            {"id": graph.names[v],
             "price": None if math.isinf(graph.price[v]) else graph.price[v]}
            for v in range(graph.n)
        ],
        "edges": [
            {"from": graph.names[u], "to": graph.names[v], "fuel": d}
            for u, v, d in graph.edges
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def load_graph(path: str | Path) -> FuelGraph:
    return parse_graph(Path(path).read_text())


def solution_to_json(graph: FuelGraph, result: Solution | Infeasible,
                     stats: SearchStats | None = None) -> str:
    """JSON of one solve; an infeasible result has a null cost and no stops or route."""
    doc = {"cost": None, "stops": [], "route": [],
           "stats": stats.__dict__ if stats is not None else {}}
    if isinstance(result, Solution):
        doc["cost"] = result.total_cost
        doc["stops"] = [{"vertex": graph.names[v], "amount": a} for v, a in result.stops]
        doc["route"] = [graph.names[v] for v, _ in result.route]
    return json.dumps(doc, indent=2) + "\n"


def solution_from_json(graph: FuelGraph, text: str) -> tuple[Solution, float]:
    """Rebuild a Solution from its JSON form; returns (solution, stated cost).

    Hop distances are not stored in the file; validation replays hops with
    refuel-graph distances, so zeros are used as placeholders.  The cost and
    every amount must be finite JSON numbers, not strings or booleans, and
    no int too large for a float (SchemaError).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno} column {e.colno}: {e.msg}") from None
    index = graph.name_index()

    def number(x) -> float:
        if not _is_number(x):
            raise TypeError(f"{x!r} is not a number")
        if not -_FLOAT_MAX <= x <= _FLOAT_MAX:  # before float(), which overflows on a huge int
            raise TypeError(f"{x!r} is not a finite float")
        return float(x)

    try:
        stops = tuple((index[s["vertex"]], number(s["amount"])) for s in doc["stops"])
        route = tuple((index[v], 0.0) for v in doc["route"])
        cost = number(doc["cost"])
    except (KeyError, TypeError) as e:
        raise SchemaError(f"solution document is malformed: {e}") from None
    sol = Solution(stops=stops, route=route, total_cost=cost, arrival_fuel=())
    return sol, cost


def _succ_digest(rows: list) -> str:
    """sha256 of the reach cache's succ payload in its compact JSON form."""
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


def save_reach_cache(reach: ReachGraph, graph: FuelGraph, path: str | Path):
    rows = [[[v, d] for v, d in entries] for entries in reach.succ]
    doc = {
        "graph_hash": graph.content_hash(),
        "q_max": reach.q_max,
        "succ": rows,
        "succ_sha256": _succ_digest(rows),
    }
    Path(path).write_text(json.dumps(doc) + "\n")


def load_reach_cache(graph: FuelGraph, q_max: float, path: str | Path) -> ReachGraph | None:
    """Return the cached reach graph when it matches (graph, q_max).

    None when the file is missing, not JSON or keyed to another graph or
    capacity.  A matching file whose arcs are malformed raises SchemaError:
    every entry must be a [vertex, fuel] pair with the vertex another valid
    id, above the previous entry's, and 0 < fuel <= q_max.  A well-formed
    file whose succ_sha256 is absent or does not match its arcs is stale
    too (None), so edited or corrupted fuels are rebuilt, never used.
    """
    p = Path(path)
    if not p.exists():
        return None
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError:
        return None
    if not isinstance(doc, dict):
        raise SchemaError("reach cache: top level must be an object")
    if doc.get("graph_hash") != graph.content_hash() or doc.get("q_max") != q_max:
        return None
    rows = doc.get("succ")
    if not isinstance(rows, list) or len(rows) != graph.n:
        raise SchemaError(f"reach cache: succ must be a list of {graph.n} lists")
    succ: list[tuple[tuple[int, float], ...]] = []
    for u, row in enumerate(rows):
        if not isinstance(row, list):
            raise SchemaError(f"reach cache: succ[{u}] must be a list")
        entries: list[tuple[int, float]] = []
        last = -1
        for i, entry in enumerate(row):
            if not (isinstance(entry, list) and len(entry) == 2
                    and type(entry[0]) is int and type(entry[1]) in (int, float)):
                raise SchemaError(f"reach cache: succ[{u}][{i}] must be a [vertex, fuel] pair")
            v, d = entry
            if not (last < v < graph.n) or v == u:
                raise SchemaError(f"reach cache: succ[{u}][{i}] vertex {v} is out of range, "
                                  "out of order or the source itself")
            # Compared before float(), which overflows on an int beyond any float.
            if not (0 < d <= q_max):
                raise SchemaError(f"reach cache: succ[{u}][{i}] fuel {d!r} "
                                  f"is outside (0, {q_max:g}]")
            entries.append((v, float(d)))
            last = v
        succ.append(tuple(entries))
    if doc.get("succ_sha256") != _succ_digest(rows):
        return None
    return ReachGraph(graph, float(q_max), tuple(succ))


def resolve_instance(
    graph: FuelGraph,
    start: str,
    goal: str,
    q_max: float,
    k_max: int,
    q0: float = 0.0,
) -> Instance:
    """The query between two named vertices.  k_max must be a whole number:
    2.0 reads as 2, and 2.7, True or "3" is rejected, not cut.  q_max and
    q0 must be numbers: an int or a float, not a bool, a string or an int
    too large for a float."""
    index = graph.name_index()
    if start not in index:
        raise SchemaError(f"unknown start vertex {start!r}")
    if goal not in index:
        raise SchemaError(f"unknown goal vertex {goal!r}")
    for what, x in (("tank capacity", q_max), ("initial fuel", q0)):
        if not _is_number(x):
            raise SchemaError(f"{what} {x!r} is not a number")
        if isinstance(x, int) and not -_FLOAT_MAX <= x <= _FLOAT_MAX:  # float() would overflow
            raise SchemaError(f"{what} is an int too large for a float")
    whole = (isinstance(k_max, int) and not isinstance(k_max, bool)
             or isinstance(k_max, float) and k_max.is_integer())
    if not whole:
        raise SchemaError(f"stop limit {k_max!r} is not a whole number")
    return Instance(graph, index[start], index[goal], float(q_max), int(k_max), float(q0))
