"""Explicit colorings for endline and subdivision graphs, certified at runtime.

Every construction re-checks its own output with the generic checkers
(properness and trivial stabilizer) instead of trusting the recipe; the
result object records the certification outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

from .colorings import EdgeColoring, TotalColoring, VertexColoring
from .errors import ContractError
from .graph_core import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    is_connected,
    is_cycle_graph,
    max_degree,
)
from .invariants import (
    distinguishing_chromatic_index,
    distinguishing_number,
    is_distinguishing,
    is_proper,
    total_distinguishing_number,
)
from .symmetry import is_isomorphic
from .transforms import endline_graph, subdivision_graph

# The four exceptional graphs in catalog vertex order, and the fixed
# Hamiltonian cycle used on each.  Vertex-transitivity makes the choice of
# cycle immaterial up to isomorphism; fixing one keeps outputs deterministic.
EXCEPTIONAL_GRAPHS: dict[str, Graph] = {
    "C4": cycle_graph(4),
    "C6": cycle_graph(6),
    "K4": complete_graph(4),
    "K3,3": complete_bipartite_graph(3, 3),
}
_EXCEPTIONAL_CYCLES: dict[str, tuple[int, ...]] = {
    "C4": (0, 1, 2, 3),
    "C6": (0, 1, 2, 3, 4, 5),
    "K4": (0, 1, 2, 3),
    "K3,3": (0, 3, 1, 4, 2, 5),
}


def exception_name(G: Graph) -> str | None:
    """Which of the four exceptional graphs G is isomorphic to, if any."""
    for name, H in EXCEPTIONAL_GRAPHS.items():
        if G.n == H.n and G.num_edges == H.num_edges and is_isomorphic(G, H):
            return name
    return None


@dataclass(frozen=True)
class ConstructionResult:
    """A constructed coloring together with its runtime certification.

    ``certified`` holds when the checks confirm what the construction
    claims: distinguishing always, proper unless ``claims_proper`` is False.
    """

    graph: Graph
    coloring: object
    palette: int
    proper: bool
    distinguishing: bool
    used_fallback: bool = False
    claims_proper: bool = True

    @property
    def certified(self) -> bool:
        return self.distinguishing and (self.proper or not self.claims_proper)


def _certify(
    H: Graph, coloring, used_fallback: bool = False, claims_proper: bool = True
) -> ConstructionResult:
    """Re-check a constructed coloring of H with the generic checkers."""
    return ConstructionResult(
        graph=H,
        coloring=coloring,
        palette=coloring.palette,
        proper=is_proper(H, coloring),
        distinguishing=is_distinguishing(H, coloring),
        used_fallback=used_fallback,
        claims_proper=claims_proper,
    )


def exceptional_endline_coloring(G: Graph) -> ConstructionResult:
    """Proper distinguishing edge coloring of G+ with max_degree(G)+2 colors,
    for G one of C4, C6, K4, K3,3 in catalog vertex order.

    Hamiltonian cycle edges alternate colors 3/4, the pendant edge at the
    cycle start gets color 1, every other pendant edge gets 2, and any
    leftover edges (the K4 and K3,3 chords) get 5.
    """
    name = next((cand for cand, H in EXCEPTIONAL_GRAPHS.items() if G == H), None)
    if name is None:
        raise ContractError(
            "exceptional_endline_coloring expects C4, C6, K4 or K3,3 "
            "in catalog vertex order"
        )
    cycle = _EXCEPTIONAL_CYCLES[name]
    p = len(cycle)
    delta = max_degree(G)
    Gp = endline_graph(G)
    coloring: dict[tuple[int, int], int] = {}
    cycle_edges = set()
    for t in range(p):
        u, v = cycle[t], cycle[(t + 1) % p]
        e = (u, v) if u < v else (v, u)
        coloring[e] = 3 if t % 2 == 0 else 4
        cycle_edges.add(e)
    for e in G.edges:
        if e not in cycle_edges:
            coloring[e] = 5
    for i in range(G.n):
        coloring[(i, G.n + i)] = 1 if i == cycle[0] else 2
    return _certify(Gp, EdgeColoring.from_dict(coloring, delta + 2))


def endline_extension_coloring(G: Graph) -> ConstructionResult:
    """Extend a minimal proper distinguishing edge coloring of G to G+ using
    only max_degree(G)+1 colors (G connected, order >= 3, not exceptional).

    When the minimal index equals the maximum degree, all pendant edges take
    the one spare color; otherwise the pendant edge at each vertex takes the
    least color missing there.  The output is certified; if the
    distinguishing check ever failed, the exact search on G+ would be used
    instead and the result flagged.
    """
    if G.n < 3 or not is_connected(G):
        raise ContractError("endline_extension_coloring needs a connected graph of order >= 3")
    if exception_name(G) is not None:
        raise ContractError("endline_extension_coloring does not apply to the four exceptional graphs")
    delta = max_degree(G)
    base = distinguishing_chromatic_index(G)
    g = base.witness
    if base.value not in (delta, delta + 1):
        raise AssertionError(
            f"distinguishing chromatic index {base.value} outside "
            f"{{{delta},{delta + 1}}}; cannot happen for non-exceptional graphs"
        )
    Gp = endline_graph(G)
    coloring = dict(zip(g.edges, g.colors))
    if base.value == delta:
        for i in range(G.n):
            coloring[(i, G.n + i)] = delta + 1
    else:
        for v in range(G.n):
            present = {g.color_of(v, w) for w in G.adj[v]}
            missing = [c for c in range(1, delta + 2) if c not in present]
            assert missing, "a vertex of degree <= max degree always misses a color"
            coloring[(v, G.n + v)] = missing[0]
    res = _certify(Gp, EdgeColoring.from_dict(coloring, delta + 1))
    if res.certified:
        return res
    return _certify(Gp, distinguishing_chromatic_index(Gp).witness, used_fallback=True)


def lift_total_to_subdivision(G: Graph, f: TotalColoring) -> VertexColoring:
    """Turn a total coloring of G into the vertex coloring of S(G) that gives
    each original vertex its vertex color and each edge vertex its edge color."""
    if len(f.vertex_part.colors) != G.n or f.edge_part.edges != G.edges:
        raise ContractError("total coloring domain does not match the graph")
    return VertexColoring(f.vertex_part.colors + f.edge_part.colors, f.palette)


def subdivision_lift_coloring(G: Graph) -> ConstructionResult:
    """Distinguishing vertex coloring of S(G) with D''(G) colors: the lift of
    a minimal total distinguishing coloring of G.  Properness is reported,
    not claimed, so ``certified`` needs only the distinguishing check.
    Cycles are refused: S(Cn) = C2n has rotations that are not lifts of
    automorphisms of Cn, so the lift need not be distinguishing (it is not
    on C3, C4 and C5)."""
    if is_cycle_graph(G):
        raise ContractError("subdivision_lift_coloring does not apply to cycles")
    total = total_distinguishing_number(G)
    S = subdivision_graph(G)
    return _certify(S, lift_total_to_subdivision(G, total.witness), claims_proper=False)


def restrict_subdivision_to_total(G: Graph, f: VertexColoring) -> TotalColoring:
    """Inverse of the lift: split a vertex coloring of S(G) back into a total
    coloring of G along the provenance labels."""
    S = subdivision_graph(G)
    if len(f.colors) != S.n:
        raise ContractError("coloring domain does not match V(S(G))")
    return TotalColoring(
        VertexColoring(f.colors[: G.n], f.palette),
        EdgeColoring(G.edges, f.colors[G.n :], f.palette),
    )


def subdivision_proper_distinguishing(G: Graph) -> ConstructionResult:
    """Proper distinguishing vertex coloring of S(G) for connected non-cycle G.

    Palette depends on the distinguishing number d of G: originals keep a
    minimal distinguishing coloring; edge vertices take the least color
    missing at their endpoints (d >= 3), the fresh color 3 (d = 2), or the
    class coloring 1/2 (d = 1).
    """
    if G.n < 3 or not is_connected(G):
        raise ContractError("subdivision_proper_distinguishing needs a connected graph of order >= 3")
    if is_cycle_graph(G):
        raise ContractError("subdivision_proper_distinguishing does not apply to cycles")
    S = subdivision_graph(G)
    d = distinguishing_number(G)
    f = d.witness.colors
    if d.value >= 3:
        palette = d.value
        ev = []
        for x, y in G.edges:
            ev.append(min(c for c in range(1, palette + 1) if c not in (f[x], f[y])))
        colors = f + tuple(ev)
    elif d.value == 2:
        palette = 3
        colors = f + (3,) * G.num_edges
    else:
        palette = 2
        colors = (1,) * G.n + (2,) * G.num_edges
    return _certify(S, VertexColoring(colors, palette))
