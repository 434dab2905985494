"""The four graph transformations: line, endline, subdivision and middle graph.

Output vertex numbering is deterministic: original vertices keep their source
indices 0..n-1, and edge vertices / pendant vertices are appended in
lexicographic source-edge / source-vertex order.  Provenance labels link every
output vertex back to the input graph.
"""

from __future__ import annotations

from .errors import ContractError, MalformedInputError
from .graph_core import (
    Edge, Graph, VertexLabel, from_edge_list, incident_edge_pairs, original_labels,
)


def _require_edges(G: Graph, op: str) -> None:
    if G.num_edges == 0:
        raise MalformedInputError(f"{op} is undefined for edgeless input")


def line_graph(G: Graph) -> Graph:
    """Graph on E(G); two edge vertices adjacent iff the edges share an endpoint."""
    _require_edges(G, "line graph")
    # Each pair in G.edges is already ordered u < v, as an edge label needs.
    labels = tuple(VertexLabel("edge_vertex", u, v) for u, v in G.edges)
    return from_edge_list(G.num_edges, incident_edge_pairs(G), labels)


def endline_graph(G: Graph) -> Graph:
    """G plus one new pendant vertex attached to each original vertex."""
    n = G.n
    pairs = list(G.edges) + [(i, n + i) for i in range(n)]
    labels = original_labels(n) + tuple(VertexLabel("pendant", i) for i in range(n))
    return from_edge_list(2 * n, pairs, labels)


def _incidence(G: Graph) -> tuple[list[Edge], tuple[VertexLabel, ...]]:
    """Incidence pairs on V(G) u E(G), edge k being vertex n + k, and the labels."""
    n = G.n
    pairs = [(u, n + k) for k, e in enumerate(G.edges) for u in e]
    labels = original_labels(n) + tuple(VertexLabel("edge_vertex", u, v) for u, v in G.edges)
    return pairs, labels


def subdivision_graph(G: Graph) -> Graph:
    """Each edge replaced by a path of length two through a new edge vertex."""
    _require_edges(G, "subdivision graph")
    pairs, labels = _incidence(G)
    return from_edge_list(G.n + G.num_edges, pairs, labels)


def middle_graph(G: Graph) -> Graph:
    """Vertex set V(G) u E(G); edge-edge adjacency by shared endpoint,
    vertex-edge adjacency by incidence, and no original-original edges."""
    _require_edges(G, "middle graph")
    n = G.n
    pairs, labels = _incidence(G)
    pairs += [(n + a, n + b) for a, b in incident_edge_pairs(G)]
    return from_edge_list(n + G.num_edges, pairs, labels)


def endline_edges(Gplus: Graph) -> tuple[Edge, ...]:
    """Recover the pendant edges of an endline graph from its labels."""
    out = []
    for idx, lab in enumerate(Gplus.labels):
        if lab.is_pendant:
            out.append((lab.a, idx) if lab.a < idx else (idx, lab.a))
    if not out:
        raise ContractError("graph carries no pendant labels; not an endline graph")
    return tuple(sorted(out))


def original_vertices(H: Graph) -> tuple[int, ...]:
    """Indices of the vertices labelled as originals of the source graph."""
    return tuple(i for i, lab in enumerate(H.labels) if lab.is_original)
