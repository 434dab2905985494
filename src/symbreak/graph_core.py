"""Graph data model, graph6 text format, named graphs, and basic predicates.

Vertices are the integers ``0..n-1``.  A :class:`Graph` is immutable once
built; its one adjacency form, ``adj``, lists each vertex's neighbours in
increasing order, so values can be shared freely between workers.
Default labels are one shared immutable prefix of original labels
(:func:`original_labels`), not new label objects per graph.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from itertools import chain, combinations, repeat
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import GraphFormatError, MalformedInputError

Edge = tuple[int, int]


class VertexLabel(NamedTuple):
    """Provenance of a vertex in a (possibly transformed) graph.

    ``kind`` is one of ``"original"``, ``"edge_vertex"``, ``"pendant"``.
    ``a`` (and ``b`` for edge vertices, ``a < b``) index vertices of the
    source graph.  Labels are metadata only: they never influence adjacency,
    equality or isomorphism of graphs.  A label is the tuple ``(kind, a, b)``,
    so it is built, hashed and compared as a tuple.
    """

    kind: str
    a: int
    b: int = -1

    @classmethod
    def original(cls, i: int) -> "VertexLabel":
        return cls("original", i)

    @classmethod
    def edge_vertex(cls, i: int, j: int) -> "VertexLabel":
        if i > j:
            i, j = j, i
        return cls("edge_vertex", i, j)

    @classmethod
    def pendant(cls, i: int) -> "VertexLabel":
        return cls("pendant", i)

    @property
    def is_original(self) -> bool:
        return self.kind == "original"

    @property
    def is_edge_vertex(self) -> bool:
        return self.kind == "edge_vertex"

    @property
    def is_pendant(self) -> bool:
        return self.kind == "pendant"

    def __str__(self) -> str:
        if self.kind == "edge_vertex":
            return f"edge({self.a},{self.b})"
        return f"{self.kind}({self.a})"


@dataclass(frozen=True, eq=False, repr=False)
class Graph:
    """Simple undirected graph with provenance-labelled vertices.

    Structural equality and hashing use ``(n, edges)`` only; labels are
    carried along as metadata.  ``adj``, the one adjacency form, lists each
    vertex's neighbours in increasing order.  Build one with :func:`from_edge_list`.
    """

    n: int
    edges: tuple[Edge, ...]
    labels: tuple[VertexLabel, ...]
    adj: tuple[tuple[int, ...], ...]

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nb) for nb in self.adj)

    def degree_sequence(self) -> tuple[int, ...]:
        """Degrees sorted in non-increasing order."""
        return tuple(sorted(self.degrees(), reverse=True))

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


_ORIGINALS: tuple[VertexLabel, ...] = ()


def original_labels(n: int) -> tuple[VertexLabel, ...]:
    """``VertexLabel.original(i)`` for ``i < n``: a prefix of one shared
    tuple, rebuilt only when a larger order than any before it is asked for,
    so it never holds more labels than the largest graph built so far."""
    global _ORIGINALS
    if len(_ORIGINALS) < n:
        _ORIGINALS = tuple(VertexLabel.original(i) for i in range(n))
    return _ORIGINALS[:n]


def from_edge_list(
    n: int,
    pairs: Iterable[Sequence[int]],
    labels: Optional[Sequence[VertexLabel]] = None,
) -> Graph:
    """Build a simple graph on ``n`` vertices from unordered index pairs.

    Duplicate pairs collapse.  Loops, out-of-range or non-``int`` indices
    (``bool`` included) and entries that are not pairs are rejected.
    """
    if type(n) is not int or n < 1:
        raise MalformedInputError(f"graph order must be a positive integer, got {n!r}")
    seen: set[Edge] = set()
    for pair in pairs:
        try:
            i, j = pair
        except (TypeError, ValueError):
            i = j = None
        if type(i) is not int or type(j) is not int:
            raise MalformedInputError(f"edge {pair!r} is not a pair of vertex indices")
        if i == j:
            raise MalformedInputError(f"loop edge ({i},{i}) is not allowed")
        if not (0 <= i < n and 0 <= j < n):
            raise MalformedInputError(f"edge ({i},{j}) out of range for order {n}")
        seen.add((i, j) if i < j else (j, i))
    edges = tuple(sorted(seen))
    if labels is None:
        labels = original_labels(n)
    else:
        labels = tuple(labels)
        if len(labels) != n:
            raise MalformedInputError(f"expected {n} labels, got {len(labels)}")
        if len(set(labels)) != n:
            raise MalformedInputError("vertex labels must be pairwise distinct")
    # Sorted edges fill each list in increasing order: a neighbour u < v of
    # v arrives with (u, v), before every (v, w) with w > v.
    adj_lists: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj_lists[u].append(v)
        adj_lists[v].append(u)
    return Graph(n=n, edges=edges, labels=labels, adj=tuple(map(tuple, adj_lists)))


# ---------------------------------------------------------------------------
# graph6 encoding (short form, n <= 62)
# ---------------------------------------------------------------------------

_GRAPH6_HEADER = ">>graph6<<"


def parse_graph6(line: str) -> Graph:
    """Decode one short-form graph6 line into a Graph.  A leading nauty
    ``>>graph6<<`` header is skipped; error offsets count from the start of
    the line."""
    s = line.rstrip("\r\n")
    h = len(_GRAPH6_HEADER) if s.startswith(_GRAPH6_HEADER) else 0
    if len(s) == h:
        raise GraphFormatError("empty graph6 line", h)
    b0 = ord(s[h])
    if b0 == 126:
        raise GraphFormatError("extended graph6 (order > 62) is not supported", h)
    if not 63 <= b0 <= 125:
        raise GraphFormatError(f"invalid order byte {s[h]!r}", h)
    n = b0 - 63
    if n == 0:
        raise GraphFormatError("graphs of order 0 are not supported", h)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(s) - h != 1 + nbytes:
        raise GraphFormatError(
            f"expected {1 + nbytes} characters for order {n}, got {len(s) - h}",
            h + min(len(s) - h, 1 + nbytes),
        )
    acc = 0
    for idx in range(h + 1, len(s)):
        v = ord(s[idx]) - 63
        if not 0 <= v <= 63:
            raise GraphFormatError(f"invalid data byte {s[idx]!r}", idx)
        acc = acc << 6 | v
    # Pair (i, j), i < j, is bit j(j-1)/2 + i counted from the top of acc.
    k = 6 * nbytes
    pairs = []
    for j in range(1, n):
        for i in range(j):
            k -= 1
            if acc >> k & 1:
                pairs.append((i, j))
    return from_edge_list(n, pairs)


def adjacency_code(n: int, pairs: Iterable[Edge]) -> int:
    """The graph6 bits of the graph of order n with edges `pairs` (each
    i < j), unpadded: bit j(j-1)/2 + i of the upper triangle, taken column
    by column and most significant first, is set when ij is an edge."""
    top = n * (n - 1) // 2 - 1
    acc = 0
    for i, j in pairs:
        acc |= 1 << (top - j * (j - 1) // 2 - i)
    return acc


def graph6_line(n: int, code: int) -> str:
    """The short-form graph6 line (no trailing newline) of the graph of
    order n whose adjacency_code is `code`: the bits, padded with zeros to a
    multiple of 6, are written 6 to a character, most significant first."""
    if n > 62:
        raise MalformedInputError(f"order {n} exceeds the short-form graph6 limit of 62")
    nbits = n * (n - 1) // 2
    pad = -nbits % 6
    acc = code << pad
    return chr(63 + n) + "".join(
        [chr(63 + (acc >> shift & 63)) for shift in range(nbits + pad - 6, -1, -6)]
    )


def to_graph6(G: Graph) -> str:
    """Encode a graph as one short-form graph6 line (no trailing newline)."""
    return graph6_line(G.n, adjacency_code(G.n, G.edges))


def read_graph6_file(path: str) -> list[Graph]:
    """Read a graph6 file: one graph per line, ``>>`` header lines ignored.
    A graph after nauty's ``>>graph6<<`` header on the same line is read."""
    graphs = []
    # surrogateescape keeps one character per byte, so a character index in
    # a line is also its byte offset.
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                offset = next(i for i, ch in enumerate(line) if not ch.isascii())
                raise GraphFormatError(
                    f"{path}:{lineno}: non-ASCII byte 0x{ord(line[offset]) & 0xFF:02x}",
                    offset,
                )
            stripped = line.rstrip("\r\n")
            head = len(_GRAPH6_HEADER) if stripped.startswith(_GRAPH6_HEADER) else 0
            if head == len(stripped) or (not head and stripped.startswith(">>")):
                continue
            try:
                graphs.append(parse_graph6(stripped))
            except GraphFormatError as exc:
                raise GraphFormatError(f"{path}:{lineno}: {exc.message}", exc.offset) from exc
    return graphs


def write_graph6_file(path: str, graphs: Iterable[Graph]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for G in graphs:
            fh.write(to_graph6(G) + "\n")


# ---------------------------------------------------------------------------
# Named graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NamedGraphSpec:
    """A named graph family plus its integer parameters."""

    family: str  # "C" | "K" | "K_bip" | "P" | "Q" | "LQ"
    params: tuple[int, ...] = ()


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise MalformedInputError(f"cycle graphs need order >= 3, got {n}")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise MalformedInputError(f"complete graphs need order >= 1, got {n}")
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite_graph(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise MalformedInputError(f"complete bipartite parts must be >= 1, got ({m},{n})")
    return from_edge_list(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise MalformedInputError(f"path graphs need order >= 1, got {n}")
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(m: int) -> Graph:
    """The star K_{1,m}: one centre (vertex 0) joined to m leaves."""
    return complete_bipartite_graph(1, m)


def named_graph(spec: NamedGraphSpec) -> Graph:
    """Materialize a catalog graph with its canonical vertex order."""
    fam, params = spec.family, spec.params
    if fam == "C":
        (n,) = params
        return cycle_graph(n)
    if fam == "K":
        (n,) = params
        return complete_graph(n)
    if fam == "K_bip":
        m, n = params
        return complete_bipartite_graph(m, n)
    if fam == "P":
        (n,) = params
        return path_graph(n)
    if fam == "Q":
        # 4 vertices, 5 edges: complete graph minus the edge {2,3}.
        return from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    if fam == "LQ":
        # Triangle 0-1-2 with a pendant vertex 3 attached at 2.
        return from_edge_list(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    raise MalformedInputError(f"unknown graph family {fam!r}")


_NAME_RE = re.compile(r"^([CKP])_?\{?(\d+)(?:[,_](\d+))?\}?$")


def graph_from_name(text: str) -> Graph:
    """Parse names like ``C6``, ``K4``, ``K3,3``, ``P5``, ``Q``, ``LQ``."""
    t = text.strip()
    if t in ("Q", "LQ"):
        return named_graph(NamedGraphSpec(t))
    m = _NAME_RE.match(t)
    if not m:
        raise MalformedInputError(f"unrecognized graph name {text!r}")
    fam, first, second = m.group(1), int(m.group(2)), m.group(3)
    if fam == "K" and second is not None:
        return named_graph(NamedGraphSpec("K_bip", (first, int(second))))
    if second is not None:
        raise MalformedInputError(f"unrecognized graph name {text!r}")
    return named_graph(NamedGraphSpec(fam, (first,)))


# ---------------------------------------------------------------------------
# Elementary predicates
# ---------------------------------------------------------------------------

def max_degree(G: Graph) -> int:
    return max(G.degrees())


def neighborhood(G: Graph, v: int) -> frozenset:
    """Open neighborhood of v, built on each call."""
    if not 0 <= v < G.n:
        raise MalformedInputError(f"vertex {v} out of range for order {G.n}")
    return frozenset(G.adj[v])


def incident_edge_pairs(G: Graph) -> list[Edge]:
    """Sorted pairs ``(i, j)``, ``i < j``, of indices into ``G.edges`` whose
    edges share an endpoint: the edges of the line graph."""
    at: list[list[int]] = [[] for _ in range(G.n)]
    for k, (u, v) in enumerate(G.edges):
        at[u].append(k)
        at[v].append(k)
    # Two edges of a simple graph share at most one endpoint: no duplicates.
    return sorted(chain.from_iterable(map(combinations, at, repeat(2))))


def is_connected(G: Graph) -> bool:
    seen = [False] * G.n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for w in G.adj[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                queue.append(w)
    return count == G.n


def bipartition(G: Graph) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The two color classes of a bipartite graph, or None if an odd cycle exists.

    Each component's lowest-index vertex goes into the first class, so the
    result is deterministic.
    """
    side = [-1] * G.n
    for root in range(G.n):
        if side[root] != -1:
            continue
        side[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in G.adj[u]:
                if side[w] == -1:
                    side[w] = 1 - side[u]
                    queue.append(w)
                elif side[w] == side[u]:
                    return None
    first = tuple(v for v in range(G.n) if side[v] == 0)
    second = tuple(v for v in range(G.n) if side[v] == 1)
    return first, second


def is_irreducible(G: Graph) -> bool:
    """True iff all open neighborhoods are pairwise distinct: each ``adj``
    tuple is in increasing order, so tuples are equal exactly when sets are."""
    return len(set(G.adj)) == G.n


def is_cycle_graph(G: Graph) -> bool:
    """True iff G is isomorphic to a cycle C_n, n >= 3."""
    return G.n >= 3 and is_connected(G) and all(d == 2 for d in G.degrees())
