"""Independent brute-force reference implementations used only by the tests.

Nothing here reuses the package's search machinery: automorphisms come from
filtering raw bijections, invariants from unpruned scans over every color
tuple.  Slow on purpose; valid at oracle scale (order <= 5, plus a plain
backtracking automorphism search for slightly larger stars).  The colour
refinement, individualization and leaf code at the end are the package's
earlier straightforward versions, kept as references for the faster ones,
and so are the graph6 parser and edge-list constructor after them.
"""

from __future__ import annotations

import itertools

from symbreak.errors import GraphFormatError, MalformedInputError
from symbreak.graph_core import Graph, VertexLabel


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def is_bijection_automorphism(G: Graph, p) -> bool:
    edge_set = set(G.edges)
    for u, v in G.edges:
        a, b = p[u], p[v]
        if ((a, b) if a < b else (b, a)) not in edge_set:
            return False
    return True


def brute_automorphisms(G: Graph) -> list[tuple[int, ...]]:
    """Filter all n! bijections.  Usable up to order ~7."""
    return [
        p
        for p in itertools.permutations(range(G.n))
        if is_bijection_automorphism(G, p)
    ]


def backtrack_automorphisms(G: Graph) -> list[tuple[int, ...]]:
    """Plain DFS over images with adjacency consistency; no refinement.

    Still independent of the package's partition-refined search; usable for
    graphs a bit beyond the factorial filter (order ~12).
    """
    n = G.n
    adj = [set(G.adj[v]) for v in range(n)]
    degrees = G.degrees()
    image = [-1] * n
    used = [False] * n
    out = []

    def rec(v: int) -> None:
        if v == n:
            out.append(tuple(image))
            return
        for w in range(n):
            if used[w] or degrees[w] != degrees[v]:
                continue
            ok = True
            for u in range(v):
                if (u in adj[v]) != (image[u] in adj[w]):
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                rec(v + 1)
                used[w] = False
                image[v] = -1

    rec(0)
    return out


def brute_is_isomorphic(G: Graph, H: Graph) -> bool:
    if G.n != H.n or G.num_edges != H.num_edges:
        return False
    target = set(H.edges)
    for p in itertools.permutations(range(G.n)):
        ok = True
        for u, v in G.edges:
            a, b = p[u], p[v]
            if ((a, b) if a < b else (b, a)) not in target:
                ok = False
                break
        if ok:
            return True
    return False


def _edge_rank(G: Graph) -> dict:
    return {e: k for k, e in enumerate(G.edges)}


def _vertex_preserved(p, colors) -> bool:
    return all(colors[p[i]] == colors[i] for i in range(len(p)))


def _edge_preserved(G: Graph, rank, p, colors) -> bool:
    for k, (u, v) in enumerate(G.edges):
        a, b = p[u], p[v]
        if colors[rank[(a, b) if a < b else (b, a)]] != colors[k]:
            return False
    return True


def naive_invariant(G: Graph, kind: str, autos=None) -> int:
    """Unpruned minimal palette search; ``autos`` defaults to the n!-filter."""
    if autos is None:
        autos = brute_automorphisms(G)
    nonid = [p for p in autos if p != identity(G.n)]
    rank = _edge_rank(G)
    n, m = G.n, G.num_edges

    if kind in ("chi", "D", "chiD"):
        npos = n
    elif kind in ("Dp", "chiDp"):
        npos = m
    elif kind == "Dpp":
        npos = n + m
    else:
        raise ValueError(kind)

    def acceptable(colors) -> bool:
        if kind in ("chi", "chiD"):
            for u, v in G.edges:
                if colors[u] == colors[v]:
                    return False
        if kind == "chiDp":
            for v in range(n):
                seen = set()
                for w in G.adj[v]:
                    c = colors[rank[(v, w) if v < w else (w, v)]]
                    if c in seen:
                        return False
                    seen.add(c)
        if kind == "chi":
            return True
        for p in nonid:
            if kind in ("D", "chiD"):
                if _vertex_preserved(p, colors):
                    return False
            elif kind in ("Dp", "chiDp"):
                if _edge_preserved(G, rank, p, colors):
                    return False
            else:
                if _vertex_preserved(p, colors[:n]) and _edge_preserved(G, rank, p, colors[n:]):
                    return False
        return True

    for r in range(1, npos + 1):
        for colors in itertools.product(range(1, r + 1), repeat=npos):
            if acceptable(colors):
                return r
    raise AssertionError(f"no {kind} coloring found up to {npos} colors")


def least_valid_vector(G: Graph, kind: str, r: int, autos=None):
    """Lexicographically least valid color vector with at most r colors for
    ``chi``, ``chiD`` or ``chiDp``, or None when there is none.

    Validity (proper, and distinguishing for chiD and chiDp) does not change
    when colors are renamed, and renaming colors in order of first use never
    makes a vector larger, so the least valid vector is a restricted-growth
    string: each entry at most one more than every entry before it.  Those
    are scanned in lexicographic order and every one is checked in full, with
    no pruning of prefixes.  ``autos`` defaults to the n!-filter.
    """
    rank = _edge_rank(G)
    if kind in ("chi", "chiD"):
        npos, pairs = G.n, list(G.edges)
    elif kind == "chiDp":
        npos = G.num_edges
        pairs = [
            (i, j)
            for i, j in itertools.combinations(range(npos), 2)
            if set(G.edges[i]) & set(G.edges[j])
        ]
    else:
        raise ValueError(kind)
    nonid = []
    if kind != "chi":
        if autos is None:
            autos = brute_automorphisms(G)
        nonid = [p for p in autos if p != identity(G.n)]

    def valid(colors) -> bool:
        if any(colors[a] == colors[b] for a, b in pairs):
            return False
        if kind == "chiD":
            return not any(_vertex_preserved(p, colors) for p in nonid)
        if kind == "chiDp":
            return not any(_edge_preserved(G, rank, p, colors) for p in nonid)
        return True

    def first_fit(prefix: list, top: int):
        if len(prefix) == npos:
            yield tuple(prefix)
            return
        for c in range(1, min(top + 1, r) + 1):
            yield from first_fit(prefix + [c], max(top, c))

    return next((colors for colors in first_fit([], 0) if valid(colors)), None)


def naive_is_irreducible(G: Graph) -> bool:
    for x in range(G.n):
        for y in range(x + 1, G.n):
            if set(G.adj[x]) == set(G.adj[y]):
                return False
    return True


def reference_refine_colors(G: Graph, colors: list[int]) -> list[int]:
    """Iterate (color, multiset of neighbor colors) to a fixpoint, ranking
    every vertex's full signature key in every round."""
    n = G.n
    while True:
        keys = [
            (colors[v], tuple(sorted(colors[u] for u in G.adj[v]))) for v in range(n)
        ]
        rank = {key: r for r, key in enumerate(sorted(set(keys)))}
        new = [rank[keys[v]] for v in range(n)]
        if new == colors:
            return colors
        colors = new


def reference_individualize(G: Graph, colors: list[int], v: int) -> list[int]:
    keys = [(colors[u], 0 if u == v else 1) for u in range(G.n)]
    rank = {key: r for r, key in enumerate(sorted(set(keys)))}
    return reference_refine_colors(G, [rank[keys[u]] for u in range(G.n)])


def reference_code_for(G: Graph, colors: list[int]) -> tuple[int, tuple[int, ...]]:
    """The adjacency code of the discrete coloring, testing every pair."""
    n = G.n
    vert_at = [0] * n
    for v in range(n):
        vert_at[colors[v]] = v
    acc = 0
    for j in range(1, n):
        vj = vert_at[j]
        row = G.adj_sets[vj]
        for i in range(j):
            acc = (acc << 1) | (1 if vert_at[i] in row else 0)
    return acc, tuple(colors)


def reference_from_edge_list(n: int, pairs, labels=None) -> Graph:
    """Fresh original labels per vertex and a sorted copy of every
    adjacency list."""
    if not isinstance(n, int) or n < 1:
        raise MalformedInputError(f"graph order must be a positive integer, got {n!r}")
    seen = set()
    for pair in pairs:
        i, j = pair
        if i == j:
            raise MalformedInputError(f"loop edge ({i},{i}) is not allowed")
        if not (0 <= i < n and 0 <= j < n):
            raise MalformedInputError(f"edge ({i},{j}) out of range for order {n}")
        seen.add((i, j) if i < j else (j, i))
    edges = tuple(sorted(seen))
    if labels is None:
        labels = tuple(VertexLabel.original(i) for i in range(n))
    else:
        labels = tuple(labels)
        if len(labels) != n:
            raise MalformedInputError(f"expected {n} labels, got {len(labels)}")
        if len(set(labels)) != n:
            raise MalformedInputError("vertex labels must be pairwise distinct")
    adj_lists = [[] for _ in range(n)]
    for u, v in edges:
        adj_lists[u].append(v)
        adj_lists[v].append(u)
    adj = tuple(tuple(sorted(nb)) for nb in adj_lists)
    adj_sets = tuple(frozenset(nb) for nb in adj)
    return Graph(n=n, edges=edges, labels=labels, adj=adj, adj_sets=adj_sets)


def reference_parse_graph6(line: str) -> Graph:
    """Decode a short-form graph6 line one data byte, then one bit, at a time."""
    header = ">>graph6<<"
    s = line.rstrip("\r\n")
    h = len(header) if s.startswith(header) else 0
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
    values = []
    for idx in range(h + 1, len(s)):
        v = ord(s[idx]) - 63
        if not 0 <= v <= 63:
            raise GraphFormatError(f"invalid data byte {s[idx]!r}", idx)
        values.append(v)
    pairs = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if (values[k // 6] >> (5 - k % 6)) & 1:
                pairs.append((i, j))
            k += 1
    return reference_from_edge_list(n, pairs)
