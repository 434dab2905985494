"""Automorphism groups, isomorphism testing, canonical labeling, group actions.

Groups of at most _PRUNE_GROUP_CAP elements are listed in full, so
stabilizers and distinguishing checks reduce to plain filters over the
element list; automorphism_group lists a larger group too when asked.  The
invariant searches take only the _PRUNE_SET_SIZE non-identity elements of
least support (_smallest_support_automorphisms) for their orbit prune and
stabilizer cut.  They are picked from a listed group; a larger group is
never listed, and they come from a search that cuts every branch moving too
many vertices.  A coloring none of them preserves is decided, when the group
may hold more, by a search whose refinement starts from the coloring.  Every
search backtracks over an iterated degree/neighborhood refinement of the
vertex set and validates adjacency incrementally, so leaves of the search
tree are exactly the automorphisms.  It places the vertices of singleton
cells first, then always the unplaced vertex with the most placed
neighbours, so a wrong choice soon fails the adjacency check.  Elements are
returned in a fixed order that does not depend on that search order (see
AutGroup).

The refinement (_refine_colors) iterates (color, multiset of neighbor
colors) to a fixpoint; the colors of a round are the ranks of those keys, so
they do not depend on vertex labels.  It keeps the cells in color order and
recomputes a round's keys only in the cells next to a cell that split in the
round before, as no other cell can split.  A split cell's parts, ordered by
key, take its place in the list, and a vertex's color is the position of its
cell.  The keys compare color first, so the rank of a key is the number of
parts of lower-colored cells plus its rank within its own cell: that
position.  The colors are thus those of recomputing every key every round.
Individualizing a vertex splits its cell in place and refines from there,
and a canonical-labelling leaf's adjacency code is set from the edge list.
"""

from __future__ import annotations

import heapq
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .colorings import EdgeColoring, TotalColoring, VertexColoring
from .errors import ContractError, MalformedInputError, ResourceCapError
from .graph_core import Edge, Graph, from_edge_list, to_graph6

Permutation = tuple[int, ...]

DEFAULT_VERTEX_CAP = 40
DEFAULT_ORDER_CAP = 10_000_000


def vertex_cap(explicit: Optional[int], default: int) -> int:
    """The explicit cap if given, else SYMBREAK_MAX_VERTICES, else default.

    Raises MalformedInputError if the variable is set to anything but a
    positive integer.
    """
    if explicit is not None:
        return explicit
    env = os.environ.get("SYMBREAK_MAX_VERTICES")
    if not env:
        return default
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value < 1:
        raise MalformedInputError(
            f"SYMBREAK_MAX_VERTICES must be a positive integer, got {env!r}"
        )
    return value


def identity_permutation(n: int) -> Permutation:
    return tuple(range(n))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """The permutation applying q first, then p."""
    return tuple(p[q[i]] for i in range(len(q)))


def invert(p: Permutation) -> Permutation:
    inv = [0] * len(p)
    for i, pi in enumerate(p):
        inv[pi] = i
    return tuple(inv)


def is_automorphism(G: Graph, p: Permutation) -> bool:
    if len(p) != G.n or sorted(p) != list(range(G.n)):
        return False
    for u, v in G.edges:
        if not G.has_edge(p[u], p[v]):
            return False
    return True


def permute_graph(G: Graph, p: Permutation) -> Graph:
    """Relabel G so that old vertex v becomes p[v].  Labels travel along."""
    labels = [None] * G.n
    for v in range(G.n):
        labels[p[v]] = G.labels[v]
    return from_edge_list(G.n, [(p[u], p[v]) for u, v in G.edges], labels)


@dataclass(frozen=True)
class AutGroup:
    """The full automorphism group of a graph, one permutation per element.

    Element order: sort the vertices by (size of their refined colour cell,
    cell colour, index); the elements come in lexicographic order of their
    images read in that vertex order.  The identity is always first.
    """

    n: int
    elements: tuple[Permutation, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def is_trivial(self) -> bool:
        return len(self.elements) == 1

    def nonidentity(self) -> tuple[Permutation, ...]:
        ident = identity_permutation(self.n)
        return tuple(p for p in self.elements if p != ident)

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


# ---------------------------------------------------------------------------
# Partition refinement
# ---------------------------------------------------------------------------

def _refine_colors(G: Graph, colors: Sequence[int]) -> list[int]:
    """Iterate (color, multiset of neighbor colors) to a fixpoint.

    Each round gives every vertex the rank of its key (color, sorted
    neighbor colors) among all keys, so the output colors are invariant
    under relabeling.  The input colors may be any integers.
    """
    classes: dict[int, list[int]] = {}
    if len(set(colors)) == 1:
        # The first round splits a uniform coloring by degree.
        for v, nbrs in enumerate(G.adj):
            classes.setdefault(len(nbrs), []).append(v)
        cells = [classes[d] for d in sorted(classes)]
        return _refine_cells(G.adj, cells, _touched(cells))
    for v, c in enumerate(colors):
        classes.setdefault(c, []).append(v)
    return _refine_cells(G.adj, [classes[c] for c in sorted(classes)], range(G.n))


def _touched(parts: list[list[int]]) -> list[int]:
    """The members of the parts a cell just split into, but its largest.
    The members of a cell next to none of them saw equal multisets before,
    so they see equal numbers of each cell that did not split, and of the
    largest part too: that cell cannot split in the next round."""
    largest = max(parts, key=len)
    return [v for part in parts if part is not largest for v in part]


def _refine_cells(
    adj: Sequence[Sequence[int]], cells: list[list[int]], touched: Sequence[int]
) -> list[int]:
    """The colors _refine_colors gives the ordered partition `cells` (cell i
    colored i), recomputing each round only the cells next to a vertex in
    `touched`.  That starts as every vertex, or as the parts that have just
    split off a cell of an equitable partition but the largest part of each
    (see _touched): a cell next to none of them cannot split.

    A cell is labelled by the position of its first vertex in the cells laid
    end to end.  A split keeps that label for its first part, and its parts,
    ordered by their sorted neighbor labels, take its place; so labels order
    cells as their colors do, and the final color of a cell is its rank.
    """
    n = len(adj)
    label = [0] * n
    label_of = label.__getitem__
    cell_at: list[list[int]] = [[]] * n  # a cell's members, at its label
    start = 0
    for cell in cells:
        cell_at[start] = cell
        for v in cell:
            label[v] = start
        start += len(cell)
    while touched:
        # Rounds are synchronous: every key of a round uses the labels from
        # before any of its splits.
        splits = []
        for s in {label[u] for w in touched for u in adj[w]}:
            cell = cell_at[s]
            if len(cell) < 2:
                continue
            parts: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                parts.setdefault(tuple(sorted(map(label_of, adj[v]))), []).append(v)
            if len(parts) > 1:
                splits.append((s, [parts[key] for key in sorted(parts)]))
        touched = []
        for s, parts in splits:
            touched += _touched(parts)
            for part in parts:
                cell_at[s] = part
                for v in part:
                    label[v] = s
                s += len(part)
    colors = [0] * n
    color = start = 0
    while start < n:
        for v in cell_at[start]:
            colors[v] = color
        start += len(cell_at[start])
        color += 1
    return colors


def _adjacency_masks(G: Graph) -> list[int]:
    masks = [0] * G.n
    for u, v in G.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


# ---------------------------------------------------------------------------
# Automorphism group enumeration
# ---------------------------------------------------------------------------

# The invariant searches list a group of at most this many elements, and
# never a larger one.
_PRUNE_GROUP_CAP = 6000
# The orbit prune and stabilizer cut of the invariant searches scan this many
# group elements of least support at every node.  More cost more per node
# than they save in nodes: the cor-3.5 star rows ran fastest with 32-100.
_PRUNE_SET_SIZE = 64


def automorphism_group(
    G: Graph,
    *,
    max_vertices: Optional[int] = None,
    max_order: int = DEFAULT_ORDER_CAP,
) -> AutGroup:
    """Enumerate every adjacency-preserving bijection of G.

    Provenance labels are ignored: this is pure graph symmetry.  Raises
    ResourceCapError if the graph order or the group order exceeds its cap.
    Default calls are cached per graph.
    """
    if max_vertices is None and max_order == DEFAULT_ORDER_CAP:
        group = _small_group(G)
        if group is None:
            group = _cached_group(G, max_order)
    else:
        group = _enumerate_automorphisms(G, max_vertices, max_order)
    if group is None:
        raise ResourceCapError(f"automorphism group larger than cap {max_order}")
    return group


def _small_group(G: Graph) -> Optional[AutGroup]:
    """automorphism_group(G) if it has at most _PRUNE_GROUP_CAP elements,
    else None; enumerates at most one element more.  Refuses G past the
    vertex cap like automorphism_group."""
    return _cached_group(G, _PRUNE_GROUP_CAP)


@lru_cache(maxsize=32)
def _cached_group(G: Graph, limit: int) -> Optional[AutGroup]:
    return _enumerate_automorphisms(G, None, limit)


def _enumerate_automorphisms(
    G: Graph, max_vertices: Optional[int], max_order: int
) -> Optional[AutGroup]:
    """The whole group in the documented order, or None once it is known to
    have more than max_order elements."""
    n = G.n
    cap = vertex_cap(max_vertices, DEFAULT_VERTEX_CAP)
    if n > cap:
        raise ResourceCapError(
            f"automorphism search refused: order {n} exceeds cap {cap} "
            "(set SYMBREAK_MAX_VERTICES to override)"
        )
    s = _search_setup(G, [0] * n)
    found = _automorphisms(s, 0, n, max_order)
    if found is None:
        return None
    if s.order != s.cell_order:
        # The search emits elements in lexicographic order of their images
        # along `order`; restore the documented order along `cell_order`.
        found.sort(key=_element_key(s.cell_order))
    return AutGroup(n=n, elements=tuple(found))


def _smallest_support_automorphisms(G: Graph) -> tuple[Permutation, ...]:
    """The _PRUNE_SET_SIZE non-identity automorphisms of least support (by
    support, then in the documented element order), or all of them when
    there are fewer.  A group of at most _PRUNE_GROUP_CAP elements is listed
    and they are picked from the list; of a larger group, never listed, they
    come from a search.  So the list is shorter than _PRUNE_SET_SIZE only
    when it is the whole group.  Cached per graph for a larger group."""
    if _small_group(G) is not None:
        # The same cached object, taken through the public lookup whose
        # calls perfbench's per-layer trace counts.
        group = automorphism_group(G)
        return tuple(heapq.nsmallest(  # stable: ties keep the element order
            _PRUNE_SET_SIZE, group.nonidentity(),
            key=lambda p: sum(pi != i for i, pi in enumerate(p)),
        ))
    return _least_support(G)


@lru_cache(maxsize=32)
def _least_support(G: Graph) -> tuple[Permutation, ...]:
    # One search per support size, each cutting every branch that moves
    # more vertices.  No automorphism moves exactly one vertex.
    s = _search_setup(G, [0] * G.n)
    key = _element_key(s.cell_order)
    out: list[Permutation] = []
    for support in range(2, G.n + 1):
        if len(out) >= _PRUNE_SET_SIZE:
            break
        out.extend(sorted(_automorphisms(s, support, support, math.inf), key=key))
    return tuple(out[:_PRUNE_SET_SIZE])


def _has_nontrivial_automorphism(G: Graph, colors: Sequence[int]) -> bool:
    """Does an automorphism other than the identity keep every vertex color?
    The refinement starts from the colors, and the search stops at the first
    such automorphism."""
    return _automorphisms(_search_setup(G, list(colors)), 1, G.n, 0) is None


# ---------------------------------------------------------------------------
# The backtracking search behind all of the above
# ---------------------------------------------------------------------------

class _Setup(NamedTuple):
    cell_order: list[int]  # fixes the element order
    order: list[int]  # the order vertices are placed in
    cands: list[list[int]]  # per depth: the candidate cell of order[d]
    prior_nbrs: list[list[int]]  # per depth: the already-placed neighbours of order[d]
    masks: list[int]


class _Overflow(Exception):
    pass


def _search_setup(G: Graph, colors: list[int]) -> _Setup:
    """Refine the colors and lay the search out over the refined cells."""
    n = G.n
    colors = _refine_colors(G, colors)
    members: dict[int, list[int]] = {}
    for v in range(n):
        members.setdefault(colors[v], []).append(v)
    cell_order = sorted(range(n), key=lambda v: (len(members[colors[v]]), colors[v], v))
    masks = _adjacency_masks(G)
    forced = sum(len(cell) == 1 for cell in members.values())
    order = _placement_order(cell_order, forced, masks)
    cands = [members[colors[v]] for v in order]
    depth = [0] * n
    for d, v in enumerate(order):
        depth[v] = d
    prior_nbrs: list[list[int]] = [[] for _ in range(n)]
    for d, v in enumerate(order):
        for u in G.adj[v]:
            if depth[u] > d:
                prior_nbrs[depth[u]].append(v)
    return _Setup(cell_order, order, cands, prior_nbrs, masks)


def _automorphisms(
    s: _Setup, lo: int, hi: int, limit: float
) -> Optional[list[Permutation]]:
    """The automorphisms that keep every refined cell and move at least lo
    and at most hi vertices, in lexicographic order of their images along
    s.order; None as soon as more than `limit` are found.  A branch is cut
    as soon as it must move more than hi vertices."""
    order, cands, prior_nbrs, masks = s.order, s.cands, s.prior_nbrs, s.masks
    n = len(order)
    image = [-1] * n
    used = [False] * n
    found: list[Permutation] = []

    def rec(d: int, used_mask: int, moved: int) -> None:
        if d == n:
            if moved >= lo:
                found.append(tuple(image))
                if len(found) > limit:
                    raise _Overflow
            return
        want = 0
        for u in prior_nbrs[d]:
            want |= 1 << image[u]
        v = order[d]
        for w in cands[d]:
            if used[w] or masks[w] & used_mask != want:
                continue
            # moved counts the vertices no completion can fix: each x with
            # image[x] != x, and each such image (its preimage is not itself).
            m = moved if w == v else moved + (not used[v]) + (image[w] < 0)
            if m > hi:
                continue
            image[v] = w
            used[w] = True
            rec(d + 1, used_mask | (1 << w), m)
            used[w] = False
        image[v] = -1

    try:
        rec(0, 0, 0)
    except _Overflow:
        return None
    return found


def _element_key(cell_order: list[int]) -> Callable[[Permutation], object]:
    """Sort key of the documented element order.  Byte keys keep the sort's
    memory small for the factorial groups."""
    if len(cell_order) <= 256:
        return lambda p: bytes([p[v] for v in cell_order])
    return lambda p: [p[v] for v in cell_order]


def _placement_order(cell_order: list[int], forced: int, masks: list[int]) -> list[int]:
    """The first `forced` vertices of cell_order (the singleton cells, whose
    images are forced), then repeatedly the unplaced vertex with the most
    placed neighbours, ties broken by position in cell_order.  Placing
    vertices next to placed ones lets the adjacency check cut a dead branch
    at once instead of several levels deeper."""
    order = cell_order[:forced]
    rest = cell_order[forced:]
    placed = 0
    for v in order:
        placed |= 1 << v
    while rest:
        best, best_count = 0, -1
        for i, v in enumerate(rest):
            count = (masks[v] & placed).bit_count()
            if count > best_count:
                best, best_count = i, count
        v = rest.pop(best)
        order.append(v)
        placed |= 1 << v
    return order


# ---------------------------------------------------------------------------
# Canonical labeling (individualization-refinement, minimum adjacency code)
# ---------------------------------------------------------------------------

def _individualize(G: Graph, colors: list[int], v: int) -> list[int]:
    """Give v a color of its own, just below the rest of its cell, and
    refine.  colors must be refined already (an output of _refine_colors),
    so only the cells next to v can split first."""
    cells: list[list[int]] = [[] for _ in range(max(colors) + 1)]
    for u, color in enumerate(colors):
        cells[color].append(u)
    c = colors[v]
    if len(cells[c]) == 1:
        return colors
    cells[c : c + 1] = [[v], [u for u in cells[c] if u != v]]
    return _refine_cells(G.adj, cells, [v])


def _code_for(G: Graph, colors: list[int]) -> tuple[int, Permutation]:
    """The adjacency code of the graph relabelled by discrete colors
    (colors[v] is v's new index): bit j(j-1)/2 + i of the upper triangle,
    taken column by column and most significant first, is set when the
    vertices at i < j are adjacent."""
    total = G.n * (G.n - 1) // 2
    acc = 0
    for u, v in G.edges:
        i, j = colors[u], colors[v]
        if i > j:
            i, j = j, i
        acc |= 1 << (total - 1 - j * (j - 1) // 2 - i)
    return acc, tuple(colors)


def canonical_labeling(G: Graph) -> tuple[Permutation, int]:
    """A relabeling p (old index -> new index) minimizing the adjacency code.

    Isomorphic graphs yield equal codes; the code plus the order determines
    the graph, so code equality decides isomorphism.  Automorphisms found
    along the way prune equivalent branches.
    """
    base = _refine_colors(G, [0] * G.n)
    best: dict = {"code": None, "perm": None}
    autos: list[Permutation] = []

    def rec(colors: list[int], path: tuple[int, ...]) -> None:
        cells: dict[int, list[int]] = {}
        for v in range(G.n):
            cells.setdefault(colors[v], []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            code, perm = _code_for(G, colors)
            if best["code"] is None or code < best["code"]:
                best["code"], best["perm"] = code, perm
            elif code == best["code"]:
                # Two orderings onto the same code compose to an automorphism.
                autos.append(compose(invert(perm), best["perm"]))
            return
        explored: list[int] = []
        for v in sorted(target):
            skip = False
            for a in autos:
                if all(a[x] == x for x in path) and any(a[w] == v for w in explored):
                    skip = True
                    break
            if skip:
                continue
            explored.append(v)
            rec(_individualize(G, colors, v), path + (v,))

    rec(base, ())
    return best["perm"], best["code"]


def canonical_form(G: Graph) -> str:
    """graph6 string of the canonically relabelled graph; a dedup key."""
    perm, _ = canonical_labeling(G)
    return to_graph6(permute_graph(G, perm))


def is_isomorphic(G: Graph, H: Graph) -> Optional[Permutation]:
    """A vertex bijection mapping E(G) onto E(H), or None."""
    if G.n != H.n or G.num_edges != H.num_edges:
        return None
    if G.degree_sequence() != H.degree_sequence():
        return None
    pG, codeG = canonical_labeling(G)
    pH, codeH = canonical_labeling(H)
    if codeG != codeH:
        return None
    witness = compose(invert(pH), pG)
    for u, v in G.edges:
        if not H.has_edge(witness[u], witness[v]):
            raise AssertionError("canonical labeling produced an invalid witness")
    return witness


# ---------------------------------------------------------------------------
# Group actions and lifts
# ---------------------------------------------------------------------------

def edge_action(p: Permutation, G: Graph) -> dict[Edge, Edge]:
    """Induced action on E(G): {x,y} -> {p(x),p(y)}."""
    return {e: G.edges[k] for e, k in zip(G.edges, edge_index_action(p, G))}


def edge_index_action(p: Permutation, G: Graph) -> Permutation:
    """Same action expressed on edge indices into G.edges."""
    n = G.n
    return tuple(k - n for k in lift_to_subdivision(p, G)[n:])


def lift_to_endline(alpha: Permutation, G: Graph) -> Permutation:
    """Extend an automorphism of G to its endline graph: pendants follow
    their attachment vertices.  Indices match transforms.endline_graph."""
    if not is_automorphism(G, alpha):
        raise ContractError("permutation is not an automorphism of the graph")
    n = G.n
    return tuple(alpha) + tuple(n + alpha[i] for i in range(n))


def lift_to_subdivision(alpha: Permutation, G: Graph) -> Permutation:
    """Extend an automorphism of G to its subdivision graph: the edge vertex
    of {x,y} goes to the edge vertex of {alpha(x),alpha(y)}."""
    if not is_automorphism(G, alpha):
        raise ContractError("permutation is not an automorphism of the graph")
    return _subdivision_lifts(G, (alpha,))[0]


def _subdivision_lifts(G: Graph, elements: Iterable[Permutation]) -> list[Permutation]:
    """lift_to_subdivision of each of the given automorphisms, unchecked, in
    order; the edge vertex of G.edges[k] is n + k, as in S(G)."""
    n = G.n
    rank = {e: n + k for k, e in enumerate(G.edges)}
    out = []
    for p in elements:
        img = list(p)
        for u, v in G.edges:
            a, b = p[u], p[v]
            img.append(rank[(a, b) if a < b else (b, a)])
        out.append(tuple(img))
    return out


def preserves(p: Permutation, c) -> bool:
    """Does p map every vertex/edge to one of the same color?"""
    if isinstance(c, VertexColoring):
        if len(p) != len(c.colors):
            raise ContractError("coloring domain does not match the permutation")
        cols = c.colors
        return all(cols[p[i]] == cols[i] for i in range(len(p)))
    if isinstance(c, EdgeColoring):
        pos = c._position
        cols = c.colors
        for k, (u, v) in enumerate(c.edges):
            a, b = p[u], p[v]
            img = (a, b) if a < b else (b, a)
            if img not in pos:
                raise ContractError("permutation does not act on the coloring domain")
            if cols[pos[img]] != cols[k]:
                return False
        return True
    if isinstance(c, TotalColoring):
        return preserves(p, c.vertex_part) and preserves(p, c.edge_part)
    raise ContractError(f"unsupported coloring type {type(c).__name__}")


def stabilizer(A: AutGroup, c) -> AutGroup:
    """Subgroup of A preserving the coloring.  Trivial iff c is distinguishing."""
    kept = tuple(p for p in A.elements if preserves(p, c))
    return AutGroup(n=A.n, elements=kept)
