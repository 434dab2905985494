"""Automorphism groups, isomorphism testing, canonical labeling, group actions.

Each graph's group is searched once, into a stabilizer chain cached per
graph (_chain) with its order, the product of the orbit lengths: an
AutGroup, which lists its elements only when asked.  automorphism_group
checks both caps on every call, the order cap against that order, and
returns that cached group.  The invariant searches prune with _prune_set:
all of a group of at most _PRUNE_SET_SIZE + 1 elements but the identity, or
the chain's coset representatives of a larger one, which is never listed.
A coloring none of them preserves is decided, when the group holds more, by
a search whose refinement starts from the coloring.  Every search backtracks
over an iterated degree/neighborhood refinement and validates adjacency
incrementally, so its leaves are exactly the automorphisms.  It fixes the
vertices of singleton cells, then always places the unplaced vertex with the
most placed neighbours, so a wrong choice soon fails the adjacency check; a
vertex's candidates are a bitmask of its cell ANDed with the neighbourhoods
of its placed neighbours' images.  The chain search walks the identity path,
and each branch off it stops at its first leaf, a coset representative.

A partition is an ordered list of cells, each holding its vertices in
increasing order, and a vertex's color is the position of its cell.  The
refinement (_refine) iterates (color, multiset of neighbor colors) to a
fixpoint; the colors of a round are the ranks of those keys, so they do not
depend on vertex labels.  It recomputes a round's keys only in the cells
next to a cell that split in the round before, as no other cell can split.
A split cell's parts, ordered by key, take its place in the list.  The keys
compare color first, so the rank of a key is the number of parts of
lower-colored cells plus its rank within its own cell: that position.  The
cells are thus those of recomputing every key every round.  Individualizing
a vertex splits its cell in place and refines from there, and a
canonical-labelling leaf's adjacency code (graph_core.adjacency_code, the
graph6 bits) is set from the edge list.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .colorings import EdgeColoring, TotalColoring, VertexColoring
from .errors import ContractError, MalformedInputError, ResourceCapError
from .graph_core import Edge, Graph, adjacency_code, from_edge_list, graph6_line

Permutation = tuple[int, ...]

DEFAULT_VERTEX_CAP = 40
DEFAULT_ORDER_CAP = 10_000_000


def vertex_cap(explicit: Optional[int], default: int) -> int:
    """The explicit cap if given, else SYMBREAK_MAX_VERTICES, else default.

    Raises MalformedInputError if the explicit cap is not a positive int
    (bool excluded), or the variable is set to anything but a positive
    integer.
    """
    if explicit is not None:
        if type(explicit) is not int or explicit < 1:
            raise MalformedInputError(f"the cap must be a positive int, got {explicit!r}")
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


def is_isomorphism(G: Graph, H: Graph, p: Permutation) -> bool:
    """Whether p, a bijection of range(n), maps E(G) onto E(H)."""
    if G.n != H.n or G.num_edges != H.num_edges:
        return False
    if len(p) != G.n or set(p) != set(range(G.n)):
        return False
    for u, v in G.edges:
        if not H.has_edge(p[u], p[v]):
            return False
    return True


def is_automorphism(G: Graph, p: Permutation) -> bool:
    return is_isomorphism(G, G, p)


def permute_graph(G: Graph, p: Permutation) -> Graph:
    """Relabel G so that old vertex v becomes p[v].  Labels travel along.
    Raises ContractError unless p is a permutation of range(G.n)."""
    if len(p) != G.n or set(p) != set(range(G.n)):
        raise ContractError("not a permutation of the graph's vertices")
    labels = [None] * G.n
    for v in range(G.n):
        labels[p[v]] = G.labels[v]
    return from_edge_list(G.n, [(p[u], p[v]) for u, v in G.edges], labels)


@dataclass(frozen=True, eq=False)
class AutGroup:
    """The full automorphism group of a graph, as a stabilizer chain along
    _Setup.order, from _automorphisms: `reps` pairs each depth d, as found,
    with a coset representative per vertex w != order[d] in the orbit of
    order[d] under the pointwise stabilizer of order[:d], so `order` is the
    product of one more than their numbers.  A stabilizer's chain is one
    level above the trivial group: depth 0 paired with every element but the
    identity (no level for a trivial one).  `free` is the cell order past the
    singleton cells.  `elements` lists the group on first request.

    Element order: sort the vertices by (size of their refined colour cell,
    cell colour, index); the elements come in lexicographic order of their
    images read in that vertex order.  The identity is always first.  The
    elements are built as products of coset representatives and then sorted
    into that order, so it does not depend on how they were found.
    """

    n: int
    free: tuple[int, ...]
    reps: tuple[tuple[int, tuple[Permutation, ...]], ...]
    order: int

    @cached_property
    def elements(self) -> tuple[Permutation, ...]:
        return _listing(self)

    def nonidentity(self) -> tuple[Permutation, ...]:
        return self.elements[1:]

    def generators(self) -> tuple[Permutation, ...]:
        """The coset representatives of every level, which generate the
        group; the group is not listed."""
        return tuple(g for _, gs in self.reps for g in gs)

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.elements)

    def __len__(self) -> int:
        return self.order


# ---------------------------------------------------------------------------
# Partition refinement
# ---------------------------------------------------------------------------

def _refine(G: Graph, colors: Sequence[int]) -> list[list[int]]:
    """Iterate (color, multiset of neighbor colors) to a fixpoint.

    Each round gives every vertex the rank of its key (color, sorted
    neighbor colors) among all keys, so the output is invariant under
    relabeling.  The input colors may be any integers; the output is the
    ordered list of cells, cell i holding the vertices of color i.
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
) -> list[list[int]]:
    """The cells _refine gives the ordered partition `cells` (cell i colored
    i), recomputing each round only the cells next to a vertex in
    `touched`.  That starts as every vertex, or as the parts that have just
    split off a cell of an equitable partition but the largest part of each
    (see _touched): a cell next to none of them cannot split.

    A cell is labelled by the position of its first vertex in the cells laid
    end to end.  A split keeps that label for its first part, and its parts,
    ordered by their sorted neighbor labels, take its place; so labels order
    cells as their colors do, and the final color of a cell is its rank.
    Each cell keeps its vertices in the order of `cells`.
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
    out = []
    start = 0
    while start < n:
        out.append(cell_at[start])
        start += len(cell_at[start])
    return out


def _adjacency_masks(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """Per vertex of range(n), the bitmask of its neighbours."""
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


# ---------------------------------------------------------------------------
# Automorphism group enumeration
# ---------------------------------------------------------------------------

# A group of at most one more element than this prunes the invariant searches
# with all of its non-identity elements, listed; a larger one, never listed,
# with its stabilizer chain's coset representatives.
_PRUNE_SET_SIZE = 64
# A listing of more elements than this is sorted by byte keys.
_BYTE_KEYS_PAST = 6000


def automorphism_group(
    G: Graph,
    *,
    max_vertices: Optional[int] = None,
    max_order: int = DEFAULT_ORDER_CAP,
) -> AutGroup:
    """The group of every adjacency-preserving bijection of G.

    Provenance labels are ignored: this is pure graph symmetry.  The group
    is G's cached stabilizer chain, which lists its elements only when
    asked; both caps are checked on every call, the order cap against the
    chain's order, so a cached group is refused past a lowered cap.  Raises
    ResourceCapError if the graph order or the group order exceeds its cap.
    """
    _check_vertex_cap(G, max_vertices)
    group = _chain(G)
    if group.order > max_order:
        raise ResourceCapError(f"automorphism group larger than cap {max_order}")
    return group


def _check_vertex_cap(G: Graph, max_vertices: Optional[int] = None) -> None:
    cap = vertex_cap(max_vertices, DEFAULT_VERTEX_CAP)
    if G.n > cap:
        raise ResourceCapError(
            f"automorphism search refused: order {G.n} exceeds cap {cap} "
            "(set SYMBREAK_MAX_VERTICES to override)"
        )


@lru_cache(maxsize=32)
def _chain(G: Graph) -> AutGroup:
    """G's stabilizer chain, from one search; the callers check the vertex cap."""
    s = _search_setup(G, [0] * G.n)
    found: dict[int, list[Permutation]] = {}
    _automorphisms(s, found)
    reps = tuple((d, tuple(gs)) for d, gs in found.items())
    order = math.prod(len(gs) + 1 for _, gs in reps)
    return AutGroup(G.n, tuple(s.cell_order[s.forced :]), reps, order)


def _listing(group: AutGroup) -> tuple[Permutation, ...]:
    """The whole group in the documented order, built bottom up: G_d is
    G_{d+1} followed by the coset g G_{d+1} of each representative g."""
    elements = [identity_permutation(group.n)]
    for _, gs in sorted(group.reps, reverse=True):
        below = elements[1:]  # G_{d+1} but the identity
        for g in gs:
            elements.append(g)
            elements += [tuple(map(g.__getitem__, h)) for h in below]
    if len(elements) > 2:  # else the identity is already first
        elements.sort(key=_element_key(group.free, len(elements)))
    return tuple(elements)


def _prune_set(G: Graph) -> tuple[Permutation, ...]:
    """The prune set of the invariant searches, non-identity automorphisms
    of G: all of them, in the documented element order, for a group of at
    most _PRUNE_SET_SIZE + 1 elements; else the coset representatives of its
    stabilizer chain, which generate it.  Refused past the vertex cap like
    automorphism_group, before the cache is read."""
    _check_vertex_cap(G)
    group = _chain(G)
    if group.order > _PRUNE_SET_SIZE + 1:  # never listed
        return group.generators()
    # Through the public lookup, whose calls perfbench's trace counts.
    return automorphism_group(G).nonidentity()


def _has_nontrivial_automorphism(G: Graph, colors: Sequence[int]) -> bool:
    """Does an automorphism other than the identity keep every vertex color?
    The refinement starts from the colors, and the search stops at the first
    such automorphism."""
    return _automorphisms(_search_setup(G, list(colors)))


# ---------------------------------------------------------------------------
# The backtracking search behind all of the above
# ---------------------------------------------------------------------------

class _Setup(NamedTuple):
    cell_order: list[int]  # fixes the element order
    forced: int  # the vertices of singleton cells, which every automorphism fixes
    order: list[int]  # the order vertices are placed in, those `forced` first
    cell_masks: list[int]  # per depth: the bitmask of the cell of order[d]
    prior_nbrs: list[list[int]]  # per depth: the already-placed neighbours of order[d]
    masks: list[int]


def _search_setup(G: Graph, colors: list[int]) -> _Setup:
    """Refine the colors and lay the search out over the refined cells."""
    n = G.n
    cells = _refine(G, colors)
    # A stable sort: cells of one size stay in color order, each in
    # increasing vertex order.
    cell_order = [v for cell in sorted(cells, key=len) for v in cell]
    forced = sum(len(cell) == 1 for cell in cells)
    if forced == n:  # discrete: every search starts at its only leaf
        return _Setup(cell_order, n, cell_order, [], [], [])
    masks = _adjacency_masks(n, G.edges)
    order = _placement_order(cell_order, forced, masks)
    cell_mask = [0] * n
    for cell in cells:
        bits = 0
        for v in cell:
            bits |= 1 << v
        for v in cell:
            cell_mask[v] = bits
    depth = [0] * n
    for d, v in enumerate(order):
        depth[v] = d
    prior_nbrs: list[list[int]] = [[] for _ in range(n)]
    for d, v in enumerate(order):
        for u in G.adj[v]:
            if depth[u] > d:
                prior_nbrs[depth[u]].append(v)
    return _Setup(cell_order, forced, order, [cell_mask[v] for v in order], prior_nbrs, masks)


def _automorphisms(s: _Setup, chain: Optional[dict[int, list[Permutation]]] = None) -> bool:
    """Does an automorphism other than the identity keep every refined cell?
    The search stops at the first one it finds.

    Given `chain`, a dict, each branch that leaves the identity path at
    depth d stops instead at its first automorphism, which goes to the list
    chain[d], and the search goes on with the next branch; it then returns
    False."""
    order, cell_masks, prior_nbrs, masks = s.order, s.cell_masks, s.prior_nbrs, s.masks
    n = len(order)
    image = list(range(n))  # only the entries of placed vertices are read
    used = 0
    for v in order[: s.forced]:
        used |= 1 << v

    def rec(d: int, used: int, off: bool) -> bool:
        # True at the first leaf off the identity path, with image holding it.
        if d == n:
            return off
        # The candidates: the unused vertices of v's cell next to the images
        # of all of v's placed neighbours, lowest first.
        v = order[d]
        pool = cell_masks[d] & ~used
        want = 0
        for u in prior_nbrs[d]:
            x = image[u]
            pool &= masks[x]
            want |= 1 << x
        while pool:
            low = pool & -pool
            pool ^= low
            w = low.bit_length() - 1
            if masks[w] & used != want:  # next to another placed image
                continue
            image[v] = w
            if rec(d + 1, used | low, off or w != v):
                if chain is None or off:
                    return True
                chain.setdefault(d, []).append(tuple(image))
        return False

    # rec's reference cycle is left for the collector on purpose: breaking
    # it stops nearly all full collections, and CPython 3.11 empties its
    # tuple free lists only in those, so peak RSS of the builtin-corpus
    # sweeps grew by 8-14%.
    return rec(s.forced, used, False)


def _element_key(free: tuple[int, ...], count: int) -> Optional[Callable[[Permutation], object]]:
    """Sort key of the documented element order for `count` elements of a
    nontrivial group, read over `free`, the vertices of non-singleton cells
    in cell order (every automorphism fixes the rest, and maps `free` onto
    itself).  None, the plain tuple order, when those come in increasing
    order.  Else tuple keys are the quickest to build; past _BYTE_KEYS_PAST
    elements byte keys keep the sort's memory small."""
    if list(free) == sorted(free):
        return None
    if count > _BYTE_KEYS_PAST and max(free) < 256:
        return lambda p: bytes([p[v] for v in free])
    return itemgetter(*free)


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

def _individualize(G: Graph, cells: list[list[int]], i: int, v: int) -> list[list[int]]:
    """Give v, a vertex of cells[i], a cell of its own just before the rest
    of its cell, and refine.  cells must be refined already (an output of
    _refine), so only the cells next to v can split first."""
    if len(cells[i]) == 1:
        return cells
    split = [[v], [u for u in cells[i] if u != v]]
    return _refine_cells(G.adj, cells[:i] + split + cells[i + 1 :], [v])


def canonical_labeling(G: Graph) -> tuple[Permutation, int]:
    """A relabeling p (old index -> new index) minimizing the adjacency code.

    Isomorphic graphs yield equal codes; the code plus the order determines
    the graph, so code equality decides isomorphism.  Automorphisms found
    along the way prune equivalent branches.
    """
    n = G.n
    best: dict = {"code": None, "perm": None}
    autos: list[Permutation] = []

    def rec(cells: list[list[int]], path: tuple[int, ...]) -> None:
        i = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
        if i is None:
            # A discrete partition: v's new index is the position of its cell.
            perm = invert([v for (v,) in cells])
            code = adjacency_code(n, [
                (perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u]) for u, v in G.edges
            ])
            if best["code"] is None or code < best["code"]:
                best["code"], best["perm"] = code, perm
            elif code == best["code"]:
                # Two orderings onto the same code compose to an automorphism.
                autos.append(compose(invert(perm), best["perm"]))
            return
        explored: list[int] = []
        for v in cells[i]:
            skip = False
            for a in autos:
                if all(a[x] == x for x in path) and any(a[w] == v for w in explored):
                    skip = True
                    break
            if skip:
                continue
            explored.append(v)
            rec(_individualize(G, cells, i, v), path + (v,))

    # rec refers to itself through its closure cell; clearing the cell lets
    # reference counting free the partitions and automorphisms at return.
    try:
        rec(_refine(G, [0] * n), ())
    finally:
        rec = None
    return best["perm"], best["code"]


def canonical_form(G: Graph) -> str:
    """graph6 string of the canonically relabelled graph; a dedup key."""
    _, code = canonical_labeling(G)
    return graph6_line(G.n, code)


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
    if not is_isomorphism(G, H, witness):
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
    """Does p map every vertex/edge to one of the same color?  ContractError
    unless p is a permutation of range(len(p)) acting on the domain."""
    if set(p) != set(range(len(p))):
        raise ContractError("not a permutation of range(len(p))")
    if isinstance(c, VertexColoring):
        if len(p) != len(c.colors):
            raise ContractError("coloring domain does not match the permutation")
        cols = c.colors
        return all(cols[p[i]] == cols[i] for i in range(len(p)))
    if isinstance(c, EdgeColoring):
        pos = c._position
        cols = c.colors
        try:
            for k, (u, v) in enumerate(c.edges):
                a, b = p[u], p[v]
                img = (a, b) if a < b else (b, a)
                if cols[pos[img]] != cols[k]:
                    return False
        except (IndexError, KeyError):
            raise ContractError("permutation does not act on the coloring domain") from None
        return True
    if isinstance(c, TotalColoring):
        return preserves(p, c.vertex_part) and preserves(p, c.edge_part)
    raise ContractError(f"unsupported coloring type {type(c).__name__}")


def stabilizer(A: AutGroup, c) -> AutGroup:
    """Subgroup of A preserving the coloring.  Trivial iff c is distinguishing.
    Every element is checked, the identity too: ContractError off the domain."""
    kept = tuple(p for p in A.elements if preserves(p, c))
    return AutGroup(A.n, A.free, ((0, kept[1:]),) if len(kept) > 1 else (), len(kept))
