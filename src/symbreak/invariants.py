"""Exact computation of the six symmetry-breaking invariants with witnesses.

chi   -- chromatic number (proper vertex colorings)
D     -- distinguishing number (vertex colorings with trivial stabilizer)
chiD  -- distinguishing chromatic number (proper + distinguishing)
Dp    -- distinguishing index (edge colorings)
chiDp -- distinguishing chromatic index (proper + distinguishing edge colorings)
Dpp   -- total distinguishing number (vertex+edge colorings, properness not required)

All six share one shape: the least palette for a coloring of some positions
(vertices, edges, or both) that is optionally proper and that only the
identity preserves.  One table, ``_KINDS``, gives each kind its position
count, whether an edge is required, its conflict pairs (the properness
constraints), its certified lower bound, the action of Aut(G) on its
positions (none for chi, the one kind that need not distinguish) and its
witness builder, which also turns a leaf into the coloring that
_kept_by_nonidentity checks.  One driver, ``_invariant``, reads top to
bottom: it checks the input, looks up the memo of certified values, refuses
a count of positions past the certification cap before any bound or group
search, builds the lower bound and the prune set, runs the palette loop and
builds the witness.  The six public functions are one-line wrappers around
it.

One backtracking engine serves all six.  Color vectors are enumerated in
position order with a first-fit palette restriction, and three cuts remove
subtrees:

* forward checking with singleton propagation: each position keeps the set
  of colors blocked at it, coloring a position blocks its color at its later
  conflict partners, a position left with one color blocks that color at all
  its uncolored partners (cascading), and a prefix is cut as soon as some
  position has none of the r colors left.  Only colors that no proper
  completion of the prefix can give a position are blocked;
* the orbit prune: a prefix is cut as soon as some group element provably
  maps every completion to a lexicographically smaller vector, whose
  first-fit renumbering is a smaller vector still and valid alike;
* the stabilizer cut, for the distinguishing kinds: a prefix is cut as soon
  as some non-identity group element keeps the colors of every position it
  moves, since it then keeps every completion.

Both group cuts use only a prune set of group elements, each compared on
its support alone: any subset of the group keeps them sound.  A group of at
most 65 elements prunes with all of its non-identity elements; a larger
group is never listed, and its prune set is the coset representatives of
its stabilizer chain, which generate it.  chi uses the orbit prune alone,
and asks for the group only once an unpruned palette search has used
_PRUNE_AFTER_NODES nodes (never past the automorphism caps); that palette
is then searched again with the prune.
Validity (proper / distinguishing) is constant on orbits and under
renaming colors.  So propagation and the stabilizer cut remove only
subtrees without a valid leaf, and the orbit prune only subtrees whose
valid leaves all have a smaller valid vector: the first accepted leaf is
the lexicographically least valid vector, the same with or without any
cut, and exhausting the tree certifies that no valid vector exists at that
palette size.  The stabilizer cut leaves no leaf that an element of the
prune set preserves.  So a leaf is checked, by _kept_by_nonidentity, only
when the prune set is not the whole group, as is_distinguishing checks one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

from .colorings import EdgeColoring, TotalColoring, VertexColoring
from .errors import (
    ContractError,
    DegenerateCaseError,
    MalformedInputError,
    ResourceCapError,
)
from .graph_core import Graph, incident_edge_pairs, is_connected, to_graph6
from .symmetry import (
    Permutation,
    _adjacency_masks,
    _chain,
    _has_nontrivial_automorphism,
    _prune_set,
    _subdivision_lifts,
    preserves,
    vertex_cap,
)
from .transforms import subdivision_graph

DEFAULT_CERTIFY_CAP = 30
_WITNESS_ONLY_NODE_BUDGET = 200_000
# A chi search asks for its prune group only after an unpruned palette search
# has used this many nodes; most finish first-fit, well within it.
_PRUNE_AFTER_NODES = 1_000


@dataclass(frozen=True)
class InvariantValue:
    """An exact invariant value, its witness coloring, and whether the value
    was certified by exhausting every smaller palette."""

    kind: str
    value: int
    witness: object
    certified: bool


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

def is_proper(G: Graph, c) -> bool:
    """Vertex case: no edge monochromatic.  Edge case: no two edges sharing
    an endpoint monochromatic.  The coloring domain must match G exactly."""
    if not isinstance(c, (VertexColoring, EdgeColoring)):
        raise ContractError(f"is_proper expects a vertex or edge coloring, got {type(c).__name__}")
    _check_domain(G, c)
    if isinstance(c, VertexColoring):
        return all(c.colors[u] != c.colors[v] for u, v in G.edges)
    pos = c._position
    for v in range(G.n):
        seen = set()
        for w in G.adj[v]:
            col = c.colors[pos[(v, w) if v < w else (w, v)]]
            if col in seen:
                return False
            seen.add(col)
    return True


def is_distinguishing(G: Graph, c) -> bool:
    """True iff only the identity preserves the coloring (both parts of a
    total one).  Decided as a search leaf is: by G's prune set, then, unless
    it is the whole group but the identity, by _kept_by_nonidentity."""
    _check_domain(G, c)
    elements = _prune_set(G)
    if any(preserves(p, c) for p in elements):
        return False
    return len(elements) == _chain(G).order - 1 or not _kept_by_nonidentity(G, c)


def _kept_by_nonidentity(G: Graph, c) -> bool:
    """Does an automorphism of G other than the identity keep the coloring?
    Searched on G for a vertex coloring.  An edge or total coloring is a
    vertex coloring of S(G) (Theorem 3.3's view): original vertices get 0 or
    their vertex color, edge vertices their edge color negated, so the two
    never share a color and S(G)'s automorphisms that keep it are G's,
    lifted.  An edgeless G has no S(G): its vertex part decides."""
    if isinstance(c, VertexColoring):
        return _has_nontrivial_automorphism(G, c.colors)
    total = isinstance(c, TotalColoring)
    head = c.vertex_part.colors if total else (0,) * G.n
    if not G.edges:
        return _has_nontrivial_automorphism(G, head)
    tail = [-x for x in (c.edge_part if total else c).colors]
    return _has_nontrivial_automorphism(subdivision_graph(G), [*head, *tail])


def _check_domain(G: Graph, c) -> None:
    if isinstance(c, VertexColoring):
        if len(c.colors) != G.n:
            raise ContractError("vertex coloring domain does not match the graph")
    elif isinstance(c, EdgeColoring):
        if c.edges != G.edges:
            raise ContractError("edge coloring domain does not match E(G)")
    elif isinstance(c, TotalColoring):
        _check_domain(G, c.vertex_part)
        _check_domain(G, c.edge_part)
    else:
        raise ContractError(f"unsupported coloring type {type(c).__name__}")


# ---------------------------------------------------------------------------
# Exact max clique (lower bound for the proper searches)
# ---------------------------------------------------------------------------

def _max_clique_size(n: int, pairs: Sequence[tuple[int, int]]) -> int:
    """Clique number of the graph on ``0..n-1`` with the given edge pairs."""
    masks = _adjacency_masks(n, pairs)
    best = 0

    def expand(cand: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        while cand:
            if size + cand.bit_count() <= best:
                return
            v = (cand & -cand).bit_length() - 1
            cand ^= 1 << v
            expand(cand & masks[v], size + 1)

    # expand refers to itself through its closure cell, a reference cycle
    # that only the collector would free; clearing the cell frees it now.
    try:
        expand((1 << n) - 1, 0)
    finally:
        expand = None
    return best


# ---------------------------------------------------------------------------
# The search engine
# ---------------------------------------------------------------------------

class _BudgetExceeded(Exception):
    pass


def _search_palette(
    npos: int,
    later: Sequence[Sequence[int]],
    perms: Sequence[Permutation],
    r: int,
    node_budget: Optional[int] = None,
    nontrivial: Optional[Callable[[list[int]], bool]] = None,
    distinguishing: bool = True,
) -> Optional[tuple[int, ...]]:
    """First-fit lexicographic DFS for a valid coloring with <= r colors:
    no conflict pair monochromatic, and, when ``distinguishing``, no
    non-identity group element preserving it.  Every element of ``perms``,
    which must not hold the identity, drives the orbit prune, walking only
    its support, and, when ``distinguishing``, the stabilizer cut: a prefix
    is cut as soon as one of them keeps the colors of its whole support,
    since it then keeps every completion.  So no element of ``perms``
    preserves a leaf the search reaches.  Without ``distinguishing`` (chi)
    such an element is set aside instead: ``perms`` only prunes.  When
    ``perms`` is only part of the group, ``nontrivial(colors)`` decides
    whether the rest of it has an element preserving a leaf.

    ``later[k]`` lists the conflict partners of position k that come after
    it, and ``earlier[j]``, built from it, those that come before j, in
    increasing order.  Coloring k blocks its color at the partners in
    ``later[k]`` (forward checking, Haralick & Elliott, AIJ 1980).  A
    position left with a single free color is a singleton: that color is
    blocked at each of its uncolored partners, before and after it, and the
    blocking cascades.  A branch that leaves some position with no free
    color is cut before the orbit prune runs.  Only colors that no proper
    completion of the prefix can give a position are blocked, so no valid
    vector is lost.  Kinds without conflict pairs do no such bookkeeping.

    Returns the lexicographically least valid color vector, or None when the
    (soundly pruned) tree is exhausted without finding one.
    """
    colors = [0] * npos
    # supports[qi]: the positions permutation qi moves, in increasing
    # order.  Its image vector can first differ from the vector only at one
    # of them, and tptr[qi] indexes the next one to compare.
    supports = [[t for t, j in enumerate(q) if t != j] for q in perms]
    tptr = [0] * len(perms)
    # buckets[k]: the permutations whose next comparison waits on
    # position k.  A wake at position k reads buckets[k] and appends only to
    # later buckets, and deeper wakes are undone first, so each permutation
    # it moved is still last in its new bucket when it is undone.
    buckets: list[list[int]] = [[] for _ in range(npos)]
    for qi, q in enumerate(perms):
        buckets[q[supports[qi][0]]].append(qi)  # q moves its least moved point up
    nodes = 0

    def wake(k: int):
        """Advance every permutation waiting on position k.

        Returns (pruned, moves).  The scan stops with pruned True at the
        first permutation that either maps the prefix to a smaller vector
        (the orbit cut) or, when ``distinguishing``, keeps every pair of its
        support equal (the stabilizer cut: no permutation is the identity,
        and one that keeps its support keeps every completion, so none
        distinguishes).  moves holds (qi, old pointer, new bucket) for
        each permutation moved on.  One that maps the prefix to a larger
        vector, or keeps it whole, can no longer cut, and stays out of the
        buckets until undo.
        """
        moves = []
        for qi in buckets[k]:
            q = perms[qi]
            sup = supports[qi]
            i = tptr[qi]
            while i < len(sup):
                t = sup[i]
                j = q[t]
                w = t if t > j else j
                if w > k:
                    buckets[w].append(qi)
                    moves.append((qi, tptr[qi], w))
                    tptr[qi] = i
                    break
                a = colors[t]
                b = colors[j]
                if b < a:
                    return True, moves
                if b > a:
                    break
                i += 1
            else:  # its whole support is kept
                if distinguishing:  # the stabilizer cut
                    return True, moves
        return False, moves

    def undo(moves) -> None:
        for qi, t0, pos in reversed(moves):
            tptr[qi] = t0
            buckets[pos].pop()

    # Forward checking and singleton propagation: bit c of used[j] is set
    # when color c is blocked at j; j has no color left when used[j] == full,
    # and one when full ^ used[j] is a single bit.  Every change to used is
    # recorded on one trail as (position, old mask), and a node undoes it by
    # restoring the trail back to the mark it took.
    used = [0] * npos
    full = (1 << (r + 1)) - 2
    trail: list[tuple[int, int]] = []
    singles: list[int] = []  # singletons whose color is not yet blocked at their partners
    earlier: list[list[int]] = [[] for _ in range(npos)]
    for a in range(npos):
        for b in later[a]:
            earlier[b].append(a)

    def propagate(k: int) -> bool:
        """Block the last color of every queued singleton at its uncolored
        partners (those after k), queueing each new singleton in turn.
        Returns True as soon as some position has no color left."""
        while singles:
            j = singles.pop()
            bit = full ^ used[j]
            for side in (later[j], reversed(earlier[j])):
                for i in side:
                    if i <= k:  # only in earlier[j], whose rest is colored too
                        break
                    m = used[i]
                    if not m & bit:
                        trail.append((i, m))
                        m |= bit
                        used[i] = m
                        f = full ^ m
                        if not f & (f - 1):
                            if not f:
                                singles.clear()
                                return True
                            singles.append(i)
        return False

    def restore(mark: int) -> None:
        for _ in range(len(trail) - mark):
            j, m = trail.pop()
            used[j] = m

    def rec(k: int, maxc: int) -> Optional[tuple[int, ...]]:
        nonlocal nodes
        limit = maxc + 1 if maxc < r else r
        uk = used[k]
        lk = later[k]
        waiting = buckets[k]  # an empty bucket wakes nothing, so no wake is called
        last = k == npos - 1
        for v in range(1, limit + 1):
            bit = 1 << v
            if uk & bit:
                continue
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                raise _BudgetExceeded
            colors[k] = v
            if lk:
                mark = len(trail)
                wiped = False
                for j in lk:
                    m = used[j]
                    if not m & bit:
                        trail.append((j, m))
                        m |= bit
                        used[j] = m
                        f = full ^ m
                        if not f & (f - 1):  # at most one color left at j
                            if not f:
                                singles.clear()
                                wiped = True
                                break
                            singles.append(j)
                if wiped or (singles and propagate(k)):  # some position has no color left
                    restore(mark)
                    continue
            pruned, moves = wake(k) if waiting else (False, ())
            if not pruned:  # a vector found ends the search: nothing is undone
                if last:
                    if nontrivial is None or not nontrivial(colors):
                        return tuple(colors)
                else:
                    found = rec(k + 1, v if v > maxc else maxc)
                    if found is not None:
                        return found
            if moves:
                undo(moves)
            if lk:
                restore(mark)
        colors[k] = 0
        return None

    # rec refers to itself through its closure cell, so the colours, trail
    # and buckets would stay in a reference cycle until the collector ran;
    # clearing the cell lets reference counting free them at return, also
    # when the budget is exceeded.
    try:
        return rec(0, 0)
    finally:
        rec = None


# ---------------------------------------------------------------------------
# Group actions on positions
# ---------------------------------------------------------------------------

def _vertex_action(G: Graph, perms: Sequence[Permutation]) -> Sequence[Permutation]:
    return perms


def _edge_action(G: Graph, perms: Sequence[Permutation]) -> list[Permutation]:
    # Of the connected graphs only K2 has a nontrivial automorphism fixing
    # every edge, so only there is the action not faithful.
    n = G.n
    if n == 2:
        raise DegenerateCaseError(
            "no distinguishing edge coloring exists: a nontrivial automorphism "
            "fixes every edge (single-edge degeneracy)"
        )
    return [tuple(k - n for k in lifted[n:]) for lifted in _subdivision_lifts(G, perms)]


def _late_vertex_prune(G: Graph) -> Sequence[Permutation]:
    """G's prune set (symmetry._prune_set) for the orbit prune alone, or
    none where the automorphism caps refuse G."""
    try:
        return _prune_set(G)
    except (ResourceCapError, MalformedInputError):
        return ()


# ---------------------------------------------------------------------------
# The six invariants as one table
# ---------------------------------------------------------------------------

# Lower bounds: exact, except in witness-only mode, whose values are uncertified.

def _no_bound(*_) -> int:
    return 1


def _clique_bound(G, npos, pairs, witness_only, cap) -> int:
    return _max_clique_size(npos, pairs)


def _chromatic_bound(G, npos, pairs, witness_only, cap) -> int:
    # By module-level name, so that a rebinding of chromatic_number is seen.
    return chromatic_number(G, witness_only=witness_only, max_positions=cap).value


def _total_witness(G: Graph, vec: tuple[int, ...], r: int) -> TotalColoring:
    return TotalColoring(VertexColoring(vec[: G.n], r), EdgeColoring(G.edges, vec[G.n :], r))


class _Kind(NamedTuple):
    """One invariant: the least palette r admitting a coloring of the
    positions that gives no conflict pair one color (properness) and, when a
    group action is given, is preserved by no non-identity automorphism.
    Without one (chi) the vertex automorphisms of G serve the orbit prune
    alone, once the search is hard."""

    name: str  # the public function, for error messages
    positions: Callable[[Graph], int]
    needs_edge: bool
    conflicts: Callable[[Graph], Sequence[tuple[int, int]]]
    lower: Callable[..., int]  # (G, npos, pairs, witness_only, cap)
    # (G, automorphisms of G) -> the same elements as position permutations
    group: Optional[Callable[[Graph, Sequence[Permutation]], Sequence[Permutation]]]
    witness: Callable[[Graph, tuple[int, ...], int], object]  # (G, vec, palette)

    def decider(self, G: Graph) -> Callable[[list[int]], bool]:
        """Does a non-identity automorphism of G keep these position colors?"""
        return lambda colors: _kept_by_nonidentity(G, self.witness(G, tuple(colors), max(colors)))


_KINDS: dict[str, _Kind] = {
    "chi": _Kind(
        "chromatic_number", lambda G: G.n, False, lambda G: G.edges, _clique_bound,
        None, lambda G, vec, r: VertexColoring(vec, r),
    ),
    "D": _Kind(
        "distinguishing_number", lambda G: G.n, False, lambda G: (), _no_bound,
        _vertex_action, lambda G, vec, r: VertexColoring(vec, r),
    ),
    "chiD": _Kind(
        "distinguishing_chromatic_number", lambda G: G.n, False, lambda G: G.edges,
        _chromatic_bound, _vertex_action, lambda G, vec, r: VertexColoring(vec, r),
    ),
    "Dp": _Kind(
        "distinguishing_index", lambda G: G.num_edges, True, lambda G: (), _no_bound,
        _edge_action, lambda G, vec, r: EdgeColoring(G.edges, vec, r),
    ),
    "chiDp": _Kind(
        "distinguishing_chromatic_index", lambda G: G.num_edges, True, incident_edge_pairs,
        _clique_bound, _edge_action, lambda G, vec, r: EdgeColoring(G.edges, vec, r),
    ),
    "Dpp": _Kind(
        "total_distinguishing_number", lambda G: G.n + G.num_edges, True, lambda G: (),
        _no_bound, _subdivision_lifts, _total_witness,
    ),
}

_MEMO: dict[tuple[str, str], InvariantValue] = {}


def clear_invariant_cache() -> None:
    _MEMO.clear()


def _invariant(
    kind: str, G: Graph, witness_only: bool, max_positions: Optional[int]
) -> InvariantValue:
    """The least palette with a valid vector, its witness, and whether the
    palette is certified.  chi searches each palette first without a prune;
    once that search has used _PRUNE_AFTER_NODES nodes, _late_vertex_prune
    gives the prune elements and the palette starts over, so an easy search
    never pays for a group."""
    spec = _KINDS[kind]
    cap = vertex_cap(max_positions, DEFAULT_CERTIFY_CAP)  # checked before the memo
    if not is_connected(G):
        raise ContractError(f"{spec.name} requires a connected graph")
    if spec.needs_edge and G.num_edges == 0:
        raise MalformedInputError(f"{spec.name} requires at least one edge")
    # Certified values only; past order 62 there is no graph6 key (caps refuse those).
    key = (to_graph6(G), kind) if not witness_only and G.n <= 62 else None
    if key is not None and (got := _MEMO.get(key)):
        return got
    npos = spec.positions(G)
    if npos > cap and not witness_only:  # before any bound or group search
        raise ResourceCapError(
            f"{kind}: {npos} positions exceeds the exhaustive-certification cap {cap} "
            "(set SYMBREAK_MAX_VERTICES or use witness_only)"
        )
    pairs = spec.conflicts(G)
    later: list[list[int]] = [[] for _ in range(npos)]
    for a, b in pairs:  # sorted, a < b, as G.edges and incident_edge_pairs are
        later[a].append(b)
    lower = spec.lower(G, npos, pairs, witness_only, cap)
    if spec.group is None:  # chi: a prune group only once the search is hard
        perms, nontrivial = None, None
    else:
        elements = _prune_set(G)
        perms = spec.group(G, elements)
        # The search reaches no leaf these elements keep.  Unless they are all
        # the group but the identity, the coloured search decides its leaves.
        nontrivial = None if len(elements) == _chain(G).order - 1 else spec.decider(G)
    budget = _WITNESS_ONLY_NODE_BUDGET if witness_only else None
    first = _PRUNE_AFTER_NODES if budget is None else min(budget, _PRUNE_AFTER_NODES)
    certified = not witness_only

    def search(r: int, prune: Sequence[Permutation], nodes: Optional[int]):
        return _search_palette(npos, later, prune, r, nodes, nontrivial, spec.group is not None)

    for r in range(max(1, lower), npos + 1):
        try:
            if perms is None:  # chi, until its late prune
                try:
                    vec = search(r, (), first)
                except _BudgetExceeded:
                    perms = _late_vertex_prune(G)
                    vec = search(r, perms, budget)
            else:
                vec = search(r, perms, budget)
        except _BudgetExceeded:
            certified = False
            continue
        if vec is not None:
            break
    else:
        # Only reached when the node budget ran out at every palette (an
        # exhaustive search always succeeds at npos).  All-distinct colors are
        # proper, and distinguishing because every group action is faithful.
        r, vec, certified = npos, tuple(range(1, npos + 1)), False
    out = InvariantValue(kind, r, spec.witness(G, vec, r), certified)
    if key is not None:
        _MEMO[key] = out
    return out


# ---------------------------------------------------------------------------
# Public invariant operations
# ---------------------------------------------------------------------------

def chromatic_number(
    G: Graph, *, witness_only: bool = False, max_positions: Optional[int] = None
) -> InvariantValue:
    """Minimal palette admitting a proper vertex coloring.

    The exact clique number provides a certified starting lower bound, so no
    search below it is needed."""
    return _invariant("chi", G, witness_only, max_positions)


def distinguishing_number(
    G: Graph, *, witness_only: bool = False, max_positions: Optional[int] = None
) -> InvariantValue:
    """Minimal palette admitting a vertex coloring with trivial stabilizer."""
    return _invariant("D", G, witness_only, max_positions)


def distinguishing_chromatic_number(
    G: Graph, *, witness_only: bool = False, max_positions: Optional[int] = None
) -> InvariantValue:
    """Minimal palette admitting a proper distinguishing vertex coloring."""
    return _invariant("chiD", G, witness_only, max_positions)


def distinguishing_index(
    G: Graph, *, witness_only: bool = False, max_positions: Optional[int] = None
) -> InvariantValue:
    """Minimal palette admitting a distinguishing edge coloring."""
    return _invariant("Dp", G, witness_only, max_positions)


def distinguishing_chromatic_index(
    G: Graph, *, witness_only: bool = False, max_positions: Optional[int] = None
) -> InvariantValue:
    """Minimal palette admitting a proper distinguishing edge coloring."""
    return _invariant("chiDp", G, witness_only, max_positions)


def total_distinguishing_number(
    G: Graph, *, witness_only: bool = False, max_positions: Optional[int] = None
) -> InvariantValue:
    """Minimal palette admitting a total (vertex+edge) coloring preserved only
    by the identity; properness is not required."""
    return _invariant("Dpp", G, witness_only, max_positions)


INVARIANT_FUNCTIONS = {
    "chi": chromatic_number,
    "D": distinguishing_number,
    "chiD": distinguishing_chromatic_number,
    "Dp": distinguishing_index,
    "chiDp": distinguishing_chromatic_index,
    "Dpp": total_distinguishing_number,
}
