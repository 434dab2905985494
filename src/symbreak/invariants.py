"""Exact computation of the six symmetry-breaking invariants with witnesses.

chi   -- chromatic number (proper vertex colorings)
D     -- distinguishing number (vertex colorings with trivial stabilizer)
chiD  -- distinguishing chromatic number (proper + distinguishing)
Dp    -- distinguishing index (edge colorings)
chiDp -- distinguishing chromatic index (proper + distinguishing edge colorings)
Dpp   -- total distinguishing number (vertex+edge colorings, properness not required)

One backtracking engine serves all six.  Color vectors are enumerated in
position order with a first-fit palette restriction, properness enforced as
prefix constraints, and a sound orbit prune: a prefix is cut as soon as some
group element provably maps the finished vector to a lexicographically
smaller one.  Because validity (proper / distinguishing) is constant on
orbits, the first accepted leaf is the lexicographically least valid vector,
and exhausting the tree certifies that no valid vector exists at that palette
size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .colorings import EdgeColoring, TotalColoring, VertexColoring
from .errors import (
    ContractError,
    DegenerateCaseError,
    MalformedInputError,
    ResourceCapError,
)
from .graph_core import Graph, is_connected, to_graph6
from .symmetry import (
    AutGroup,
    Permutation,
    automorphism_group,
    edge_index_action,
    identity_permutation,
    preserves,
    vertex_cap,
)

DEFAULT_CERTIFY_CAP = 30
_PRUNE_GROUP_CAP = 6000
_WITNESS_ONLY_NODE_BUDGET = 200_000


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
    if isinstance(c, VertexColoring):
        if len(c.colors) != G.n:
            raise ContractError("vertex coloring domain does not match the graph")
        return all(c.colors[u] != c.colors[v] for u, v in G.edges)
    if isinstance(c, EdgeColoring):
        if c.edges != G.edges:
            raise ContractError("edge coloring domain does not match E(G)")
        rank = {e: k for k, e in enumerate(G.edges)}
        for v in range(G.n):
            seen = set()
            for w in G.adj[v]:
                col = c.colors[rank[(v, w) if v < w else (w, v)]]
                if col in seen:
                    return False
                seen.add(col)
        return True
    raise ContractError(f"is_proper expects a vertex or edge coloring, got {type(c).__name__}")


def is_distinguishing(G: Graph, c, aut: Optional[AutGroup] = None) -> bool:
    """True iff only the identity automorphism preserves the coloring.
    Total colorings must be preserved in both parts simultaneously."""
    _check_domain(G, c)
    if aut is None:
        aut = automorphism_group(G)
    return all(not preserves(p, c) for p in aut.nonidentity())


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

def _max_clique_size(n: int, masks: Sequence[int]) -> int:
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

    expand((1 << n) - 1, 0)
    return best


# ---------------------------------------------------------------------------
# The search engine
# ---------------------------------------------------------------------------

class _BudgetExceeded(Exception):
    pass


def _select_prune_perms(nonid: Sequence[Permutation]) -> list[Permutation]:
    """Subset of group elements used for orbit pruning.

    Pruning is sound with any subset; using everything is best but large
    groups would dominate per-node cost, so beyond the cap we keep the
    elements of smallest support (they do most of the cutting).  Buckets
    keep enumeration order, so the selection is deterministic.
    """
    if len(nonid) <= _PRUNE_GROUP_CAP:
        return list(nonid)
    npos = len(nonid[0])
    buckets: list[list[Permutation]] = [[] for _ in range(npos + 1)]
    for p in nonid:
        support = 0
        for i, pi in enumerate(p):
            if pi != i:
                support += 1
        buckets[support].append(p)
    out: list[Permutation] = []
    for bucket in buckets:
        take = min(len(bucket), _PRUNE_GROUP_CAP - len(out))
        out.extend(bucket[:take])
        if len(out) == _PRUNE_GROUP_CAP:
            break
    return out


def _search_palette(
    npos: int,
    prior_conflicts: Sequence[Sequence[int]],
    nonid: Sequence[Permutation],
    prune: Sequence[Permutation],
    r: int,
    need_dist: bool,
    node_budget: Optional[int] = None,
) -> Optional[tuple[int, ...]]:
    """First-fit lexicographic DFS for a valid coloring with <= r colors.

    Returns the lexicographically least valid color vector, or None when the
    (soundly pruned) tree is exhausted without finding one.
    """
    colors = [0] * npos
    nprune = len(prune)
    tptr = [0] * nprune
    dead = [False] * nprune
    # Bucket entries are (qi, token); an entry is live only while its token
    # matches cur_tok[qi], so "removal" is just a token bump (lazy deletion).
    cur_tok = [0] * nprune
    buckets: list[list[tuple[int, int]]] = [[] for _ in range(npos)]
    for qi, q in enumerate(prune):
        buckets[q[0] if q[0] > 0 else 0].append((qi, 0))
    stab_order = list(range(len(nonid)))
    nodes = 0

    def wake(k: int):
        """Advance every prune permutation waiting on position k.

        Returns (pruned, journal, leftover); the journal undoes pointer moves
        and placements, leftover holds unprocessed entries after an early cut.
        """
        queue = buckets[k]
        buckets[k] = []
        journal = []
        idx = 0
        pruned = False
        qlen = len(queue)
        while idx < qlen:
            qi, tok = queue[idx]
            idx += 1
            if tok != cur_tok[qi]:
                continue  # stale entry left behind by an undo
            q = prune[qi]
            t0 = tptr[qi]
            t = t0
            was_dead = False
            while True:
                if t >= npos:
                    was_dead = True
                    break
                j = q[t]
                if t > k or j > k:
                    break
                a = colors[t]
                b = colors[j]
                if b < a:
                    pruned = True
                    break
                if b > a:
                    was_dead = True
                    break
                t += 1
            tptr[qi] = t
            journal.append((qi, t0, was_dead))
            if pruned:
                break
            if was_dead:
                dead[qi] = True
            else:
                pos = t if t > q[t] else q[t]
                cur_tok[qi] += 1
                buckets[pos].append((qi, cur_tok[qi]))
        leftover = queue[idx:] if pruned else ()
        return pruned, journal, leftover

    def undo(k: int, journal, leftover) -> None:
        for qi, t0, was_dead in journal:
            if was_dead:
                dead[qi] = False
            tptr[qi] = t0
            cur_tok[qi] += 1
            buckets[k].append((qi, cur_tok[qi]))
        if leftover:
            buckets[k].extend(leftover)

    def no_preserving_nonid() -> bool:
        cols = colors
        for oi in range(len(stab_order)):
            p = nonid[stab_order[oi]]
            for i in range(npos):
                if cols[p[i]] != cols[i]:
                    break
            else:
                if oi:
                    stab_order.insert(0, stab_order.pop(oi))
                return False
        return True

    def rec(k: int, maxc: int) -> Optional[tuple[int, ...]]:
        nonlocal nodes
        limit = maxc + 1 if maxc < r else r
        confl = prior_conflicts[k]
        last = k == npos - 1
        for v in range(1, limit + 1):
            blocked = False
            for j in confl:
                if colors[j] == v:
                    blocked = True
                    break
            if blocked:
                continue
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                raise _BudgetExceeded
            colors[k] = v
            pruned, journal, leftover = wake(k)
            if not pruned:
                if last:
                    if not need_dist or no_preserving_nonid():
                        found = tuple(colors)
                        undo(k, journal, leftover)
                        colors[k] = 0
                        return found
                else:
                    found = rec(k + 1, v if v > maxc else maxc)
                    if found is not None:
                        undo(k, journal, leftover)
                        colors[k] = 0
                        return found
            undo(k, journal, leftover)
        colors[k] = 0
        return None

    return rec(0, 0)


def _minimize(
    *,
    kind: str,
    npos: int,
    conflict_pairs: Sequence[tuple[int, int]],
    nonid: Sequence[Permutation],
    need_dist: bool,
    lower: int,
    upper: int,
    witness_only: bool,
    max_positions: Optional[int],
) -> tuple[int, tuple[int, ...], bool]:
    cap = vertex_cap(max_positions, DEFAULT_CERTIFY_CAP)
    if npos > cap and not witness_only:
        raise ResourceCapError(
            f"{kind}: {npos} positions exceeds the exhaustive-certification cap {cap} "
            "(set SYMBREAK_MAX_VERTICES or use witness_only)"
        )
    prior: list[list[int]] = [[] for _ in range(npos)]
    for a, b in conflict_pairs:
        if a > b:
            a, b = b, a
        prior[b].append(a)
    prune = _select_prune_perms(nonid)
    budget = _WITNESS_ONLY_NODE_BUDGET if witness_only else None
    certified = not witness_only
    for r in range(max(1, lower), upper + 1):
        try:
            vec = _search_palette(npos, prior, nonid, prune, r, need_dist, budget)
        except _BudgetExceeded:
            certified = False
            continue
        if vec is not None:
            return r, vec, certified
    raise AssertionError(f"{kind}: no valid coloring up to palette {upper}; this cannot happen")


# ---------------------------------------------------------------------------
# Group actions as position permutations
# ---------------------------------------------------------------------------

def _edge_position_group(G: Graph, aut: AutGroup) -> list[Permutation]:
    ident = identity_permutation(G.num_edges)
    out = []
    for p in aut.nonidentity():
        act = edge_index_action(p, G)
        if act == ident:
            raise DegenerateCaseError(
                "no distinguishing edge coloring exists: a nontrivial automorphism "
                "fixes every edge (single-edge degeneracy)"
            )
        out.append(act)
    return out


def _total_position_group(G: Graph, aut: AutGroup) -> list[Permutation]:
    n = G.n
    out = []
    for p in aut.nonidentity():
        act = edge_index_action(p, G)
        out.append(tuple(p) + tuple(n + e for e in act))
    return out


def _edge_conflicts(G: Graph) -> list[tuple[int, int]]:
    """Pairs of edge indices sharing an endpoint (the properness constraints)."""
    rank = {e: k for k, e in enumerate(G.edges)}
    pairs = set()
    for v in range(G.n):
        incident = [rank[(v, w) if v < w else (w, v)] for w in G.adj[v]]
        for a in range(len(incident)):
            for b in range(a + 1, len(incident)):
                x, y = incident[a], incident[b]
                pairs.add((x, y) if x < y else (y, x))
    return sorted(pairs)


# ---------------------------------------------------------------------------
# Public invariant operations
# ---------------------------------------------------------------------------

_MEMO: dict[tuple[str, str], InvariantValue] = {}


def clear_invariant_cache() -> None:
    _MEMO.clear()


def _require_connected(G: Graph, kind: str) -> None:
    if not is_connected(G):
        raise ContractError(f"{kind} requires a connected graph")


def _memo_get(G: Graph, kind: str) -> Optional[InvariantValue]:
    if G.n > 62:  # beyond the graph6 key space; caps reject these later anyway
        return None
    return _MEMO.get((to_graph6(G), kind))


def _memo_put(G: Graph, kind: str, val: InvariantValue) -> InvariantValue:
    if G.n <= 62:
        _MEMO[(to_graph6(G), kind)] = val
    return val


def chromatic_number(
    G: Graph, *, witness_only: bool = False, max_positions: Optional[int] = None
) -> InvariantValue:
    """Minimal palette admitting a proper vertex coloring.

    The exact clique number provides a certified starting lower bound, so no
    search below it is needed."""
    _require_connected(G, "chromatic_number")
    if not witness_only and (got := _memo_get(G, "chi")):
        return got
    masks = [0] * G.n
    for u, v in G.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    omega = _max_clique_size(G.n, masks)
    value, vec, cert = _minimize(
        kind="chi",
        npos=G.n,
        conflict_pairs=G.edges,
        nonid=(),
        need_dist=False,
        lower=omega,
        upper=G.n,
        witness_only=witness_only,
        max_positions=max_positions,
    )
    out = InvariantValue("chi", value, VertexColoring(vec, value), cert)
    return out if witness_only else _memo_put(G, "chi", out)


def distinguishing_number(
    G: Graph, *, witness_only: bool = False, max_positions: Optional[int] = None
) -> InvariantValue:
    """Minimal palette admitting a vertex coloring with trivial stabilizer."""
    _require_connected(G, "distinguishing_number")
    if not witness_only and (got := _memo_get(G, "D")):
        return got
    aut = automorphism_group(G)
    value, vec, cert = _minimize(
        kind="D",
        npos=G.n,
        conflict_pairs=(),
        nonid=aut.nonidentity(),
        need_dist=True,
        lower=1,
        upper=G.n,
        witness_only=witness_only,
        max_positions=max_positions,
    )
    out = InvariantValue("D", value, VertexColoring(vec, value), cert)
    return out if witness_only else _memo_put(G, "D", out)


def distinguishing_chromatic_number(
    G: Graph, *, witness_only: bool = False, max_positions: Optional[int] = None
) -> InvariantValue:
    """Minimal palette admitting a proper distinguishing vertex coloring."""
    _require_connected(G, "distinguishing_chromatic_number")
    if not witness_only and (got := _memo_get(G, "chiD")):
        return got
    chi = chromatic_number(G, witness_only=witness_only, max_positions=max_positions)
    aut = automorphism_group(G)
    value, vec, cert = _minimize(
        kind="chiD",
        npos=G.n,
        conflict_pairs=G.edges,
        nonid=aut.nonidentity(),
        need_dist=True,
        lower=chi.value,
        upper=G.n,
        witness_only=witness_only,
        max_positions=max_positions,
    )
    out = InvariantValue("chiD", value, VertexColoring(vec, value), cert and chi.certified)
    return out if witness_only else _memo_put(G, "chiD", out)


def distinguishing_index(
    G: Graph, *, witness_only: bool = False, max_positions: Optional[int] = None
) -> InvariantValue:
    """Minimal palette admitting a distinguishing edge coloring."""
    _require_connected(G, "distinguishing_index")
    if G.num_edges == 0:
        raise MalformedInputError("distinguishing_index requires at least one edge")
    if not witness_only and (got := _memo_get(G, "Dp")):
        return got
    aut = automorphism_group(G)
    group = _edge_position_group(G, aut)
    value, vec, cert = _minimize(
        kind="Dp",
        npos=G.num_edges,
        conflict_pairs=(),
        nonid=group,
        need_dist=True,
        lower=1,
        upper=G.num_edges,
        witness_only=witness_only,
        max_positions=max_positions,
    )
    out = InvariantValue("Dp", value, EdgeColoring(G.edges, vec, value), cert)
    return out if witness_only else _memo_put(G, "Dp", out)


def distinguishing_chromatic_index(
    G: Graph, *, witness_only: bool = False, max_positions: Optional[int] = None
) -> InvariantValue:
    """Minimal palette admitting a proper distinguishing edge coloring."""
    _require_connected(G, "distinguishing_chromatic_index")
    if G.num_edges == 0:
        raise MalformedInputError("distinguishing_chromatic_index requires at least one edge")
    if not witness_only and (got := _memo_get(G, "chiDp")):
        return got
    aut = automorphism_group(G)
    group = _edge_position_group(G, aut)
    conflicts = _edge_conflicts(G)
    masks = [0] * G.num_edges
    for a, b in conflicts:
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    omega = _max_clique_size(G.num_edges, masks)
    value, vec, cert = _minimize(
        kind="chiDp",
        npos=G.num_edges,
        conflict_pairs=conflicts,
        nonid=group,
        need_dist=True,
        lower=omega,
        upper=G.num_edges,
        witness_only=witness_only,
        max_positions=max_positions,
    )
    out = InvariantValue("chiDp", value, EdgeColoring(G.edges, vec, value), cert)
    return out if witness_only else _memo_put(G, "chiDp", out)


def total_distinguishing_number(
    G: Graph, *, witness_only: bool = False, max_positions: Optional[int] = None
) -> InvariantValue:
    """Minimal palette admitting a total (vertex+edge) coloring preserved only
    by the identity; properness is not required."""
    _require_connected(G, "total_distinguishing_number")
    if G.num_edges == 0:
        raise MalformedInputError("total_distinguishing_number requires at least one edge")
    if not witness_only and (got := _memo_get(G, "Dpp")):
        return got
    aut = automorphism_group(G)
    group = _total_position_group(G, aut)
    n, m = G.n, G.num_edges
    value, vec, cert = _minimize(
        kind="Dpp",
        npos=n + m,
        conflict_pairs=(),
        nonid=group,
        need_dist=True,
        lower=1,
        upper=n + m,
        witness_only=witness_only,
        max_positions=max_positions,
    )
    witness = TotalColoring(
        VertexColoring(vec[:n], value), EdgeColoring(G.edges, vec[n:], value)
    )
    out = InvariantValue("Dpp", value, witness, cert)
    return out if witness_only else _memo_put(G, "Dpp", out)


INVARIANT_FUNCTIONS = {
    "chi": chromatic_number,
    "D": distinguishing_number,
    "chiD": distinguishing_chromatic_number,
    "Dp": distinguishing_index,
    "chiDp": distinguishing_chromatic_index,
    "Dpp": total_distinguishing_number,
}
