"""Seeded differential tests against the brute-force oracles.

The graphs are randomly labelled, unlike the canonically labelled corpus
graphs the other oracle tests see: each is a random tree (on 5-7 vertices,
4-6 for the proper-search scan, 2-9 for the element listing) plus up to
three chords, with its vertices shuffled.
"""

import itertools
import random

import pytest

from symbreak import symmetry
from symbreak.colorings import EdgeColoring, TotalColoring, VertexColoring
from symbreak.errors import ResourceCapError
from symbreak.graph_core import complete_graph, from_edge_list, star_graph
from symbreak.invariants import INVARIANT_FUNCTIONS, _KINDS, _search_palette, is_distinguishing
from symbreak.symmetry import automorphism_group, is_isomorphic, preserves, stabilizer
from symbreak.transforms import endline_graph, line_graph, middle_graph, subdivision_graph

from oracles import (
    _edge_preserved,
    _vertex_preserved,
    backtrack_automorphisms,
    brute_is_isomorphic,
    least_valid_vector,
    naive_invariant,
    reference_refine_colors,
)
from test_invariants import _PRUNE_SUBSET_GRAPHS


def _random_graph(rng: random.Random, n: int):
    pairs = [(rng.randrange(v), v) for v in range(1, n)]
    pairs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(4))]
    relabel = rng.sample(range(n), n)
    return from_edge_list(n, [(relabel[a], relabel[b]) for a, b in pairs])


_RNG = random.Random(2024)
GRAPHS = [_random_graph(_RNG, _RNG.choice((5, 6, 7))) for _ in range(40)]


def test_automorphism_group_matches_backtracking_oracle():
    for G in GRAPHS:
        aut = automorphism_group(G)
        want = set(backtrack_automorphisms(G))
        assert set(aut.elements) == want and aut.order == len(want), G.edges


def _documented_order(G):
    """The oracle's automorphisms in the order AutGroup documents: by their
    images read along the vertices sorted by (refined cell size, cell
    colour, index)."""
    colors = reference_refine_colors(G, [0] * G.n)
    size = [colors.count(c) for c in colors]
    vertices = sorted(range(G.n), key=lambda v: (size[v], colors[v], v))
    return sorted(backtrack_automorphisms(G), key=lambda p: [p[v] for v in vertices])


def test_element_listing_matches_the_oracle_in_the_documented_order():
    # Random graphs of order 2-9 and their four transforms, and K7's four
    # transforms (5,040 elements each): the listing built from the
    # stabilizer chain must be exactly the oracle's elements in order.
    rng = random.Random(1717)
    bases = [_random_graph(rng, n) for n in range(2, 10) for _ in range(3)]
    graphs = [
        H
        for G in bases
        for H in (G, line_graph(G), endline_graph(G), subdivision_graph(G), middle_graph(G))
    ]
    K7 = complete_graph(7)
    graphs += [line_graph(K7), endline_graph(K7), subdivision_graph(K7), middle_graph(K7)]
    discrete = 0
    for H in graphs:
        assert automorphism_group(H).elements == tuple(_documented_order(H)), H.edges
        discrete += len(set(reference_refine_colors(H, [0] * H.n))) == H.n
    assert discrete >= 10
    assert max(len(automorphism_group(H)) for H in graphs[:-4]) >= 8


@pytest.mark.parametrize(
    "G, order",
    [(complete_graph(5), 120), (line_graph(complete_graph(6)), 720),
     (subdivision_graph(star_graph(7)), 5040), (subdivision_graph(star_graph(8)), 40320)],
    ids=["K5", "L(K6)", "S(K1,7)", "S(K1,8)"],
)
def test_order_cap_boundary(G, order):
    assert automorphism_group(G, max_order=order).elements == automorphism_group(G).elements
    assert len(automorphism_group(G, max_order=order)) == order
    with pytest.raises(ResourceCapError):
        automorphism_group(G, max_order=order - 1)


def test_isomorphism_witness_for_random_relabelling():
    rng = random.Random(11)
    for G in GRAPHS:
        p = rng.sample(range(G.n), G.n)
        H = from_edge_list(G.n, [(p[u], p[v]) for u, v in G.edges])
        w = is_isomorphic(G, H)
        assert w is not None and sorted(w) == list(range(G.n)), G.edges
        assert all(H.has_edge(w[u], w[v]) for u, v in G.edges), G.edges


def test_isomorphism_agrees_with_brute_force_on_equal_degree_sequences():
    pairs = 0
    for G, H in itertools.combinations(GRAPHS, 2):
        if G.n != H.n or G.degree_sequence() != H.degree_sequence():
            continue
        pairs += 1
        assert (is_isomorphic(G, H) is not None) == brute_is_isomorphic(G, H), (G.edges, H.edges)
    assert pairs >= 10


def test_invariants_match_naive_oracle():
    compared = 0
    for G in GRAPHS:
        autos = backtrack_automorphisms(G)
        positions = {"chi": G.n, "D": G.n, "chiD": G.n, "Dp": G.num_edges,
                     "chiDp": G.num_edges, "Dpp": G.n + G.num_edges}
        for kind, fn in INVARIANT_FUNCTIONS.items():
            if positions[kind] > 9:
                continue
            assert fn(G).value == naive_invariant(G, kind, autos), (kind, G.edges)
            compared += 1
    assert compared >= 150


def test_proper_searches_return_the_least_valid_vector():
    # Random connected graphs of order 4-6 with their line and middle graphs,
    # for the three proper kinds, at every palette up to the value: the search
    # (conflict look-ahead, orbit prune) must return the brute-force scan's
    # vector, or None where there is none.  At most 9 positions, so the scan
    # checks at most Bell(9) = 21,147 vectors per palette.
    rng = random.Random(8)
    compared = empty = 0
    for _ in range(25):
        G = _random_graph(rng, rng.choice((4, 5, 6)))
        for H in (G, line_graph(G), middle_graph(G)):
            autos = backtrack_automorphisms(H)
            for kind in ("chi", "chiD", "chiDp"):
                spec = _KINDS[kind]
                npos = spec.positions(H)
                if npos > 9:
                    continue
                later = [[] for _ in range(npos)]
                for a, b in spec.conflicts(H):
                    later[a].append(b)
                nonid = () if spec.group is None else spec.group(
                    H, automorphism_group(H).nonidentity()
                )
                for r in range(1, INVARIANT_FUNCTIONS[kind](H).value + 1):
                    want = least_valid_vector(H, kind, r, autos)
                    assert _search_palette(npos, later, nonid, r) == want, (
                        kind, H.edges, r,
                    )
                    compared += 1
                    empty += want is None
    assert compared >= 300 and empty >= 100


def _random_colors(rng: random.Random, npos: int) -> list[int]:
    """All positions distinct, perhaps with one made equal to another, or
    random colors from a random palette: both answers come up often."""
    if rng.random() < 0.5:
        colors = rng.sample(range(1, npos + 1), npos)
        if npos > 1 and rng.random() < 0.5:
            a, b = rng.sample(range(npos), 2)
            colors[a] = colors[b]
        return colors
    k = rng.randint(1, npos)
    return [rng.randint(1, k) for _ in range(npos)]


def _random_coloring(rng: random.Random, G, kind: str):
    if kind == "vertex":
        colors = _random_colors(rng, G.n)
        return VertexColoring(tuple(colors), max(colors))
    if kind == "edge":
        colors = _random_colors(rng, G.num_edges)
        return EdgeColoring(G.edges, tuple(colors), max(colors))
    colors = _random_colors(rng, G.n + G.num_edges)
    r = max(colors)
    return TotalColoring(
        VertexColoring(tuple(colors[: G.n]), r), EdgeColoring(G.edges, tuple(colors[G.n :]), r)
    )


def _oracle_distinguishing(G, autos, c) -> bool:
    """No oracle automorphism but the identity keeps every vertex and edge color."""
    vertex = c.vertex_part if isinstance(c, TotalColoring) else c
    edge = c.edge_part if isinstance(c, TotalColoring) else c
    rank = {e: k for k, e in enumerate(G.edges)}
    return not any(
        p != tuple(range(G.n))
        and (not isinstance(vertex, VertexColoring) or _vertex_preserved(p, vertex.colors))
        and (not isinstance(edge, EdgeColoring) or _edge_preserved(G, rank, p, edge.colors))
        for p in autos
    )


def test_is_distinguishing_matches_the_oracle():
    # Seeded vertex, edge and total colorings of the random graphs and of the
    # groups of 72-720 elements whose prune set is only part of the group, so
    # that the coloured search decides what the prune set leaves open.  The
    # checker must agree with a scan of the oracle's automorphisms, and with
    # the stabilizer, which lists the group.
    rng = random.Random(29)
    graphs = GRAPHS + [param.values[0] for param in _PRUNE_SUBSET_GRAPHS]
    answers = {True: 0, False: 0}
    searched = 0
    for G in graphs:
        autos = backtrack_automorphisms(G)
        prune = symmetry._prune_set(G)
        for kind in ("vertex", "edge", "total"):
            for _ in range(4):
                c = _random_coloring(rng, G, kind)
                got = is_distinguishing(G, c)
                assert got == _oracle_distinguishing(G, autos, c), (G.edges, c)
                assert got == (stabilizer(automorphism_group(G), c).order == 1), (G.edges, c)
                answers[got] += 1
                searched += len(prune) < len(autos) - 1 and not any(preserves(p, c) for p in prune)
    assert min(answers.values()) >= 50
    assert searched >= 20
