import hashlib
import json

import pytest

from symbreak.cli import _label_map
from symbreak.errors import MalformedInputError
from symbreak.graph_core import (
    bipartition,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    from_edge_list,
    named_graph,
    NamedGraphSpec,
    path_graph,
    to_graph6,
)
from symbreak.invariants import chromatic_number
from symbreak.symmetry import is_isomorphic
from symbreak.transforms import (
    endline_edges,
    endline_graph,
    line_graph,
    middle_graph,
    original_vertices,
    subdivision_graph,
)


def test_line_graph_of_path3_is_single_edge():
    L = line_graph(path_graph(3))
    assert L.n == 2 and L.edges == ((0, 1),)


def test_line_graph_of_cycle_is_cycle():
    for n in (3, 4, 5, 6):
        assert is_isomorphic(line_graph(cycle_graph(n)), cycle_graph(n)) is not None


def test_line_graph_of_paw_is_diamond():
    # The catalog's LQ (triangle plus pendant) has the catalog's Q as line graph.
    Q = named_graph(NamedGraphSpec("Q"))
    LQ = named_graph(NamedGraphSpec("LQ"))
    assert is_isomorphic(line_graph(LQ), Q) is not None
    assert is_isomorphic(Q, LQ) is None


def test_line_graph_rejects_edgeless():
    with pytest.raises(MalformedInputError):
        line_graph(from_edge_list(3, []))


def test_endline_counts():
    C3p = endline_graph(cycle_graph(3))
    assert C3p.n == 6 and C3p.num_edges == 6
    assert C3p.degree_sequence() == (3, 3, 3, 1, 1, 1)
    C6p = endline_graph(cycle_graph(6))
    assert C6p.n == 12 and C6p.num_edges == 12
    K4p = endline_graph(complete_graph(4))
    assert K4p.n == 8 and K4p.num_edges == 10


def test_endline_pendants_have_degree_one_and_attach_correctly():
    G = complete_bipartite_graph(2, 3)
    Gp = endline_graph(G)
    for idx, lab in enumerate(Gp.labels):
        if lab.is_pendant:
            assert Gp.degree(idx) == 1
            assert Gp.neighbors(idx) == (lab.a,)
    assert endline_edges(Gp) == tuple((i, G.n + i) for i in range(G.n))
    assert original_vertices(Gp) == tuple(range(G.n))


def test_subdivision_counts_and_bipartition():
    G = complete_graph(4)
    S = subdivision_graph(G)
    assert S.n == G.n + G.num_edges
    assert S.num_edges == 2 * G.num_edges
    parts = bipartition(S)
    assert parts is not None
    originals = set(original_vertices(S))
    assert set(parts[0]) == originals or set(parts[1]) == originals


def test_subdivision_of_cycle_is_double_cycle():
    for n in (3, 4, 5, 6):
        assert is_isomorphic(subdivision_graph(cycle_graph(n)), cycle_graph(2 * n)) is not None


def test_subdivision_of_star():
    S = subdivision_graph(complete_bipartite_graph(1, 3))
    assert S.n == 7 and S.num_edges == 6


def test_subdivision_edge_vertices_join_their_endpoints():
    G = complete_graph(4)
    S = subdivision_graph(G)
    for idx, lab in enumerate(S.labels):
        if lab.is_edge_vertex:
            assert S.neighbors(idx) == (lab.a, lab.b)


def test_middle_graph_of_path3_explicit():
    M = middle_graph(path_graph(3))
    # originals 0,1,2; edge vertices 3 = {0,1}, 4 = {1,2}
    assert M.n == 5 and M.num_edges == 5
    assert M.edges == ((0, 3), (1, 3), (1, 4), (2, 4), (3, 4))


def test_middle_graph_has_no_original_original_edges(corpus):
    for G in corpus[5]:
        M = middle_graph(G)
        for u, v in M.edges:
            assert not (M.labels[u].is_original and M.labels[v].is_original)


def test_middle_is_line_of_endline_small(corpus):
    for n in (3, 4):
        for G in corpus[n]:
            assert is_isomorphic(middle_graph(G), line_graph(endline_graph(G))) is not None


def test_middle_chromatic_number_of_path3():
    assert chromatic_number(middle_graph(path_graph(3))).value == 3


def test_transform_count_invariants(corpus):
    for n in (3, 4, 5):
        for G in corpus[n]:
            m = G.num_edges
            assert endline_graph(G).n == 2 * G.n
            assert endline_graph(G).num_edges == m + G.n
            if m:
                assert subdivision_graph(G).n == G.n + m
                assert subdivision_graph(G).num_edges == 2 * m
                assert middle_graph(G).n == G.n + m


def test_middle_edge_set_is_union_of_subdivision_and_line(corpus):
    # under the shared labeling: M edges = S edges (incidences) + L edges (edge adjacencies)
    for G in corpus[4]:
        if not G.num_edges:
            continue
        S = subdivision_graph(G)
        M = middle_graph(G)
        L = line_graph(G)
        n = G.n
        line_part = {(n + a, n + b) for a, b in L.edges}
        assert set(M.edges) == set(S.edges) | line_part


def test_transforms_reject_edgeless():
    lonely = from_edge_list(2, [])
    for op in (subdivision_graph, middle_graph):
        with pytest.raises(MalformedInputError):
            op(lonely)


def test_transform_labels_are_pinned(corpus):
    # graph6 and label map of the line, endline, subdivision and middle graph
    # of every connected graph of order 3..6, in that order: 564 lines
    lines = [
        to_graph6(H) + " " + json.dumps(_label_map(H), sort_keys=True) + "\n"
        for n in range(3, 7) for G in corpus[n]
        for H in (line_graph(G), endline_graph(G), subdivision_graph(G), middle_graph(G))
    ]
    assert len(lines) == 564
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
        "55fd2b0e9886b7f90f5171a5a312a175e2fbf715f00fb32b9004b7ed294cc521"
    )
