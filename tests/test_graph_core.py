import random

import pytest

from symbreak.errors import GraphFormatError, MalformedInputError
from symbreak.graph_core import (
    NamedGraphSpec,
    VertexLabel,
    bipartition,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    from_edge_list,
    graph_from_name,
    incident_edge_pairs,
    is_connected,
    is_cycle_graph,
    is_irreducible,
    max_degree,
    named_graph,
    neighborhood,
    parse_graph6,
    path_graph,
    read_graph6_file,
    to_graph6,
    write_graph6_file,
)
from symbreak.harness import CorpusSpec, enumerate_corpus
from symbreak.transforms import endline_graph, subdivision_graph

from oracles import naive_is_irreducible, reference_from_edge_list, reference_parse_graph6


def test_from_edge_list_triangle():
    G = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    assert G.n == 3 and G.num_edges == 3
    assert max_degree(G) == 2


def test_from_edge_list_isolated():
    G = from_edge_list(2, [])
    assert G.num_edges == 0 and max_degree(G) == 0


def test_from_edge_list_cycle4_degrees():
    G = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert G.degrees() == (2, 2, 2, 2)


def test_from_edge_list_collapses_duplicates():
    G = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
    assert G.edges == ((0, 1),)


def test_from_edge_list_rejects_loop():
    with pytest.raises(MalformedInputError):
        from_edge_list(3, [(1, 1)])


def test_from_edge_list_rejects_out_of_range():
    with pytest.raises(MalformedInputError):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(MalformedInputError):
        from_edge_list(0, [])


@pytest.mark.parametrize(
    "n, pairs",
    [
        (3, [(0, True)]),
        (3, [(False, 1)]),
        (3, [(0, 1.0)]),
        (3, [(0, "1")]),
        (3, [(None, 1)]),
        (3, ["01"]),
        (3, [(0, 1, 2)]),
        (3, [(0,)]),
        (3, [()]),
        (3, [0]),
        (3, [None]),
        (3, [(0, 1), (1, 2), (2, True)]),
        (True, []),
        (3.0, [(0, 1)]),
        ("3", []),
        (None, []),
    ],
)
def test_from_edge_list_rejects_malformed_entries(n, pairs):
    with pytest.raises(MalformedInputError):
        from_edge_list(n, pairs)


def test_vertex_label_values():
    label = VertexLabel.edge_vertex(3, 1)
    assert label == VertexLabel("edge_vertex", 1, 3)
    assert hash(label) == hash(VertexLabel("edge_vertex", 1, 3))
    assert VertexLabel.original(0) == ("original", 0, -1)
    assert (label.kind, label.a, label.b) == ("edge_vertex", 1, 3)
    assert [str(VertexLabel.original(2)), str(label), str(VertexLabel.pendant(4))] == [
        "original(2)", "edge(1,3)", "pendant(4)",
    ]
    kinds = [VertexLabel.original(0), label, VertexLabel.pendant(0)]
    assert [(x.is_original, x.is_edge_vertex, x.is_pendant) for x in kinds] == [
        (True, False, False), (False, True, False), (False, False, True),
    ]


def test_from_edge_list_rejects_equal_labels_built_separately():
    with pytest.raises(MalformedInputError):
        from_edge_list(2, [(0, 1)], [VertexLabel.edge_vertex(0, 1), VertexLabel("edge_vertex", 0, 1)])
    with pytest.raises(MalformedInputError):
        from_edge_list(2, [], [VertexLabel.pendant(1), VertexLabel.pendant(1)])


def test_incident_edge_pairs_matches_the_definition(corpus):
    # every index pair i < j of edges that share an endpoint, by brute force
    rng = random.Random(27)
    graphs = [G for n in corpus for G in corpus[n]]
    graphs += [from_edge_list(n, _shuffled_pairs(rng, n, density))
               for n in range(1, 13) for density in (0.1, 0.3, 0.6, 1.0)]
    for G in graphs:
        expected = [(i, j) for j, f in enumerate(G.edges) for i, e in enumerate(G.edges[:j])
                    if set(e) & set(f)]
        assert incident_edge_pairs(G) == sorted(expected)


def _fields(G):
    return G.n, G.edges, G.adj, G.adj_sets, G.labels


def _shuffled_pairs(rng, n, density):
    """The pairs of a random graph, some repeated or reversed, in random order."""
    pairs = [(i, j) for j in range(1, n) for i in range(j) if rng.random() < density]
    pairs += rng.sample(pairs, len(pairs) // 4)
    pairs = [(j, i) if rng.random() < 0.5 else (i, j) for i, j in pairs]
    rng.shuffle(pairs)
    return pairs


def _transform_labels(rng, n):
    """Distinct labels as the transforms make them: originals, then pendants
    and edge vertices, in random order."""
    k = rng.randrange(n + 1)
    labels = [VertexLabel.original(i) for i in range(k)]
    labels += [VertexLabel.pendant(i) for i in range((n - k) // 2)]
    labels += [VertexLabel.edge_vertex(n + i, i) for i in range(n - len(labels))]
    rng.shuffle(labels)
    return labels


def test_graph_construction_matches_the_reference():
    # every order 1..62 at four densities: default and transform labels, the
    # graph6 parser, and the labels of the endline and subdivision graphs
    rng = random.Random(19)
    for n in range(1, 63):
        for density in (0.0, 0.1, 0.5, 1.0):
            pairs = _shuffled_pairs(rng, n, density)
            G = from_edge_list(n, pairs)
            assert _fields(G) == _fields(reference_from_edge_list(n, pairs))
            labels = _transform_labels(rng, n)
            assert _fields(from_edge_list(n, pairs, labels)) == _fields(
                reference_from_edge_list(n, pairs, labels)
            )
            line = to_graph6(G)
            assert _fields(parse_graph6(line)) == _fields(reference_parse_graph6(line))
            old_originals = [VertexLabel.original(i) for i in range(n)]
            E = endline_graph(G)
            assert _fields(E) == _fields(reference_from_edge_list(
                2 * n, E.edges, old_originals + [VertexLabel.pendant(i) for i in range(n)]
            ))
            if G.num_edges:
                S = subdivision_graph(G)
                assert _fields(S) == _fields(reference_from_edge_list(
                    S.n, S.edges, old_originals + [VertexLabel.edge_vertex(*e) for e in G.edges]
                ))


def _outcome(parse, line):
    try:
        return "graph", _fields(parse(line))
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


def test_graph6_byte_mutations_match_the_reference_parser():
    # Replace or insert each of the 256 bytes (decoded as the file reader
    # does) at every position, or delete the byte there, in a few lines with
    # and without the nauty header: the same graph, or the same exception
    # type, message and offset.
    rng = random.Random(6)
    bases = [to_graph6(from_edge_list(n, _shuffled_pairs(rng, n, 0.5))) for n in (1, 2, 5, 7, 12)]
    byte_values = [bytes([b]).decode("ascii", errors="surrogateescape") for b in range(256)]
    mutations = 0
    for base in bases:
        for line in (base, ">>graph6<<" + base):
            for k in range(len(line) + 1):
                variants = [line[:k] + line[k + 1 :]]
                for byte in byte_values:
                    variants += [line[:k] + byte + line[k + 1 :], line[:k] + byte + line[k:]]
                for mutated in variants:
                    assert _outcome(parse_graph6, mutated) == _outcome(reference_parse_graph6, mutated)
                    mutations += 1
    assert mutations == sum((2 * len(b) + 12) * 513 for b in bases)


def test_graph6_known_encodings():
    assert parse_graph6("Bw") == complete_graph(3)
    assert parse_graph6("C~") == complete_graph(4)
    assert to_graph6(complete_graph(3)) == "Bw"
    assert to_graph6(complete_graph(4)) == "C~"


def test_graph6_round_trip(corpus):
    for n in (1, 2, 3, 4, 5):
        for G in corpus[n]:
            line = to_graph6(G)
            assert to_graph6(parse_graph6(line)) == line
            assert parse_graph6(line) == G


def test_graph6_bad_length():
    with pytest.raises(GraphFormatError):
        parse_graph6("C")  # order 4 needs one data byte
    with pytest.raises(GraphFormatError):
        parse_graph6("Bww")


def test_graph6_bad_byte_offset():
    with pytest.raises(GraphFormatError) as exc:
        parse_graph6("B" + chr(200))
    assert exc.value.offset == 1


def test_graph6_order_zero_and_extended_rejected():
    with pytest.raises(GraphFormatError):
        parse_graph6("?")
    with pytest.raises(GraphFormatError):
        parse_graph6("~??")


def test_graph6_file_io(tmp_path, corpus):
    path = tmp_path / "corpus.g6"
    write_graph6_file(str(path), corpus[4])
    again = read_graph6_file(str(path))
    assert again == list(corpus[4])


def test_graph6_file_skips_headers(tmp_path):
    path = tmp_path / "with_header.g6"
    path.write_text(">>graph6<<\nBw\n\nC~\n")
    graphs = read_graph6_file(str(path))
    assert graphs == [complete_graph(3), complete_graph(4)]


def test_graph6_file_reads_graph_glued_to_nauty_header(tmp_path):
    # nauty writes ">>graph6<<" with no newline before the first graph.
    path = tmp_path / "nauty.g6"
    path.write_text(">>graph6<<Bw\nCF\n")
    assert read_graph6_file(str(path)) == [parse_graph6("Bw"), parse_graph6("CF")]
    path.write_text(">>graph6<<B!\n")
    with pytest.raises(GraphFormatError) as info:
        read_graph6_file(str(path))
    assert info.value.offset == len(">>graph6<<B")  # counted from the start of the line


@pytest.fixture(scope="module")
def all_graph6_lines():
    """graph6 lines of every builtin graph of order <= 6, connected or not."""
    return [to_graph6(G) for G in enumerate_corpus(CorpusSpec(max_order=6, connected_only=False))]


def test_graph6_round_trip_all_builtin_graphs(all_graph6_lines):
    assert len(all_graph6_lines) == 208
    for line in all_graph6_lines:
        G = parse_graph6(line)
        assert to_graph6(G) == line
        assert parse_graph6(">>graph6<<" + line) == G


def test_graph6_byte_mutations_parse_or_raise_format_error(all_graph6_lines):
    # Replace, insert or delete one byte (any of 0-255, decoded as the file
    # reader does); the parser must return a graph or raise GraphFormatError.
    rng = random.Random(6)
    mutations = 0
    for base in all_graph6_lines:
        for prefix in ("", ">>graph6<<"):
            line = prefix + base
            for _ in range(25):
                k = rng.randrange(len(line) + 1)
                byte = bytes([rng.randrange(256)]).decode("ascii", errors="surrogateescape")
                for mutated in (
                    line[:k] + byte + line[k + 1 :],
                    line[:k] + byte + line[k:],
                    line[:k] + line[k + 1 :],
                ):
                    try:
                        parse_graph6(mutated)
                    except GraphFormatError:
                        pass
                    mutations += 1
    assert mutations == 208 * 2 * 25 * 3


def test_named_graphs():
    C6 = named_graph(NamedGraphSpec("C", (6,)))
    assert C6.n == 6 and C6.num_edges == 6 and set(C6.degrees()) == {2}
    K33 = named_graph(NamedGraphSpec("K_bip", (3, 3)))
    assert K33.n == 6 and K33.num_edges == 9 and set(K33.degrees()) == {3}
    assert bipartition(K33) is not None
    Q = named_graph(NamedGraphSpec("Q"))
    assert Q.n == 4 and Q.num_edges == 5 and Q.degree_sequence() == (3, 3, 2, 2)
    LQ = named_graph(NamedGraphSpec("LQ"))
    assert LQ.n == 4 and LQ.num_edges == 4 and LQ.degree_sequence() == (3, 2, 2, 1)


def test_named_graph_rejects_bad_parameters():
    with pytest.raises(MalformedInputError):
        named_graph(NamedGraphSpec("C", (2,)))
    with pytest.raises(MalformedInputError):
        named_graph(NamedGraphSpec("nope", (1,)))


def test_graph_from_name_variants():
    assert graph_from_name("C6") == cycle_graph(6)
    assert graph_from_name("C_6") == cycle_graph(6)
    assert graph_from_name("K3,3") == complete_bipartite_graph(3, 3)
    assert graph_from_name("K_{3,3}") == complete_bipartite_graph(3, 3)
    assert graph_from_name("P4") == path_graph(4)
    with pytest.raises(MalformedInputError):
        graph_from_name("X9")


def test_predicates():
    assert max_degree(cycle_graph(4)) == 2
    assert bipartition(cycle_graph(5)) is None
    assert neighborhood(complete_graph(4), 0) == frozenset({1, 2, 3})
    with pytest.raises(MalformedInputError):
        neighborhood(complete_graph(4), 4)
    assert is_connected(path_graph(5))
    assert not is_connected(from_edge_list(4, [(0, 1), (2, 3)]))
    assert is_cycle_graph(cycle_graph(5))
    assert not is_cycle_graph(path_graph(5))


def test_bipartition_edges_cross_classes(corpus):
    for n in range(2, 6):
        for G in corpus[n]:
            parts = bipartition(G)
            if parts is None:
                continue
            U = set(parts[0])
            for u, v in G.edges:
                assert (u in U) != (v in U)


def test_degree_sum_is_twice_edge_count(corpus):
    for n in range(1, 6):
        for G in corpus[n]:
            assert sum(G.degrees()) == 2 * G.num_edges


def test_is_irreducible_examples():
    assert not is_irreducible(cycle_graph(4))  # opposite vertices share both neighbors
    assert not is_irreducible(path_graph(3))
    assert is_irreducible(path_graph(4))


def test_is_irreducible_matches_double_loop_oracle(corpus):
    for n in range(1, 7):
        for G in corpus[n]:
            assert is_irreducible(G) == naive_is_irreducible(G)


def test_subdivisions_are_irreducible(corpus):
    # exhaustive over connected graphs of order 3..6
    for n in range(3, 7):
        for G in corpus[n]:
            assert is_irreducible(subdivision_graph(G))


def test_labels_do_not_affect_equality():
    S = subdivision_graph(path_graph(3))
    plain = from_edge_list(S.n, S.edges)
    assert S == plain and hash(S) == hash(plain)


def test_shipped_order7_corpus_round_trips(order7_path):
    with open(order7_path) as fh:
        lines = [l.strip() for l in fh if l.strip() and not l.startswith(">>")]
    assert len(lines) == 853
    assert lines == sorted(lines)
    for line in lines[:: 40]:
        G = parse_graph6(line)
        assert G.n == 7 and is_connected(G)
        assert to_graph6(G) == line
