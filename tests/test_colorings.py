import pickle

import pytest

from symbreak.colorings import EdgeColoring, TotalColoring, VertexColoring
from symbreak.errors import ContractError, MalformedInputError
from symbreak.graph_core import path_graph


def test_vertex_coloring_validation():
    VertexColoring((1, 2, 1), 2)
    with pytest.raises(MalformedInputError):
        VertexColoring((0, 1), 2)
    with pytest.raises(MalformedInputError):
        VertexColoring((1, 3), 2)
    with pytest.raises(MalformedInputError):
        VertexColoring((1,), 0)


def test_edge_coloring_validation_and_lookup():
    P3 = path_graph(3)
    c = EdgeColoring(P3.edges, (1, 2), 2)
    assert c.color_of(1, 0) == 1
    assert c.color_of(2, 1) == 2
    assert c.as_dict() == {(0, 1): 1, (1, 2): 2}
    with pytest.raises(ContractError):
        c.color_of(0, 2)
    with pytest.raises(MalformedInputError):
        EdgeColoring(((1, 2), (0, 1)), (1, 2), 2)  # unsorted domain
    with pytest.raises(MalformedInputError):
        EdgeColoring(P3.edges, (1,), 2)  # length mismatch
    with pytest.raises(MalformedInputError):
        EdgeColoring(P3.edges, [1, 2], 2)  # a list would leave it unhashable


@pytest.mark.parametrize(
    "colors, palette",
    [((1.5, 1), 2), ((True, 2), 2), ((1, 2), 2.5), ((1, 2), True), ([1, 2], 2)],
)
def test_vertex_coloring_rejects_non_int_colors_and_palettes(colors, palette):
    with pytest.raises(MalformedInputError):
        VertexColoring(colors, palette)


@pytest.mark.parametrize(
    "edges",
    [((0, 1), (0, 1)), ((0, 0), (0, 1)), ((1, 0), (1, 2)), ((0, -1), (0, 1)),
     ((0, 1), (1, True)), ((0, 1), (1, 2.0)), ((0, 1), (1, 2, 3)), [(0, 1), (1, 2)]],
    ids=["duplicate", "loop", "unnormalised", "negative", "bool", "float", "triple", "list"],
)
def test_edge_coloring_rejects_a_malformed_domain(edges):
    with pytest.raises(MalformedInputError):
        EdgeColoring(edges, (1, 2), 2)


def test_edge_lookup_cache_leaves_value_semantics_alone():
    c = EdgeColoring(path_graph(4).edges, (1, 2, 1), 2)
    assert c.color_of(3, 2) == 1  # fills the cached edge positions
    fresh = EdgeColoring(c.edges, c.colors, c.palette)
    assert c == fresh and hash(c) == hash(fresh)
    assert pickle.loads(pickle.dumps(c)) == fresh


def test_edge_coloring_from_dict_normalizes():
    c = EdgeColoring.from_dict({(2, 1): 5, (0, 1): 1}, 5)
    assert c.edges == ((0, 1), (1, 2))
    assert c.colors == (1, 5)


def test_total_coloring_requires_shared_palette():
    P3 = path_graph(3)
    with pytest.raises(MalformedInputError):
        TotalColoring(VertexColoring((1, 1, 1), 1), EdgeColoring(P3.edges, (1, 2), 2))
    tc = TotalColoring(VertexColoring((1, 2, 1), 2), EdgeColoring(P3.edges, (1, 2), 2))
    assert tc.palette == 2
