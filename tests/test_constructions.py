import pytest

from symbreak.colorings import EdgeColoring, TotalColoring, VertexColoring
from symbreak.constructions import (
    ConstructionResult,
    endline_extension_coloring,
    exception_name,
    exceptional_endline_coloring,
    lift_total_to_subdivision,
    restrict_subdivision_to_total,
    subdivision_lift_coloring,
    subdivision_proper_distinguishing,
)
from symbreak.errors import ContractError
from symbreak.graph_core import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    max_degree,
    path_graph,
    star_graph,
)
from symbreak.invariants import (
    distinguishing_chromatic_index,
    distinguishing_chromatic_number,
    distinguishing_number,
    is_distinguishing,
    is_proper,
    total_distinguishing_number,
)
from symbreak.symmetry import automorphism_group, stabilizer
from symbreak.transforms import endline_graph, subdivision_graph


def test_exception_name():
    assert exception_name(cycle_graph(4)) == "C4"
    assert exception_name(complete_bipartite_graph(2, 2)) == "C4"  # up to isomorphism
    assert exception_name(complete_graph(4)) == "K4"
    assert exception_name(path_graph(4)) is None


def test_exceptional_coloring_c4_exact_colors():
    res = exceptional_endline_coloring(cycle_graph(4))
    assert res.palette == 4 and res.proper and res.distinguishing
    got = res.coloring.as_dict()
    assert [got[(i, (i + 1) % 4)] if i < 3 else got[(0, 3)] for i in range(4)] == [3, 4, 3, 4]
    assert got[(0, 4)] == 1
    assert got[(1, 5)] == got[(2, 6)] == got[(3, 7)] == 2


def test_exceptional_coloring_k33_matches_known_figure():
    res = exceptional_endline_coloring(complete_bipartite_graph(3, 3))
    assert res.palette == 5 and res.proper and res.distinguishing
    got = res.coloring.as_dict()
    # hamiltonian order 0-3-1-4-2-5: alternating 3/4 on the cycle
    assert got[(0, 3)] == 3 and got[(1, 3)] == 4 and got[(1, 4)] == 3
    assert got[(2, 4)] == 4 and got[(2, 5)] == 3 and got[(0, 5)] == 4
    # chords get the fifth color, start pendant gets 1, other pendants 2
    assert got[(0, 4)] == got[(1, 5)] == got[(2, 3)] == 5
    assert got[(0, 6)] == 1
    assert all(got[(i, 6 + i)] == 2 for i in range(1, 6))


def test_exceptional_coloring_all_four_certified():
    for G in (cycle_graph(4), cycle_graph(6), complete_graph(4), complete_bipartite_graph(3, 3)):
        res = exceptional_endline_coloring(G)
        assert res.palette == max_degree(G) + 2
        assert res.proper and res.distinguishing and not res.used_fallback
        # and the palette is optimal: one fewer color admits no such coloring
        exact = distinguishing_chromatic_index(endline_graph(G))
        assert exact.value == res.palette and exact.certified


def test_exceptional_coloring_rejects_other_graphs():
    with pytest.raises(ContractError):
        exceptional_endline_coloring(path_graph(3))


def test_endline_extension_subcase_with_spare_color():
    # chiDp(P3) = 2 = max degree, so pendants take the one spare color
    res = endline_extension_coloring(path_graph(3))
    assert res.palette == 3 and res.proper and res.distinguishing
    pendant_colors = {res.coloring.color_of(i, 3 + i) for i in range(3)}
    assert pendant_colors == {3}


def test_endline_extension_subcase_least_missing_color():
    # chiDp(K3) = 3 = max degree + 1: each pendant takes the least color
    # missing at its vertex
    K3 = complete_graph(3)
    assert distinguishing_chromatic_index(K3).value == 3
    res = endline_extension_coloring(K3)
    assert res.palette == 3 and res.proper and res.distinguishing
    base = distinguishing_chromatic_index(K3).witness
    for v in range(3):
        present = {base.color_of(v, w) for w in K3.adj[v]}
        missing = min(c for c in range(1, 4) if c not in present)
        assert res.coloring.color_of(v, 3 + v) == missing


def test_endline_extension_sweep(corpus):
    for n in (3, 4, 5):
        for G in corpus[n]:
            if exception_name(G) is not None:
                continue
            res = endline_extension_coloring(G)
            assert res.palette == max_degree(G) + 1
            assert res.proper and res.distinguishing
            assert not res.used_fallback


def test_endline_extension_rejects_exceptions():
    with pytest.raises(ContractError):
        endline_extension_coloring(cycle_graph(4))


def test_lift_and_restrict_are_inverse():
    G = complete_graph(4)
    total = total_distinguishing_number(G).witness
    lifted = lift_total_to_subdivision(G, total)
    assert restrict_subdivision_to_total(G, lifted) == total
    S = subdivision_graph(G)
    again = lift_total_to_subdivision(G, restrict_subdivision_to_total(G, lifted))
    assert again == lifted
    assert len(lifted.colors) == S.n


def test_lift_of_minimal_total_coloring_distinguishes_subdivision():
    G = star_graph(4)
    iv = total_distinguishing_number(G)
    assert iv.value == 2  # ceil(sqrt(4))
    lifted = lift_total_to_subdivision(G, iv.witness)
    assert is_distinguishing(subdivision_graph(G), lifted)


def test_lift_of_constant_coloring_keeps_full_stabilizer():
    C3 = cycle_graph(3)
    constant = TotalColoring(
        VertexColoring((1, 1, 1), 1), EdgeColoring(C3.edges, (1, 1, 1), 1)
    )
    lifted = lift_total_to_subdivision(C3, constant)
    S = subdivision_graph(C3)  # a hexagon
    assert stabilizer(automorphism_group(S), lifted).order == 12


@pytest.mark.parametrize(
    "G",
    [star_graph(4), path_graph(4), path_graph(5), complete_graph(4), complete_bipartite_graph(3, 3)],
    ids=["K1,4", "P4", "P5", "K4", "K3,3"],
)
def test_lift_is_certified_without_claiming_properness(G):
    # The D(S(G)) = D''(G) lift claims only that it distinguishes, so it is
    # certified whether or not it happens to be proper.
    res = subdivision_lift_coloring(G)
    assert res.distinguishing and not res.claims_proper
    assert res.certified
    assert res.palette == total_distinguishing_number(G).value


def test_construction_claiming_properness_needs_it():
    G = path_graph(3)
    c = VertexColoring((1, 1, 2), 2)
    assert not ConstructionResult(G, c, 2, proper=False, distinguishing=True).certified
    assert not ConstructionResult(G, c, 2, proper=True, distinguishing=False).certified


def test_lift_domain_mismatch():
    with pytest.raises(ContractError):
        lift_total_to_subdivision(
            complete_graph(3),
            TotalColoring(VertexColoring((1, 1), 1), EdgeColoring(((0, 1),), (1,), 1)),
        )
    with pytest.raises(ContractError):
        restrict_subdivision_to_total(complete_graph(3), VertexColoring((1, 1, 1), 1))


def test_subdivision_construction_three_color_case():
    # K5+ has distinguishing number 3: palette stays 3 on the subdivision
    K5p = endline_graph(complete_graph(5))
    assert distinguishing_number(K5p).value == 3
    res = subdivision_proper_distinguishing(K5p)
    assert res.palette == 3 and res.proper and res.distinguishing
    assert distinguishing_chromatic_number(subdivision_graph(K5p)).value == 3


def test_subdivision_construction_two_color_case():
    res = subdivision_proper_distinguishing(path_graph(3))
    assert res.palette == 3 and res.proper and res.distinguishing
    assert distinguishing_chromatic_number(subdivision_graph(path_graph(3))).value == 3


def test_subdivision_construction_asymmetric_case(corpus):
    G = next(H for H in corpus[6] if automorphism_group(H).order == 1)
    res = subdivision_proper_distinguishing(G)
    assert res.palette == 2 and res.proper and res.distinguishing
    assert distinguishing_chromatic_number(subdivision_graph(G)).value == 2


def test_subdivision_construction_least_missing_color_rule():
    K5p = endline_graph(complete_graph(5))
    d = distinguishing_number(K5p)
    res = subdivision_proper_distinguishing(K5p)
    f = d.witness.colors
    S = res.graph
    for idx, lab in enumerate(S.labels):
        if lab.is_edge_vertex:
            expect = min(c for c in range(1, d.value + 1) if c not in (f[lab.a], f[lab.b]))
            assert res.coloring.colors[idx] == expect


def test_subdivision_construction_rejects_cycles():
    with pytest.raises(ContractError):
        subdivision_proper_distinguishing(cycle_graph(5))
