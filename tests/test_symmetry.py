import hashlib
import itertools
import random

import pytest

from symbreak.colorings import EdgeColoring, TotalColoring, VertexColoring
from symbreak import symmetry
from symbreak.errors import ContractError, MalformedInputError, ResourceCapError
from symbreak.graph_core import (
    adjacency_code,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    from_edge_list,
    named_graph,
    NamedGraphSpec,
    parse_graph6,
    path_graph,
    read_graph6_file,
    star_graph,
    to_graph6,
)
from symbreak.invariants import clear_invariant_cache, distinguishing_number
from symbreak.symmetry import (
    _individualize,
    _refine,
    _smallest_support_automorphisms,
    automorphism_group,
    canonical_form,
    canonical_labeling,
    compose,
    edge_action,
    edge_index_action,
    identity_permutation,
    invert,
    is_automorphism,
    is_isomorphic,
    is_isomorphism,
    lift_to_endline,
    lift_to_subdivision,
    permute_graph,
    preserves,
    stabilizer,
)
from symbreak.transforms import endline_graph, line_graph, middle_graph, subdivision_graph

from oracles import (
    brute_automorphisms,
    reference_code_for,
    reference_individualize,
    reference_refine_colors,
)


def test_group_orders_of_known_graphs():
    assert automorphism_group(complete_graph(4)).order == 24
    assert automorphism_group(cycle_graph(6)).order == 12
    assert automorphism_group(path_graph(4)).order == 2
    assert automorphism_group(complete_bipartite_graph(3, 3)).order == 72


def test_group_matches_brute_force_filter(corpus):
    for n in range(1, 6):
        for G in corpus[n]:
            assert sorted(automorphism_group(G).elements) == sorted(brute_automorphisms(G))


def test_group_laws(corpus):
    import math

    for n in range(1, 7):
        for G in corpus[n]:
            aut = automorphism_group(G)
            elems = set(aut.elements)
            assert identity_permutation(G.n) in elems
            assert math.factorial(n) % aut.order == 0
            for p in aut:
                assert invert(p) in elems
                for q in aut:
                    assert compose(p, q) in elems


def test_vertex_cap():
    big = path_graph(45)
    with pytest.raises(ResourceCapError):
        automorphism_group(big)
    assert automorphism_group(big, max_vertices=50).order == 2
    # past 256 vertices the element re-sort cannot use byte keys
    huge = path_graph(300)
    assert automorphism_group(huge, max_vertices=300).elements == (
        tuple(range(300)),
        tuple(range(299, -1, -1)),
    )


def test_vertex_cap_env_override(monkeypatch):
    monkeypatch.setenv("SYMBREAK_MAX_VERTICES", "50")
    assert automorphism_group(path_graph(45)).order == 2


def test_bad_vertex_cap_env_is_input_error(monkeypatch):
    monkeypatch.setenv("SYMBREAK_MAX_VERTICES", "abc")
    with pytest.raises(MalformedInputError):
        automorphism_group(path_graph(5), max_order=100)


def test_vertex_cap_is_checked_before_the_cache(monkeypatch):
    # A group or prune set cached under the default cap must not be handed
    # out once SYMBREAK_MAX_VERTICES is lowered past the graph's order.
    C10 = cycle_graph(10)
    assert automorphism_group(C10).order == 20
    assert len(_smallest_support_automorphisms(C10)) == 19
    monkeypatch.setenv("SYMBREAK_MAX_VERTICES", "5")
    with pytest.raises(ResourceCapError):
        automorphism_group(C10)
    with pytest.raises(ResourceCapError):
        _smallest_support_automorphisms(C10)


def test_explicit_caps_share_the_cached_search(monkeypatch):
    # D, the prune set, the default call and an explicit max_order all read
    # one chain, found by one uniform-colour search.  S(K1,8)'s 40,320
    # elements are past the listing cap of the invariant searches; with a
    # cache keyed by the order cap, these calls took four searches.
    searched = []
    real = symmetry._search_setup

    def counted(G, colors):
        if len(set(colors)) < 2:  # not the coloured leaf decider
            searched.append(G.n)
        return real(G, colors)

    monkeypatch.setattr(symmetry, "_search_setup", counted)
    for G, order in ((complete_graph(5), 120), (subdivision_graph(star_graph(8)), 40320)):
        symmetry._chain.cache_clear()
        symmetry._least_support.cache_clear()
        clear_invariant_cache()
        searched.clear()
        distinguishing_number(G)
        _smallest_support_automorphisms(G)
        group = automorphism_group(G)
        assert group.order == order
        assert automorphism_group(G, max_order=order) is group
        assert searched == [G.n]


def test_element_order_is_pinned(corpus):
    # SHA-256 recorded before the search started placing vertices next to
    # placed neighbours: the element order (`aut --list`, and the first
    # elements taken by the invariant search's orbit prune) must not move.
    digest = hashlib.sha256()
    for n in range(1, 7):
        for G in corpus[n]:
            graphs = [G, endline_graph(G)]
            if G.num_edges:
                graphs += [subdivision_graph(G), middle_graph(G)]
            for H in graphs:
                digest.update(repr(automorphism_group(H).elements).encode())
    assert digest.hexdigest() == (
        "63e810474f369b86d14d528f9305407406dce995d2638ecee40b07da19fc66e2"
    )


def test_large_group_order_with_interleaved_cells():
    # S(K1,8) with its 8 leaves and 8 edge vertices swapping labels, so the
    # documented vertex order is not increasing: its 40,320 elements are
    # sorted by byte keys.  They must be the conjugates of the elements of
    # S(K1,8), in the order the reference refinement documents.
    S = subdivision_graph(star_graph(8))
    relabel = (0, *range(9, 17), *range(1, 9))
    H = from_edge_list(S.n, [(relabel[u], relabel[v]) for u, v in S.edges])
    back = invert(relabel)
    want = {tuple(relabel[p[back[x]]] for x in range(H.n)) for p in automorphism_group(S)}
    colors = reference_refine_colors(H, [0] * H.n)
    size = [colors.count(c) for c in colors]
    vertices = sorted(range(H.n), key=lambda v: (size[v], colors[v], v))
    assert vertices != sorted(vertices)
    elements = automorphism_group(H).elements
    assert len(elements) == 40320 and set(elements) == want
    assert list(elements) == sorted(elements, key=lambda p: [p[v] for v in vertices])


@pytest.mark.parametrize(
    "G, order",
    [(parse_graph6("FqG^w"), 12), (parse_graph6("FwC^w"), 72), (cycle_graph(8), 32)],
)
def test_subdivision_groups_with_large_independent_cells(G, order):
    # The original vertices of S(G) form a large cell of pairwise non-adjacent
    # vertices; the search must place them next to placed neighbours, not as
    # one unconstrained block (that took about 1 s per graph).
    S = subdivision_graph(G)
    aut = automorphism_group(S)
    assert aut.order == order
    assert len(set(aut.elements)) == order
    assert all(is_automorphism(S, p) for p in aut)


def _closure(gens, n):
    """The group the permutations generate, by breadth-first products."""
    seen = {identity_permutation(n)}
    frontier = list(seen)
    while frontier:
        frontier = [q for p in frontier for g in gens if (q := compose(g, p)) not in seen]
        seen.update(frontier)
    return seen


@pytest.mark.parametrize(
    "G, cap",
    [
        (subdivision_graph(star_graph(8)), 6000),
        (complete_graph(8), 6000),
        (subdivision_graph(parse_graph6("FwC^w")), 20),
        (complete_graph(5), 20),
    ],
    ids=["S(K1,8)", "K8", "S(FwC^w) cap 20", "K5 cap 20"],
)
def test_unlisted_prune_set_generates_the_group(monkeypatch, G, cap):
    # With the group past the listing cap, the prune set is the coset
    # representatives of its stabilizer chain: automorphisms other than the
    # identity, whatever _PRUNE_SET_SIZE is (28 for the 40,320 elements of
    # the first two cases).  Where the group is small enough to close, they
    # generate all of it.
    monkeypatch.setattr(symmetry, "_PRUNE_GROUP_CAP", cap)
    symmetry._least_support.cache_clear()  # cached per graph, whatever the cap
    try:
        reps = _smallest_support_automorphisms(G)
        assert identity_permutation(G.n) not in reps
        assert all(is_automorphism(G, p) for p in reps)
        for size in (1, 4, 10_000):
            monkeypatch.setattr(symmetry, "_PRUNE_SET_SIZE", size)
            assert _smallest_support_automorphisms(G) == reps
        group = automorphism_group(G)
        assert group.order > cap
        if group.order == 40320:
            assert len(reps) == 28
        else:
            assert _closure(reps, G.n) == set(group.elements)
    finally:
        symmetry._least_support.cache_clear()


def test_order_cap():
    with pytest.raises(ResourceCapError):
        automorphism_group(complete_graph(8), max_order=1000)


def test_subdivision_group_order_matches_base_for_noncycles(corpus):
    for n in (3, 4, 5):
        for G in corpus[n]:
            if all(d == 2 for d in G.degrees()):
                continue  # cycles excluded
            assert automorphism_group(subdivision_graph(G)).order == automorphism_group(G).order


def test_is_isomorphic_witness_and_refusals():
    C4 = cycle_graph(4)
    K22 = complete_bipartite_graph(2, 2)
    w = is_isomorphic(C4, K22)
    assert w is not None
    for u, v in C4.edges:
        assert K22.has_edge(w[u], w[v])
    assert is_isomorphic(middle_graph(cycle_graph(3)), line_graph(endline_graph(cycle_graph(3)))) is not None
    Q = named_graph(NamedGraphSpec("Q"))
    LQ = named_graph(NamedGraphSpec("LQ"))
    assert is_isomorphic(Q, LQ) is None


def test_is_isomorphism_checks_a_given_map():
    P4 = path_graph(4)  # 0-1-2-3
    H = from_edge_list(4, [(1, 3), (0, 3), (0, 2)])  # 1-3-0-2
    assert is_isomorphism(P4, H, (1, 3, 0, 2))
    assert not is_isomorphism(P4, H, (1, 3, 0))  # wrong length
    assert not is_isomorphism(P4, H, (1, 3, 0, 0))  # repeated image
    assert not is_isomorphism(P4, H, (1, 3, None, 2))  # not a vertex
    assert not is_isomorphism(P4, cycle_graph(4), (0, 1, 2, 3))  # 3 edges against 4
    assert not is_isomorphism(P4, H, (0, 1, 2, 3))  # edge (0, 1) to a non-edge
    assert not is_isomorphism(P4, path_graph(5), (0, 1, 2, 3))  # unequal orders
    for p in itertools.permutations(range(4)):
        assert is_isomorphism(P4, P4, p) == is_automorphism(P4, p)


def test_is_isomorphic_rejects_an_invalid_witness(monkeypatch):
    # the witness from two canonical labellings is re-checked, not trusted
    C4 = cycle_graph(4)
    K22 = complete_bipartite_graph(2, 2)
    monkeypatch.setattr(symmetry, "canonical_labeling", lambda G: (tuple(range(G.n)), b""))
    with pytest.raises(AssertionError, match="invalid witness"):
        is_isomorphic(C4, K22)


def test_is_isomorphic_same_degree_sequence_but_different():
    # two trees on 6 vertices with degree sequence (3,2,2,1,1,1)
    spider = from_edge_list(6, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5)])
    caterpillar = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)])
    assert spider.degree_sequence() == caterpillar.degree_sequence()
    assert is_isomorphic(spider, caterpillar) is None


def test_canonical_form_constant_on_classes(corpus):
    import random

    rng = random.Random(7)
    for G in corpus[5]:
        key = canonical_form(G)
        for _ in range(3):
            p = list(range(G.n))
            rng.shuffle(p)
            assert canonical_form(permute_graph(G, tuple(p))) == key


def test_canonical_form_is_the_relabelled_graph6():
    # canonical_form writes its line from the leaf code; it must be the
    # graph6 of the graph relabelled by canonical_labeling.  Orders 1..62
    # cover every residue of n(n-1)/2 mod 6, which sets the padding.
    rng = random.Random(1616)
    for n in range(1, 63):
        density = rng.choice((0.1, 0.3, 0.5))
        pairs = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
        G = from_edge_list(n, pairs)
        assert canonical_form(G) == to_graph6(permute_graph(G, canonical_labeling(G)[0])), n
    for encode in (to_graph6, canonical_form):
        with pytest.raises(MalformedInputError):
            encode(path_graph(63))


def test_refinement_matches_the_reference():
    # The split-queue refinement, individualization and leaf code must give
    # exactly the colors and codes of the plain versions kept in oracles.py:
    # canonical forms and the documented element order rest on them.  The
    # graphs are random, of order 2..30 at several densities, plus the
    # middle graphs (up to 28 vertices, symmetric more often) of random
    # graphs of order 3..7.  A cell list is compared as the colors it gives
    # (a vertex's color is its cell's position), and each cell must keep its
    # vertices in increasing order.
    rng = random.Random(1414)

    def colors_of(cells):
        assert all(cell == sorted(cell) for cell in cells), cells
        colors = [0] * sum(map(len, cells))
        for c, cell in enumerate(cells):
            for v in cell:
                colors[v] = c
        return colors

    def cells_of(colors):
        return [[v for v in range(len(colors)) if colors[v] == c] for c in range(max(colors) + 1)]

    def random_graph(n):
        density = rng.choice((0.08, 0.15, 0.3, 0.6))
        pairs = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
        return from_edge_list(n, pairs)

    graphs = [random_graph(rng.randint(2, 30)) for _ in range(120)]
    small = [random_graph(rng.randint(3, 7)) for _ in range(40)]
    graphs += [middle_graph(G) for G in small if G.num_edges]
    for G in graphs:
        n = G.n
        colorings = [
            [0] * n,
            [5] * n,
            [rng.randrange(3) for _ in range(n)],
            [rng.choice((0, 0, 0, 0, -1, -6)) for _ in range(n)],
        ]
        for colors in colorings:
            assert colors_of(_refine(G, colors)) == reference_refine_colors(G, list(colors)), (
                G.edges,
                colors,
            )
        base = reference_refine_colors(G, [0] * n)
        deeper = reference_individualize(G, base, rng.randrange(n))
        for colors in (base, deeper):
            for v in range(n):  # singleton cells included
                assert colors_of(
                    _individualize(G, cells_of(colors), colors[v], v)
                ) == reference_individualize(G, colors, v), (G.edges, colors, v)
        for _ in range(3):
            discrete = rng.sample(range(n), n)
            pairs = [tuple(sorted((discrete[u], discrete[v]))) for u, v in G.edges]
            assert adjacency_code(n, pairs) == reference_code_for(G, discrete)[0]


@pytest.fixture(scope="module")
def transformed_order7(order7_path):
    """The line, endline, subdivision and middle graphs of the 853 order-7
    graphs: up to 28 vertices, where the refinement runs many rounds."""
    return [
        transform(G)
        for G in read_graph6_file(order7_path)
        for transform in (line_graph, endline_graph, subdivision_graph, middle_graph)
    ]


def test_transformed_order7_canonical_forms_are_pinned(transformed_order7):
    # SHA-256 recorded with the plain refinement that recomputed every
    # vertex's key in every round.
    digest = hashlib.sha256()
    for H in transformed_order7:
        digest.update(canonical_form(H).encode() + b"\n")
    assert digest.hexdigest() == (
        "0b5ff8372726705fcb7408ba99f7ae169fc3d20b60046ac5345497b59547b4e1"
    )


def test_transformed_order7_element_order_is_pinned(transformed_order7):
    # Recorded like the canonical forms above.
    digest = hashlib.sha256()
    for H in transformed_order7:
        digest.update(repr(automorphism_group(H).elements).encode())
    assert digest.hexdigest() == (
        "5d82e4cd1b33a34205dd869f1ba388866e430fec1c9128266159e98b26478b8b"
    )


def test_edge_action_identity_and_rotation():
    C4 = cycle_graph(4)
    ident = identity_permutation(4)
    assert edge_action(ident, C4) == {e: e for e in C4.edges}
    rot = (1, 2, 3, 0)
    act = edge_action(rot, C4)
    assert act[(0, 1)] == (1, 2)
    assert act[(0, 3)] == (0, 1)


def test_edge_action_is_bijection_exhaustively(corpus):
    for n in range(3, 6):
        for G in corpus[n]:
            if not G.num_edges:
                continue
            for p in automorphism_group(G):
                act = edge_index_action(p, G)
                assert sorted(act) == list(range(G.num_edges))


def test_edge_action_rejects_non_automorphism():
    with pytest.raises(ContractError):
        edge_action((1, 0, 2), path_graph(3))


def test_lift_to_endline():
    C4 = cycle_graph(4)
    Gp = endline_graph(C4)
    assert lift_to_endline(identity_permutation(4), C4) == identity_permutation(8)
    for alpha in automorphism_group(C4):
        lifted = lift_to_endline(alpha, C4)
        assert is_automorphism(Gp, lifted)
        assert set(lifted[:4]) == {0, 1, 2, 3}  # fixes the original class
    with pytest.raises(ContractError):
        lift_to_endline((1, 0, 2, 3), C4)


def test_lift_to_endline_injective(corpus):
    for n in (3, 4, 5):
        for G in corpus[n]:
            lifts = {lift_to_endline(a, G) for a in automorphism_group(G)}
            assert len(lifts) == automorphism_group(G).order


def test_lifted_endline_automorphism_fixing_originals_is_identity(corpus):
    for G in corpus[4]:
        Gp = endline_graph(G)
        for psi in automorphism_group(Gp):
            if all(psi[i] == i for i in range(G.n)):
                assert psi == identity_permutation(Gp.n)


def test_lift_to_subdivision_is_group_embedding():
    G = complete_graph(4)
    aut = automorphism_group(G)
    for a in aut:
        for b in aut:
            assert lift_to_subdivision(compose(a, b), G) == compose(
                lift_to_subdivision(a, G), lift_to_subdivision(b, G)
            )


def test_lift_to_subdivision_covers_whole_group_for_noncycles(corpus):
    for n in (3, 4, 5):
        for G in corpus[n]:
            if all(d == 2 for d in G.degrees()):
                continue
            S = subdivision_graph(G)
            lifted = {lift_to_subdivision(a, G) for a in automorphism_group(G)}
            assert lifted == set(automorphism_group(S).elements)


def test_subdivision_automorphisms_preserve_original_class(corpus):
    for n in (3, 4, 5):
        for G in corpus[n]:
            if all(d == 2 for d in G.degrees()):
                continue
            S = subdivision_graph(G)
            originals = set(range(G.n))
            for phi in automorphism_group(S):
                assert {phi[v] for v in originals} == originals


def test_preserves_and_stabilizer():
    C4 = cycle_graph(4)
    aut = automorphism_group(C4)
    distinct = VertexColoring((1, 2, 3, 4), 4)
    assert stabilizer(aut, distinct).order == 1
    constant = VertexColoring((1, 1, 1, 1), 1)
    assert stabilizer(aut, constant).order == aut.order
    alternating = VertexColoring((1, 2, 1, 2), 2)
    assert stabilizer(aut, alternating).order == 4


def test_preserves_total_needs_both_parts():
    C3 = cycle_graph(3)
    rot = (1, 2, 0)
    tc = TotalColoring(
        VertexColoring((1, 1, 1), 2),
        EdgeColoring(C3.edges, (1, 1, 2), 2),
    )
    assert preserves(rot, tc.vertex_part)
    assert not preserves(rot, tc)


def test_preserves_domain_mismatch():
    with pytest.raises(ContractError):
        preserves((0, 1), VertexColoring((1, 2, 3), 3))
    # permutation moving edges outside the declared domain
    with pytest.raises(ContractError):
        preserves((1, 2, 0), EdgeColoring(((0, 1),), (1,), 1))
    # an edge endpoint the permutation does not reach
    with pytest.raises(ContractError):
        preserves((0, 1, 2), EdgeColoring(complete_graph(4).edges, (1,) * 6, 1))


@pytest.mark.parametrize("p", [(1, 0, 0), (0, 1), (0, 1, 2, 3), (0, 1, 3), (0, "a", 1)])
def test_permute_graph_rejects_a_non_permutation(p):
    with pytest.raises(ContractError):
        permute_graph(path_graph(3), p)
    assert permute_graph(path_graph(3), (2, 1, 0)).edges == path_graph(3).edges
