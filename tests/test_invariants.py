import hashlib
import itertools
import math
import random

import pytest

from symbreak.colorings import EdgeColoring, TotalColoring, VertexColoring
from symbreak.errors import (
    ContractError,
    DegenerateCaseError,
    MalformedInputError,
    ResourceCapError,
    SymbreakError,
)
from symbreak.graph_core import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    from_edge_list,
    parse_graph6,
    path_graph,
    star_graph,
)
from symbreak import invariants, symmetry
from symbreak.invariants import (
    INVARIANT_FUNCTIONS,
    chromatic_number,
    clear_invariant_cache,
    distinguishing_chromatic_index,
    distinguishing_chromatic_number,
    distinguishing_index,
    distinguishing_number,
    is_distinguishing,
    is_proper,
    total_distinguishing_number,
    _KINDS,
    _search_palette,
)
from symbreak.symmetry import automorphism_group, permute_graph
from symbreak.transforms import endline_graph, line_graph, middle_graph, subdivision_graph

from oracles import brute_automorphisms, least_valid_vector, naive_invariant


def test_is_proper_vertex():
    C4 = cycle_graph(4)
    assert is_proper(C4, VertexColoring((1, 2, 1, 2), 2))
    assert not is_proper(C4, VertexColoring((1, 1, 1, 1), 1))
    with pytest.raises(ContractError):
        is_proper(C4, VertexColoring((1, 2, 1), 2))


def test_is_proper_edge():
    P3 = path_graph(3)
    assert is_proper(P3, EdgeColoring(P3.edges, (1, 2), 2))
    assert not is_proper(P3, EdgeColoring(P3.edges, (1, 1), 1))
    with pytest.raises(ContractError):
        is_proper(P3, EdgeColoring(((0, 1),), (1,), 1))


def test_is_distinguishing_basics():
    C6 = cycle_graph(6)
    assert is_distinguishing(C6, VertexColoring((1, 2, 3, 4, 5, 6), 6))
    assert not is_distinguishing(C6, VertexColoring((1,) * 6, 1))
    # hand-checked witness: breaks all 12 automorphisms of the hexagon
    assert is_distinguishing(C6, VertexColoring((1, 1, 2, 1, 2, 2), 2))


def test_chromatic_number_examples():
    assert chromatic_number(complete_graph(4)).value == 4
    assert chromatic_number(cycle_graph(5)).value == 3
    assert chromatic_number(subdivision_graph(complete_graph(5))).value == 2
    for n in (3, 4):
        G = complete_graph(n)
        assert chromatic_number(middle_graph(G)).value == (n - 1) + 1


def test_distinguishing_number_examples():
    assert distinguishing_number(cycle_graph(4)).value == 3
    assert distinguishing_number(cycle_graph(5)).value == 3
    assert distinguishing_number(cycle_graph(6)).value == 2
    assert distinguishing_number(complete_graph(5)).value == 5


def test_asymmetric_graphs_have_distinguishing_number_one(corpus):
    asymmetric = [G for G in corpus[6] if automorphism_group(G).order == 1]
    assert asymmetric, "order 6 has asymmetric connected graphs"
    for G in asymmetric[:3]:
        iv = distinguishing_number(G)
        assert iv.value == 1 and iv.certified


def test_distinguishing_chromatic_number_examples():
    assert distinguishing_chromatic_number(cycle_graph(6)).value == 4
    assert distinguishing_chromatic_number(middle_graph(cycle_graph(4))).value == 4
    assert distinguishing_chromatic_number(path_graph(4)).value == 2


def test_edge_invariants_examples():
    assert distinguishing_chromatic_index(cycle_graph(4)).value == 4
    assert distinguishing_index(cycle_graph(5)).value == 3
    assert distinguishing_index(cycle_graph(6)).value == 2


def test_k2_edge_distinguishing_degenerate():
    K2 = complete_graph(2)
    with pytest.raises(DegenerateCaseError):
        distinguishing_index(K2)
    with pytest.raises(DegenerateCaseError):
        distinguishing_chromatic_index(K2)


def test_total_distinguishing_examples():
    assert total_distinguishing_number(cycle_graph(3)).value == 2
    assert total_distinguishing_number(complete_graph(2)).value == 2


def test_invariants_reject_disconnected():
    G = from_edge_list(4, [(0, 1), (2, 3)])
    for fn in INVARIANT_FUNCTIONS.values():
        with pytest.raises(ContractError):
            fn(G)


def test_invariants_reject_edgeless_where_required():
    K1 = from_edge_list(1, [])
    for kind in ("Dp", "chiDp", "Dpp"):
        with pytest.raises(MalformedInputError):
            INVARIANT_FUNCTIONS[kind](K1)
    assert chromatic_number(K1).value == 1
    assert distinguishing_number(K1).value == 1


def test_certification_cap_and_witness_only():
    big = path_graph(35)
    with pytest.raises(ResourceCapError):
        distinguishing_number(big)
    iv = distinguishing_number(big, witness_only=True)
    assert iv.value == 2 and not iv.certified
    assert is_distinguishing(big, iv.witness)
    assert distinguishing_number(big, max_positions=40).certified


def test_vertex_cap_applies_only_to_kinds_with_a_group():
    # chi asks for the automorphism group only once its search is hard, and
    # never past the 40-vertex cap of the automorphism search, so that cap
    # does not refuse it; the other kinds still refuse.
    P = path_graph(45)
    iv = chromatic_number(P, witness_only=True)
    assert (iv.value, iv.certified) == (2, False)
    assert is_proper(P, iv.witness)
    with pytest.raises(ResourceCapError):
        distinguishing_number(P, witness_only=True)


def test_witness_only_falls_back_when_budget_runs_out(monkeypatch):
    # A budget of one node runs out at every palette; the all-distinct
    # vector is then returned uncertified, and it must still distinguish.
    monkeypatch.setattr("symbreak.invariants._WITNESS_ONLY_NODE_BUDGET", 1)
    C6 = cycle_graph(6)
    iv = distinguishing_index(C6, witness_only=True)
    assert (iv.value, iv.witness.colors, iv.certified) == (6, (1, 2, 3, 4, 5, 6), False)
    assert is_distinguishing(C6, iv.witness)


def test_witnesses_validate(corpus):
    for G in corpus[5][:8]:
        chi = chromatic_number(G)
        assert is_proper(G, chi.witness) and chi.witness.palette == chi.value
        d = distinguishing_number(G)
        assert is_distinguishing(G, d.witness)
        cd = distinguishing_chromatic_number(G)
        assert is_proper(G, cd.witness) and is_distinguishing(G, cd.witness)
        if G.num_edges:
            dp = distinguishing_index(G)
            assert is_distinguishing(G, dp.witness)
            cdp = distinguishing_chromatic_index(G)
            assert is_proper(G, cdp.witness) and is_distinguishing(G, cdp.witness)
            dpp = total_distinguishing_number(G)
            assert is_distinguishing(G, dpp.witness)


def test_relabeling_invariance(corpus):
    import random

    rng = random.Random(3)
    for G in corpus[5][:6]:
        p = list(range(G.n))
        rng.shuffle(p)
        H = permute_graph(G, tuple(p))
        for kind in ("chi", "D", "chiD", "Dp", "chiDp", "Dpp"):
            assert INVARIANT_FUNCTIONS[kind](G).value == INVARIANT_FUNCTIONS[kind](H).value


def test_invariant_inequalities(corpus):
    import math

    for n in (3, 4, 5):
        for G in corpus[n]:
            d = distinguishing_number(G).value
            chid = distinguishing_chromatic_number(G).value
            dp = distinguishing_index(G).value
            chidp = distinguishing_chromatic_index(G).value
            dpp = total_distinguishing_number(G).value
            assert d <= chid
            assert dp <= chidp
            assert dpp <= min(d, dp)
            assert dpp <= math.isqrt(max(max_degree_of(G) - 1, 0)) + 1
            assert chid >= chromatic_number(G).value
            assert chid >= d


def max_degree_of(G):
    return max(G.degrees())


def test_subdivisions_are_two_chromatic(corpus):
    for n in (3, 4, 5):
        for G in corpus[n]:
            assert chromatic_number(subdivision_graph(G)).value == 2


def test_middle_graph_chromatic_number_is_degree_plus_one(corpus):
    for n in (3, 4, 5):
        for G in corpus[n]:
            assert chromatic_number(middle_graph(G)).value == max_degree_of(G) + 1


def test_witness_is_lexicographically_least():
    # brute scan in lexicographic order must agree with the engine's witness
    for G in (path_graph(3), cycle_graph(4)):
        d = distinguishing_number(G)
        nonid = [p for p in brute_automorphisms(G) if p != tuple(range(G.n))]
        expected = None
        for colors in itertools.product(range(1, d.value + 1), repeat=G.n):
            if all(any(colors[p[i]] != colors[i] for i in range(G.n)) for p in nonid):
                expected = colors
                break
        assert d.witness.colors == expected


def test_oracle_equivalence_small(corpus):
    # full n <= 5 sweep lives in the acceptance suite; spot-check n <= 4 here
    for n in (1, 2, 3, 4):
        for G in corpus[n]:
            autos = brute_automorphisms(G)
            assert chromatic_number(G).value == naive_invariant(G, "chi", autos)
            assert distinguishing_number(G).value == naive_invariant(G, "D", autos)
            assert distinguishing_chromatic_number(G).value == naive_invariant(G, "chiD", autos)
            if G.num_edges and not (G.n == 2 and G.num_edges == 1):
                assert distinguishing_index(G).value == naive_invariant(G, "Dp", autos)
                assert distinguishing_chromatic_index(G).value == naive_invariant(G, "chiDp", autos)
            if G.num_edges:
                assert total_distinguishing_number(G).value == naive_invariant(G, "Dpp", autos)


def test_total_witness_shares_palette():
    iv = total_distinguishing_number(star_graph(4))
    assert isinstance(iv.witness, TotalColoring)
    assert iv.witness.vertex_part.palette == iv.witness.edge_part.palette == iv.value


def test_witnesses_are_pinned(corpus):
    # SHA-256 recorded before the six invariants were driven from one table:
    # every value, witness, certified flag and error message must stay put.
    digest = hashlib.sha256()
    items = 0
    for n in range(1, 7):
        for G in corpus[n]:
            graphs = [G] + ([subdivision_graph(G)] if G.num_edges else []) + [endline_graph(G)]
            for H in graphs:
                for kind, fn in INVARIANT_FUNCTIONS.items():
                    for witness_only in (False, True):
                        try:
                            iv = fn(H, witness_only=witness_only)
                            item = repr((kind, iv.value, iv.witness, iv.certified))
                        except SymbreakError as e:
                            item = f"{type(e).__name__}: {e}"
                        digest.update(item.encode() + b"\n")
                        items += 1
    assert items == 5136
    assert digest.hexdigest() == (
        "4d95fc27387d791017b746e26a96b0f5d5a3404df2975367133b41f36f480e8b"
    )


def test_witnesses_are_pinned_without_listing_groups(corpus, monkeypatch):
    # With the group-size cap and the prune set at 4, every kind with a group
    # on every graph with more than 4 automorphisms prunes with the coset
    # representatives of its stabilizer chain, found without listing the
    # group, and decides each leaf it reaches by the coloured search, however
    # few they are: the same items must give the same digest.
    calls = {"select": 0, "decide": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(symmetry, "_PRUNE_GROUP_CAP", 4)
    monkeypatch.setattr(symmetry, "_PRUNE_SET_SIZE", 4)
    monkeypatch.setattr(
        invariants, "_smallest_support_automorphisms",
        counted("select", invariants._smallest_support_automorphisms),
    )
    monkeypatch.setattr(
        invariants, "_has_nontrivial_automorphism",
        counted("decide", invariants._has_nontrivial_automorphism),
    )
    clear_invariant_cache()
    symmetry._least_support.cache_clear()  # cached per graph, at the set size
    try:
        test_witnesses_are_pinned(corpus)
    finally:
        clear_invariant_cache()
        symmetry._least_support.cache_clear()
    assert calls["select"] > 500 and calls["decide"] > 500


def test_prune_set_size_change_gives_no_stale_prune_set(monkeypatch):
    # K1,8's 40,320 automorphisms are never listed, so its prune set is the
    # 28 coset representatives of its stabilizer chain, cached per graph and
    # set size, and the same at any size.  A list cached at a smaller set
    # size must still give the certified 8 once the size is back.
    star = star_graph(8)
    symmetry._least_support.cache_clear()
    monkeypatch.setattr(symmetry, "_PRUNE_SET_SIZE", 4)
    assert len(symmetry._smallest_support_automorphisms(star)) == 28
    monkeypatch.undo()
    clear_invariant_cache()
    iv = distinguishing_number(star)
    assert (iv.value, iv.certified) == (8, True)
    assert is_distinguishing(star, iv.witness)


def _list_at_most_6000(monkeypatch):
    """Make listing any group whose chain order is above 6,000 fail, from a
    cleared chain cache, so no listing is handed out unchecked."""
    real = symmetry._listing

    def at_most_6000(chain):
        assert chain.order <= 6000, f"asked to list {chain.order} elements"
        return real(chain)

    symmetry._chain.cache_clear()
    monkeypatch.setattr(symmetry, "_listing", at_most_6000)


def test_large_group_is_never_listed(monkeypatch):
    # S(K1,9) has 362,880 automorphisms; D must not list more than 6,000.
    _list_at_most_6000(monkeypatch)
    clear_invariant_cache()
    iv = distinguishing_number(subdivision_graph(star_graph(9)))
    assert (iv.value, iv.certified) == (3, True)
    assert iv.witness.colors == (1, 1, 1, 1, 2, 2, 2, 3, 3, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3)


def test_edge_and_total_kinds_never_list_a_large_group(monkeypatch):
    # K1,8 has 40,320 automorphisms; Dp, chiDp and Dpp must not list more than
    # 6,000 of them, and keep the witnesses they had when they listed all.
    _list_at_most_6000(monkeypatch)
    clear_invariant_cache()
    G = star_graph(8)
    distinct = tuple(range(1, 9))
    for fn, value, edge_colors in (
        (distinguishing_index, 8, distinct),
        (distinguishing_chromatic_index, 8, distinct),
        (total_distinguishing_number, 3, (1, 2, 3, 1, 2, 3, 1, 2)),
    ):
        iv = fn(G)
        assert (iv.value, iv.certified) == (value, True)
        edge_part = iv.witness.edge_part if fn is total_distinguishing_number else iv.witness
        assert edge_part.colors == edge_colors
    assert iv.witness.vertex_part.colors == (1, 1, 1, 1, 2, 2, 2, 3, 3)


def test_star_beyond_the_order_cap_is_answered():
    # K1,11 has 39,916,800 automorphisms, past the 10,000,000 order cap that
    # used to refuse it; every leaf needs its own color.
    clear_invariant_cache()
    iv = distinguishing_number(star_graph(11))
    assert (iv.value, iv.certified) == (11, True)
    assert sorted(iv.witness.colors[1:]) == list(range(1, 12))


def _arms_are_distinguished(m, edge_colors, leaf_colors):
    # Aut(K1,m) and Aut(S(K1,m)) permute the m arms as S_m, so a coloring is
    # distinguishing iff no two arms get the same (edge, leaf) color pair.
    # is_distinguishing would list the group, which is refused past m = 10.
    assert len(set(zip(edge_colors, leaf_colors))) == m


@pytest.mark.parametrize("m", [*range(2, 17), 20])
def test_subdivided_stars_are_sharp_for_cor_3_5(monkeypatch, m):
    # D(S(K1,m)) = D''(K1,m) = ceil(sqrt(m)) (Thm 3.3, and Cor 3.5's sharp
    # family): the m arms need m distinct color pairs.  S(K1,m) has 2m + 1
    # vertices, and edge vertex m + k subdivides the edge to leaf k.
    monkeypatch.setenv("SYMBREAK_MAX_VERTICES", "64")
    clear_invariant_cache()
    want = math.isqrt(m - 1) + 1
    iv = distinguishing_number(subdivision_graph(star_graph(m)))
    assert (iv.value, iv.certified) == (want, True)
    _arms_are_distinguished(m, iv.witness.colors[m + 1 :], iv.witness.colors[1 : m + 1])
    if m in (10, 16):
        iv = total_distinguishing_number(star_graph(m))
        assert (iv.value, iv.certified) == (want, True)
        _arms_are_distinguished(m, iv.witness.edge_part.colors, iv.witness.vertex_part.colors[1:])


def test_witness_only_star_gets_its_value():
    # K1,30's 30! automorphisms are never listed; the prune set of its
    # stabilizer chain forces distinct leaf colors within the node budget at
    # every palette below 30, so the uncertified answer is the true value.
    clear_invariant_cache()
    iv = distinguishing_number(star_graph(30), witness_only=True)
    assert (iv.value, iv.certified) == (30, False)
    assert len(set(iv.witness.colors[1:])) == 30


_PRUNE_SUBSET_GRAPHS = [
    pytest.param(star_graph(5), id="K1,5"),
    pytest.param(star_graph(6), id="K1,6"),
    pytest.param(complete_graph(5), id="K5"),
    pytest.param(complete_graph(6), id="K6"),
    pytest.param(complete_bipartite_graph(3, 3), id="K3,3"),
]


@pytest.mark.parametrize("G", _PRUNE_SUBSET_GRAPHS)
def test_prune_set_smaller_than_the_group(G):
    # Groups of 72-720 elements: the invariants prune with only the first
    # _PRUNE_SET_SIZE of them, and decide the leaves by the coloured search.
    # Here the whole group drives the prune, so no leaf needs deciding.
    aut = automorphism_group(G)
    by_support = sorted(  # stable: ties keep the documented element order
        aut.nonidentity(), key=lambda p: sum(pi != i for i, pi in enumerate(p))
    )
    cap = symmetry._PRUNE_SET_SIZE
    assert symmetry._smallest_support_automorphisms(G) == tuple(by_support[:cap])
    assert len(by_support) > cap
    autos = [aut.elements[0], *by_support]  # small support first: the oracles reject sooner
    compared = 0
    for kind, spec in _KINDS.items():
        npos = spec.positions(G)
        if npos > 9:
            continue
        clear_invariant_cache()
        value = INVARIANT_FUNCTIONS[kind](G).value
        assert value == naive_invariant(G, kind, autos), kind
        compared += 1
        if kind not in ("chi", "chiD", "chiDp"):
            continue
        later = [[] for _ in range(npos)]
        for a, b in spec.conflicts(G):
            later[a].append(b)
        perms = () if spec.group is None else spec.group(G, by_support)
        for r in range(1, value + 1):
            want = least_valid_vector(G, kind, r, autos)
            assert _search_palette(npos, later, perms, r) == want, (kind, r)
            compared += 1
    assert compared >= 5


# D, Dp and Dpp of the _PRUNE_SUBSET_GRAPHS: D(K1,n) = D(Kn) = n,
# D(K3,3) = 4, D'(K1,n) = n, D'(K5) = D'(K3,3) = 3 and D'(K6) = 2; D''(K1,n)
# is the least k with k^2 >= n (each leaf needs its own pair of vertex and
# edge colors), and D'' is 2 for the others, which one color cannot
# distinguish.
_PRUNE_SUBSET_VALUES = {
    "K1,5": {"D": 5, "Dp": 5, "Dpp": 3},
    "K1,6": {"D": 6, "Dp": 6, "Dpp": 3},
    "K5": {"D": 5, "Dp": 3, "Dpp": 2},
    "K6": {"D": 6, "Dp": 2, "Dpp": 2},
    "K3,3": {"D": 4, "Dp": 3, "Dpp": 2},
}


@pytest.mark.parametrize("G", _PRUNE_SUBSET_GRAPHS)
def test_prune_set_and_decider_as_the_invariants_run_them(G, request):
    # The configuration the invariants use on a group of more than 64
    # elements: the 64 of least support drive the prune, and the coloured
    # search decides every leaf the search reaches.  At every palette up to
    # the value, the proper kinds give the least valid vector, and the others
    # give none below their exact value and, at it, the vector of a search
    # that prunes with the whole group.
    values = _PRUNE_SUBSET_VALUES[request.node.callspec.id]
    aut = automorphism_group(G)
    elements = symmetry._smallest_support_automorphisms(G)
    assert len(elements) == symmetry._PRUNE_SET_SIZE < aut.order - 1
    compared = 0
    for kind, spec in _KINDS.items():
        if spec.group is None:
            continue
        npos = spec.positions(G)
        proper = kind in ("chiD", "chiDp")
        if proper and npos > 9:
            continue
        later = [[] for _ in range(npos)]
        for a, b in spec.conflicts(G):
            later[a].append(b)
        perms = spec.group(G, elements)
        decider = spec.decider(G)
        value = INVARIANT_FUNCTIONS[kind](G).value
        if not proper:
            assert value == values[kind], kind
        for r in range(1, value + 1):
            got = _search_palette(npos, later, perms, r, nontrivial=decider)
            if proper:
                want = least_valid_vector(G, kind, r, aut.elements)
            elif r < value:
                want = None
            else:
                want = _search_palette(npos, later, spec.group(G, aut.nonidentity()), r)
            assert got == want, (kind, r)
            compared += 1
    assert compared >= 10


def test_orbit_prune_keeps_every_palette_answer():
    # Random connected graphs of order 7-8 (a random tree plus up to two
    # chords, so most have symmetry) and their S(G) and G+, for every kind.
    # Inputs with more than 16 positions are skipped: the unpruned search
    # checks every leaf against the whole group.  S(G) and G+ have at least
    # 13 vertices, so a cut at 12 would keep none of their vertex kinds.
    rng = random.Random(5)
    checked = 0
    for _ in range(30):
        n = rng.choice((7, 8))
        pairs = [(rng.randrange(v), v) for v in range(1, n)]
        pairs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(3))]
        G = from_edge_list(n, pairs)
        for H in (G, subdivision_graph(G), endline_graph(G)):
            for kind, spec in _KINDS.items():
                npos = spec.positions(H)
                if npos > 16:
                    continue
                later = [[] for _ in range(npos)]
                for a, b in spec.conflicts(H):
                    later[a].append(b)
                nonid = () if spec.group is None else spec.group(
                    H, automorphism_group(H).nonidentity()
                )

                def preserved(cols):
                    return any(all(cols[p[i]] == cols[i] for i in range(npos)) for p in nonid)

                value = INVARIANT_FUNCTIONS[kind](H).value
                for r in range(1, value + 1):
                    pruned = _search_palette(npos, later, nonid, r)
                    unpruned = _search_palette(npos, later, (), r, nontrivial=preserved)
                    assert pruned == unpruned, (kind, H.edges, r)
                assert pruned is not None
                checked += bool(nonid)
    assert checked > 200


def test_look_ahead_keeps_a_tight_palette_within_budget():
    # The proper edge search on M(F@_iw) at its value, palette 7, visits
    # 326,467 nodes without look-ahead and 159,709 with it: the witness-only
    # budget of 200,000 now reaches the exact value instead of running out.
    H = middle_graph(parse_graph6("F@_iw"))
    spec = _KINDS["chiDp"]
    npos = spec.positions(H)
    later = [[] for _ in range(npos)]
    for a, b in spec.conflicts(H):
        later[a].append(b)
    nonid = spec.group(H, automorphism_group(H).nonidentity())
    vec = _search_palette(npos, later, nonid, 7, node_budget=200_000)
    assert vec == (
        1, 1, 1, 2, 2, 1, 2, 1, 3, 1, 2, 3, 3, 4, 2,
        5, 3, 4, 5, 6, 2, 4, 3, 6, 7, 7, 6, 5, 4, 1,
    )
    iv = distinguishing_chromatic_index(H, witness_only=True)
    assert (iv.value, iv.witness.colors, iv.certified) == (7, vec, False)


def test_stabilizer_cut_keeps_the_edge_search_small():
    # L(F@G^w) has 27 edges and 16 automorphisms, several of them swaps of
    # a few twin edges.  Without the stabilizer cut the search at palette 2
    # visits 78,381 nodes and rejects tens of thousands of leaves that such a
    # swap keeps; with it the first distinguishing vector comes within 29.
    H = line_graph(parse_graph6("F@G^w"))
    spec = _KINDS["Dp"]
    npos = spec.positions(H)
    nonid = spec.group(H, automorphism_group(H).nonidentity())
    vec = _search_palette(npos, [[] for _ in range(npos)], nonid, 2, node_budget=1_000)
    assert vec == (1,) * 8 + (2,) + (1,) * 17 + (2,)


def test_witness_only_edge_index_of_a_middle_graph(monkeypatch):
    # M(F`G}w) has 49 edges and a group of order 4.  Without the stabilizer
    # cut every palette ran out of its 200,000-node budget and the answer
    # was the all-distinct 49; a palette of 2 now needs about 50 nodes.
    monkeypatch.setattr("symbreak.invariants._WITNESS_ONLY_NODE_BUDGET", 1_000)
    H = middle_graph(parse_graph6("F`G}w"))
    iv = distinguishing_index(H, witness_only=True)
    assert (iv.value, iv.certified) == (2, False)
    assert is_distinguishing(H, iv.witness)


def _vector_digest(vec) -> str:
    return hashlib.sha256(",".join(map(str, vec)).encode()).hexdigest()


def test_singleton_propagation_keeps_a_tight_palette_small():
    # The proper edge search on M(F@_iw) at palette 7 visits 159,709 nodes
    # with forward checking alone.  Blocking the last color of every position
    # left with one at its uncolored partners reaches the same vector in
    # 5,475.
    H = middle_graph(parse_graph6("F@_iw"))
    spec = _KINDS["chiDp"]
    npos = spec.positions(H)
    later = [[] for _ in range(npos)]
    for a, b in spec.conflicts(H):
        later[a].append(b)
    nonid = spec.group(H, automorphism_group(H).nonidentity())
    vec = _search_palette(npos, later, nonid, 7, node_budget=20_000)
    assert _vector_digest(vec).startswith("d6e4f4cd91e322e1")


def test_chi_prunes_with_the_group_once_its_search_is_hard(monkeypatch):
    # chi(M(K7)) needs tens of seconds of unpruned search at palette 7; the
    # orbit prune by S7 makes it about one second, with the same witness.
    fetched = []

    def counted(G):
        fetched.append(G)
        return real(G)

    real = invariants._late_vertex_prune
    monkeypatch.setattr(invariants, "_late_vertex_prune", counted)
    clear_invariant_cache()
    H = middle_graph(complete_graph(7))
    iv = chromatic_number(H)
    assert (iv.value, iv.certified) == (7, True)
    assert _vector_digest(iv.witness.colors).startswith("ec82ec4c11b37a8a")
    assert fetched == [H]
    # An easy search never asks for the group.
    chromatic_number(complete_graph(7))
    assert fetched == [H]


def test_chi_prune_fetch_at_the_first_node(corpus, monkeypatch):
    # With the node threshold at 0 every chi search asks for its prune group
    # at once: past the 40-vertex automorphism cap it gets none and still
    # answers, and every pinned witness stays put.
    fetched = []

    def counted(G):
        fetched.append(G.n)
        return real(G)

    real = invariants._late_vertex_prune
    monkeypatch.setattr(invariants, "_late_vertex_prune", counted)
    monkeypatch.setattr(invariants, "_PRUNE_AFTER_NODES", 0)
    clear_invariant_cache()
    P = path_graph(45)
    iv = chromatic_number(P, witness_only=True)
    assert (iv.value, iv.certified) == (2, False)
    assert is_proper(P, iv.witness)
    assert fetched == [45] and real(P) == ()
    try:
        test_witnesses_are_pinned(corpus)
    finally:
        clear_invariant_cache()
    assert len(fetched) > 500


def _twin_rich_graph(rng: random.Random):
    """A random connected graph with many small-support automorphisms:
    a tree with pendant twins, K2,m, or a star with some rays subdivided."""
    shape = rng.randrange(3)
    if shape == 0:
        n = rng.randrange(2, 5)
        pairs = [(rng.randrange(v), v) for v in range(1, n)]
        for v in rng.sample(range(n), rng.randrange(1, min(n, 3) + 1)):
            for _ in range(rng.randrange(2, 4)):
                pairs.append((v, n))
                n += 1
        return from_edge_list(n, pairs)
    if shape == 1:
        return complete_bipartite_graph(2, rng.randrange(2, 6))
    pairs, n = [], 1
    for _ in range(rng.randrange(2, 6)):
        prev = 0
        for _ in range(rng.randrange(1, 3)):
            pairs.append((prev, n))
            prev, n = n, n + 1
    return from_edge_list(n, pairs)


def test_stabilizer_cut_keeps_every_palette_answer_on_twin_rich_graphs():
    # The reference search has no prune at all: every leaf is checked
    # against the whole group.  Inputs with more than 14 positions are
    # skipped, since the reference then visits too many leaves.
    rng = random.Random(12)
    checked, kinds = 0, set()
    for _ in range(40):
        G = _twin_rich_graph(rng)
        for kind, spec in _KINDS.items():
            npos = spec.positions(G)
            if spec.group is None or npos > 14:
                continue
            later = [[] for _ in range(npos)]
            for a, b in spec.conflicts(G):
                later[a].append(b)
            nonid = spec.group(G, automorphism_group(G).nonidentity())

            def preserved(cols):
                return any(all(cols[p[i]] == cols[i] for i in range(npos)) for p in nonid)

            clear_invariant_cache()
            value = INVARIANT_FUNCTIONS[kind](G).value
            for r in range(1, value + 1):
                pruned = _search_palette(npos, later, nonid, r)
                unpruned = _search_palette(npos, later, (), r, nontrivial=preserved)
                assert pruned == unpruned, (kind, G.edges, r)
            assert pruned is not None
            checked += 1
            kinds.add(kind)
    assert checked > 100 and kinds == {"D", "chiD", "Dp", "chiDp", "Dpp"}
