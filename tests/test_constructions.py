import itertools
from types import SimpleNamespace

import pytest

from cca import builders, constructions
from cca.constructions import (is_complete_colour_pair,
                               line_graph_construction,
                               subdivision_construction, wreath_witness)
from cca.engine import autc_group, is_colour_preserving
from cca.errors import HypothesisViolated, NotArcRegular, NotRegular
from cca.graphs import PlainGraph, heawood, subdivision
from cca.groups import (FiniteGroup, close_generators, coset_growth,
                        trivial_group)
from cca.recipes import _dihedral_coset_tau, _heawood_groups, _knn_q8_inputs


def test_wreath_witness_z3():
    Z3 = builders.cyclic(3)
    W = wreath_witness(Z3, [1, 2], builders.named_map(Z3, "inversion"),
                       builders.cyclic(2))
    assert W.X.order == 18
    assert W.tau_prime[0] == 0
    assert is_colour_preserving(W.graph, W.tau_prime)
    a, b = W.non_hom_pair
    assert W.tau_prime[W.X.imul(a, b)] != \
        W.X.imul(W.tau_prime[a], W.tau_prime[b])
    assert autc_group(W.graph).verdict == "NonCCA"


def test_wreath_witness_relabels_top_group_fixing_point_zero():
    # H swaps points 1 and 2 and fixes point 0, the coordinate tau' acts
    # on, so its points are relabelled first; without that, tau' is a group
    # automorphism of X
    Z3 = builders.cyclic(3)
    H = FiniteGroup([(0, 1, 2), (0, 2, 1)], [(0, 2, 1)])
    W = wreath_witness(Z3, [1, 2], builders.named_map(Z3, "inversion"), H)
    assert W.X.order == 54
    assert is_colour_preserving(W.graph, W.tau_prime)
    assert W.non_hom_pair == (9, 27)
    assert autc_group(W.graph).verdict == "NonCCA"


def test_wreath_witness_hypothesis_gates():
    Z3 = builders.cyclic(3)
    Z4 = builders.cyclic(4)
    H2 = builders.cyclic(2)
    inv3 = builders.named_map(Z3, "inversion")
    with pytest.raises(HypothesisViolated, match="identity"):
        wreath_witness(Z3, [0, 1, 2], inv3, H2)
    with pytest.raises(HypothesisViolated, match="inverse-closed"):
        wreath_witness(Z4, [1], builders.named_map(Z4, "inversion"), H2)
    with pytest.raises(HypothesisViolated, match="generate"):
        wreath_witness(Z4, [2], builders.named_map(Z4, "inversion"), H2)
    # inversion on an abelian group is an automorphism: trivial H is rejected
    with pytest.raises(HypothesisViolated, match="automorphism"):
        wreath_witness(Z3, [1, 2], inv3, trivial_group(1))
    # tau that scrambles colours is rejected
    with pytest.raises(HypothesisViolated, match="tau"):
        wreath_witness(Z4, [1, 3], (0, 2, 1, 3), H2)


def test_wreath_witness_trivial_top_group_needs_nonhom_tau():
    Q = builders.quaternion8()
    S = [Q.label_index(l) for l in ("i", "-i", "j", "-j")]
    W = wreath_witness(Q, S, builders.named_map(Q, "inversion"),
                       trivial_group(1))
    assert W.X.order == 8
    assert autc_group(W.graph).verdict == "NonCCA"


def test_dihedral_coset_tau_satisfies_hypotheses():
    D = builders.dihedral(3)
    tau, S = _dihedral_coset_tau(D)
    W = wreath_witness(D, S, tau, builders.cyclic(2))
    assert W.X.order == 72
    assert autc_group(W.graph).verdict == "NonCCA"


def test_complete_colour_pair_q8():
    A = builders.q8_times_z2(0)
    AR = A.right_regular
    sigmas = [builders.named_map(A, f"sigma-{u}") for u in "ijk"]
    B = close_generators(list(AR.generators) + sigmas, 8, cap=65)
    chk = is_complete_colour_pair(AR, B)
    assert chk.is_pair and chk.case == "3"


def test_complete_colour_pair_rejected_for_plain_group():
    G = builders.symmetric(3).right_regular
    chk = is_complete_colour_pair(G, G)
    assert not chk.is_pair and chk.case == "CCA"


def test_complete_colour_pair_requires_regularity():
    S3 = builders.symmetric(3)
    with pytest.raises(NotRegular):
        is_complete_colour_pair(S3, S3)


def test_line_graph_construction_heawood():
    P, _, Hbip, G21, _ = _heawood_groups()
    Gamma, Hemb = line_graph_construction(P, G21, Hbip)
    assert Gamma.n == 21
    assert Hemb.order == 168
    for p in Hemb.generators:
        assert is_colour_preserving(Gamma, p)
    res = autc_group(Gamma)
    assert res.verdict == "NonCCA"
    assert res.full_group.order == 168
    assert set(res.full_group.elements) == set(Hemb.elements)
    _check_special_cliques(P, Gamma)


def test_line_graph_construction_gates():
    P, full, Hbip, G21, _ = _heawood_groups()
    # orbits of the full group are not the two biparts
    with pytest.raises(HypothesisViolated, match="orbit"):
        line_graph_construction(P, G21, full)
    square = PlainGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    Z4R = builders.cyclic(4)
    with pytest.raises(HypothesisViolated):
        line_graph_construction(square, Z4R, Z4R)


def test_line_graph_construction_refuses_a_graph_that_is_not_bipartite():
    # the biparts are always the graph's own two-colouring: C5 under its
    # rotations is refused as not bipartite before any orbit is compared
    C5 = PlainGraph(5, [(i, (i + 1) % 5) for i in range(5)])
    Z5 = close_generators([(1, 2, 3, 4, 0)], 5)
    with pytest.raises(HypothesisViolated, match="graph is not bipartite"):
        line_graph_construction(C5, Z5, Z5)
    # on the shipped graphs the two-colouring is the split into points and
    # lines, vertices and subdivision points, and the two sides of K_{8,8}
    H = heawood()
    assert H.two_colouring() == (list(range(7)), list(range(7, 14)))
    assert subdivision(H).two_colouring() == (list(range(14)),
                                              list(range(14, 35)))
    assert _knn_q8_inputs()[0].two_colouring() == (list(range(8)),
                                                   list(range(8, 16)))


def test_line_graph_construction_needs_generators_of_h():
    P, _, Hbip, G21, _ = _heawood_groups()
    one_gen = FiniteGroup(Hbip.elements, Hbip.generators[:1])
    with pytest.raises(HypothesisViolated, match="generators of H"):
        line_graph_construction(P, G21, one_gen)


SHIFT, DOUBLE = (1, 2, 3, 4, 0), (0, 2, 4, 1, 3)


def _left(p):
    return p + (5, 6, 7, 8, 9)


def _right(p):
    return (0, 1, 2, 3, 4) + tuple(5 + x for x in p)


def _k55(extra):
    """K_{5,5}, G = Z5 x Z5 by the shifts of the two sides 0..4 and 5..9,
    and H generated by G's generators and extra, for L(K_{5,5}) on G."""
    gens = [_left(SHIFT), _right(SHIFT)]
    K = PlainGraph(10, [(i, 5 + j) for i in range(5) for j in range(5)])
    return K, close_generators(gens, 10), close_generators(gens + extra, 10)


def test_line_graph_construction_names_colour_breaking_generator(monkeypatch):
    """L(K_{5,5}) on Z5 x Z5 with H = AGL(1,5) x AGL(1,5).  The local pair
    check is patched to pass, so only the colour check on H's generators
    can refuse: the translations keep colours and the doubling x -> 2x,
    which swaps the colours {1, 4} and {2, 3}, does not."""
    K, G, H = _k55([_left(DOUBLE), _right(DOUBLE)])
    assert (G.order, H.order) == (25, 400)
    monkeypatch.setattr(constructions, "is_complete_colour_pair",
                        lambda loc_G, loc_H: SimpleNamespace(is_pair=True))
    with pytest.raises(HypothesisViolated) as err:
        line_graph_construction(K, G, H)
    assert str(err.value) == \
        f"{H.label(H.index[_left(DOUBLE)])} in H changes line-graph colours"


@pytest.mark.parametrize("extra, vertex", [(_left(DOUBLE), 5),
                                           (_right(DOUBLE), 0)])
def test_line_graph_construction_names_the_failing_vertex(extra, vertex):
    """L(K_{5,5}) on Z5 x Z5 with H = AGL(1,5) x Z5, and Z5 x AGL(1,5).  At
    a vertex of the side that H's doubling does not move, G_v induces Z5 on
    the other side and H_v AGL(1,5), which is no complete colour pair, as
    every complete graph on Z5 is CCA; at the other side both induce Z5.
    The refusal names the least vertex that fails, 5 or 0."""
    K, G, H = _k55([extra])
    assert (G.order, H.order) == (25, 100)
    with pytest.raises(HypothesisViolated) as err:
        line_graph_construction(K, G, H)
    assert str(err.value) == f"local pair condition fails at vertex {vertex}"
    for v in range(K.n):
        orders = (len(_reference_local_group(K, G, v)),
                  len(_reference_local_group(K, H, v)))
        assert orders == ((5, 20) if (v < 5) == (vertex < 5) else (5, 5)), v


def _construction_inputs():
    """(P, G, H) of the inner line-graph call of the Heawood subdivision,
    the Heawood line graph, K_{8,8} and the star K_{1,3}."""
    inputs = []
    construct = constructions.line_graph_construction

    def recorded(P, G, H):
        inputs.append((P, G, H))
        return construct(P, G, H)

    P, full, Hbip, G21, G42 = _heawood_groups()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constructions, "line_graph_construction", recorded)
        subdivision_construction(P, G42, full)
    star = PlainGraph(4, [(0, 1), (0, 2), (0, 3)])
    S3 = close_generators([(0, 2, 3, 1), (0, 2, 1, 3)], 4)
    Z3 = close_generators([(0, 2, 3, 1)], 4)
    return inputs + [(P, G21, Hbip), _knn_q8_inputs(), (star, Z3, S3)]


def test_line_graph_decides_each_local_pair_once(monkeypatch):
    # the local groups are built at the least vertex of each G-orbit only,
    # in ascending order, and the complete colour pair check runs there
    # once where the two differ: twice on K_{8,8}, not once per vertex
    built, calls = [], []
    local_group = constructions._local_group
    check = constructions.is_complete_colour_pair

    def recorded(P, A, v):
        built.append(v)
        return local_group(P, A, v)

    def counted(loc_G, loc_H):
        calls.append((loc_G, loc_H))
        return check(loc_G, loc_H)

    monkeypatch.setattr(constructions, "_local_group", recorded)
    monkeypatch.setattr(constructions, "is_complete_colour_pair", counted)
    counts = []
    for P, G, H in _construction_inputs():
        built.clear()
        calls.clear()
        line_graph_construction(P, G, H)
        least = sorted({min(g[v] for g in G.elements) for v in range(P.n)})
        assert built == [v for v in least for _ in "GH"]
        differ = [v for v in least if _reference_local_group(P, G, v)
                  != _reference_local_group(P, H, v)]
        assert len(calls) == len(differ) <= len(least)
        counts.append((len(calls), len(least), P.n))
    assert counts == [(1, 2, 35), (2, 2, 14), (2, 2, 16), (1, 2, 4)]


def test_line_graph_construction_refuses_generators_of_a_subgroup():
    # H's generators are closed on K_{8,8}'s 16 points: generators that
    # span only G, or an element list that is no group, are refused
    K, G, H = _knn_q8_inputs()
    with pytest.raises(HypothesisViolated, match="generators of H"):
        line_graph_construction(K, G, FiniteGroup(H.elements, G.generators))
    extra = next(h for h in H.elements if h not in G.index)
    partial = FiniteGroup(G.elements + [extra], G.generators + [extra])
    with pytest.raises(HypothesisViolated, match="generators of H"):
        line_graph_construction(K, G, partial)


def _reference_local_group(P, A, v):
    """The induced group on v's neighbours from the definition: each
    element of A fixing v, written on neighbour positions."""
    nbrs = P.adj[v]
    return {tuple(nbrs.index(g[u]) for u in nbrs)
            for g in A.elements if g[v] == v}


def _check_local_groups(P, A):
    """_local_group at every vertex: the elements are the reference's,
    sorted, and the generators the first-fit ones coset_growth takes from
    them."""
    for v in range(P.n):
        loc = constructions._local_group(P, A, v)
        induced = sorted(_reference_local_group(P, A, v))
        assert loc.elements == induced, v
        assert loc.generators \
            == coset_growth(induced, len(P.adj[v]), len(induced))[0], v
        assert loc.degree == len(P.adj[v])


def _check_special_cliques(P, Gamma):
    """The special cliques, the line-graph vertices of the edges through
    one vertex of P, put every line-graph vertex in exactly two of them
    and every line-graph edge in exactly one."""
    cliques = [{Gamma.vertex_of_edge[min(v, u), max(v, u)] for u in P.adj[v]}
               for v in range(P.n)]
    assert all(sum(i in c for c in cliques) == 2 for i in range(Gamma.n))
    assert all(sum(i in c and j in c for c in cliques) == 1
               for i, j in Gamma.edges)


def test_local_groups_match_reference_at_every_degree():
    # on the star K_{1,3} under S3 the leaves have degree 1, where
    # itemgetter of one neighbour would return a bare point; then every
    # vertex of K_4, the Heawood graph and K_{8,8}, under groups with one
    # orbit on the vertices (full), two (Hbip, H) and the arc-regular
    # G21 and G; and the subdivision lifts, whose orbits have different
    # degrees
    star = PlainGraph(4, [(0, 1), (0, 2), (0, 3)])
    S3 = close_generators([(0, 2, 3, 1), (0, 2, 1, 3)], 4)
    Z3 = close_generators([(0, 2, 3, 1)], 4)
    _check_local_groups(star, S3)
    _check_local_groups(star, Z3)
    # K_4 under the dihedral group of the square: the stabiliser of v
    # swaps two of its neighbours, a subgroup that is not normal in S3
    K4 = PlainGraph(4, list(itertools.combinations(range(4), 2)))
    _check_local_groups(K4, close_generators([(1, 2, 3, 0), (2, 1, 0, 3)],
                                             4))
    assert constructions._local_group(star, S3, 1).elements == [(0,)]
    P, full, Hbip, G21, G42 = _heawood_groups()
    K, G, H = _knn_q8_inputs()
    for Q, groups in ((P, (full, Hbip, G21, G42)), (K, (G, H))):
        for A in groups:
            _check_local_groups(Q, A)
    inputs = []
    construct = constructions.line_graph_construction

    def recorded(P, G, H):
        inputs.append((P, G, H))
        return construct(P, G, H)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constructions, "line_graph_construction", recorded)
        subdivision_construction(P, G42, full)
    (SP, G2, H2), = inputs
    _check_local_groups(SP, G2)
    _check_local_groups(SP, H2)
    # one edge, and three edges through a vertex of degree 3
    edge = PlainGraph(2, [(0, 1)])
    Gamma, Hemb = line_graph_construction(edge, trivial_group(2),
                                          trivial_group(2))
    assert (Gamma.n, Hemb.elements) == (1, [(0,)])
    _check_special_cliques(edge, Gamma)
    Gamma, Hemb = line_graph_construction(star, Z3, S3)
    assert Gamma.n == 3 and Hemb.order == 6
    assert sorted(Hemb.elements) == sorted(itertools.permutations(range(3)))


def test_complete_colour_pair_ignores_local_element_order(monkeypatch):
    # _local_group lists its elements sorted, not in closure order: on
    # every local pair the Heawood, subdivision and K_{8,8} constructions
    # check, one per G-orbit where the two groups differ, reversing the
    # non-identity elements of both groups leaves is_pair and the case as
    # they are
    pairs = []
    check = constructions.is_complete_colour_pair

    def recorded(loc_G, loc_H):
        pairs.append((loc_G, loc_H))
        return check(loc_G, loc_H)

    monkeypatch.setattr(constructions, "is_complete_colour_pair", recorded)
    P, full, Hbip, G21, G42 = _heawood_groups()
    line_graph_construction(P, G21, Hbip)
    subdivision_construction(P, G42, full)
    line_graph_construction(*_knn_q8_inputs())
    assert len(pairs) == 5

    def reversed_copy(A):
        return FiniteGroup(A.elements[:1] + A.elements[:0:-1], A.generators)

    for loc_G, loc_H in pairs:
        chk = check(loc_G, loc_H)
        rev = check(reversed_copy(loc_G), reversed_copy(loc_H))
        assert (rev.is_pair, rev.case) == (chk.is_pair, chk.case)
        assert chk.is_pair


def _reference_edge_image(Gamma, h):
    """h's action on the line graph's vertices, from the definition: the
    vertex of the edge {u, v} goes to the vertex of {h(u), h(v)}."""
    return tuple(Gamma.vertex_of_edge[tuple(sorted((h[u], h[v])))]
                 for u, v in Gamma.edge_of_vertex)


def test_embedding_is_grown_from_generator_images(monkeypatch):
    # H_emb's elements are the images of all of H, listed sorted, and its
    # generators the images of H's generators in order; the edge map is
    # computed once per generator of H.  On the inner line-graph call of
    # the Heawood subdivision, the Heawood line graph, K_{8,8} and the
    # star K_{1,3}, whose special cliques are checked too
    inputs = _construction_inputs()

    edge_action = constructions._edge_action
    calls = []

    def counted(edges, point_of_edge):
        act = edge_action(edges, point_of_edge)

        def on_edges(h):
            calls.append(h)
            return act(h)
        return on_edges

    monkeypatch.setattr(constructions, "_edge_action", counted)
    orders = []
    for P, G, H in inputs:
        calls.clear()
        Gamma, Hemb = line_graph_construction(P, G, H)
        assert len(calls) == len(H.generators)
        assert Hemb.generators == [_reference_edge_image(Gamma, h)
                                   for h in H.generators]
        assert set(Hemb.elements) == {_reference_edge_image(Gamma, h)
                                      for h in H.elements}
        assert Hemb.elements == sorted(Hemb.elements)
        _check_special_cliques(P, Gamma)
        orders.append(Hemb.order)
    assert orders == [336, 168, 4096, 6]


def test_subdivision_construction_heawood():
    P, full, _, _, G42 = _heawood_groups()
    Gamma, Hemb = subdivision_construction(P, G42, full)
    assert Gamma.n == 42
    assert Hemb.order == 336
    _check_special_cliques(subdivision(P), Gamma)
    res = autc_group(Gamma)
    assert res.verdict == "NonCCA"
    assert res.full_group.order == 336


def test_subdivision_requires_arc_regular():
    P, full, Hbip, G21, _ = _heawood_groups()
    with pytest.raises(NotArcRegular):
        subdivision_construction(P, G21, Hbip)
