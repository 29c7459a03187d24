import random

import networkx as nx
import pytest

from cca import builders, constructions
from cca.constructions import subdivision_construction
from cca.engine import autc_group
from cca.errors import ContainsIdentity, NotEdgeRegular, NotInverseClosed, NotNormal
from cca.graphs import (_DOT_PALETTE, ColouredCayleyGraph, PlainGraph, cayley,
                        colour_units,
                        complete_cayley, graph_automorphisms, heawood,
                        is_connected, quotient_graph,
                        realize_line_graph_as_cayley, subdivision, to_dot,
                        to_json_dict)
from cca.groups import FiniteGroup, close_generators, trivial_group
from cca.recipes import _heawood_groups, _knn_q8_inputs

from conftest import (group_pool, random_connected_cayley,
                      reference_edge_colour, reference_graph_automorphisms,
                      vf2_graph_automorphisms)


def test_plain_graph_basics():
    P = PlainGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert P.is_connected()
    assert P.two_colouring() == ([0, 2], [1, 3])
    with pytest.raises(ValueError):
        PlainGraph(2, [(0, 0)])


def test_heawood_graph():
    H = heawood()
    assert H.n == 14
    assert all(len(nb) == 3 for nb in H.adj)
    assert H.is_connected()
    assert H.two_colouring() is not None


def test_heawood_automorphism_group():
    auts = graph_automorphisms(heawood())
    assert len(auts) == 336


def _four_graphs():
    """(graph, |Aut|) for the Heawood graph, K3,3, the cube and Petersen."""
    def plain(X):
        X = nx.convert_node_labels_to_integers(X, ordering="sorted")
        return PlainGraph(X.number_of_nodes(), X.edges())

    return [(heawood(), 336),
            (plain(nx.complete_bipartite_graph(3, 3)), 72),
            (plain(nx.hypercube_graph(3)), 48),
            (plain(nx.petersen_graph()), 120)]


def test_graph_automorphisms_match_reference():
    # grown from strong generators, the sorted elements equal the full
    # backtracking's list
    for P, order in _four_graphs():
        auts = graph_automorphisms(P).elements
        assert len(auts) == order
        assert auts == reference_graph_automorphisms(P)


def test_graph_automorphisms_match_vf2():
    # the breadth-first base gives VF2's sorted listing: on the Heawood graph
    # under seeded relabellings, on its 35-vertex subdivision, whose search
    # along the vertex order did not finish, on a disconnected graph, whose
    # component roots try every vertex, and on the four graphs above
    H = heawood()
    rng = random.Random(25)
    graphs = _four_graphs()
    for _ in range(20):
        relabel = rng.sample(range(H.n), H.n)
        graphs.append((PlainGraph(H.n, [(relabel[u], relabel[v])
                                        for u, v in H.edges]), 336))
    relabel = rng.sample(range(10), 10)
    two_triangles_and_path = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                              (6, 7), (7, 8), (8, 9)]
    graphs += [(subdivision(H), 336),
               (PlainGraph(10, [(relabel[u], relabel[v])
                                for u, v in two_triangles_and_path]), 144)]
    for P, order in graphs:
        auts = graph_automorphisms(P).elements
        assert len(auts) == order
        assert auts == vf2_graph_automorphisms(P), P.edges


def test_line_graph_and_subdivision_counts():
    H = heawood()
    S = subdivision(H)
    assert S.n == 14 + 21
    assert all(len(S.adj[v]) == 2 for v in range(14, S.n))


def test_cayley_graph_validation():
    Z6 = builders.cyclic(6)
    with pytest.raises(ContainsIdentity):
        ColouredCayleyGraph(Z6, [0, 1, 5])
    with pytest.raises(NotInverseClosed):
        ColouredCayleyGraph(Z6, [1])
    Gamma = ColouredCayleyGraph(Z6, [1, 5, 3])
    assert Gamma.colour_classes == [(1, 5), (3,)]
    assert len(Gamma.edges) == 6 + 3


def test_cayley_accepts_permutations():
    Z6 = builders.cyclic(6)
    Gamma = cayley(Z6, [Z6.elements[1], Z6.elements[5]])
    assert Gamma.conn == [1, 5]


def test_connectivity():
    Z6 = builders.cyclic(6)
    assert is_connected(ColouredCayleyGraph(Z6, [1, 5]))
    assert not is_connected(ColouredCayleyGraph(Z6, [2, 4]))


def test_connectivity_matches_generated_subgroup():
    rng = random.Random(7)
    pool = group_pool(24)
    seen = {True: 0, False: 0}
    for _ in range(400):
        G = pool[rng.randrange(len(pool))]
        units = colour_units(G, range(1, G.order))
        picked = rng.sample(units, rng.randint(0, min(3, len(units))))
        conn = [s for u in picked for s in u]
        generated = close_generators([G.elements[s] for s in conn], G.degree,
                                     cap=G.order + 1).order == G.order
        assert is_connected(ColouredCayleyGraph(G, conn)) == generated, conn
        seen[generated] += 1
    assert seen[True] >= 50 and seen[False] >= 50


def test_complete_cayley():
    K = complete_cayley(builders.cyclic(5))
    assert len(K.edges) == 10
    assert len(K.colour_classes) == 2


def test_quotient_graph():
    Z12 = builders.cyclic(12)
    Gamma = ColouredCayleyGraph(Z12, [1, 11])
    N = Z12.subgroup([Z12.elements[4]])          # order 3
    Q = quotient_graph(Gamma, N)
    assert Q.group.order == 4
    assert Q.conn == [1, 3]
    S3 = builders.symmetric(3)
    T2 = S3.subgroup([(1, 0, 2)])
    with pytest.raises(NotNormal):
        quotient_graph(ColouredCayleyGraph(S3, [1, 2, 3, 4, 5]), T2)


def test_realize_line_graph_requires_edge_regular():
    H = heawood()
    with pytest.raises(NotEdgeRegular):
        realize_line_graph_as_cayley(H, graph_automorphisms(H))


def _reference_realization(P, G):
    """(S, edge_of_vertex, vertex_of_edge) of L(P) on G from the
    definition: vertex g is the edge {g(u0), g(v0)} of the least edge
    (u0, v0), and S holds the g whose edge meets that edge in one point."""
    u0, v0 = P.edges[0]
    eov = [(min(g[u0], g[v0]), max(g[u0], g[v0])) for g in G.elements]
    S = [i for i, e in enumerate(eov)
         if e != eov[0] and len(set(e) & set(eov[0])) == 1]
    return S, eov, {e: i for i, e in enumerate(eov)}


def test_realized_line_graph_matches_definition(monkeypatch):
    # S, edge_of_vertex and vertex_of_edge on the knn-q8 and Heawood
    # edge-regular groups, the Heawood subdivision lift, the star K_{1,3}
    # under Z3 and a single edge; then every element, not only the
    # generators, must act by automorphisms
    P, full, Hbip, G21, G42 = _heawood_groups()
    star = PlainGraph(4, [(0, 1), (0, 2), (0, 3)])
    cases = [_knn_q8_inputs()[:2], (P, G21),
             (star, close_generators([(0, 2, 3, 1)], 4)),
             (PlainGraph(2, [(0, 1)]), trivial_group(2))]
    realize = constructions.realize_line_graph_as_cayley

    def recorded(Q, G):
        cases.append((Q, G))
        return realize(Q, G)

    monkeypatch.setattr(constructions, "realize_line_graph_as_cayley",
                        recorded)
    subdivision_construction(P, G42, full)
    assert len(cases) == 5
    for Q, G in cases:
        Gamma = realize_line_graph_as_cayley(Q, G)
        assert (Gamma.conn, Gamma.edge_of_vertex, Gamma.vertex_of_edge) \
            == _reference_realization(Q, G)
    square = PlainGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    rot = (1, 2, 3, 0)
    Z4 = close_generators([rot], 4)
    assert realize_line_graph_as_cayley(square, Z4).conn == [1, 3]
    # (0 1) is no automorphism of the square; it is listed last, and the
    # generators alone act
    bad = FiniteGroup(Z4.elements[:3] + [(1, 0, 2, 3)], [rot])
    with pytest.raises(NotEdgeRegular, match="automorphisms"):
        realize_line_graph_as_cayley(square, bad)


def test_dot_and_json_export():
    Z4 = builders.cyclic(4)
    Gamma = ColouredCayleyGraph(Z4, [1, 3, 2])
    dot = to_dot(Gamma)
    assert dot.startswith("graph cayley {") and "--" in dot
    d = to_json_dict(Gamma)
    assert d["connection_set"] == ["1", "3", "2"]
    assert all(len(e) == 3 for e in d["edges"])


def test_edge_listing_matches_sorted_edge_colour():
    # the exports and `edges` list the edges from the left rows, in the
    # order of the sorted reference edge colours
    rng = random.Random(53)
    graphs = [random_connected_cayley(rng, group_pool(48)) for _ in range(40)]
    graphs += [random_connected_cayley(rng, [builders.build_spec(spec)])
               for spec in ("psl27", "pgl27") for _ in range(3)]
    graphs += [complete_cayley(builders.build_spec(spec))
               for spec in ("q8", "z2^4", "s4")]
    assert sum(len(u) == 1 for Gamma in graphs[:40]
               for u in Gamma.colour_classes) >= 10
    for Gamma in graphs:
        res = autc_group(Gamma)
        d = to_json_dict(Gamma)
        dot = to_dot(Gamma)
        assert res.to_json_dict()["graph"] == d
        edges = sorted(reference_edge_colour(Gamma).items())
        assert d["edges"] == [[u, v, c] for (u, v), c in edges]
        assert [line for line in dot.splitlines() if " -- " in line] == \
            [f"  {u} -- {v} [color={_DOT_PALETTE[c % len(_DOT_PALETTE)]}];"
             for (u, v), c in edges]
        assert Gamma.edges == [e for e, _ in edges]
