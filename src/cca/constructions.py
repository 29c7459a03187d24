"""Constructions of non-CCA Cayley graphs.

Two families: wreath products carrying the colour-preserving but
non-automorphic map tau', and line-graph / subdivision realizations over
edge- or arc-regular groups with local complete-colour-pair verification.
Every hypothesis is machine-checked at construction time, so the builders
double as oracles for the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import builders
from .engine import (colour_break, is_colour_preserving, multiplicative_break,
                     predicted_autc_complete)
from .errors import (ClosureExceedsCap, HypothesisViolated, NotArcRegular,
                     NotRegular)
from .graphs import (ColouredCayleyGraph, PlainGraph, complete_cayley,
                     is_connected, realize_line_graph_as_cayley, subdivision)
from .groups import FiniteGroup, coset_growth, generated, is_subgroup
from .perms import Perm, identity, pconj, reader


# -- wreath products --------------------------------------------------------

@dataclass
class WreathWitness:
    X: FiniteGroup
    T_conn: list[int]
    tau_prime: Perm
    graph: ColouredCayleyGraph
    non_hom_pair: tuple[int, int]  # (s, g), s in T: tau'(sg) != tau'(s)tau'(g)


def _move_point_zero(H: FiniteGroup) -> FiniteGroup:
    """Relabel H's points so that point 0 is moved, when H is nontrivial."""
    if H.order == 1 or any(p[0] != 0 for p in H.elements):
        return H
    moved = next(q for q in range(H.degree)
                 for p in H.elements if p[q] != q)
    t = list(range(H.degree))
    t[0], t[moved] = t[moved], t[0]
    t = tuple(t)
    return FiniteGroup([pconj(p, t) for p in H.elements],
                       [pconj(p, t) for p in H.generators],
                       labels=H.labels, meta=H.meta)


def wreath_witness(G: FiniteGroup, S, tau, H: FiniteGroup) -> WreathWitness:
    """Build X = G wr H with connection set (H - 1) u S_1 u ... u S_m and the
    colour-preserving map tau' sending h*g_1*...*g_m to h*tau(g_1)*g_2*...*g_m.

    Hypotheses (all verified): S is an inverse-closed generating set of G;
    tau is a non-identity bijection fixing 1 with tau(sg) = s^{+-1} tau(g);
    and either H is nontrivial or tau is not a group automorphism."""
    n = G.order
    S = [s if isinstance(s, int) else G.index[tuple(s)] for s in S]
    tau = tuple(tau)
    if 0 in S:
        raise HypothesisViolated("first hypothesis: S contains the identity")
    if any(G.inverse[s] not in S for s in S):
        raise HypothesisViolated("first hypothesis: S is not inverse-closed")
    base = ColouredCayleyGraph(G, S)
    if not is_connected(base):
        raise HypothesisViolated("first hypothesis: S does not generate G")
    if sorted(tau) != list(range(n)) or tau[0] != 0:
        raise HypothesisViolated("first hypothesis: tau must be a bijection fixing 1")
    if tau == identity(n):
        raise HypothesisViolated("first hypothesis: tau is the identity")
    if (edge := colour_break(base, tau)) is not None:
        raise HypothesisViolated("first hypothesis: tau changes the colour "
                                 "of the edge " + "-".join(map(G.label, edge)))
    if H.order == 1 and multiplicative_break(base, tau) is None:
        raise HypothesisViolated(
            "second hypothesis: H is trivial and tau is an automorphism of G")

    H = _move_point_zero(H)
    X = builders.wreath_product(G, H)
    items = X.meta["items"]
    idx = {it: i for i, it in enumerate(items)}
    m = H.degree

    T = [idx[(h, (0,) * m)] for h in range(1, H.order)]
    for i in range(m):
        for s in S:
            gs = [0] * m
            gs[i] = s
            T.append(idx[(0, tuple(gs))])

    tau_prime = tuple(idx[(h, (tau[gs[0]],) + gs[1:])] for h, gs in items)
    graph = ColouredCayleyGraph(X, T)

    if tau_prime[0] != 0:
        raise HypothesisViolated(f"tau' moves 1 to {X.label(tau_prime[0])}")
    if (edge := colour_break(graph, tau_prime)) is not None:
        raise HypothesisViolated("tau' changes the colour of the edge "
                                 + "-".join(map(X.label, edge)))
    # S generates G and H - 1 lies in T, so T generates X: no break on the
    # left rows of T means tau' is an automorphism
    pair = multiplicative_break(graph, tau_prime)
    if pair is None:
        raise HypothesisViolated("tau' is a group automorphism of X")
    return WreathWitness(X, T, tau_prime, graph, pair)


# -- complete colour pairs --------------------------------------------------

@dataclass
class CompleteColourPairCheck:
    is_pair: bool
    case: str                      # "1" | "2" | "3" | "CCA"


def is_complete_colour_pair(local_G: FiniteGroup,
                            local_B: FiniteGroup) -> CompleteColourPairCheck:
    """Decide whether (local_G, local_B) is a complete colour pair: local_G
    must be one of the exceptional cases of the complete-graph classification
    and every element of local_B must preserve colours on K_{local_G}."""
    deg = local_G.degree
    if local_G.order != deg:
        raise NotRegular("local group order differs from the point count")
    point_of = [p[0] for p in local_G.elements]
    if len(set(point_of)) != deg:
        raise NotRegular("local group is not regular on the points")
    if local_B.degree != deg or not is_subgroup(local_G, local_B):
        raise HypothesisViolated("local_G is not a subgroup of local_B")
    elem_of_point = {pt: e for e, pt in enumerate(point_of)}
    case = predicted_autc_complete(local_G).case
    K = complete_cayley(local_G)
    preserved = all(
        is_colour_preserving(K, tuple(elem_of_point[b[pt]] for pt in point_of))
        for b in local_B.elements)
    return CompleteColourPairCheck(preserved and case != "CCA", case)


# -- line graph / subdivision constructions --------------------------------

def _check_acts(P: PlainGraph, A: FiniteGroup, name: str):
    eset = set(P.edges)
    for g in A.generators or []:
        if len(g) != P.n:
            raise HypothesisViolated(f"{name} has the wrong degree")
        for u, v in P.edges:
            if (min(g[u], g[v]), max(g[u], g[v])) not in eset:
                raise HypothesisViolated(f"{name} is not a group of automorphisms")


def _vertex_orbits(P: PlainGraph, H: FiniteGroup) -> list[frozenset]:
    seen = set()
    orbits = []
    for v in range(P.n):
        if v in seen:
            continue
        orb = frozenset(h[v] for h in H.elements)
        seen |= orb
        orbits.append(orb)
    return orbits


def _edge_action(edges, point_of_edge):
    """h -> (point_of_edge[{h(u), h(v)}] for each edge (u, v) in edges), the
    action of a vertex permutation h on points that stand for edges, with
    point_of_edge keyed by (min, max).  The edges' endpoints' images are
    read through one reader each, and each image arc is mapped to its
    edge's point through one dict that holds both orientations."""
    point_of_arc = {}
    for (u, v), i in point_of_edge.items():
        point_of_arc[u, v] = point_of_arc[v, u] = i
    arc_point = point_of_arc.__getitem__
    tails, heads = (reader([e[k] for e in edges]) for k in (0, 1))
    return lambda h: tuple(map(arc_point, zip(tails(h), heads(h))))


def _local_groups(P: PlainGraph, A: FiniteGroup) -> list[FiniteGroup]:
    """The permutation groups induced on the neighbourhood of each vertex v
    of P by its stabiliser A_v, for A a group of automorphisms of P, listed
    by vertex.

    A is scanned once per orbit.  At the orbit's first vertex v, A_v is
    selected and its maps of the neighbours are read through one reader
    per element, then written on neighbour positions once per distinct map.
    Any t in A with t(v) = x gives A_x = t^-1 A_v t, so the maps at x are
    those at v conjugated by q, the bijection of neighbour positions that t
    induces: q(j) is the position at x of t's image of v's j-th neighbour.
    One t is taken for each x of the orbit, which has |A|/|A_v| points, and
    the scan for them stops once each has one.

    The induced maps at a vertex are the image of its stabiliser, so they
    form a group: generated grows it from them with the cap |maps|, and
    since the members grown hold every map, they are exactly the maps,
    sorted, unless the cap refuses, which is an internal error.  Vertices
    with the same maps share one group."""
    maps = [None] * P.n
    for v in range(P.n):
        if maps[v] is not None:
            continue
        read = reader(P.adj[v])
        stab = [g for g in A.elements if g[v] == v]
        pos = {u: i for i, u in enumerate(P.adj[v])}.__getitem__
        maps[v] = tuple(sorted(tuple(map(pos, img))
                               for img in set(map(read, stab))))
        orbit = {v: None}
        for t in A.elements:
            if len(orbit) == A.order // len(stab):
                break
            orbit.setdefault(t[v], t)
        for x, t in orbit.items():
            if x == v:
                continue
            pos = {u: i for i, u in enumerate(P.adj[x])}.__getitem__
            q = tuple(map(pos, read(t)))
            conj = reader(sorted(range(len(q)), key=q.__getitem__))
            maps[x] = tuple(sorted(tuple(map(q.__getitem__, conj(m)))
                                   for m in maps[v]))
    groups = {}
    for induced in maps:
        if induced not in groups:
            try:
                groups[induced] = generated(induced, len(induced[0]),
                                            len(induced))
            except ClosureExceedsCap:
                raise RuntimeError("internal error: the induced maps are no "
                                   "group") from None
    return [groups[induced] for induced in maps]


def _special_clique_checks(P: PlainGraph, Gamma: ColouredCayleyGraph):
    """Special cliques (edges through one P-vertex) must partition the edges
    of the line graph, with each line-graph vertex in exactly two of them."""
    cliques = []
    for v in range(P.n):
        cliques.append({Gamma.vertex_of_edge[(min(v, u), max(v, u))]
                        for u in P.adj[v]})
    membership = [0] * Gamma.n
    for c in cliques:
        for i in c:
            membership[i] += 1
    label = Gamma.group.label
    for i, k in enumerate(membership):
        if k != 2:
            raise HypothesisViolated(f"vertex {label(i)} in {k} special cliques, not 2")
    for i, j in Gamma.edges:
        if sum(1 for c in cliques if i in c and j in c) != 1:
            raise HypothesisViolated(
                f"edge {label(i)}-{label(j)} not in exactly one special clique")


def line_graph_construction(P: PlainGraph, G: FiniteGroup, H: FiniteGroup):
    """Realize L(P) as a coloured Cayley graph on an edge-regular G and embed
    H as colour-preserving automorphisms.

    Hypotheses verified: P connected bipartite; G <= H <= Aut(P); G
    edge-regular; the H-orbits on vertices are exactly the biparts; at every
    vertex the induced local groups coincide or form a complete colour pair,
    decided once for each distinct pair of local groups.

    H's generators are checked to act on P and to generate H, on the
    membership set coset_growth grows from them on P's own P.n points with
    the cap |H|; so every element of H acts on P.  The embedding h ->
    (action of h on the edges) is computed on H's generators only, and
    H_emb is the group coset_growth grows from their images on the edges,
    with the cap |H|, listed sorted, the identity first, with those images
    as its generators in H's order.  This is exact: the embedding is a
    homomorphism and H's generators generate H, so their images generate
    the image of H, of order |H|/|kernel|, and the embedding is faithful
    iff that image has |H| elements.  The colour-preserving maps form a
    group, so they contain all of H_emb once they contain its generators,
    which alone are checked; for the same reason H_emb lies in Aut_c iff
    its generators do."""
    if not P.is_connected():
        raise HypothesisViolated("graph is not connected")
    bip = P.two_colouring()
    if bip is None:
        raise HypothesisViolated("graph is not bipartite")
    _check_acts(P, H, "H")
    try:
        spans = coset_growth(H.generators, P.n, H.order)[1].issuperset(
            H.elements)
    except ClosureExceedsCap:
        spans = False
    if not spans:
        raise HypothesisViolated("the generators of H do not generate H")
    if not is_subgroup(G, H):
        raise HypothesisViolated("G is not a subgroup of H")

    orbits = set(_vertex_orbits(P, H))
    if orbits != {frozenset(bip[0]), frozenset(bip[1])}:
        raise HypothesisViolated("H-orbits on vertices are not the biparts")

    is_pair = {}
    for v, (loc_G, loc_H) in enumerate(zip(_local_groups(P, G),
                                           _local_groups(P, H))):
        key = (frozenset(loc_G.elements), frozenset(loc_H.elements))
        if key[0] == key[1]:
            continue
        if key not in is_pair:
            is_pair[key] = is_complete_colour_pair(loc_G, loc_H).is_pair
        if not is_pair[key]:
            raise HypothesisViolated(
                f"local pair condition fails at vertex {v}")

    Gamma = realize_line_graph_as_cayley(P, G)
    _special_clique_checks(P, Gamma)

    induced = _edge_action(Gamma.edge_of_vertex, Gamma.vertex_of_edge)
    emb_gens = [induced(h) for h in H.generators]
    members = coset_growth(emb_gens, Gamma.n, H.order)[1]
    if len(members) != H.order:
        raise HypothesisViolated("H does not act faithfully on the edges")
    H_emb = FiniteGroup(sorted(members), emb_gens)
    for g, p in zip(H.generators, H_emb.generators):
        if not is_colour_preserving(Gamma, p):
            raise HypothesisViolated(
                f"{H.label(H.index[g])} in H changes line-graph colours")
    return Gamma, H_emb


def subdivision_construction(P: PlainGraph, G: FiniteGroup, H: FiniteGroup):
    """Realize L(S(P)) as a coloured Cayley graph on an arc-regular G with H
    embedded as colour-preserving automorphisms, by lifting both groups to
    the subdivision graph and delegating to the line-graph construction.
    The subdivision point of P's k-th edge is P.n + k."""
    if not P.is_connected():
        raise HypothesisViolated("graph is not connected")
    _check_acts(P, H, "H")
    if not is_subgroup(G, H):
        raise HypothesisViolated("G is not a subgroup of H")
    arcs = [(u, v) for u, v in P.edges] + [(v, u) for u, v in P.edges]
    if G.order != len(arcs):
        raise NotArcRegular(f"|G| = {G.order} but the graph has {len(arcs)} arcs")
    u0, v0 = arcs[0]
    if len({(g[u0], g[v0]) for g in G.elements}) != len(arcs):
        raise NotArcRegular("G is not regular on the arcs")

    SP = subdivision(P)
    on_edges = _edge_action(P.edges,
                            {e: P.n + k for k, e in enumerate(P.edges)})

    def lift(g):
        """g on P's vertices, and the point of each edge {u, v} to the point
        of {g(u), g(v)}: the endpoints' images are read through two
        readers over P.edges and each image arc mapped to its point."""
        return g + on_edges(g)

    G2 = FiniteGroup([lift(g) for g in G.elements],
                     [lift(g) for g in G.generators], labels=G.labels)
    H2 = FiniteGroup([lift(h) for h in H.elements],
                     [lift(h) for h in H.generators], labels=H.labels)
    return line_graph_construction(SP, G2, H2)
