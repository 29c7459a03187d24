"""Colour-preserving automorphism groups of Cayley graphs and the CCA verdict.

One stabiliser search decides everything.  It visits vertices in the order
of groups.bfs_tree from the identity vertex, the BFS that graphs.is_connected
runs, so a disconnected graph raises NotConnected before any search.  A
vertex reached along an s-edge has its image forced into {s*w, s^-1*w}, and
every other edge is checked when its later endpoint is assigned, so each
map found is colour-preserving by construction (the tests compare with
networkx's VF2).  With the BFS order as base, each level at most doubles the
stabiliser A_1 of the identity vertex, so the search finds one map per
level that does, starting from the identity leaf and walking back up its
path: m strong generators, |A_1| = 2^m.  AutcResult runs the search once
and holds them: |Aut_c| = n*2^m, and G_R is normal iff every element of A_1
is a group automorphism, which holds iff it holds on the generators.  A_1
is listed in the order of a full descent, and Aut_c closed from G_R and the
generators, only on first access; the tests check this route against the
closure-and-normality route.
"""

from __future__ import annotations

from functools import cached_property

from .errors import NotConnected, StabiliserTooLarge
from .graphs import ColouredCayleyGraph
from .groups import (FiniteGroup, bfs_tree, close_generators,
                     find_isomorphism, generated, isomorphisms,
                     normal_subgroups)
from .perms import Perm, identity

STABILISER_CAP = 2 ** 14


def colour_break(Gamma: ColouredCayleyGraph, p: Perm) -> tuple[int, int] | None:
    """The first edge (u, v), u < v, that p does not map to an edge of the
    same colour class, or None if p preserves colours.

    The edge {u, s*u} keeps its colour, the unit of s, iff p(s*u) is s*p(u)
    or s^-1*p(u).  Units are scanned in colour_classes order and u
    ascending; an involution's edge fails from both ends or from neither,
    so it is reported from its lesser end, as it comes first."""
    if len(p) != Gamma.n:
        raise ValueError("permutation degree does not match the graph")
    rows = Gamma.left_rows
    for cls in Gamma.colour_classes:
        row, row_inv = rows[cls[0]], rows[cls[-1]]
        for u, v in enumerate(row):
            if p[v] != row[p[u]] and p[v] != row_inv[p[u]]:
                return (u, v) if u < v else (v, u)
    return None


def is_colour_preserving(Gamma: ColouredCayleyGraph, p: Perm) -> bool:
    """True iff p maps every edge to an edge of the same colour class."""
    return colour_break(Gamma, p) is None


def _search_stabiliser(Gamma: ColouredCayleyGraph):
    """Yield (v, u, s, g_k) for each BFS level k at which some colour-
    preserving automorphism fixing vertex 0 and the earlier BFS vertices
    moves v = s*u; g_k is the first such map the search meets.

    The base is the BFS order v_0, v_1, ...  Let A^(k) be the part of A_1
    fixing v_0, ..., v_{k-1}.  Every map in A^(k) sends v_k = s*u into
    {s*u, s^-1*u}, so [A^(k) : A^(k+1)] <= 2, and the g_k found, one for
    each level of index 2, generate A_1 (a strong generating set, Sims 1970;
    Seress 2003): |A_1| = 2^m for m maps yielded.

    Vertex v = s*u gets an unused image in {s*img[u], s^-1*img[u]}; every
    other edge {v, t*v} is checked when its later endpoint v is assigned
    (t*v has an image iff it is earlier in BFS order): img[t*v] must be
    t^{+-1}*img[v].  So every map found is a colour-preserving bijection.
    The identity passes every check, so the search starts from it and walks
    back from the last BFS level to the first; at level k it fixes the
    earlier vertices, tries only the other candidate s^-1*u and descends
    below it to the first leaf.  Maps are yielded from the last level to
    the first.  Raises NotConnected, from the BFS alone, when the connection
    set does not generate the group."""
    n, conn, left = Gamma.n, Gamma.conn, Gamma.left_rows
    inv = Gamma.group.inverse
    order, _ = bfs_tree(n, conn, left)
    if len(order) != n - 1:
        raise NotConnected("graph is not connected")
    rows = [(left[t], left[inv[t]]) for t in conn]
    img = list(range(n))
    used = [True] * n

    def rec(k: int, skip: int = -1) -> Perm | None:
        """The first leaf below level k, or None; img and used are restored
        to their state on entry either way."""
        if k == len(order):
            return tuple(img)
        v, u, s = order[k]
        w = img[u]
        c1 = left[s][w]
        c2 = left[inv[s]][w]
        for cand in ((c1,) if c1 == c2 else (c1, c2)):
            if cand == skip or used[cand]:
                continue
            for lt, lti in rows:
                ix = img[lt[v]]
                if ix != -1 and ix != lt[cand] and ix != lti[cand]:
                    break
            else:
                img[v] = cand
                used[cand] = True
                leaf = rec(k + 1)
                used[cand] = False
                img[v] = -1
                if leaf is not None:
                    return leaf
        return None

    for k in range(len(order) - 1, -1, -1):
        v, u, s = order[k]
        img[v] = -1
        used[v] = False
        g = rec(k, skip=v)
        if g is not None:
            yield v, u, s, g


def multiplicative_break(Gamma: ColouredCayleyGraph,
                         b: Perm) -> tuple[int, int] | None:
    """The first pair (s, g), s in S in connection-set order and g
    ascending, with b(s*g) != b(s)*b(g), or None if there is none.

    For a bijection b fixing vertex 0, None holds iff b is a group
    automorphism, since S generates G: b(s_1*...*s_k*g) =
    b(s_1)*...*b(s_k)*b(g) word by word.  The row of b(s) is the group's
    cached left row, one of the graph's when b preserves colours, since b(s)
    is then s or s^-1."""
    row_of = Gamma.group.left_row
    for s, row in Gamma.left_rows.items():
        row_bs = row_of(b[s])
        for g in range(Gamma.n):
            if b[row[g]] != row_bs[b[g]]:
                return s, g
    return None


def aut_pm1_group(G: FiniteGroup, S: list[int]) -> FiniteGroup:
    """Aut_{+-1}(G, S) as a permutation group on G's element indices, from
    every isomorphism G -> G sending each generator s to s or s^-1 that does
    so on all of S.  The generators are those generated picks from S.
    Raises NotConnected unless S generates G."""
    inv = G.inverse
    sub = generated([G.elements[s] for s in S], G.degree, cap=G.order)
    if sub.order != G.order:
        raise NotConnected("the candidates do not generate the group")
    gens = [G.index[g] for g in sub.generators]
    choices = [dict.fromkeys((s, inv[s])) for s in gens]
    found = [tuple(phi) for phi in isomorphisms(G, G, gens, choices)
             if all(phi[s] in (s, inv[s]) for s in S)]
    return close_generators(found, G.order, cap=max(len(found) + 1, 2))


class AutcResult:
    """Aut_c of a connected coloured Cayley graph, held as the strong
    generators of A_1 from one stabiliser search, which give its orders and
    the verdict; `p in res` decides membership without listing any group.
    Raises NotConnected when S does not generate G."""

    def __init__(self, graph: ColouredCayleyGraph):
        self.graph = graph
        self._levels = list(_search_stabiliser(graph))
        self.stabiliser_order = 1 << len(self._levels)
        self.autc_order = graph.n * self.stabiliser_order
        # the verdict's results on the generators, up to the first that
        # breaks, which the witness pass reads
        breaks = self._breaks = []
        for *_, g in self._levels:
            breaks.append(multiplicative_break(graph, g))
            if breaks[-1] is not None:
                break
        self.verdict = ("NonCCA" if breaks and breaks[-1] is not None
                        else "CCA")

    @cached_property
    def stabiliser(self) -> list[Perm]:
        """A_1, closed from the generators and listed in the order a full
        descent of the search would find it, the identity first: sorted by
        one bit per level at which a generator was found, 0 when
        img[v] = s*img[u], the candidate a descent tries first, and 1
        otherwise.  At a level where A^(k) = A^(k+1), the images of the
        earlier base vertices fix that of v_k, so two maps first differ at a
        generator level, and the key orders them as the descent does.  The
        2^m keys are distinct, so the element at place i has the bits of i
        as its key; the generator of _levels[j], the first leaf below its
        level's 1 bit, has only that bit, and sits at place 2^j."""
        stab = close_generators([g for *_, g in self._levels], self.graph.n,
                                cap=self.stabiliser_order)
        if stab.order != self.stabiliser_order:
            raise RuntimeError("internal error: |A_1| != 2^m")
        left = self.graph.left_rows
        key = [(v, u, left[s]) for v, u, s, _ in reversed(self._levels)]
        return sorted(stab.elements,
                      key=lambda b: [b[v] != row[b[u]] for v, u, row in key])

    @cached_property
    def _pm1_and_witness(self) -> tuple[list[Perm], Perm | None]:
        """Aut_pm1's elements and the witness: A_1 and None on a CCA graph,
        where A_1 = Aut_pm1, and otherwise one pass over A_1 after the
        identity, which stabiliser lists first and which is an
        automorphism.  A generator the verdict tested, at place 2^j, keeps
        that result, so each element is tested once."""
        if self.verdict == "CCA":
            return self.stabiliser, None
        pm1, witness = self.stabiliser[:1], None
        known = {1 << j: brk for j, brk in enumerate(self._breaks)}
        for i, b in enumerate(self.stabiliser[1:], 1):
            if (known[i] if i in known
                    else multiplicative_break(self.graph, b)) is None:
                pm1.append(b)
            elif witness is None:
                witness = b
        return pm1, witness

    @property
    def witness(self) -> Perm | None:
        """The first element of A_1 that is not a group automorphism, which
        for a map fixing the identity means it does not normalise G_R; None
        on a CCA graph, which lists nothing for it."""
        return None if self.verdict == "CCA" else self._pm1_and_witness[1]

    @cached_property
    def aut_pm1(self) -> FiniteGroup:
        """Aut_{+-1}(G, S): the elements of A_1 that are automorphisms."""
        pm1 = self._pm1_and_witness[0]
        return FiniteGroup(pm1, pm1[1:])

    def __contains__(self, p: Perm) -> bool:
        """p in Aut_c, from the definition: p permutes the n vertices and
        colour_break finds no edge that p fails to map to an edge of the
        same colour.  Such a bijection maps the finite edge set into itself
        injectively, so onto it, and is an automorphism; no group is listed
        or closed."""
        n = self.graph.n
        return (len(p) == n and sorted(p) == list(range(n))
                and colour_break(self.graph, p) is None)

    @cached_property
    def full_group(self) -> FiniteGroup:
        """All of Aut_c on first access, closed from the generators of G_R
        and the strong generators of A_1, and checked against the order
        n*2^m that the search gives.  Membership needs no closure
        (`p in res`); this serves decompose_structure, which scans every
        element, and the tests, which compare the two routes."""
        G = self.graph.group
        full = close_generators(
            G.right_regular.generators + [g for *_, g in self._levels],
            G.order, cap=max(10_000, self.autc_order + 1))
        if full.order != self.autc_order:
            raise RuntimeError("internal error: |Aut_c| != n*|A_1|")
        return full

    def to_json_dict(self) -> dict:
        from .graphs import to_json_dict
        d = {
            "graph": to_json_dict(self.graph),
            "stabiliser_order": self.stabiliser_order,
            "full_group_order": self.autc_order,
            "aut_pm1_order": self.stabiliser_order,
            "verdict": self.verdict,
        }
        if self.witness is not None:
            d["aut_pm1_order"] = self.aut_pm1.order
            d["witness_permutation"] = list(self.witness)
        return d


def autc_group(Gamma: ColouredCayleyGraph) -> AutcResult:
    """AutcResult(Gamma), refused with StabiliserTooLarge when |A_1| = 2^m
    exceeds STABILISER_CAP, read at each call, before A_1 is listed."""
    res = AutcResult(Gamma)
    if res.stabiliser_order > STABILISER_CAP:
        raise StabiliserTooLarge(f"stabiliser exceeds cap {STABILISER_CAP}")
    return res


def autc_stabiliser(Gamma: ColouredCayleyGraph) -> list[Perm]:
    """A_1 in descent order, the identity first, under autc_group's cap."""
    return autc_group(Gamma).stabiliser


def fast_cca_verdict(Gamma: ColouredCayleyGraph) -> str:
    """AutcResult(Gamma).verdict: the CCA verdict from the strong generators
    of A_1, which is never listed, so no cap applies."""
    return AutcResult(Gamma).verdict


# -- classification of Aut_c on complete Cayley graphs ---------------------

class CompletePrediction:
    def __init__(self, case: str, predicted_order: int,
                 predicted_generators: list[Perm]):
        self.case = case                 # "1" | "2" | "3" | "CCA"
        self.predicted_order = predicted_order
        self.predicted_generators = predicted_generators


def _find_dicyclic_structure(G: FiniteGroup):
    """Locate (A, x, y) with A abelian of index 2, x^2 = y an involution and
    a^x = a^-1 for all a in A; None if G is not generalised dicyclic."""
    if G.order % 4 != 0 or G.is_abelian():
        return None
    inv = G.inverse
    for A in normal_subgroups(G):
        if A.order != G.order // 2 or not A.is_abelian() or A.exponent() <= 2:
            continue
        aset = {G.index[p] for p in A.elements}
        a_idx = sorted(aset)
        for x in range(G.order):
            if x in aset:
                continue
            y = G.imul(x, x)
            if y not in aset or G.element_orders[y] != 2:
                continue
            if all(G.imul(G.imul(inv[x], a), x) == inv[a] for a in a_idx):
                return A, x, y
    return None


def predicted_autc_complete(G: FiniteGroup) -> CompletePrediction:
    """The classification of Aut_c(K_G): dihedral overgroup for abelian G of
    exponent above 2, G_R extended by iota for generalised dicyclic G, the
    three sigma maps for Q8 x Z2^n, and CCA otherwise."""
    from . import builders

    n = G.order
    reg_gens = G.right_regular.generators
    inv_perm = tuple(G.inverse)
    if G.is_abelian() and G.exponent() > 2:
        return CompletePrediction("1", 2 * n, reg_gens + [inv_perm])
    m = (n // 8).bit_length() - 1
    if n >= 8 and n == 8 * 2 ** m:
        Q = builders.q8_times_z2(m)
        phi = find_isomorphism(Q, G)
        if phi is not None:
            sigmas = []
            phinv = [0] * n
            for i, j in enumerate(phi):
                phinv[j] = i
            for name in ("sigma-i", "sigma-j", "sigma-k"):
                sig = builders.named_map(Q, name).carrier
                sigmas.append(tuple(phi[sig[phinv[i]]] for i in range(n)))
            return CompletePrediction("3", 8 * n, reg_gens + sigmas)
    dic = _find_dicyclic_structure(G)
    if dic is not None:
        A, x, y = dic
        aset = {G.index[p] for p in A.elements}
        iota = tuple(i if i in aset else G.inverse[i] for i in range(n))
        return CompletePrediction("2", 2 * n, reg_gens + [iota])
    pm1 = aut_pm1_group(G, list(range(1, n)))
    gens = reg_gens + [p for p in pm1.elements if p != identity(n)]
    return CompletePrediction("CCA", n * pm1.order, gens)

