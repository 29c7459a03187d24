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
path: m strong generators, |A_1| = 2^m.  A_1 is closed from them only when
2^m is within the cap, and listed in the order of a full descent.
|Aut_c| = n*|A_1|; G_R is normal iff every element of A_1 is a group
automorphism, which holds iff it holds on the generators, and those elements
form Aut_{+-1}(G, S).  Membership in Aut_c is decided against A_1 alone;
Aut_c itself is closed from G_R and A_1 only on first access of full_group,
and the tests check this route against the closure-and-normality route.
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


def autc_stabiliser(Gamma: ColouredCayleyGraph) -> list[Perm]:
    """All colour-preserving automorphisms of a connected Cayley graph fixing
    the identity vertex, in the order a full descent of the search would
    find them, the identity first.

    |A_1| = 2^m for the m strong generators, so a stabiliser larger than
    STABILISER_CAP, read at each call, raises StabiliserTooLarge before any
    closure.  Otherwise A_1 is closed from the generators and sorted by the
    descent key: one bit per level at which a generator was found, 0 when
    img[v] = s*img[u], the candidate a descent tries first, and 1
    otherwise.  At a level where A^(k) =
    A^(k+1), the images of the earlier base vertices fix that of v_k, so two
    maps first differ at a generator level, and the key orders them as the
    descent does."""
    levels = list(_search_stabiliser(Gamma))
    size = 1 << len(levels)
    if size > STABILISER_CAP:
        raise StabiliserTooLarge(f"stabiliser exceeds cap {STABILISER_CAP}")
    stab = close_generators([g for *_, g in levels], Gamma.n, cap=size)
    if stab.order != size:
        raise RuntimeError("internal error: |A_1| != 2^m")
    left = Gamma.left_rows
    key = [(v, u, left[s]) for v, u, s, _ in reversed(levels)]
    return sorted(stab.elements,
                  key=lambda b: [b[v] != row[b[u]] for v, u, row in key])


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
    """Aut_c of a connected coloured Cayley graph, held as A_1: its order
    is n*|A_1|, `p in res` decides membership without closing it, and
    full_group closes it on first access."""

    def __init__(self, graph: ColouredCayleyGraph, stabiliser: list[Perm],
                 aut_pm1: FiniteGroup, verdict: str, witness: Perm | None):
        self.graph = graph
        self.stabiliser = stabiliser     # A_1, in search order
        self.aut_pm1 = aut_pm1
        self.verdict = verdict           # "CCA" | "NonCCA"
        self.witness = witness

    @property
    def autc_order(self) -> int:
        """|Aut_c| = n*|A_1| by orbit-stabiliser."""
        return self.graph.n * len(self.stabiliser)

    @cached_property
    def _stabiliser_set(self) -> frozenset:
        return frozenset(self.stabiliser)

    def __contains__(self, p: Perm) -> bool:
        """p in Aut_c, decided without closing Aut_c.  G_R lies in Aut_c and
        is regular, and A_1 is the whole stabiliser of the identity vertex,
        so p lies in Aut_c iff p followed by the right translation taking
        p(1) back to 1, which fixes 1, lies in A_1: the stabiliser membership
        test (Seress 2003), one pass over p."""
        G = self.graph.group
        if len(p) != G.order:
            return False
        back = G.right_row(G.inverse[p[0]])
        return tuple([back[x] for x in p]) in self._stabiliser_set

    @cached_property
    def full_group(self) -> FiniteGroup:
        """All of Aut_c on first access, closed from the generators of G_R
        and of the subgroup the elements of A_1 generate.  That is the group
        that G_R and all of A_1 generate, so the check |Aut_c| = n*|A_1|
        keeps its strength: a stabiliser list that is not closed under
        products still gives a larger group.  Membership needs no closure
        (`p in res`); this serves decompose_structure, which scans every
        element, and the tests, which compare the two routes."""
        G = self.graph.group
        cap = max(10_000, self.autc_order + 1)
        stab = generated(self.stabiliser, G.order, cap=cap)
        full = close_generators(G.right_regular.generators + stab.generators,
                                G.order, cap=cap)
        if full.order != self.autc_order:
            raise RuntimeError("internal error: |Aut_c| != n*|A_1|")
        return full

    def to_json_dict(self) -> dict:
        from .graphs import to_json_dict
        d = {
            "graph": to_json_dict(self.graph),
            "stabiliser_order": len(self.stabiliser),
            "full_group_order": self.autc_order,
            "aut_pm1_order": self.aut_pm1.order,
            "verdict": self.verdict,
        }
        if self.witness is not None:
            d["witness_permutation"] = list(self.witness)
        return d


def autc_group(Gamma: ColouredCayleyGraph) -> AutcResult:
    """Aut_c(Gamma) from the stabiliser A_1 of the identity vertex.  A NonCCA
    witness is the first element of A_1 that is not a group automorphism,
    which for a map fixing the identity means it does not normalise G_R."""
    stab = autc_stabiliser(Gamma)
    if stab[0] != identity(Gamma.n):
        raise RuntimeError("internal error: the identity is not found first")
    pm1 = stab[:1]
    witness = None
    for b in stab[1:]:
        if multiplicative_break(Gamma, b) is None:
            pm1.append(b)
        elif witness is None:
            witness = b
    verdict = "CCA" if witness is None else "NonCCA"
    return AutcResult(Gamma, stab, FiniteGroup(pm1, pm1[1:]), verdict,
                      witness)


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


# -- fast verdict for enumeration ------------------------------------------

def fast_cca_verdict(Gamma: ColouredCayleyGraph) -> str:
    """The CCA verdict on Gamma from the strong generators of A_1 alone,
    without listing A_1.

    Group automorphisms are closed under composition, so A_1 consists of
    them iff its strong generators do; the search stops at the first
    generator that is not one.  It reaches at most n - 1 leaves and needs no
    cap.  Raises NotConnected, as autc_group does, on a disconnected graph."""
    gens = _search_stabiliser(Gamma)
    if all(multiplicative_break(Gamma, g) is None for *_, g in gens):
        return "CCA"
    return "NonCCA"
