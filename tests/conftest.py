"""Shared helpers: brute-force and counting oracles and random graph
sampling."""

import itertools
import random
from types import SimpleNamespace

import networkx as nx
import numpy as np
from networkx.algorithms.isomorphism import GraphMatcher

from cca import builders
from cca.errors import ClosureExceedsCap, NotConnected
from cca.engine import (CompletePrediction, aut_pm1_group, autc_group,
                        fast_cca_verdict, is_colour_preserving)
from cca.graphs import ColouredCayleyGraph, cayley, colour_units, is_connected
from cca.groups import (FiniteGroup, are_isomorphic, close_generators,
                        conjugacy_classes, extend_isomorphism,
                        find_isomorphism, generated, is_normal, isomorphisms,
                        normal_subgroups, sylow_subgroup, trivial_group)
from cca.perms import identity, pconj, pinv, pmul
from cca.structure import (StructureDecomposition, decompose_structure,
                           reduction_gamma_prime)


def brute_force_stabiliser(Gamma):
    """All identity-fixing colour-preserving maps, by filtering (n-1)!
    candidate permutations.  Usable only for tiny graphs."""
    n = Gamma.n
    out = []
    for rest in itertools.permutations(range(1, n)):
        p = (0,) + rest
        if is_colour_preserving(Gamma, p):
            out.append(p)
    return sorted(out)


def vf2_stabiliser(Gamma):
    """All identity-fixing colour-preserving automorphisms, by networkx's VF2
    matcher on the graph with the identity vertex marked and edges coloured.
    Shares no code with the engine's search."""
    X = nx.Graph()
    X.add_nodes_from((v, {"root": v == 0}) for v in range(Gamma.n))
    X.add_edges_from((u, v, {"colour": c})
                     for (u, v), c in reference_edge_colour(Gamma).items())
    gm = GraphMatcher(X, X,
                      node_match=lambda a, b: a["root"] == b["root"],
                      edge_match=lambda a, b: a["colour"] == b["colour"])
    return sorted(tuple(m[v] for v in range(Gamma.n))
                  for m in gm.isomorphisms_iter())


def full_scan_bfs(n, conn, left):
    """bfs_tree's (order, pos), scanning every queue entry to the end."""
    order = []
    pos = [-1] * n
    pos[0] = 0
    queue = [0]
    for u in queue:
        for s in conn:
            v = left[s][u]
            if pos[v] == -1:
                pos[v] = len(queue)
                order.append((v, u, s))
                queue.append(v)
    return order, pos


def vf2_graph_automorphisms(P):
    """All automorphisms of a plain graph, sorted, by networkx's VF2
    matcher.  Shares no code with graph_automorphisms."""
    X = nx.Graph()
    X.add_nodes_from(range(P.n))
    X.add_edges_from(P.edges)
    return sorted(tuple(m[v] for v in range(P.n))
                  for m in GraphMatcher(X, X).isomorphisms_iter())


def automorphisms(G: FiniteGroup):
    """Aut(G) listed, each automorphism as a list mapping element indices
    to element indices, from every choice of same-order images of generated's
    generating sequence that extends to an isomorphism."""
    gens = generated(G.elements, G.degree, cap=G.order).generators
    return list(isomorphisms(G, G, [G.index[g] for g in gens]))


def reference_generated(elems, degree, cap):
    """generated's group by re-closing the whole subgroup from the identity
    after each element it adjoins."""
    gens = []
    sub = trivial_group(degree)
    for p in elems:
        if p not in sub.index:
            gens.append(p)
            sub = close_generators(gens, degree, cap=cap)
    return sub


def reference_right_regular(G: FiniteGroup):
    """G_R closed breadth-first from the right rows of G's generators."""
    gens = [G.right_row(G.index[g]) for g in G.generators]
    return close_generators(gens, G.order, cap=G.order + 1)


def reference_direct_product(*groups):
    """builders.direct_product by building each element point by point:
    for every index tuple in lexicographic order, each factor's element
    shifted by the degrees of the factors before it, with the same
    generators, labels and meta."""
    if len(groups) == 1:
        return groups[0]
    offsets = [sum(G.degree for G in groups[:k]) for k in range(len(groups))]
    elements, tuples = [], []
    for combo in itertools.product(*[range(G.order) for G in groups]):
        img = []
        for G, off, i in zip(groups, offsets, combo):
            img.extend(off + x for x in G.elements[i])
        elements.append(tuple(img))
        tuples.append(combo)
    tuple_index = {t: i for i, t in enumerate(tuples)}
    gens = []
    for k, G in enumerate(groups):
        for g in G.generators:
            combo = [0] * len(groups)
            combo[k] = G.index[g]
            gens.append(elements[tuple_index[tuple(combo)]])
    labels = None
    if all(G.labels is not None for G in groups):
        labels = ["(" + ",".join(G.labels[i] for G, i in zip(groups, c)) + ")"
                  for c in tuples]
    return FiniteGroup(elements, gens, labels=labels,
                       meta={"factor_groups": list(groups), "tuples": tuples,
                             "tuple_index": tuple_index})


def reference_from_table(items, mult, ident, gen_items, label_fn, meta=None):
    """builders._from_table by the whole table: element g is the row
    x -> x*g, with mult called for every pair of items, and the generators
    checked to generate by closing them in the ambient group."""
    items = list(items)
    if items[0] != ident:
        items.remove(ident)
        items.insert(0, ident)
    idx = {it: i for i, it in enumerate(items)}
    elements = [tuple(idx[mult(x, g)] for x in items) for g in items]
    gens = [elements[idx[g]] for g in gen_items]
    G = FiniteGroup(elements, gens, labels=[label_fn(it) for it in items],
                    meta=meta)
    if G.subgroup(gens).order != len(items):
        raise RuntimeError("internal error: generators do not generate")
    G.meta["items"] = items
    return G


def reference_closure(gens, degree, cap):
    """close_generators' element list by the same breadth-first closure with
    plain tuple products: identity first, each dequeued element times every
    generator in input order.  Raises ClosureExceedsCap past cap elements."""
    elements = [tuple(range(degree))]
    seen = set(elements)
    for e in elements:
        for g in gens:
            f = tuple(g[x] for x in e)
            if f not in seen:
                if len(elements) >= cap:
                    raise ClosureExceedsCap(f"closure exceeds cap {cap}")
                seen.add(f)
                elements.append(f)
    return elements


def reference_products(G):
    """(table, inverse) of G by permutation products: table[i][j] is the
    index of the permutation e_i*e_j and inverse[i] that of e_i^-1, each
    found by building the permutation and hashing it."""
    table = [[G.index[pmul(a, b)] for b in G.elements] for a in G.elements]
    return table, [G.index[pinv(p)] for p in G.elements]


def reference_edge_colour(Gamma):
    """The edge colours by one pass over every vertex of every colour unit,
    keeping the first colour each edge {v, s*v} is given."""
    ec = {}
    for ci, cls in enumerate(Gamma.colour_classes):
        row = Gamma.group.left_row(cls[0])
        for v in range(Gamma.n):
            w = row[v]
            key = (min(v, w), max(v, w))
            if key not in ec:
                ec[key] = ci
    return ec


def reference_graph_automorphisms(P):
    """All automorphisms of a plain graph, sorted, by backtracking over every
    image of every vertex, the vertices taken by refined colour-class size
    and then index, every vertex a candidate image at every level."""
    colour = [len(P.adj[v]) for v in range(P.n)]
    while True:
        sig = [(colour[v], tuple(sorted(colour[u] for u in P.adj[v])))
               for v in range(P.n)]
        palette = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [palette[s] for s in sig]
        if new == colour:
            break
        colour = new
    adjset = [set(nb) for nb in P.adj]
    order = sorted(range(P.n), key=lambda v: (colour.count(colour[v]), v))
    out = []
    img = [-1] * P.n
    used = [False] * P.n

    def rec(k):
        if k == P.n:
            out.append(tuple(img))
            return
        v = order[k]
        for w in range(P.n):
            if used[w] or colour[w] != colour[v]:
                continue
            if all((u in adjset[v]) == (img[u] in adjset[w])
                   for u in order[:k]):
                img[v] = w
                used[w] = True
                rec(k + 1)
                used[w] = False
                img[v] = -1

    rec(0)
    return sorted(out)


def reference_normal_subgroups(G):
    """normal_subgroups by the plain fixpoint: join every pair of the
    subgroups found so far, in every round, until a round adds none."""
    found = {frozenset([identity(G.degree)]): trivial_group(G.degree)}
    for cls in conjugacy_classes(G):
        N = G.subgroup([G.elements[i] for i in cls if i != 0])
        found.setdefault(frozenset(N.elements), N)
    changed = True
    while changed:
        changed = False
        current = list(found.values())
        for A in current:
            for B in current:
                J = G.subgroup(A.generators + B.generators)
                key = frozenset(J.elements)
                if key not in found:
                    found[key] = J
                    changed = True
    return sorted(found.values(),
                  key=lambda N: (N.order, sorted(map(tuple, N.elements))))


def reference_dicyclic_structure(G):
    """(A, x, y) of the generalised dicyclic structure by a scan over every
    normal subgroup: the first A, in normal_subgroups' order, that is
    abelian of index 2 and exponent above 2, and the least x outside A with
    x^2 = y an involution and x^-1*a*x = a^-1 for every a in A; A is the
    subgroup, and None stands for no such structure."""
    if G.order % 4 != 0 or G.is_abelian():
        return None
    inv = G.inverse
    for A in normal_subgroups(G):
        if A.order != G.order // 2 or not A.is_abelian() or A.exponent() <= 2:
            continue
        aset = {G.index[p] for p in A.elements}
        for x in range(G.order):
            if x in aset:
                continue
            y = G.imul(x, x)
            if y not in aset or G.element_orders[y] != 2:
                continue
            if all(G.imul(G.imul(inv[x], a), x) == inv[a] for a in sorted(aset)):
                return A, x, y
    return None


def reference_predicted_autc_complete(G):
    """predicted_autc_complete by listings: G_R closed in full for its
    generators, an isomorphism search from Q8 x Z2^m on every group of
    order 8*2^m, and reference_dicyclic_structure."""
    n = G.order
    reg_gens = G.right_regular.generators
    if G.is_abelian() and G.exponent() > 2:
        return CompletePrediction("1", 2 * n, reg_gens + [tuple(G.inverse)])
    m = (n // 8).bit_length() - 1
    if n >= 8 and n == 8 * 2 ** m:
        Q = builders.q8_times_z2(m)
        phi = find_isomorphism(Q, G)
        if phi is not None:
            phinv = [0] * n
            for i, j in enumerate(phi):
                phinv[j] = i
            sigmas = [tuple(phi[sig[phinv[i]]] for i in range(n))
                      for sig in (builders.named_map(Q, f"sigma-{u}")
                                  for u in "ijk")]
            return CompletePrediction("3", 8 * n, reg_gens + sigmas)
    dic = reference_dicyclic_structure(G)
    if dic is not None:
        aset = {G.index[p] for p in dic[0].elements}
        iota = tuple(i if i in aset else G.inverse[i] for i in range(n))
        return CompletePrediction("2", 2 * n, reg_gens + [iota])
    pm1 = aut_pm1_group(G, list(range(1, n)))
    return CompletePrediction(
        "CCA", n * pm1.order,
        reg_gens + [p for p in pm1.elements if p != identity(n)])


def reference_stabiliser(Gamma):
    """The stabiliser A_1 in the engine's search order, by a plain recursive
    descent from the root that derives the identity like any other leaf.
    Vertices are assigned in BFS order; v = s*u tries s*img[u], then
    s^-1*img[u], and every edge to an assigned vertex is checked."""
    G, conn, n = Gamma.group, Gamma.conn, Gamma.n
    left = {s: G.left_row(s) for s in conn}
    inv = G.inverse
    order, _ = full_scan_bfs(n, conn, left)
    assert len(order) == n - 1
    img = [-1] * n
    img[0] = 0
    out = []

    def rec(k):
        if k == len(order):
            out.append(tuple(img))
            return
        v, u, s = order[k]
        for cand in dict.fromkeys((left[s][img[u]], left[inv[s]][img[u]])):
            if cand in img:
                continue
            if all(img[left[t][v]] in (-1, left[t][cand], left[inv[t]][cand])
                   for t in conn):
                img[v] = cand
                rec(k + 1)
                img[v] = -1

    rec(0)
    return out


def reference_strong_generators(Gamma):
    """The strong generators of A_1 as the engine's search returns them,
    [(v, u, s, g_k), ...], by the chronological descent it ran before it
    jumped: a level that runs out of images steps back one level at a time
    to the last level that took the first of two images and tries the
    second.  Only the BFS comes from elsewhere (full_scan_bfs)."""
    n, conn, left = Gamma.n, Gamma.conn, Gamma.left_rows
    inv = Gamma.group.inverse
    order, _ = full_scan_bfs(n, conn, left)
    assert len(order) == n - 1
    rows = [(left[t], left[inv[t]]) for t in conn]
    img = list(range(n))
    used = [True] * n
    depth = len(order)
    levels = [(v, u, left[s], left[inv[s]]) for v, u, s in order]

    def first_leaf(k, cand):
        start, cands, v = k, (cand,), order[k][0]
        while True:
            for c in cands:
                if used[c]:
                    continue
                for lt, lti in rows:
                    ix = img[lt[v]]
                    if ix != -1 and ix != lt[c] and ix != lti[c]:
                        break
                else:
                    break
            else:
                while k > start:
                    k -= 1
                    v, u, ls, lsi = levels[k]
                    c = img[v]
                    used[c] = False
                    img[v] = -1
                    w = img[u]
                    if k > start and c == ls[w]:
                        c2 = lsi[w]
                        if c2 != c and not used[c2]:
                            cands = (c2,)
                            break
                else:
                    return None
                continue
            img[v] = c
            used[c] = True
            k += 1
            if k == depth:
                leaf = tuple(img)
                for x, _, _ in order[start:]:
                    used[img[x]] = False
                    img[x] = -1
                return leaf
            v, u, ls, lsi = levels[k]
            w = img[u]
            c, c2 = ls[w], lsi[w]
            cands = (c,) if c == c2 else (c, c2)

    out = []
    for k in range(depth - 1, -1, -1):
        v, u, s = order[k]
        img[v] = -1
        used[v] = False
        other = left[inv[s]][u]
        if other != v and not used[other] and \
                (g := first_leaf(k, other)) is not None:
            out.append((v, u, s, g))
    return out


def is_power_of_two(k: int) -> bool:
    return k >= 1 and (k & (k - 1)) == 0


def _is_dihedral(G: FiniteGroup) -> bool:
    """Order 2m with a cyclic subgroup of order m and an outside involution
    inverting it."""
    if G.order % 2 or G.order < 4:
        return False
    m = G.order // 2
    rs = [i for i, o in enumerate(G.element_orders) if o == m]
    for r in rs:
        rp = G.elements[r]
        cyc = {rp}
        cur = rp
        for _ in range(m - 1):
            cur = pmul(cur, rp)
            cyc.add(cur)
        for t in G.elements:
            if t in cyc or G.element_orders[G.index[t]] != 2:
                continue
            if pmul(pmul(t, rp), t) == pinv(rp):
                return True
    return False


def stabiliser_shape_allowed(stab, degree: int) -> bool:
    """The vertex stabiliser of a connected coloured Cayley graph can be
    neither cyclic of order >= 4 nor dihedral of order >= 16."""
    Gs = close_generators(stab, degree, cap=len(stab) + 1)
    if Gs.is_cyclic() and Gs.order >= 4:
        return False
    if Gs.order >= 16 and _is_dihedral(Gs):
        return False
    return True


def burnside_class_count(G: FiniteGroup, maps) -> int:
    """Orbits of a group of automorphisms of G, each given as a map of
    element indices, on sets of colour units of G, by the orbit-counting
    lemma: the mean over the maps a of 2^c(a), c(a) the number of cycles in
    which a permutes the units."""
    units = colour_units(G, range(1, G.order))
    unit_of = {s: i for i, u in enumerate(units) for s in u}
    total = 0
    for a in maps:
        w = [unit_of[a[u[0]]] for u in units]
        seen = [False] * len(w)
        c = 0
        for i in range(len(w)):
            if not seen[i]:
                c += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = w[j]
        total += 2 ** c
    assert total % len(maps) == 0
    return total // len(maps)


def conjugation_maps(G: FiniteGroup, Amb: FiniteGroup):
    """The maps of G's element indices induced by conjugation by every
    element of an ambient group Amb normalising G."""
    return [[G.index[pconj(p, a)] for p in G.elements] for a in Amb.elements]


def subset_class_count(G: FiniteGroup, Amb: FiniteGroup) -> int:
    """Orbits of Amb's conjugation action on sets of colour units of G."""
    return burnside_class_count(G, conjugation_maps(G, Amb))


def brute_force_automorphisms(G: FiniteGroup):
    """Aut(G), each automorphism as a list of element indices, by brute
    force.  Generators are taken greedily, highest order first, until they
    span G; every choice of same-order images defines a map along the BFS
    tree of the spanning, kept when it is a bijection that respects every
    entry of G.table.  Shares no code with groups.isomorphisms."""
    n, table, orders = G.order, G.table, G.element_orders
    gens, tree, reached = [], [], [0]
    for g in sorted(range(n), key=lambda g: -orders[g]):
        if g in reached:
            continue
        gens.append(g)
        tree, reached = [], [0]
        for x in reached:
            for i, h in enumerate(gens):
                y = table[x][h]
                if y not in reached:
                    reached.append(y)
                    tree.append((y, x, i))
    auts = []
    for imgs in itertools.product(*[[h for h in range(n)
                                     if orders[h] == orders[g]]
                                    for g in gens]):
        phi = [0] * n
        for y, x, i in tree:
            phi[y] = table[phi[x]][imgs[i]]
        if len(set(phi)) == n and all(phi[table[x][y]] == table[phi[x]][phi[y]]
                                      for x in range(n) for y in range(n)):
            auts.append(phi)
    return auts


def unit_permutations(G: FiniteGroup, maps):
    """The distinct permutations of G's colour units induced by the maps of
    element indices, sorted."""
    units = colour_units(G, range(1, G.order))
    unit_of = {s: i for i, u in enumerate(units) for s in u}
    return sorted({tuple(unit_of[a[u[0]]] for u in units) for a in maps})


def reference_unit_action(G: FiniteGroup, Amb: FiniteGroup):
    """The distinct permutations of G's colour units induced by conjugation
    by every element of an ambient group Amb normalising G, sorted."""
    return unit_permutations(G, conjugation_maps(G, Amb))


def reference_subset_verdicts(G: FiniteGroup, ws):
    """(least, verdicts) over every mask m of G's colour units, each mask
    standing for the union of its units: verdicts[m] is fast_cca_verdict on
    that set, run subset by subset, or None where it does not generate G;
    least[m] names m's class, the least image of m under the unit
    permutations ws."""
    units = colour_units(G, range(1, G.order))
    k = len(units)
    least, verdicts = [], []
    for m in range(1 << k):
        bits = [i for i in range(k) if m >> i & 1]
        least.append(min(sum(1 << w[i] for i in bits) for w in ws))
        conn = sorted(s for i in bits for s in units[i])
        try:
            verdicts.append(fast_cca_verdict(ColouredCayleyGraph(G, conn)))
        except NotConnected:
            verdicts.append(None)
    return least, verdicts


def reference_or_tables(k: int, images):
    """The (hightab, lowtab) pair of the map on k-bit masks that sends bit i
    to images[i] and a union of bits to the union of their images: with
    kl = k // 2 the mask m = h*2^kl + l maps to hightab[h] | lowtab[l].
    This is the two-table split the enumeration used before it cut masks
    into pieces of any width; each table doubles from the empty mask."""
    kl = k // 2
    shape = np.shape(images[0])

    def table(imgs):
        tab = np.zeros((1 << len(imgs),) + shape, dtype=np.int32)
        for i, b in enumerate(imgs):
            np.bitwise_or(tab[:1 << i], b, out=tab[1 << i:2 << i])
        return tab

    return table(images[kl:]), table(images[:kl])


def reference_gather(sq, masks):
    """masks._gather on the two tables of reference_or_tables: eff[x, i, q]
    holds the units l of masks[x] for which sq[i, q, c, l] meets the mask
    for some colour c of it, for each unit i of the mask."""
    k = len(sq)
    bits = np.int64(1) << np.arange(k, dtype=np.int64)
    kl = k // 2
    high, low = masks >> kl, masks & ((1 << kl) - 1)
    eff = np.zeros((len(masks), k, 2), dtype=masks.dtype)
    for i in range(k):
        r = np.flatnonzero(masks >> i & 1)
        hightab, lowtab = reference_or_tables(k, sq[i].swapaxes(0, 1))
        m = masks[r, None]
        fire = hightab[high[r]] | lowtab[low[r]]
        fire &= m[:, None]
        eff[r, i] = (fire != 0) @ bits & m
    return eff


def reference_subgroups(G: FiniteGroup):
    """Every subgroup of G as a frozenset of element indices, by brute
    force over the products of reference_products: every subgroup is the
    join of the cyclic subgroups it contains, so the cyclic subgroups are
    joined with each subgroup found until no join is new."""
    table, _ = reference_products(G)

    def close(gens):
        elems = [0]
        seen = {0}
        for e in elems:
            for g in gens:
                f = table[e][g]
                if f not in seen:
                    seen.add(f)
                    elems.append(f)
        return frozenset(seen)

    cyclic = {close([g]): [g] for g in range(G.order)}
    found = dict(cyclic)
    layer = dict(cyclic)
    while layer:
        joins = {}
        for H, gens in layer.items():
            for C, (g,) in cyclic.items():
                if not C <= H:
                    J = close(gens + [g])
                    if J not in found:
                        joins[J] = gens + [g]
        found.update(joins)
        layer = joins
    return set(found)


def reference_maximal_subgroup_masks(G: FiniteGroup, units):
    """The unit masks of the maximal subgroups of G, ascending: the proper
    subgroups of reference_subgroups that lie in no other proper one."""
    unit_of = {s: i for i, u in enumerate(units) for s in u}
    proper = [H for H in reference_subgroups(G) if len(H) < G.order]
    return sorted(sum({1 << unit_of[s] for s in H if s})
                  for H in proper if not any(H < K for K in proper))


def reference_mask_tables(k: int, ws):
    """The full canonical scan the enumeration ran before its two-level
    one, kept as an oracle.  One reference_or_tables pair per unit
    permutation w other than the identity: w maps the mask
    m = h*2^kl + l, kl = k // 2, to hightab[h] | lowtab[l]."""
    ident = tuple(range(k))
    return [reference_or_tables(k, [1 << x for x in w])
            for w in ws if w != ident]


def reference_canonical_blocks(k: int, tables):
    """Yield (first, canon) over consecutive blocks of whole rows of the
    (2^(k-kl), 2^kl) grid of masks, about 2^16 masks each: canon[i] is the
    least image of the mask first + i under every unit permutation given by
    its reference_mask_tables."""
    kl = k // 2
    nrows = 1 << (k - kl)
    step = max(1, (1 << 16) >> kl)
    for h0 in range(0, nrows, step):
        h1 = min(h0 + step, nrows)
        canon = np.arange(h0 << kl, h1 << kl,
                          dtype=np.int32).reshape(h1 - h0, 1 << kl)
        image = np.empty_like(canon)
        for hightab, lowtab in tables:
            np.bitwise_or(hightab[h0:h1, None], lowtab, out=image)
            np.minimum(canon, image, out=canon)
        yield h0 << kl, canon.ravel()


def reference_representatives(k: int, tables):
    """The masks equal to their least image, one per class, ascending."""
    return np.concatenate([
        first + np.flatnonzero(block == np.arange(first, first + len(block),
                                                  dtype=block.dtype))
        for first, block in reference_canonical_blocks(k, tables)])


def reference_least_images(k: int, tables, masks):
    """The least image of each mask under the permutations of tables and
    the identity."""
    kl = k // 2
    high, low = masks >> kl, masks & ((1 << kl) - 1)
    least = masks.copy()
    for hightab, lowtab in tables:
        np.minimum(least, hightab[high] | lowtab[low], out=least)
    return least


def reference_orbit_sizes(k: int, tables, masks):
    """The size of each mask's class, by orbit-stabiliser: the unit
    permutations form a group W (the identity plus those in tables), and the
    class of m has |W| / #{w in W : w(m) = m} members."""
    kl = k // 2
    high, low = masks >> kl, masks & ((1 << kl) - 1)
    fixes = np.ones(len(masks), dtype=np.int64)
    for hightab, lowtab in tables:
        fixes += (hightab[high] | lowtab[low]) == masks
    return (len(tables) + 1) // fixes


def reference_generating_sequence(G: FiniteGroup, candidates):
    """First fit: each candidate element index that the subgroup generated
    so far does not reach is adjoined, the subgroup being re-grown by a BFS
    over G.table from the identity after each one."""
    gens = []
    reached = {0}
    for c in candidates:
        if c in reached:
            continue
        gens.append(c)
        queue = [0]
        reached = {0}
        for x in queue:
            for g in gens:
                y = G.table[x][g]
                if y not in reached:
                    reached.add(y)
                    queue.append(y)
    return gens


def reference_aut_pm1(G: FiniteGroup, S):
    """Aut_{+-1}(G, S) by trying every choice of images s -> s^{+-1} of a
    first-fit generating sequence drawn from S, in product order, and keeping
    those that extend to an automorphism sending all of S to S^{+-1}."""
    inv = G.inverse
    gens = reference_generating_sequence(G, S)
    found = []
    for imgs in itertools.product(*[(s,) if inv[s] == s else (s, inv[s])
                                    for s in gens]):
        phi = extend_isomorphism(G, G, gens, imgs)
        if phi is not None and all(phi[s] in (s, inv[s]) for s in S):
            found.append(tuple(phi))
    return close_generators(found, G.order, cap=max(len(found) + 1, 2))


def generating_connection_sets(G: FiniteGroup):
    """Every inverse-closed generating subset of G \\ {1}."""
    units = colour_units(G, range(1, G.order))
    out = []
    for mask in range(1, 1 << len(units)):
        conn = []
        for i, u in enumerate(units):
            if mask >> i & 1:
                conn.extend(u)
        gens = [G.elements[s] for s in conn]
        if close_generators(gens, G.degree, cap=G.order + 1).order == G.order:
            out.append(sorted(conn))
    return out


def random_connected_cayley(rng: random.Random, pool):
    G = pool[rng.randrange(len(pool))]
    units = colour_units(G, range(1, G.order))
    while True:
        conn = []
        for u in units:
            if rng.random() < 0.5:
                conn.extend(u)
        if not conn:
            continue
        gens = [G.elements[s] for s in conn]
        if close_generators(gens, G.degree, cap=G.order + 1).order == G.order:
            return ColouredCayleyGraph(G, sorted(conn))


def group_pool(max_order: int):
    pool = [G for _, G in builders.catalog(max_order)]
    for G in (builders.f21(), builders.agl17(), builders.symmetric(4)):
        if G.order <= max_order:
            pool.append(G)
    return pool


def reference_autc(Gamma):
    """The closure route to Aut_c, independent of the engine: take A_1 from
    reference_stabiliser, close G_R and G_R + A_1 by tuple products, decide
    normality with is_normal, take the first stabiliser element that does
    not normalise G_R as the witness, and try every choice of generator
    images for Aut_pm1."""
    G = Gamma.group
    n = G.order
    stab = reference_stabiliser(Gamma)
    reg_gens = [G.right_row(G.index[g]) for g in G.generators]
    G_R = close_generators(reg_gens, n, cap=n + 1)
    assert G_R.order == n
    full = close_generators(reg_gens + stab, n,
                            cap=max(10_000, n * len(stab) + 1))
    assert full.order == n * len(stab)
    assert {a for a in full.elements if a[0] == 0} == set(stab)
    pm1 = reference_aut_pm1(G, Gamma.conn)
    verdict = "CCA" if is_normal(G_R, full) else "NonCCA"
    witness = next((b for b in stab
                    if any(pconj(h, b) not in G_R.index
                           for h in G_R.generators)), None)
    assert (witness is None) == (verdict == "CCA")
    # non-normality must coincide with a stabiliser element outside Aut_pm1
    pm1set = set(pm1.elements)
    assert any(b not in pm1set for b in stab) == (verdict == "NonCCA")
    return SimpleNamespace(stabiliser=stab, full_group=full, aut_pm1=pm1,
                           verdict=verdict, witness=witness)


def _subgroup_on(elems, degree):
    """The group on a known element set, closed from all its elements."""
    sub = close_generators(elems, degree, cap=len(elems) + 1)
    assert sub.order == len(elems)
    return sub


def reference_decomposition(Gamma, res):
    """The (T x J) x| R decomposition by a scan over every normal subgroup
    of A = Aut_c: T is the first one isomorphic to PSL(2,7), J the first one
    meeting T trivially, of order |A|/(168|R|), that realises all six
    properties.  Returns the decomposition and the reduction's JSON, both
    computed from element lists rather than generators."""
    G = Gamma.group
    A = res.full_group
    n = G.order
    G_R = G.right_regular
    normals = normal_subgroups(A)
    psl = builders.psl27()
    T = next(N for N in normals
             if N.order == 168 and are_isomorphic(N, psl))
    if n % 2:
        R, r = trivial_group(n), 0
    else:
        T1 = [t for t in T.elements if t[0] == 0]
        r = next(v for v in range(n) if G.element_orders[v] == 2
                 and all(t[v] == v for t in T1))
        R = close_generators([G.right_row(r)], n, cap=3)
    tset = set(T.elements)
    F = _subgroup_on(sorted(p for p in G_R.elements if p in tset), n)
    candidates = sorted(
        (N for N in normals
         if set(N.elements) & tset == {identity(n)}
         and T.order * N.order * R.order == A.order),
        key=lambda N: (N.order, sorted(N.elements)))
    for J in candidates:
        jset = set(J.elements)
        H = _subgroup_on(sorted(p for p in G_R.elements if p in jset), n)
        span = close_generators(T.elements + J.elements + R.elements, n,
                                cap=A.order + 1)
        gspan = close_generators(F.elements + H.elements + R.elements, n,
                                 cap=n + 1)
        cj_h = [g for g in jset
                if all(pmul(g, h) == pmul(h, g) for h in H.elements)]
        Q = sylow_subgroup(J, 2)
        props = {
            "(i) T normal copy of PSL(2,7)": is_normal(T, A),
            "(ii) T meet G = F copy of F21":
                F.order == 21 and are_isomorphic(F, builders.f21()),
            "(iii) H = J meet G, H normal in J, J normal in A":
                is_normal(H, J) and is_normal(J, A),
            "(iv) H self-centralising in J": all(p in H.index for p in cj_h),
            "(v) J splits over H": H.order * Q.order == J.order
                and set(H.elements) & set(Q.elements) == {identity(n)},
            "(vi) H normal in A": is_normal(H, A),
        }
        if span.order == A.order and all(props.values()) \
                and gspan.order == n and F.order * H.order * R.order == n:
            break
    else:
        raise AssertionError("no normal complement J realises all six "
                             "properties")
    dec = StructureDecomposition(A, G_R, T, J, F, H, R, r, props)

    # the reduction, from the element lists of F, H and R
    fset = {p[0] for p in F.elements}
    hset = {p[0] for p in H.elements}
    hr = {p[0] for p in close_generators(H.elements + R.elements, n,
                                         cap=n + 1).elements}
    Y = sorted(s for s in Gamma.conn if s not in fset and s not in hr)
    S_prime = sorted((set(Gamma.conn) & fset) | ({r} if r else set())
                     | {G.imul(y, y) for y in Y})
    fr = sorted({p[0] for p in close_generators(F.elements + R.elements, n,
                                                cap=n + 1).elements})
    FR = _subgroup_on([G.elements[i] for i in fr], G.degree)
    gamma_prime = cayley(FR, [FR.index[G.elements[s]] for s in S_prime])
    factors = True
    for y in Y:
        f = G.imul(G.imul(y, y), G.imul(y, y))
        z = G.imul(G.imul(y, y), y)
        factors &= (f in fset and G.element_orders[f] == 3
                    and z in hr and z not in hset
                    and G.element_orders[z] == 2 and G.imul(f, z) == y)
    rho_r = G.right_row(r)
    reduction = {
        "Y": [G.label(s) for s in Y],
        "S_prime": [G.label(s) for s in S_prime],
        "checks": {
            "(1) reduced graph connected and NonCCA":
                is_connected(gamma_prime)
                and autc_group(gamma_prime).verdict == "NonCCA",
            "(2) every y in Y factors as f*z with |f|=3, f in F, z in Hr, "
            "|z|=2": factors,
            "(3) Y nonempty implies |R|=2 and T commutes with R":
                not Y or (R.order == 2
                          and all(pmul(t, rho_r) == pmul(rho_r, t)
                                  for t in T.elements)),
        },
    }
    return dec, reduction


def assert_decomposition_matches_reference(Gamma):
    """decompose_structure and reduction_gamma_prime agree with
    reference_decomposition on T, J, F, H, R, r, the six properties and the
    reduction's JSON; returns the decomposition."""
    res = autc_group(Gamma)
    dec = decompose_structure(Gamma, res)
    ref, ref_reduction = reference_decomposition(Gamma, res)
    for name in "TJFHR":
        assert set(getattr(dec, name).elements) \
            == set(getattr(ref, name).elements), name
    assert dec.r == ref.r
    assert dec.properties == ref.properties
    assert reduction_gamma_prime(Gamma, dec).to_json_dict() == ref_reduction
    return dec
