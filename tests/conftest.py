"""Shared helpers: brute-force and counting oracles and random graph
sampling."""

import itertools
import random
from types import SimpleNamespace

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher

from cca import builders
from cca.engine import aut_pm1_group, autc_stabiliser, is_colour_preserving
from cca.graphs import ColouredCayleyGraph, colour_units
from cca.groups import FiniteGroup, close_generators, is_normal
from cca.perms import pconj, pinv, pmul


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
                     for (u, v), c in Gamma.edge_colour.items())
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


def subset_class_count(G: FiniteGroup, Amb: FiniteGroup) -> int:
    """Orbits of Amb's conjugation action on sets of colour units of G, by the
    orbit-counting lemma: the mean over a in Amb of 2^c(a), c(a) the number
    of cycles in which a permutes the units."""
    units = colour_units(G, range(1, G.order))
    unit_of = {s: i for i, u in enumerate(units) for s in u}
    total = 0
    for a in Amb.elements:
        w = [unit_of[G.index[pconj(G.elements[u[0]], a)]] for u in units]
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
    assert total % Amb.order == 0
    return total // Amb.order


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
    """The closure route to Aut_c, independent of the engine's multiplicative
    test: close G_R and G_R + A_1 by tuple products, decide normality with
    is_normal, take the first stabiliser element that does not normalise G_R
    as the witness, and backtrack Aut_pm1 over generator images."""
    G = Gamma.group
    n = G.order
    stab = autc_stabiliser(Gamma)
    reg_gens = [G.right_row(G.index[g]) for g in G.generators]
    G_R = close_generators(reg_gens, n, cap=n + 1)
    assert G_R.order == n
    full = close_generators(reg_gens + stab, n,
                            cap=max(10_000, n * len(stab) + 1))
    assert full.order == n * len(stab)
    assert {a for a in full.elements if a[0] == 0} == set(stab)
    pm1 = aut_pm1_group(G, Gamma.conn)
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
