"""Coloured Cayley graphs, plain graphs, and the graph operators used by the
non-CCA constructions (quotient, line graph realised as a Cayley graph,
subdivision, Heawood graph, complete Cayley graph), plus DOT/JSON export.
"""

from __future__ import annotations

from collections import deque

# pmul is looked up in perms at each call, so a rebinding of perms.pmul is
# followed here even if this module is first imported while it is in place
from . import perms
from .errors import (ContainsIdentity, NotEdgeRegular, NotInverseClosed,
                     NotNormal)
from .groups import (FiniteGroup, bfs_tree, close_generators, is_normal,
                     is_subgroup)
from .perms import Perm


class PlainGraph:
    """Simple undirected graph on vertices 0..n-1."""

    def __init__(self, n: int, edges, bipartition=None):
        self.n = n
        es = set()
        for u, v in edges:
            if u == v:
                raise ValueError("loops not allowed")
            es.add((min(u, v), max(u, v)))
        self.edges = sorted(es)
        self.adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            self.adj[u].append(v)
            self.adj[v].append(u)
        for nb in self.adj:
            nb.sort()
        self.bipartition = bipartition

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v in self.adj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return len(seen) == self.n

    def two_colouring(self):
        """Bipartition as a pair of sorted vertex lists, or None."""
        colour = [-1] * self.n
        for start in range(self.n):
            if colour[start] != -1:
                continue
            colour[start] = 0
            queue = deque([start])
            while queue:
                u = queue.popleft()
                for v in self.adj[u]:
                    if colour[v] == -1:
                        colour[v] = 1 - colour[u]
                        queue.append(v)
                    elif colour[v] == colour[u]:
                        return None
        return (sorted(i for i in range(self.n) if colour[i] == 0),
                sorted(i for i in range(self.n) if colour[i] == 1))


def subdivision(P: PlainGraph) -> PlainGraph:
    edges = []
    for k, (u, v) in enumerate(P.edges):
        edges.append((u, P.n + k))
        edges.append((v, P.n + k))
    S = PlainGraph(P.n + len(P.edges), edges,
                   bipartition=(list(range(P.n)),
                                list(range(P.n, P.n + len(P.edges)))))
    return S


def heawood() -> PlainGraph:
    """Point-line incidence graph of the Fano plane; points 0..6, lines 7..13
    with line i = {i, i+1, i+3} mod 7."""
    edges = []
    for i in range(7):
        for d in (0, 1, 3):
            edges.append(((i + d) % 7, 7 + i))
    return PlainGraph(14, edges, bipartition=(list(range(7)), list(range(7, 14))))


def graph_automorphisms(P: PlainGraph) -> list[Perm]:
    """All automorphisms, sorted, closed from a strong generating set.

    The base is the vertex order by refined colour-class size.  With the
    identity on the first k base vertices, every image w != v_k of the next
    one that the backtracking admits (same refined colour, unused, adjacency
    to the earlier vertices kept) is tried, and the search below it stops at
    the first automorphism.  Starting from the identity leaf and walking back
    from the last level to the first, this gives one map for each point of
    v_k's orbit under the automorphisms fixing the earlier base vertices, so
    the maps generate the group (Sims 1970) and its order is the product over
    the levels of the orbit sizes."""
    if P.n > 50:
        raise ValueError(f"graph too large for backtracking ({P.n} > 50)")
    # iterated neighbourhood-colour refinement
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
    img = list(range(P.n))
    used = [True] * P.n

    def admissible(k: int, w: int) -> bool:
        v = order[k]
        return not used[w] and colour[w] == colour[v] and all(
            (u in adjset[v]) == (img[u] in adjset[w]) for u in order[:k])

    def first_leaf(k: int, w: int) -> Perm | None:
        """The first automorphism extending img with base vertex k sent to
        w, or None; img and used are restored either way."""
        img[order[k]] = w
        used[w] = True
        if k + 1 == P.n:
            leaf = tuple(img)
        else:
            leaf = next(filter(None, (first_leaf(k + 1, x) for x in range(P.n)
                                      if admissible(k + 1, x))), None)
        used[w] = False
        img[order[k]] = -1
        return leaf

    gens: list[Perm] = []
    size = 1
    for k in range(P.n - 1, -1, -1):
        v = order[k]
        img[v] = -1
        used[v] = False
        found = [g for w in range(P.n)
                 if w != v and admissible(k, w) and (g := first_leaf(k, w))]
        gens += found
        size *= 1 + len(found)
    group = close_generators(gens, P.n, cap=size)
    if group.order != size:
        raise RuntimeError("internal error: |Aut| != product of orbit sizes")
    return sorted(group.elements)


# -- coloured Cayley graphs ------------------------------------------------

def colour_units(G: FiniteGroup, conn) -> list[tuple[int, ...]]:
    """The colours of an inverse-closed set: inverse pairs (s, s^-1) and
    involution singletons (s,), in order of first appearance."""
    units = []
    seen = set()
    for s in conn:
        if s in seen:
            continue
        si = G.inverse[s]
        seen.update((s, si))
        units.append((s,) if si == s else (s, si))
    return units


class ColouredCayleyGraph:
    """Cay(G, S): vertices are G's element indices, an edge {g, sg} for every
    g and s in S, coloured by the inverse pair {s, s^-1}."""

    def __init__(self, group: FiniteGroup, conn: list[int]):
        self.group = group
        n = group.order
        seen = set()
        conn_list = []
        for s in conn:
            if s == 0:
                raise ContainsIdentity("connection set contains the identity")
            if s not in seen:
                seen.add(s)
                conn_list.append(s)
        for s in conn_list:
            if group.inverse[s] not in seen:
                raise NotInverseClosed(
                    f"connection set is not inverse-closed at {group.label(s)}")
        self.conn = conn_list
        self.colour_classes = colour_units(group, conn_list)
        self.n = n
        # Edges of distinct colours are distinct, so each colour unit adds
        # its own edges: a pair {s, s^-1} has n distinct edges {v, s*v}
        # (two coincide only if s^2 = 1), an involution has the n/2 edges
        # with v < s*v.  The insertion order is that of v.
        self.edge_colour: dict[tuple[int, int], int] = {}
        for ci, cls in enumerate(self.colour_classes):
            row = group.left_row(cls[0])
            if len(cls) == 2:
                self.edge_colour.update(
                    ((v, w) if v < w else (w, v), ci)
                    for v, w in enumerate(row))
            else:
                self.edge_colour.update(
                    ((v, w), ci) for v, w in enumerate(row) if v < w)

    @property
    def edges(self):
        return sorted(self.edge_colour)


def cayley(G: FiniteGroup, S) -> ColouredCayleyGraph:
    """S may contain element indices or permutations of G."""
    idxs = [s if isinstance(s, int) else G.index[tuple(s)] for s in S]
    return ColouredCayleyGraph(G, idxs)


def is_connected(Gamma: ColouredCayleyGraph) -> bool:
    """True iff <S> = G: the BFS over left rows from the identity vertex,
    the one the engine's stabiliser search walks, reaches every vertex."""
    G = Gamma.group
    order, _ = bfs_tree(Gamma.n, Gamma.conn,
                        {s: G.left_row(s) for s in Gamma.conn})
    return len(order) == Gamma.n - 1


def complete_cayley(G: FiniteGroup) -> ColouredCayleyGraph:
    if G.order < 2:
        raise ValueError("complete Cayley graph needs |G| >= 2")
    return ColouredCayleyGraph(G, list(range(1, G.order)))


def quotient_graph(Gamma: ColouredCayleyGraph, N: FiniteGroup) -> ColouredCayleyGraph:
    """Cay(G/N, S/N).  The quotient group is realised by the action of G on
    the right cosets of N (kernel is exactly N since N is normal)."""
    G = Gamma.group
    if not is_subgroup(N, G) or not is_normal(N, G):
        raise NotNormal("N must be a normal subgroup of G")
    nset = set(N.elements)
    coset_of = {}
    cosets = []
    for i, e in enumerate(G.elements):
        if i in coset_of:
            continue
        coset = sorted(G.index[perms.pmul(x, e)] for x in nset)
        ci = len(cosets)
        cosets.append(coset)
        for j in coset:
            coset_of[j] = ci
    # identity coset must come first; it does, since element 0 is identity
    if coset_of[0] != 0:
        raise RuntimeError("internal error: the identity coset is not first")

    def act(i: int) -> tuple[int, ...]:
        row = G.right_row(i)
        return tuple(coset_of[row[c[0]]] for c in cosets)

    gen_imgs = [act(G.index[g]) for g in G.generators]
    Q = close_generators(gen_imgs, len(cosets), cap=len(cosets) + 1)
    if Q.order != G.order // N.order:
        raise RuntimeError("internal error: |G/N| != |G|/|N|")
    labels = ["{" + ",".join(G.label(j) for j in cosets[c]) + "}"
              for c in range(len(cosets))]
    # element of Q reached by s: the image of s under the action homomorphism
    conn = []
    for s in Gamma.conn:
        q = Q.index[act(s)]
        if q != 0 and q not in conn:
            conn.append(q)
    # relabel Q's elements by the coset they send coset 0 to
    Q.labels = [labels[p[0]] for p in Q.elements]
    return ColouredCayleyGraph(Q, conn)


def realize_line_graph_as_cayley(P: PlainGraph, G: FiniteGroup) -> ColouredCayleyGraph:
    """View L(P) as a Cayley graph on an edge-regular G <= Aut(P).

    Vertex g of the Cayley graph is the edge e0^g, where e0 is the
    lexicographically least edge."""
    edge_index = {e: i for i, e in enumerate(P.edges)}

    def edge_image(e, g):
        u, v = g[e[0]], g[e[1]]
        return (min(u, v), max(u, v))

    for g in G.elements:
        for e in P.edges:
            if edge_image(e, g) not in edge_index:
                raise NotEdgeRegular("G does not act on the graph by automorphisms")
    if G.order != len(P.edges):
        raise NotEdgeRegular(f"|G| = {G.order} but the graph has {len(P.edges)} edges")
    e0 = P.edges[0]
    orbit = {edge_image(e0, g) for g in G.elements}
    if len(orbit) != len(P.edges):
        raise NotEdgeRegular("G is not transitive on edges")

    def adjacent_edges(e, f):
        return e != f and len(set(e) & set(f)) == 1

    S = [i for i, g in enumerate(G.elements)
         if adjacent_edges(edge_image(e0, g), e0)]
    Gamma = ColouredCayleyGraph(G, S)
    Gamma.edge_of_vertex = [edge_image(e0, g) for g in G.elements]
    Gamma.vertex_of_edge = {e: i for i, e in enumerate(Gamma.edge_of_vertex)}
    eov = Gamma.edge_of_vertex
    if not all(adjacent_edges(eov[u], eov[v]) for u, v in Gamma.edges):
        raise RuntimeError("internal error: Cayley and line-graph adjacency differ")
    return Gamma


# -- export ----------------------------------------------------------------

_DOT_PALETTE = ["red", "blue", "green", "orange", "purple", "brown", "cyan",
                "magenta", "gold", "darkgreen", "navy", "gray"]


def to_dot(Gamma: ColouredCayleyGraph) -> str:
    lines = ["graph cayley {"]
    for v in range(Gamma.n):
        lines.append(f'  {v} [label="{Gamma.group.label(v)}"];')
    for (u, v), c in sorted(Gamma.edge_colour.items()):
        col = _DOT_PALETTE[c % len(_DOT_PALETTE)]
        lines.append(f"  {u} -- {v} [color={col}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(Gamma: ColouredCayleyGraph) -> dict:
    return {
        "group_spec": Gamma.group.meta.get("spec"),
        "connection_set": [Gamma.group.label(s) for s in Gamma.conn],
        "edges": [[u, v, c] for (u, v), c in sorted(Gamma.edge_colour.items())],
    }
