"""Fully enumerated permutation groups and the subgroup-theoretic queries
used throughout the package.

Groups are small (a few thousand elements at most) and hold explicit element
lists, which keeps every operation exactly verifiable.  Products of elements
are read from a base: a few points whose images tell the elements apart
(Seress, Permutation Group Algorithms, 2003), so no product permutation is
built; see FiniteGroup.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm
from operator import itemgetter

from .errors import (BoundExceeded, ClosureExceedsCap, NotASubgroup,
                     UnknownLabel)
from .perms import Perm, identity, is_perm, pconj, pmul, porder

DEFAULT_CAP = 10_000
ISO_BOUND = 400


class FiniteGroup:
    """A finite group given by its full element list (permutations of a common
    degree), with identity at index 0.

    Index arithmetic goes through a base, computed on first use: points
    whose images determine each element (Seress 2003).  With the convention
    (a*b)(x) = b(a(x)), e_i*e_j sends the base where e_j sends the base's
    images under e_i, so one itemgetter of those images per element,
    applied to e_j, gives the base image of e_i*e_j, and a map from base
    images to indices gives its index.  A right-regular group on its own
    element indices, as every table-built group and every cyclic group is,
    needs only point 0, which e_i sends to i.

    Immutable after construction apart from lazily filled caches; safe to share.
    """

    def __init__(self, elements, generators, labels=None, meta=None):
        self.elements: list[Perm] = list(elements)
        if not self.elements:
            raise ValueError("element list must be nonempty")
        self.degree = len(self.elements[0])
        if self.elements[0] != identity(self.degree):
            raise ValueError("identity must be element 0")
        self.index = {p: i for i, p in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise ValueError("duplicate elements")
        self.generators: list[Perm] = list(generators)
        for g in self.generators:
            if g not in self.index:
                raise ValueError("generator not in element list")
        self.labels = list(labels) if labels is not None else None
        self.meta = dict(meta) if meta else {}
        self._rows: dict[int, tuple[int, ...]] = {}
        self._chains: dict[tuple[int, ...], list[int]] = {}

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, p: Perm) -> bool:
        return p in self.index

    def label(self, i: int) -> str:
        if self.labels is not None:
            return self.labels[i]
        return f"e{i}"

    def label_index(self, lab: str) -> int:
        if self.labels is None:
            i = lab[1:]
            if lab[:1] == "e" and i.isdigit() and int(i) < self.order:
                return int(i)
        elif lab in self.labels:
            return self.labels.index(lab)
        raise UnknownLabel(f"unknown element label {lab!r}")

    # -- index arithmetic -------------------------------------------------

    @cached_property
    def base(self) -> tuple[int, ...]:
        """Points in increasing order, each one telling apart some elements
        that the points before it do not, until the images tell all elements
        apart; empty for the trivial group."""
        base: list[int] = []
        images = [()] * self.order
        distinct = 1
        for p in range(self.degree):
            if distinct == self.order:
                break
            ext = [img + (e[p],) for img, e in zip(images, self.elements)]
            split = len(set(ext))
            if split > distinct:
                base.append(p)
                images, distinct = ext, split
        return tuple(base)

    @cached_property
    def _base_images(self) -> list:
        """_base_images[i] reads a permutation at the images of the base
        under e_i: applied to e_j it gives the base image of e_i*e_j, a
        point for a one-point base and a tuple otherwise."""
        return [_getter([e[p] for p in self.base]) for e in self.elements]

    @cached_property
    def _base_index(self) -> dict:
        """Element index by base image."""
        return {img: i for i, img in
                enumerate(map(self._base_images[0], self.elements))}

    def imul(self, i: int, j: int) -> int:
        return self._base_index[self._base_images[i](self.elements[j])]

    @cached_property
    def inverse(self) -> list[int]:
        """e^-1 sends each base point to its preimage under e."""
        base = self.base
        img = _getter(range(len(base)))
        return [self._base_index[img([e.index(p) for p in base])]
                for e in self.elements]

    @cached_property
    def element_orders(self) -> list[int]:
        return [porder(p) for p in self.elements]

    def left_row(self, s: int) -> tuple[int, ...]:
        """Row of the multiplication table: x -> s*x (left multiplication)."""
        row = self._rows.get(s)
        if row is None:
            row = tuple(map(self._base_index.__getitem__,
                            map(self._base_images[s], self.elements)))
            self._rows[s] = row
        return row

    def right_row(self, s: int) -> tuple[int, ...]:
        """x -> x*s; this is the right-regular image of element s."""
        es, pos = self.elements[s], self._base_index
        return tuple([pos[img(es)] for img in self._base_images])

    @cached_property
    def table(self) -> list[tuple[int, ...]]:
        """Full multiplication table, table[i][j] = index of e_i * e_j."""
        return [self.left_row(i) for i in range(self.order)]

    # -- derived groups ---------------------------------------------------

    @cached_property
    def right_regular(self) -> "FiniteGroup":
        """The right-regular representation G_R acting on element indices,
        closed from the images of the generators."""
        gens = [self.right_row(self.index[g]) for g in self.generators]
        G = close_generators(gens, self.order, cap=max(DEFAULT_CAP, self.order))
        if G.order != self.order:
            raise RuntimeError("internal error: generators do not generate G")
        return G

    def subgroup(self, gens: list[Perm]) -> "FiniteGroup":
        H = close_generators(gens, self.degree,
                             cap=max(DEFAULT_CAP, self.order))
        for p in H.elements:
            if p not in self.index:
                raise NotASubgroup("generated subgroup leaves the ambient group")
        return H

    def is_abelian(self) -> bool:
        gens = [self.index[g] for g in self.generators] or range(self.order)
        return all(self.imul(a, b) == self.imul(b, a)
                   for a in gens for b in gens)

    def is_cyclic(self) -> bool:
        return self.order in self.element_orders

    def exponent(self) -> int:
        e = 1
        for o in self.element_orders:
            e = lcm(e, o)
        return e


def _getter(points):
    """itemgetter(*points): a bare value for one point, a tuple for more,
    and () for none."""
    return itemgetter(*points) if points else lambda p: ()


def trivial_group(degree: int) -> FiniteGroup:
    return FiniteGroup([identity(degree)], [])


def close_generators(gens, degree: int, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Breadth-first closure from the identity, generators applied in input
    order; the resulting element ordering is deterministic.  Each dequeued
    element e is applied to every generator g through one itemgetter(*e),
    which returns the product e*g, so the products are taken in C."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    gens = [tuple(g) for g in gens]
    for g in gens:
        if len(g) != degree or not is_perm(g):
            raise ValueError("generators must be permutations of the given degree")
    ident = identity(degree)
    elements = [ident]
    if degree < 2:
        # The identity is the only permutation here, and itemgetter of a
        # single point would return that point rather than a tuple.
        return FiniteGroup(elements, gens)
    seen = {ident}
    head = 0
    while head < len(elements):
        act = itemgetter(*elements[head])
        head += 1
        for g in gens:
            f = act(g)
            if f not in seen:
                if len(elements) >= cap:
                    raise ClosureExceedsCap(f"closure exceeds cap {cap}")
                seen.add(f)
                elements.append(f)
    return FiniteGroup(elements, gens)


def generated(elems, degree: int, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """The subgroup generated by elems, closed from those of them that lie
    outside the closure of the ones adjoined before, so that it keeps few
    generators.  One membership set grows in place, a coset at a time
    (Dimino's method; Butler, Fundamental Algorithms for Permutation Groups,
    1991): adjoining p to the subgroup H held so far adds the right coset
    H*x of each x = p, and of each product of a new coset's representative
    with a generator that lies outside the set, so the union is closed under
    the generators.  The group is closed once, from the generators kept, by
    close_generators, which fixes the element order."""
    gens: list[Perm] = []
    elements = [identity(degree)]
    seen = set(elements)
    for p in elems:
        if p in seen:
            continue
        if len(p) != degree or not is_perm(p):
            raise ValueError("generators must be permutations of the given "
                             "degree")
        p = tuple(p)
        gens.append(p)
        # h*x for every h in H, as one itemgetter of h's points applied to x
        left = [itemgetter(*h) for h in elements]
        reps = [p]
        for x in reps:
            if x not in seen:
                if len(elements) + len(left) > cap:
                    raise ClosureExceedsCap(f"closure exceeds cap {cap}")
                coset = [h(x) for h in left]
                seen.update(coset)
                elements += coset
                reps += map(itemgetter(*x), gens)
    return close_generators(gens, degree, cap=cap)


def bfs_tree(n: int, conn, left) -> tuple[list[tuple[int, int, int]], list[int]]:
    """Breadth-first search from the identity along left multiplication by
    the elements of conn, where left[s] is the row x -> s*x.

    Returns the reached elements other than the identity as (v, u, s) with
    v = s*u, in visiting order, and pos with pos[v] the place of v in the
    queue (pos[0] = 0, -1 where unreached).  The reached elements form the
    subgroup <conn>, so all n are reached iff conn generates the group, that
    is iff Cay(G, conn) is connected.  The scan stops as soon as all n are
    queued, since no later queue entry can reach a new vertex."""
    order = []
    pos = [-1] * n
    pos[0] = 0
    queue = [0]
    head = 0
    while head < len(queue) < n:
        u = queue[head]
        head += 1
        for s in conn:
            v = left[s][u]
            if pos[v] == -1:
                pos[v] = len(queue)
                order.append((v, u, s))
                queue.append(v)
    return order, pos


def is_subgroup(H: FiniteGroup, G: FiniteGroup) -> bool:
    return H.degree == G.degree and all(p in G.index for p in H.elements)


def is_normal(H: FiniteGroup, G: FiniteGroup) -> bool:
    """True iff g^-1 h g stays in H for every h in H and generator g of G."""
    if not is_subgroup(H, G):
        raise NotASubgroup("H is not a subgroup of G")
    hset = H.index
    for g in G.generators:
        for h in H.elements:
            if pconj(h, g) not in hset:
                return False
    return True


def p_part(n: int, p: int) -> int:
    q = 1
    while n % p == 0:
        n //= p
        q *= p
    return q


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def sylow_subgroup(G: FiniteGroup, p: int) -> FiniteGroup:
    """A Sylow p-subgroup, by greedy growth: keep adjoining p-power-order
    elements that normalise the current p-subgroup.  This always progresses:
    a p-subgroup P below a Sylow subgroup Q is proper in its normaliser in Q."""
    target = p_part(G.order, p)
    P = trivial_group(G.degree)
    if target == 1:
        return P
    orders = G.element_orders
    p_elems = [G.elements[i] for i in range(G.order)
               if orders[i] > 1 and p_part(orders[i], p) == orders[i]]
    while P.order < target:
        pset = set(P.elements)
        for e in p_elems:
            if e in pset:
                continue
            if all(pconj(x, e) in pset for x in P.elements):
                P = G.subgroup(P.generators + [e])
                break
        else:
            raise RuntimeError("internal error: no p-element normalises P")
    if P.order != target:
        raise RuntimeError(f"internal error: Sylow {p}-subgroup of order {P.order}")
    return P


def is_sylow_cyclic_order_not_div_4(G: FiniteGroup) -> bool:
    """True iff |G| is not divisible by 4 and every Sylow subgroup is cyclic.

    A Sylow p-subgroup is cyclic iff some element has order equal to the full
    p-part of |G|."""
    if G.order % 4 == 0:
        return False
    orders = set(G.element_orders)
    return all(p_part(G.order, p) in orders for p in prime_factors(G.order))


def centralizer(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """C_G(H), by scanning G's elements against H's generators."""
    hgens = H.generators or [p for p in H.elements if p != identity(H.degree)]
    elems = [g for g in G.elements if all(pmul(g, h) == pmul(h, g) for h in hgens)]
    return FiniteGroup(elems, [p for p in elems if p != identity(G.degree)])


def normalizer(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    hset = set(H.elements)
    elems = [g for g in G.elements if all(pconj(h, g) in hset for h in H.generators)] \
        if H.generators else list(G.elements)
    return FiniteGroup(elems, [p for p in elems if p != identity(G.degree)])


def conjugacy_classes(G: FiniteGroup) -> list[list[int]]:
    """Conjugacy classes as sorted lists of element indices, ordered by their
    least member."""
    seen = [False] * G.order
    gens = G.generators or []
    classes = []
    for i in range(G.order):
        if seen[i]:
            continue
        orbit = {i}
        queue = [i]
        while queue:
            j = queue.pop()
            for g in gens:
                k = G.index[pconj(G.elements[j], g)]
                if k not in orbit:
                    orbit.add(k)
                    queue.append(k)
        for j in orbit:
            seen[j] = True
        classes.append(sorted(orbit))
    return classes


def normal_subgroups(G: FiniteGroup) -> list[FiniteGroup]:
    """All normal subgroups, as joins of normal closures of conjugacy classes;
    a group over DEFAULT_CAP, read at each call, raises BoundExceeded.

    Every normal subgroup is the join of the class closures inside it, so
    joining each subgroup found with each class closure, one closure at a
    time, reaches all of them.  A join that is one of its two parts is
    skipped, and two closures are joined once."""
    if G.order > DEFAULT_CAP:
        raise BoundExceeded(f"|G| = {G.order} exceeds bound {DEFAULT_CAP}")
    classes = conjugacy_classes(G)
    if len(classes) > 64:
        raise BoundExceeded(f"{len(classes)} conjugacy classes exceed bound 64")

    found: dict[frozenset, FiniteGroup] = {
        frozenset([identity(G.degree)]): trivial_group(G.degree)}
    for cls in classes:
        N = G.subgroup([G.elements[i] for i in cls if i != 0])
        found.setdefault(frozenset(N.elements), N)
    closures = list(found.values())
    queue = list(closures)
    for i, A in enumerate(queue):
        # a closure meets only the closures after it
        for C in closures[i + 1:] if i < len(closures) else closures:
            if all(g in A.index for g in C.generators) or \
                    all(g in C.index for g in A.generators):
                continue            # the join is A or C, both found
            J = G.subgroup(A.generators + C.generators)
            key = frozenset(J.elements)
            if key not in found:
                found[key] = J
                queue.append(J)
    out = sorted(found.values(), key=lambda N: (N.order, sorted(map(tuple, N.elements))))
    if not all(is_normal(N, G) for N in out):
        raise RuntimeError("internal error: a closed subgroup is not normal")
    return out


def _order_histogram(G: FiniteGroup) -> dict[int, int]:
    hist: dict[int, int] = {}
    for o in G.element_orders:
        hist[o] = hist.get(o, 0) + 1
    return hist


def extend_isomorphism(G: FiniteGroup, H: FiniteGroup, gens: list[int],
                       imgs) -> list[int] | None:
    """Extend gens[i] -> imgs[i] to a bijective homomorphism G -> H between
    groups of equal order, as a list mapping G-indices to H-indices, or None
    if there is none.

    Word replay along a BFS from the identity sets phi(g*e) = phi(g)*phi(e),
    read from the cached left rows, and checks it wherever g*e is reached
    again.  Every pair (g, e) is replayed once, so a consistent replay that
    reaches all of G is a homomorphism."""
    rows = [(G.left_row(g), H.left_row(im)) for g, im in zip(gens, imgs)]
    phi = [-1] * G.order
    phi[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for e in frontier:
            for row_g, row_im in rows:
                f, cand = row_g[e], row_im[phi[e]]
                if phi[f] == -1:
                    phi[f] = cand
                    nxt.append(f)
                elif phi[f] != cand:
                    return None
        frontier = nxt
    if -1 in phi or len(set(phi)) != G.order:
        return None
    return phi


def isomorphisms(G: FiniteGroup, H: FiniteGroup, gens: list[int],
                 candidates=None):
    """Yield every isomorphism G -> H, as a list mapping G-indices to
    H-indices, that sends gens[k] into candidates[k] (by default the elements
    of H of the same order), in lexicographic candidate order.

    A partial choice of images is pruned unless each image has its
    generator's order, each product with an earlier image has the order of
    the matching product in G, and, below the last generator, the images
    generate a subgroup of the order the generators do; at the last level
    extend_isomorphism decides.  When H is G and every image so far is its
    generator or that generator's inverse, the images generate the same
    subgroup as the generators, so that closure is skipped; the chain of
    subgroup orders is closed level by level, once per G and gens."""
    g_orders = G.element_orders
    h_orders = H.element_orders
    if candidates is None:
        candidates = [[h for h in range(H.order) if h_orders[h] == g_orders[g]]
                      for g in gens]
    chain = G._chains.setdefault(tuple(gens), [])
    imgs: list[int] = []

    def chain_order(k: int) -> int:
        while len(chain) <= k:
            chain.append(G.subgroup(
                [G.elements[i] for i in gens[:len(chain) + 1]]).order)
        return chain[k]

    def extend(k: int, same: bool):
        if k == len(gens):
            phi = extend_isomorphism(G, H, gens, imgs)
            if phi is not None:
                yield phi
            return
        g = gens[k]
        for cand in candidates[k]:
            if h_orders[cand] != g_orders[g] or \
                    any(h_orders[H.imul(cand, imgs[j])]
                        != g_orders[G.imul(g, gens[j])] for j in range(k)):
                continue
            imgs.append(cand)
            same_k = same and cand in (g, G.inverse[g])
            if k == len(gens) - 1 or same_k or \
                    H.subgroup([H.elements[i] for i in imgs]).order \
                    == chain_order(k):
                yield from extend(k + 1, same_k)
            imgs.pop()

    return extend(0, H is G)


def automorphism_transversals(G: FiniteGroup) -> tuple[list[list[int]], int]:
    """Generators of Aut(G), each as a list mapping element indices to
    element indices, and the order of Aut(G), without listing the group.

    Along the first-fit generating sequence gens of generated, level k fixes
    the images of gens[:k] and, for every other same-order image c of
    gens[k], keeps the first map isomorphisms yields that sends gens[k] to c.
    An automorphism is fixed by its images of gens, so level k gives one map
    for each point of gens[k]'s orbit under the automorphisms fixing gens[:k]
    but gens[k] itself: one transversal per level, which together generate
    Aut(G), whose order is the product over the levels of the orbit sizes
    (Sims 1970)."""
    gens = [G.index[g] for g in
            generated(G.elements, G.degree, cap=G.order).generators]
    orders = G.element_orders
    same = [[h for h in range(G.order) if orders[h] == orders[g]]
            for g in gens]
    maps: list[list[int]] = []
    size = 1
    for k, g in enumerate(gens):
        fixed = [[h] for h in gens[:k]]
        found = [phi for c in same[k] if c != g and (phi := next(
            isomorphisms(G, G, gens, fixed + [[c]] + same[k + 1:]), None))]
        maps += found
        size *= 1 + len(found)
    return maps, size


def find_isomorphism(G: FiniteGroup, H: FiniteGroup) -> list[int] | None:
    """An isomorphism G -> H as a list mapping G-indices to H-indices, or None.

    Groups of different orders, order histograms or commutativity are
    rejected at once, and groups over ISO_BOUND, read at each call, with
    BoundExceeded; otherwise the first map isomorphisms yields over the
    same-order images of a generating sequence of G."""
    if G.order != H.order:
        return None
    if G.order > ISO_BOUND or H.order > ISO_BOUND:
        raise BoundExceeded(f"isomorphism test bound {ISO_BOUND} exceeded")
    if G.is_abelian() != H.is_abelian() or \
            _order_histogram(G) != _order_histogram(H):
        return None
    gens = generated(G.elements, G.degree, cap=G.order).generators
    return next(isomorphisms(G, H, [G.index[g] for g in gens]), None)


def are_isomorphic(G: FiniteGroup, H: FiniteGroup) -> bool:
    return find_isomorphism(G, H) is not None


def are_conjugate_subsets(Amb: FiniteGroup, S1, S2) -> bool:
    """True iff a^-1 S1 a = S2 (as sets) for some a in Amb.  S1, S2 are
    collections of permutations belonging to Amb's element set."""
    S1 = {tuple(s) for s in S1}
    S2 = {tuple(s) for s in S2}
    for s in S1 | S2:
        if s not in Amb.index:
            raise NotASubgroup("subset element outside the ambient group")
    if len(S1) != len(S2):
        return False
    if sorted(porder(s) for s in S1) != sorted(porder(s) for s in S2):
        return False
    for a in Amb.elements:
        if {pconj(s, a) for s in S1} == S2:
            return True
    return False
