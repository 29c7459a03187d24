"""Constructors for every named group and named map the rest of the package
needs: cyclic/dihedral/quaternion building blocks, direct and semidirect
products, generalised dihedral and dicyclic groups, wreath products, and the
projective family around PGL(2,7).

Groups built from an abstract multiplication table are realised through their
right-regular representation, so every FiniteGroup carries a faithful
permutation action.  `meta` keeps enough structure (factor tuples, coset
membership) for the named maps and for symbolic connection-set input.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, product, repeat

from .errors import BoundExceeded, IncompatibleGroup, InvalidSpec
from .groups import DEFAULT_CAP, FiniteGroup, close_generators
from .perms import Perm, identity, pinv, pmul, ppow, reader


def _order(factor_orders) -> int:
    """The product of the factor orders, or DEFAULT_CAP + 1 once it passes
    DEFAULT_CAP: the product stops growing there, so a huge rank costs no
    huge integer."""
    order = 1
    for m in factor_orders:
        order *= m
        if order > DEFAULT_CAP:
            return DEFAULT_CAP + 1
    return order


def _bound(factor_orders, what: str) -> int:
    """The product of the factor orders; BoundExceeded, before any element
    is built, when it passes DEFAULT_CAP."""
    order = _order(factor_orders)
    if order > DEFAULT_CAP:
        raise BoundExceeded(f"{what}: group order exceeds cap {DEFAULT_CAP}")
    return order


def _from_table(items, mult, ident, gen_items, label_fn, meta=None) -> FiniteGroup:
    """Right-regular realisation of an abstract group given by a mult rule:
    element i is x -> x*items[i] on item indices.

    `items` fixes the element order (identity first is enforced here).
    `mult` is called for the generator rows x -> x*s only, n per generator.
    The elements are listed by a breadth-first search from the identity
    along the rows: i*s sends x where row_s sends the image of x under i,
    one reader of i's points applied to row_s.  Each product that
    reaches an element already listed must equal it, so the listed elements
    are closed under the rows; with every row a permutation and all n items
    reached, they are exactly the group the rows generate, of order n.
    Otherwise RuntimeError."""
    items = list(items)
    if items[0] != ident:
        items.remove(ident)
        items.insert(0, ident)
    idx = {it: i for i, it in enumerate(items)}
    n = len(items)
    rows = [tuple([idx[mult(x, s)] for x in items]) for s in gen_items]
    elements = [identity(n)] + [None] * (n - 1)
    queue = [0]
    closed = True
    for i in queue:
        act = reader(elements[i])
        for row in rows:
            j, p = row[i], act(row)
            if elements[j] is None:
                elements[j] = p
                queue.append(j)
            else:
                closed &= elements[j] == p
    if (not closed or len(queue) != n
            or any(len(set(row)) != n for row in rows)):
        raise RuntimeError("internal error: generators do not generate")
    gens = [elements[idx[g]] for g in gen_items]
    G = FiniteGroup(elements, gens, labels=[label_fn(it) for it in items],
                    meta=meta)
    G.meta["items"] = items
    return G


# -- elementary families --------------------------------------------------

def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise InvalidSpec("cyclic order must be >= 1")
    _bound([n], f"z{n}")
    if n == 1:
        return FiniteGroup([(0,)], [], labels=["0"], meta={"spec": "z1"})
    # the k-th power of the shift x -> x + 1, by slicing
    r = tuple(range(n))
    elements = [r[k:] + r[:k] for k in range(n)]
    return FiniteGroup(elements, [elements[1]],
                       labels=[str(k) for k in range(n)],
                       meta={"spec": f"z{n}"})


def symmetric(n: int) -> FiniteGroup:
    if n < 1 or n > 8:
        raise InvalidSpec("symmetric group supported for 1 <= n <= 8")
    # the n-cycle and a transposition; S1 has no generator
    gens = [tuple((i + 1) % n for i in range(n)), (1, 0, *range(2, n))]
    G = close_generators(gens if n > 1 else [], n, cap=50_000)
    G.meta["spec"] = f"s{n}"
    return G


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n (n >= 1; n >= 3 for the usual geometry)."""
    if n < 1:
        raise InvalidSpec("dihedral parameter must be >= 1")
    _bound([2, n], f"d{n}")
    items = [(a, e) for e in (0, 1) for a in range(n)]

    def mult(u, v):
        a, e = u
        b, f = v
        return ((a + (b if e == 0 else -b)) % n, e ^ f)

    def lbl(it):
        a, e = it
        base = "1" if a == 0 else (f"r^{a}" if a > 1 else "r")
        return base if e == 0 else ("s" if a == 0 else base + "*s")

    return _from_table(items, mult, (0, 0), [(1 % n, 0), (0, 1)], lbl,
                       meta={"spec": f"d{n}"})


def quaternion8() -> FiniteGroup:
    # elements coded (sign, unit) with unit in 1,i,j,k
    units = ["1", "i", "j", "k"]
    tab = {
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
        ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
        ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
    }

    def mult(u, v):
        s1, a = u
        s2, b = v
        if a == "1":
            return (s1 * s2, b)
        if b == "1":
            return (s1 * s2, a)
        s3, c = tab[(a, b)]
        return (s1 * s2 * s3, c)

    items = [(s, u) for u in units for s in (1, -1)]

    def lbl(it):
        s, u = it
        return u if s == 1 else f"-{u}"

    return _from_table(items, mult, (1, "1"), [(1, "i"), (1, "j")], lbl,
                       meta={"spec": "q8"})


# -- products -------------------------------------------------------------

def direct_product(*groups: FiniteGroup) -> FiniteGroup:
    """G_1 x ... x G_k on the disjoint union of the factors' points, the
    element of (i_1, ..., i_k) acting as the i_j-th element of G_j on the
    j-th block; elements are listed in the lexicographic order of those
    index tuples.  Each factor's elements are shifted to their block once,
    and an element is the concatenation of its factors' shifted tuples.
    One factor gives a copy of it, so that naming the product leaves the
    factor, which may be a cached named group, as it was."""
    if len(groups) == 1:
        (G,) = groups
        return FiniteGroup(G.elements, G.generators, G.labels, G.meta)
    _bound([G.order for G in groups], "direct product")
    elements = [()]
    offset = 0
    for G in groups:
        block = [tuple([offset + x for x in e]) for e in G.elements]
        elements = [e + b for e in elements for b in block]
        offset += G.degree
    tuples = list(product(*[range(G.order) for G in groups]))
    tuple_index = {t: i for i, t in enumerate(tuples)}
    gens = []
    for k, G in enumerate(groups):
        for g in G.generators:
            combo = [0] * len(groups)
            combo[k] = G.index[g]
            gens.append(elements[tuple_index[tuple(combo)]])
    labels = None
    if all(G.labels is not None for G in groups):
        labels = ["(" + ",".join(G.labels[i] for G, i in zip(groups, combo)) + ")"
                  for combo in tuples]
    P = FiniteGroup(elements, gens, labels=labels,
                    meta={"factor_groups": list(groups),
                          "tuples": tuples,
                          "tuple_index": tuple_index})
    return P


def semidirect_product(A: FiniteGroup, B: FiniteGroup, action) -> FiniteGroup:
    """A semidirect product A x| B; `action[b]` is the permutation of A's
    element indices by which b in B acts.  Elements are written a*b."""
    if any(len(action[b]) != A.order for b in range(B.order)):
        raise InvalidSpec("action table has wrong size")
    _bound([A.order, B.order], "semidirect product")
    items = [(a, b) for b in range(B.order) for a in range(A.order)]

    def mult(u, v):
        a1, b1 = u
        a2, b2 = v
        return (A.imul(a1, action[b1][a2]), B.imul(b1, b2))

    def lbl(it):
        a, b = it
        la = A.label(a)
        lb = B.label(b)
        if a == 0:
            return lb
        if b == 0:
            return la
        return f"{la}*{lb}"

    gens = [(A.index[g], 0) for g in A.generators] + [(0, B.index[g]) for g in B.generators]
    return _from_table(items, mult, (0, 0), gens, lbl)


def generalized_dihedral(A: FiniteGroup) -> FiniteGroup:
    if not A.is_abelian():
        raise InvalidSpec("generalised dihedral requires abelian A")
    if A.exponent() <= 2:
        raise InvalidSpec("generalised dihedral requires exponent greater than 2")
    iota = list(A.inverse)
    G = semidirect_product(A, cyclic(2), [list(range(A.order)), iota])
    G.meta["spec"] = "dih"
    return G


def generalized_dicyclic(A: FiniteGroup, y: int | None = None) -> FiniteGroup:
    """Dic(A, y) = <A, x | x^2 = y, a^x = a^-1>, realised on 2|A| points."""
    _bound([2, A.order], "dicyclic group")
    if not A.is_abelian():
        raise InvalidSpec("generalised dicyclic requires abelian A")
    if A.order % 2 != 0:
        raise InvalidSpec("generalised dicyclic requires |A| even")
    if A.exponent() <= 2:
        raise InvalidSpec("generalised dicyclic requires exponent greater than 2")
    involutions = [i for i, o in enumerate(A.element_orders) if o == 2]
    if y is None:
        y = involutions[0]
    if A.element_orders[y] != 2:
        raise InvalidSpec("y must be an involution of A")
    inv = A.inverse
    items = [(a, e) for e in (0, 1) for a in range(A.order)]

    def mult(u, v):
        a, e = u
        b, f = v
        if e == 0:
            return (A.imul(a, b), f)
        if f == 0:
            return (A.imul(a, inv[b]), 1)
        return (A.imul(A.imul(a, inv[b]), y), 0)

    def lbl(it):
        a, e = it
        la = A.label(a)
        if e == 0:
            return la
        return "x" if a == 0 else f"{la}*x"

    gens = [(A.index[g], 0) for g in A.generators] + [(0, 1)]
    G = _from_table(items, mult, (0, 0), gens, lbl)
    # items order: coset A first, coset Ax second
    G.meta["dic_coset"] = [e for (_, e) in G.meta["items"]]
    return G


def q8_times_z2(n: int) -> FiniteGroup:
    _bound(chain([8], repeat(2, n)), f"q8xz2^{n}")
    G = quaternion8()
    if n == 0:
        G.meta["q8z2n"] = 0
        return G
    P = direct_product(G, *[cyclic(2) for _ in range(n)])
    P.meta["q8z2n"] = n
    return P


def wreath_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """G wr_Omega H where Omega is H's carrier point set.

    Elements are (h; g_1, ..., g_m) in the normal form h*g_1*...*g_m; H
    permutes the base coordinates so that g in G_i conjugates into G_{i^h}."""
    m = H.degree
    _bound(chain([H.order], repeat(G.order, m)), "wreath product")
    # the distinguished action of H on Omega, inverted
    hinv_pts = [pinv(p) for p in H.elements]

    items = [(h, gs) for h in range(H.order)
             for gs in product(range(G.order), repeat=m)]

    def mult(u, v):
        h, a = u
        k, b = v
        kinv_pts = hinv_pts[k]
        c = tuple(G.imul(a[kinv_pts[j]], b[j]) for j in range(m))
        return (H.imul(h, k), c)

    def lbl(it):
        h, gs = it
        return "(" + H.label(h) + "; " + ",".join(G.label(g) for g in gs) + ")"

    gens = [(H.index[g], (0,) * m) for g in H.generators]
    for i in range(m):
        for g in G.generators:
            gs = [0] * m
            gs[i] = G.index[g]
            gens.append((0, tuple(gs)))
    ident = (0, (0,) * m)
    return _from_table(items, mult, ident, gens, lbl)


# -- PGL(2,7) family ------------------------------------------------------
#
# Carrier: the projective line over GF(7); points 0..6 are field elements,
# point 7 is infinity.

def _frac_linear(a, b, c, d) -> Perm:
    img = []
    for z in range(7):
        den = (c * z + d) % 7
        num = (a * z + b) % 7
        img.append(7 if den == 0 else (num * pow(den, 5, 7)) % 7)
    # image of infinity
    img.append(7 if c % 7 == 0 else (a * pow(c, 5, 7)) % 7)
    return tuple(img)


@lru_cache(maxsize=None)
def _projective_family():
    t = _frac_linear(1, 1, 0, 1)      # z -> z + 1, order 7
    m3 = _frac_linear(3, 0, 0, 1)     # z -> 3z, order 6
    w = _frac_linear(0, 1, 1, 0)      # z -> 1/z, outside PSL
    s = _frac_linear(0, -1, 1, 0)     # z -> -1/z, inside PSL

    pgl = close_generators([t, m3, w], 8, cap=400)
    psl = close_generators([t, s], 8, cap=400)
    agl = close_generators([t, m3], 8, cap=400)
    f21g = close_generators([t, pmul(m3, m3)], 8, cap=400)
    if (pgl.order, psl.order, agl.order, f21g.order) != (336, 168, 42, 21):
        raise RuntimeError("internal error: PGL(2,7) subgroup orders")

    x, y = t, m3

    def attach_labels(Gr, exps):
        labels = [None] * Gr.order
        for a, b in exps:
            e = pmul(ppow(x, a), ppow(y, b))
            parts = []
            if a:
                parts.append("x" if a == 1 else f"x^{a}")
            if b:
                parts.append("y" if b == 1 else f"y^{b}")
            labels[Gr.index[e]] = "*".join(parts) if parts else "1"
        if None in labels:
            raise RuntimeError("internal error: an unlabelled element")
        Gr.labels = labels

    attach_labels(agl, [(a, b) for a in range(7) for b in range(6)])
    attach_labels(f21g, [(a, b) for a in range(7) for b in (0, 2, 4)])
    agl.meta.update({"spec": "agl17", "x": x, "y": y})
    f21g.meta.update({"spec": "f21", "x": x, "y": y})
    psl.meta["spec"] = "psl27"
    pgl.meta["spec"] = "pgl27"
    return {"pgl27": pgl, "psl27": psl, "agl17": agl, "f21": f21g, "x": x, "y": y}


def pgl27() -> FiniteGroup:
    return _projective_family()["pgl27"]


def psl27() -> FiniteGroup:
    return _projective_family()["psl27"]


def agl17() -> FiniteGroup:
    return _projective_family()["agl17"]


def f21() -> FiniteGroup:
    return _projective_family()["f21"]


@lru_cache(maxsize=None)
def f21xz2() -> FiniteGroup:
    """F21 x Z2 on 10 points, labelled like F21 with an `r` suffix."""
    P = direct_product(f21(), cyclic(2))
    F = f21()
    labels = []
    for (i, j) in P.meta["tuples"]:
        base = F.labels[i]
        if j == 0:
            labels.append(base)
        else:
            labels.append("r" if base == "1" else base + "*r")
    P.labels = labels
    P.meta["spec"] = "f21xz2"
    return P


@lru_cache(maxsize=None)
def agl17xz2() -> FiniteGroup:
    P = direct_product(agl17(), cyclic(2))
    P.meta["spec"] = "agl17xz2"
    return P


# -- named maps -----------------------------------------------------------

def named_map(G: FiniteGroup, which: str) -> Perm:
    """The named map `which` of G on its element indices, as a tuple; each
    one fixes the identity, index 0."""
    if which == "inversion":
        return tuple(G.inverse)
    if which == "iota-dicyclic":
        coset = G.meta.get("dic_coset")
        if coset is None:
            raise IncompatibleGroup("iota requires a generalised dicyclic build")
        return tuple(G.inverse[i] if coset[i] else i for i in range(G.order))
    if which in ("sigma-i", "sigma-j", "sigma-k"):
        if G.meta.get("q8z2n") is None:
            raise IncompatibleGroup("sigma maps require a Q8 x Z2^n build")
        unit = which[-1]
        n = G.meta["q8z2n"]
        if n == 0:
            support = [i for i, it in enumerate(G.meta["items"]) if it[1] == unit]
        else:
            Q = G.meta["factor_groups"][0]
            qunit = {i for i, it in enumerate(Q.meta["items"]) if it[1] == unit}
            support = [i for i, t in enumerate(G.meta["tuples"]) if t[0] in qunit]
        img = list(range(G.order))
        for i in support:
            img[i] = G.inverse[i]
        return tuple(img)
    raise IncompatibleGroup(f"unknown named map {which!r}")


# -- textual GroupSpec ----------------------------------------------------

def build_spec(text: str) -> FiniteGroup:
    """Build a group from its canonical textual form.

    Grammar (documented in the README):
      z<n> | z2^<n> | d<n> | s<n> | q8 | q8xz2^<n>
      | f21 | agl17 | psl27 | pgl27 | f21xz2
      | prod(<spec>;<spec>;...)
      | dih(<spec>) | dic(<spec>;y=<label>)
      | wreath(<spec>;<spec>@<m>)

    A product, power or wreath spec whose order passes DEFAULT_CAP is
    refused before any of its factors is built."""
    return parse_spec(text)[1]()


def _named(G: FiniteGroup, text: str) -> FiniteGroup:
    G.meta["spec"] = text
    return G


def parse_spec(text: str):
    """(order, build) for a GroupSpec: the order of its group, read from the
    text alone (DEFAULT_CAP + 1 for s<n> past the cap), and a function of no
    arguments that builds the group.  BoundExceeded where build_spec would
    refuse the order."""
    text = text.strip()
    if not text:
        raise InvalidSpec("empty group spec")
    simple = {"q8": (8, quaternion8), "f21": (21, f21), "agl17": (42, agl17),
              "psl27": (168, psl27), "pgl27": (336, pgl27),
              "f21xz2": (42, f21xz2)}
    if text in simple:
        return simple[text]
    if text.startswith("z2^"):
        n = _int(text[3:])
        return _bound(repeat(2, n), text), lambda: _named(
            direct_product(*[cyclic(2) for _ in range(n)]) if n > 1
            else cyclic(2 ** n), text)
    if text.startswith("q8xz2^"):
        n = _int(text[6:])
        return (_bound(chain([8], repeat(2, n)), text),
                lambda: _named(q8_times_z2(n), text))
    if text[0] == "z" and text[1:].isdigit():
        n = int(text[1:])
        return n, lambda: cyclic(n)
    if text[0] == "d" and text[1:].isdigit():
        n = int(text[1:])
        return 2 * n, lambda: dihedral(n)
    if text[0] == "s" and text[1:].isdigit():
        n = int(text[1:])
        return _order(range(1, n + 1)), lambda: symmetric(n)
    if text.startswith("prod(") and text.endswith(")"):
        parts = [parse_spec(p) for p in split_top_level(text[5:-1], ";")]
        return (_bound([order for order, _ in parts], text),
                lambda: _named(direct_product(*[b() for _, b in parts]),
                               text))
    if text.startswith("dih(") and text.endswith(")"):
        order, build = parse_spec(text[4:-1])
        return (_bound([2, order], text),
                lambda: _named(generalized_dihedral(build()), text))
    if text.startswith("dic(") and text.endswith(")"):
        parts = split_top_level(text[4:-1], ";")
        order, build = parse_spec(parts[0])
        if len(parts) > 1 and not parts[1].startswith("y="):
            raise InvalidSpec("dic second argument must be y=<label>")

        def dic():
            A = build()
            y = A.label_index(parts[1][2:]) if len(parts) > 1 else None
            return _named(generalized_dicyclic(A, y), text)
        return _bound([2, order], text), dic
    if text.startswith("wreath(") and text.endswith(")"):
        parts = split_top_level(text[7:-1], ";")
        if len(parts) != 2 or "@" not in parts[1]:
            raise InvalidSpec("wreath(<spec>;<spec>@<m>)")
        hspec, mtxt = parts[1].rsplit("@", 1)
        m = _int(mtxt)
        (gorder, gbuild), (horder, hbuild) = map(parse_spec, (parts[0], hspec))
        # 2^b passes DEFAULT_CAP for b its bit length, and |G|^m = |G| for
        # |G| <= 1 and m >= 1, so the exponent need not grow past b
        b = DEFAULT_CAP.bit_length()
        order = _bound(chain([horder], repeat(gorder, min(m, b))), text)

        def wreath():
            H = hbuild()
            if H.degree != m:
                raise InvalidSpec(f"{hspec} does not act on {mtxt} points")
            return _named(wreath_product(gbuild(), H), text)
        return order, wreath
    raise InvalidSpec(f"cannot parse group spec {text!r}")


def _int(s: str) -> int:
    if not s.isdigit():
        raise InvalidSpec(f"expected integer, got {s!r}")
    return int(s)


def split_top_level(text: str, sep: str) -> list[str]:
    """The stripped parts of text between the separators outside
    parentheses, empty parts included: nested specs and product-group
    labels such as (i,0) stay whole."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p.strip() for p in parts]


# -- small-group catalog --------------------------------------------------

def _partitions(n: int):
    if n == 0:
        yield []
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or first >= rest[0]:
                yield [first] + rest


def abelian_groups(max_order: int):
    """All abelian groups of order 2..max_order as (name, group) pairs."""
    from .groups import prime_factors

    for n in range(2, max_order + 1):
        primes = prime_factors(n)
        per_prime = []
        for p in primes:
            k = 0
            m = n
            while m % p == 0:
                m //= p
                k += 1
            per_prime.append([(p, part) for part in _partitions(k)])
        for combo in product(*per_prime):
            factors = []
            for p, part in combo:
                factors.extend(p ** e for e in part)
            factors.sort(reverse=True)
            name = "x".join(f"z{f}" for f in factors)
            if len(factors) == 1:
                yield name, cyclic(factors[0])
            else:
                yield name, direct_product(*[cyclic(f) for f in factors])


def catalog(max_order: int = 32):
    """The test catalog: abelian groups, dihedral groups, generalised
    dicyclic groups over small A, and Q8 x Z2^m, up to max_order."""
    out = list(abelian_groups(max_order))
    for n in range(3, max_order // 2 + 1):
        out.append((f"d{n}", dihedral(n)))
    dic_As = [("z4", cyclic(4)), ("z6", cyclic(6)), ("z8", cyclic(8)),
              ("z4xz2", direct_product(cyclic(4), cyclic(2))),
              ("z10", cyclic(10)), ("z12", cyclic(12)),
              ("z6xz2", direct_product(cyclic(6), cyclic(2)))]
    for name, A in dic_As:
        if 2 * A.order <= max_order:
            out.append((f"dic({name})", generalized_dicyclic(A)))
    for m in range(0, 3):
        if 8 * 2 ** m <= max_order:
            out.append((f"q8xz2^{m}", q8_times_z2(m)))
    return out
