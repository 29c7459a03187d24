"""The numpy kernels of the connection-set enumeration: canonical masks
under the Aut(G) unit action, class sizes, product closure and sign
propagation.  structure.enumerate_connection_sets imports this module when it
starts the work, after its bound checks, so no other command loads numpy.
A mask is a set of colour units, bit i for unit i.
"""

from __future__ import annotations

import numpy as np

from .groups import FiniteGroup


_BLOCK = 1 << 16              # masks per block of the canonical-form scan
_SIGN_BLOCK = 1 << 15         # (s, q, s2, t) entries per block of _sign_tables


def _or_tables(k: int, images):
    """The (hightab, lowtab) pair of the map on k-bit masks that sends bit i
    to images[i] and a union of bits to the union of their images.  With
    kl = k // 2 it maps the mask m = h*2^kl + l to hightab[h] | lowtab[l].
    Each table doubles from the empty mask: tab[2^i + x] = tab[x] | the
    image of bit i.  An image may be an array of masks, and then so is each
    table entry."""
    kl = k // 2
    shape = np.shape(images[0])

    def table(imgs):
        tab = np.zeros((1 << len(imgs),) + shape, dtype=np.int32)
        for i, b in enumerate(imgs):
            np.bitwise_or(tab[:1 << i], b, out=tab[1 << i:2 << i])
        return tab

    return table(images[kl:]), table(images[:kl])


def _mask_tables(k: int, ws):
    """One _or_tables pair per unit permutation w other than the identity:
    w maps the mask m = h*2^kl + l to hightab[h] | lowtab[l]."""
    ident = tuple(range(k))
    return [_or_tables(k, [1 << x for x in w]) for w in ws if w != ident]


def _canonical_blocks(k: int, tables):
    """Yield (first, canon) over consecutive blocks of whole rows of the
    (2^(k-kl), 2^kl) grid of masks, about _BLOCK masks each: canon[i] is the
    least image of the mask first + i under the unit permutations given by
    their _mask_tables.  Each w costs one outer OR per block into a buffer
    that all w share, so no array of 2^k entries is held."""
    kl = k // 2
    nrows = 1 << (k - kl)
    step = max(1, _BLOCK >> kl)
    for h0 in range(0, nrows, step):
        h1 = min(h0 + step, nrows)
        canon = np.arange(h0 << kl, h1 << kl,
                          dtype=np.int32).reshape(h1 - h0, 1 << kl)
        image = np.empty_like(canon)
        for hightab, lowtab in tables:
            np.bitwise_or(hightab[h0:h1, None], lowtab, out=image)
            np.minimum(canon, image, out=canon)
        yield h0 << kl, canon.ravel()


def _representatives(k: int, tables):
    """The masks equal to their least image, one per class, ascending."""
    return np.concatenate([
        first + np.flatnonzero(block == np.arange(first, first + len(block),
                                                  dtype=block.dtype))
        for first, block in _canonical_blocks(k, tables)])


def _orbit_sizes(k: int, tables, masks):
    """The size of each mask's class, by orbit-stabiliser: the unit
    permutations form a group W (the identity plus those in tables), and the
    class of m has |W| / #{w in W : w(m) = m} members."""
    kl = k // 2
    high = masks >> kl
    low = masks & ((1 << kl) - 1)
    fixes = np.ones(len(masks), dtype=np.int64)
    for hightab, lowtab in tables:
        fixes += (hightab[high] | lowtab[low]) == masks
    return (len(tables) + 1) // fixes


def _unit_products(G: FiniteGroup, units):
    """One _or_tables pair per unit i, for the map sending unit j to the
    units of the products a*b, a in unit i and b in unit j, other than the
    identity."""
    k = len(units)
    table = G.table
    unit_of = {s: x for x, u in enumerate(units) for s in u}
    return [_or_tables(k, [sum({1 << unit_of[table[a][b]]
                                for a in ui for b in uj if table[a][b]})
                           for uj in units])
            for ui in units]


def _subgroup_masks(n: int, k: int, products, masks):
    """The units of the subgroup that each mask's units generate.  A round
    adds to M the units of M*M, by products[i] for each unit i of M, so after
    r rounds M holds every product of at most 2^r of its first elements.  A
    mask that a round does not grow is closed.  Every element of a subgroup
    of G is such a product of fewer than n factors, so every mask closes
    within ceil(log2 n) + 1 rounds."""
    kl = k // 2
    full = (1 << k) - 1
    closed = masks.copy()
    active = np.flatnonzero(closed != full)
    for _ in range((n - 1).bit_length() + 1):
        cur = closed[active]
        high, low = cur >> kl, cur & ((1 << kl) - 1)
        grown = cur.copy()
        for i, (hightab, lowtab) in enumerate(products):
            has = (cur >> i & 1).astype(bool)
            grown[has] |= hightab[high[has]] | lowtab[low[has]]
        closed[active] = grown
        active = active[(grown != cur) & (grown != full)]
        if not len(active):
            return closed
    raise RuntimeError("internal error: the product closure did not close")


def _sign_tables(G: FiniteGroup, units):
    """sq[i, q, c, l], the mask of the colours c2 that, with colour c, rule
    out sign 1 on unit i with sign q on unit l.  A sign vector x on the units
    gives the map psi that fixes e and sends each a in unit i to a (x_i = 0)
    or a^-1 (x_i = 1); every phi in A_1 agrees with psi on S for its own x.
    Within one unit only equal signs count.  The other sign pairs need no
    table: signs (0, 0) forbid nothing, and (0, q) on (i, l) is (q, 0) on
    (l, i).  An involution unit's two signs give the same map.

    Triangles, one colour (c2 = c): the pair {a, b} of N[e], a in unit i and
    b in unit l, has colour c = unit(b*a^-1) and image colour
    c' = unit(psi(b)*psi(a)^-1).  Where c != c', psi keeps colours only if
    neither c nor c' is in the connection set, since an edge must keep its
    colour and a non-edge must stay one.

    4-cycles, two colours: take s in unit i, s2 in unit l and t, t2 != e
    with g = t*s = t2*s2 and (t2, s2) != (t, s), so e-s-g and e-s2-g are
    2-paths with edge colours c = unit(t) and c2 = unit(t2).  When both are
    in the connection set, phi(g) is in {t*psi(s), t^-1*psi(s)} and in
    {t2*psi(s2), t2^-1*psi(s2)}, so the signs are ruled out where those sets
    are disjoint.  The table is built over every (s, s2, t), a block of s at
    a time, so that no array of n^3 entries is held."""
    n, k = G.order, len(units)
    table = np.array(G.table)
    inv = np.array(G.inverse)
    unit_of = np.zeros(n, dtype=np.int64)
    for x, u in enumerate(units):
        unit_of[list(u)] = x
    sq = np.zeros((k, 2, k, k), dtype=np.int64)
    # axes (s, q, s2, t), with blocks of s of about _SIGN_BLOCK entries
    q = np.array([0, 1], dtype=bool)[:, None, None]
    s2 = np.arange(1, n)[:, None]
    t = np.arange(1, n)
    img = np.where(q, inv[s2], s2)          # psi(s2) under sign q
    step = max(1, _SIGN_BLOCK // (2 * n * n))
    for first in range(1, n, step):
        s = np.arange(first, min(first + step, n))[:, None, None, None]
        i = unit_of[s]
        pair = (s2 != s) & ((unit_of[s2] != i) | q)
        # triangles: the pair {s, s2} and its image
        c, c1 = unit_of[table[s2, inv[s]]], unit_of[table[img, s]]
        bs, qs, ls, _ = np.nonzero(pair & (c != c1))
        for cc in (c[bs, 0, ls, 0], c1[bs, qs, ls, 0]):
            np.bitwise_or.at(sq, (i[bs, 0, 0, 0], qs, cc, unit_of[s2[ls, 0]]),
                             np.int64(1) << cc)
        a0, a1 = table[t, inv[s]], table[inv[t], inv[s]]
        t2 = table[table[t, s], inv[s2]]
        b0, b1 = table[t2, img], table[inv[t2], img]
        bs, qs, ls, ts = np.nonzero(pair & (t2 != 0) & (a0 != b0)
                                    & (a0 != b1) & (a1 != b0) & (a1 != b1))
        np.bitwise_or.at(sq, (i[bs, 0, 0, 0], qs, unit_of[t[ts]],
                              unit_of[s2[ls, 0]]),
                         np.int64(1) << unit_of[t2[bs, 0, ls, ts]])
    return sq


def _settled(G: FiniteGroup, units, masks):
    """True where the sign vectors on the units of the mask that keep every
    clause of _sign_tables are only the zero vector: unit propagation from
    x_j = 1 ends in a conflict for every non-involution unit j of the mask.
    Units outside the mask are ignored.  An involution unit's two signs
    agree, so it can only be forced both ways, a conflict: it keeps sign 0.

    Propagation follows the units set to 1 only: x_i = 1 forces x_l = 1 where
    a clause on (i, l, 0) fires and x_l = 0 where one on (i, l, 1) does, and
    a unit forced both ways is a conflict.  A clause fires when both of its
    colours are in the mask.  A unit forced to 0 forces nothing that a unit
    set to 1 would not reach: signs (0, q) on (l, m) are (q, 0) on (m, l),
    and (0, 0) is never forbidden.

    The first round is the pairwise check over every mask, on the one-colour
    clauses only: it keeps a mask once some j leaves each other unit l of it
    a sign whose forbidden colours miss the mask, narrowing the candidates
    pair by pair.  Only those masks are propagated in full.  The round keeps
    the gather small: without it, every mask with a non-involution unit is
    gathered, and _settled took 0.46 s and 90 MB peak RSS instead of 0.03 s
    and 35 MB on f21xz2, and 4.3 s and 466 MB instead of 0.15 s and 66 MB on
    agl17 (one in-process run each, 2-core Xeon).  The firing clauses of the
    masks left are gathered first: for each unit i of a mask, eff[mask, i, q]
    holds the units l of the mask for which sq[i, q, c, l] meets the mask
    for some colour c of it, the OR over c taken by _or_tables.  One row
    runs per (mask, j); a row drops out at its first conflict, and a mask's
    rows all drop once one of them reaches a fixpoint without a conflict."""
    sq = _sign_tables(G, units)
    signed = [i for i, u in enumerate(units) if len(u) == 2]
    k = len(units)
    bits = np.int64(1) << np.arange(k, dtype=np.int64)
    single = np.bitwise_or.reduce(sq & bits[:, None], axis=2)
    left = np.zeros(len(masks), dtype=bool)
    for j in signed:
        idx = np.flatnonzero((masks >> j & 1).astype(bool) & ~left)
        for l in range(k):
            f0, f1 = single[j, :, l]
            if l == j or not (f0 and f1):
                continue
            m = masks[idx]
            idx = idx[((m >> l & 1) == 0) | ((m & f0) == 0) | ((m & f1) == 0)]
        left[idx] = True

    cand = np.flatnonzero(left)
    mc = masks[cand]
    kl = k // 2
    high, low = mc >> kl, mc & ((1 << kl) - 1)
    eff = np.zeros((len(cand), k, 2), dtype=mc.dtype)
    for i in range(k):
        r = np.flatnonzero(mc >> i & 1)
        hightab, lowtab = _or_tables(k, sq[i].swapaxes(0, 1))
        m = mc[r, None]
        fire = hightab[high[r]]
        fire |= lowtab[low[r]]
        fire &= m[:, None]
        eff[r, i] = (fire != 0) @ bits & m
    rows, start = np.nonzero((mc[:, None] & bits[signed]) != 0)
    one = bits[signed][start]
    zero = np.zeros_like(one)
    new = one
    open_ = np.zeros(len(cand), dtype=bool)
    while len(rows):
        grown = one.copy()
        for i in range(k):
            r = np.flatnonzero(new >> i & 1)
            if len(r):
                grown[r] |= eff[rows[r], i, 0]
                zero[r] |= eff[rows[r], i, 1]
        conflict = (grown & zero) != 0
        new = grown & ~one
        one = grown
        open_[rows[~conflict & (new == 0)]] = True
        keep = ~conflict & ~open_[rows]
        rows, one, zero, new = (a[keep] for a in (rows, one, zero, new))
    left[cand] = open_
    return ~left
