"""The numpy kernels of the connection-set enumeration: one mask per class
under the Aut(G) unit action and the class sizes, found by a two-level
scan; connectivity, read from the masks of the maximal subgroups that a
walk of the subgroup lattice by product closure finds; and sign
propagation on those masks.  structure.enumerate_connection_sets imports
this module when it starts the work, after its bound checks, so no other
command loads numpy.  A mask is a set of colour units, bit i for unit i.
"""

from __future__ import annotations

import numpy as np

from .groups import FiniteGroup


_BLOCK = 1 << 16              # masks per block of a canonical-form scan
_SPAN = 1 << 18               # mask images held at once by that scan
_SIGN_BLOCK = 1 << 14         # (s, q, s2, t) entries per block of _sign_tables


def _or_tables(images, w: int):
    """The tables of the map on len(images)-bit masks that sends bit i to
    images[i] and a union of bits to the union of their images, one table
    per piece of w bits from bit 0, the last piece holding what is left.
    The table of the piece of bits pw .. pw + w - 1 maps (m >> pw) & (2^w - 1)
    to the union of the images of those bits of m, so m maps to the OR of
    its pieces' lookups (_union).  Each table doubles from the empty mask:
    tab[2^i + x] = tab[x] | the image of the piece's bit i.  An image may be
    an array of masks, and then so is each table entry."""
    shape = np.shape(images[0])

    def table(imgs):
        tab = np.zeros((1 << len(imgs),) + shape, dtype=np.int32)
        for i, b in enumerate(imgs):
            np.bitwise_or(tab[:1 << i], b, out=tab[1 << i:2 << i])
        return tab

    return [table(images[p:p + w]) for p in range(0, len(images), w)]


def _union(tables, masks):
    """The image of each of masks under the map that tables, from
    _or_tables, hold: the OR of one lookup per piece."""
    w = len(tables[0]).bit_length() - 1
    low = (1 << w) - 1
    out = tables[0][masks & low]
    for p, tab in enumerate(tables[1:], 1):
        out |= tab[masks >> p * w & low]
    return out


def _least_in_orbit(perms, counts):
    """The masks on kk bits that are least in their orbit, ascending, and
    for each the number of elements of W that fix it.  Row j of perms, a
    (p, kk) array, is a map sending bit i to bit perms[j, i], and stands for
    counts[j] elements of W.  The masks are scanned in blocks of whole rows
    of the (2^(kk-kl), 2^kl) grid, about _BLOCK masks each, against at most
    _SPAN images at a time; the maps fixing a least mask are counted over
    the least masks only."""
    p, kk = perms.shape
    if p == 1:                      # the identity alone: every mask is least
        return (np.arange(1 << kk, dtype=np.int64),
                np.full(1 << kk, counts[0], dtype=np.int64))
    bits = (1 << perms).astype(np.int32)
    kl = (kk + 1) // 2            # kk >= 2 here, so two pieces
    lowtab, hightab = (np.ascontiguousarray(tab.T)
                       for tab in _or_tables(list(bits.T), kl))
    width = 1 << kl
    nrows = 1 << (kk - kl)
    step = min(nrows, max(1, _BLOCK >> kl))
    chunk = max(1, _SPAN // (step * width))
    least, fixes = [], []
    for h0 in range(0, nrows, step):
        h1 = min(h0 + step, nrows)
        block = np.arange(h0 << kl, h1 << kl,
                          dtype=np.int32).reshape(h1 - h0, width)
        canon = block.copy()
        for j in range(0, p, chunk):
            rows = slice(j, j + chunk)
            image = hightab[rows, h0:h1, None] | lowtab[rows, None]
            np.minimum(canon, image.min(axis=0), out=canon)
        found = block[canon == block]
        high, low = found >> kl, found & (width - 1)
        fix = np.zeros(len(found), dtype=np.int64)
        span = max(1, _SPAN // max(1, len(found)))
        for j in range(0, p, span):
            rows = slice(j, j + span)
            image = hightab[rows][:, high] | lowtab[rows][:, low]
            fix += counts[rows] @ (image == found)
        least.append(found)
        fixes.append(fix)
    return np.concatenate(least).astype(np.int64), np.concatenate(fixes)


def _spread(units, masks):
    """Each mask on len(units) bits with bit i moved to bit units[i]."""
    if not len(units):
        return np.zeros_like(masks)
    tables = _or_tables([1 << int(u) for u in units], (len(units) + 1) // 2)
    return _union(tables, masks).astype(np.int64)


def _classes(k: int, ws):
    """(reps, sizes): one mask of each class of k-bit masks under the unit
    permutations ws, a group W, and the size of its class, by a two-level
    scan (the two-level case of minimal images through a stabiliser chain:
    Jefferson, Jonauskyte, Pfeiffer and Waldecker, J. Algebra 521, 2019).
    W maps the W-orbit B of the highest unit onto itself, and so also the
    other units R, so w(m) = w(t) | w(r) for the top t, the units of m in
    B, and the rest r, those in R.  Tops are compared as masks on the bits
    of B alone, and rests on those of R, which keeps their order.

    Level 1 keeps the tops that are least among their images under W.
    Level 2 keeps, for each such t, the rests that are least among their
    images under its stabiliser W_t = {w : w(t) = t}.  Each class has
    exactly one such (t, r): t is the least image t* of the class's tops,
    and the maps taking a mask's top to t* form a coset of W_t*, so the
    least image of its rest under them is the same for every mask of the
    class.  The maps fixing (t, r) are the w in W_t fixing r, counted in
    the same scan; the class has |W| divided by that many masks.

    W is held as its distinct restrictions to B and to R, with their
    multiplicities, so no array of 2^k masks, nor of the |W| images of
    every top, is built.  Where W is transitive on the units, R is empty
    and level 1 is the whole scan.  Since B is not in general the highest
    bits, a representative need not be the least mask of its class."""
    if not k:                     # the trivial group: the one empty mask
        return np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    w = np.array(ws, dtype=np.int64)
    orbit = {x[k - 1] for x in ws}
    top = np.array(sorted(orbit), dtype=np.int64)
    rest = np.array([u for u in range(k) if u not in orbit], dtype=np.int64)
    pos = np.empty(k, dtype=np.int64)
    pos[top] = np.arange(len(top))
    pos[rest] = np.arange(len(rest))
    wb, bid, nb = np.unique(pos[w[:, top]], axis=0, return_inverse=True,
                            return_counts=True)
    wr, rid = np.unique(pos[w[:, rest]], axis=0, return_inverse=True)
    bid, rid = bid.ravel(), rid.ravel()
    tops, _ = _least_in_orbit(wb, nb)
    rests, fixes = [], []
    for t in tops.tolist():
        img = (np.int64(1) << wb[:, [i for i in range(len(top))
                                     if t >> i & 1]]).sum(axis=1)
        counts = np.bincount(rid[(img == t)[bid]], minlength=len(wr))
        rows = np.flatnonzero(counts)
        r, fix = _least_in_orbit(wr[rows], counts[rows])
        rests.append(r)
        fixes.append(fix)
    tops = np.repeat(tops, [len(r) for r in rests])
    reps = _spread(top, tops) | _spread(rest, np.concatenate(rests))
    return reps, len(w) // np.concatenate(fixes)


def _least_images(ws, masks):
    """The least image of each mask under the unit permutations ws, one
    numpy reduction over all of W per mask."""
    img = np.int64(1) << np.array(ws, dtype=np.int64)
    k = img.shape[1]
    return [int(img[:, [i for i in range(k) if m >> i & 1]].sum(axis=1)
                .min()) for m in masks]


def _unit_products(G: FiniteGroup, units):
    """One list of _or_tables per unit i, in two pieces, for the map sending
    unit j to the units of the products a*b, a in unit i and b in unit j,
    other than the identity."""
    k = len(units)
    table = G.table
    unit_of = {s: x for x, u in enumerate(units) for s in u}
    return [_or_tables([sum({1 << unit_of[table[a][b]]
                             for a in ui for b in uj if table[a][b]})
                        for uj in units], (k + 1) // 2)
            for ui in units]


def _subgroup_masks(n: int, k: int, products, masks):
    """The units of the subgroup that each mask's units generate.  A round
    adds to M the units of M*M, by products[i] for each unit i of M, so after
    r rounds M holds every product of at most 2^r of its first elements.  A
    mask that a round does not grow is closed.  Every element of a subgroup
    of G is such a product of fewer than n factors, so every mask closes
    within ceil(log2 n) + 1 rounds."""
    full = (1 << k) - 1
    closed = masks.copy()
    active = np.flatnonzero(closed != full)
    for _ in range((n - 1).bit_length() + 1):
        cur = closed[active]
        grown = cur.copy()
        for i, tables in enumerate(products):
            has = (cur >> i & 1).astype(bool)
            grown[has] |= _union(tables, cur[has])
        closed[active] = grown
        active = active[(grown != cur) & (grown != full)]
        if not len(active):
            return closed
    raise RuntimeError("internal error: the product closure did not close")


def _maximal_masks(n: int, k: int, products):
    """The masks of the maximal subgroups of G, ascending.  Every subgroup
    is a union of colour units, and the subgroups are reached from the
    trivial one, the empty mask, one unit at a time: each layer closes M | i
    (_subgroup_masks) for every subgroup mask M of the layer before and
    every unit i outside M, and keeps the closures not seen before.  Every
    subgroup H is reached, since for a subgroup K < H reached and a unit i
    of H outside K, <K, i> lies in H and is larger than K.  A proper M is
    maximal iff each such closure is G, so the walk needs no comparison of
    masks.  It must reach the full mask; if it does not, the products are
    wrong, an internal error."""
    if not k:                     # the trivial group: no proper subgroup
        return np.zeros(0, dtype=np.int64)
    full = (1 << k) - 1
    bits = np.int64(1) << np.arange(k, dtype=np.int64)
    layer = np.zeros(1, dtype=np.int64)
    seen = {0}
    maximal, reached = [], False
    while len(layer):
        grown = _subgroup_masks(n, k, products,
                                (layer[:, None] | bits).ravel())
        whole = (grown == full).reshape(len(layer), k)
        reached = reached or bool(whole.any())
        maximal.append(layer[(whole | (layer[:, None] & bits != 0))
                             .all(axis=1)])
        # a Python set, not np.setdiff1d: numpy's first 1-d unique takes
        # 2.3 MB of peak RSS once per process
        new = set(grown[grown != full].tolist()) - seen
        seen |= new
        layer = np.array(sorted(new), dtype=np.int64)
    if not reached:
        raise RuntimeError("internal error: the subgroup walk did not reach "
                           "G")
    return np.sort(np.concatenate(maximal))


def _connected(maximal, masks):
    """True where the mask's units generate G, that is, where the mask lies
    in no maximal subgroup: for each maximal mask, the mask has a unit
    outside it."""
    connected = np.ones(len(masks), dtype=bool)
    for m in maximal.tolist():
        connected &= (masks & ~m) != 0
    return connected


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
    a time, so that no array of n^3 entries is held.  Its temporaries are
    the enumeration's peak on f21xz2: blocks of 2^15 entries held 2.3 MB at
    once and added 1.3 MB to its peak RSS, and blocks of 2^14 hold half
    that and run no slower."""
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


def _gather(sq, masks):
    """eff[x, i, q], for each unit i of masks[x]: the units l of the mask
    for which sq[i, q, c, l] meets the mask for some colour c of it.  The
    OR over c is read from _or_tables of sq[i] on pieces of w bits, with w
    sized to the number of masks: bit_length(len(masks)) - 4, at least 4
    and at most (k + 1) // 2, the two halves.  Each unit builds tables of
    about 2^w entries and takes ceil(k / w) lookups per mask, so wide
    pieces waste table builds on few masks and narrow ones add lookups on
    many.  In-process on a 2-core Xeon: 6.3 ms with halves and 4.2 ms with
    w = 7 for the 1844 masks of f21xz2; 245 ms with halves, 175 ms with
    w = 12 and 276 ms with w = 6 for the 49457 masks of D19 (k = 28); and
    0.8 ms with w = 1 against 0.4 ms with w = 4 for the 10 masks of F21."""
    k = len(sq)
    bits = np.int64(1) << np.arange(k, dtype=np.int64)
    w = min((k + 1) // 2, max(4, len(masks).bit_length() - 4))
    eff = np.zeros((len(masks), k, 2), dtype=masks.dtype)
    for i in range(k):
        r = np.flatnonzero(masks >> i & 1)
        m = masks[r, None]
        fire = _union(_or_tables(sq[i].swapaxes(0, 1), w), masks[r])
        fire &= m[:, None]
        eff[r, i] = (fire != 0) @ bits & m
    return eff


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
    for some colour c of it (_gather, on tables sized to them).  One row
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
    eff = _gather(sq, mc)
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
