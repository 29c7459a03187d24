import csv
import functools
import io
import json
import random
import sys

import numpy as np
import pytest

from cca import builders, engine
from cca import masks as mask_kernels
from cca.engine import autc_group, autc_stabiliser, fast_cca_verdict
from cca.errors import InvalidSpec, NotConnected, StabiliserTooLarge
from cca.graphs import ColouredCayleyGraph, colour_units, is_connected
from cca.groups import are_conjugate_subsets, bfs_tree
from cca.perms import identity
from cca.masks import (_classes, _connected, _gather, _maximal_masks,
                       _or_tables, _settled, _sign_tables, _subgroup_masks,
                       _union, _unit_products)
from cca.structure import (_MAX_UNITS, _class_count, _mask_conn,
                           _unit_action, canonical_sets,
                           enumerate_connection_sets)

from conftest import (automorphisms, brute_force_automorphisms,
                      burnside_class_count, group_pool,
                      reference_canonical_blocks, reference_gather,
                      reference_maximal_subgroup_masks,
                      reference_least_images, reference_mask_tables,
                      reference_orbit_sizes, reference_representatives,
                      reference_subset_verdicts, reference_unit_action,
                      subset_class_count, unit_permutations)


def _canonical_masks(k, tables):
    # the least image of every mask, from the blocks of the reference scan
    return np.concatenate([block for _, block
                           in reference_canonical_blocks(k, tables)])


def test_colour_units_f21():
    G = builders.f21()
    units = colour_units(G, range(1, G.order))
    assert len(units) == 10
    assert all(len(u) == 2 for u in units)     # no involutions in F21


def test_colour_units_agl17():
    G = builders.agl17()
    units = colour_units(G, range(1, G.order))
    assert len(units) == 24
    assert sum(1 for u in units if len(u) == 1) == 7


def test_unit_action_is_group_of_unit_permutations():
    G = builders.f21()
    units = colour_units(G, range(1, G.order))
    ws = _unit_action(G, units)
    k = len(units)
    assert tuple(range(k)) in ws
    for w in ws:
        assert sorted(w) == list(range(k))


@pytest.mark.parametrize("base, amb", [("f21", "agl17"), ("agl17", "agl17"),
                                       ("f21xz2", "agl17xz2")])
def test_unit_action_matches_ambient_conjugation(base, amb):
    # on each base Aut(G) induces on the colour units exactly what
    # conjugation by the ambient group does
    G = getattr(builders, base)()
    units = colour_units(G, range(1, G.order))
    ws = _unit_action(G, units)
    assert len(ws) == 42
    assert ws == reference_unit_action(G, getattr(builders, amb)())


def test_unit_action_matches_every_automorphism():
    # W closed from one transversal per level of Aut(G) is the set of unit
    # permutations that every automorphism induces: Aut(G) found by brute
    # force on every group of the pool, and listed by every choice of
    # generator images on the two largest groups cca enumerate takes
    for G in group_pool(24):
        units = colour_units(G, range(1, G.order))
        assert _unit_action(G, units) == \
            unit_permutations(G, brute_force_automorphisms(G)), G.meta
    for spec, order in (("q8xz2^2", 2304), ("z2^4", 20160)):
        G = builders.build_spec(spec)
        ws = _unit_action(G, colour_units(G, range(1, G.order)))
        assert len(ws) == order
        assert ws == unit_permutations(G, automorphisms(G))


def test_canonical_masks_against_direct_minimum():
    G = builders.f21()
    units = colour_units(G, range(1, G.order))
    ws = _unit_action(G, units)
    k = len(units)
    canon = _canonical_masks(k, reference_mask_tables(k, ws))
    assert len(canon) == 1 << k
    rng = random.Random(3)
    for _ in range(200):
        m = rng.randrange(1 << k)
        direct = min(sum(1 << w[i] for i in range(k) if m >> i & 1)
                     for w in ws)
        assert int(canon[m]) == direct
    # canonical form is idempotent and conjugation-invariant
    for _ in range(50):
        m = rng.randrange(1 << k)
        c = int(canon[m])
        assert int(canon[c]) == c
        w = ws[rng.randrange(len(ws))]
        moved = sum(1 << w[i] for i in range(k) if m >> i & 1)
        assert int(canon[moved]) == c


@pytest.mark.parametrize("base, amb", [("f21", "agl17"),
                                       ("f21xz2", "agl17xz2")])
def test_orbit_sizes_match_bincount(base, amb):
    # in the reference scan, orbit-stabiliser on the representatives gives
    # the class sizes that counting the canonical form of every mask gives
    G = getattr(builders, base)()
    units = colour_units(G, range(1, G.order))
    k = len(units)
    tables = reference_mask_tables(k, _unit_action(G, units))
    canon = _canonical_masks(k, tables)
    assert len(canon) == 1 << k
    reps = np.flatnonzero(canon == np.arange(1 << k, dtype=canon.dtype))
    assert len(reps) == subset_class_count(G, getattr(builders, amb)())
    assert reference_representatives(k, tables).tolist() == reps.tolist()
    sizes = reference_orbit_sizes(k, tables, reps)
    assert sizes.tolist() == np.bincount(canon, minlength=1 << k)[reps].tolist()


def test_two_level_classes_match_full_scan():
    # on every group of group_pool(24) (each has k <= 18), f21xz2 and agl17:
    # the least images of the two-level representatives are the reference
    # full scan's representatives, one each, with the same class sizes, and
    # there are as many classes as the orbit-counting lemma gives
    for G in group_pool(24) + [builders.f21xz2(), builders.agl17()]:
        units = colour_units(G, range(1, G.order))
        k = len(units)
        ws = _unit_action(G, units)
        reps, sizes = _classes(k, ws)
        tables = reference_mask_tables(k, ws)
        ref = reference_representatives(k, tables)
        least = reference_least_images(k, tables, reps)
        order = np.argsort(least)
        name = (G.order, k, len(ws))
        assert least[order].tolist() == ref.tolist(), name
        assert sizes[order].tolist() \
            == reference_orbit_sizes(k, tables, ref).tolist(), name
        assert len(reps) == _class_count(ws), name


def test_or_tables_against_direct_union():
    # the piece tables map a mask to the union of its bits' images, for
    # every piece width, also those that do not divide k
    rng = random.Random(7)
    for k in (1, 2, 9, 21, 24):
        images = [rng.randrange(1 << k) for _ in range(k)]
        masks = np.array([rng.randrange(1 << k) for _ in range(100)]
                         + [0, (1 << k) - 1], dtype=np.int64)
        direct = [0] * len(masks)
        for x, m in enumerate(masks.tolist()):
            for i in range(k):
                if m >> i & 1:
                    direct[x] |= images[i]
        for w in range(1, k + 1):
            tables = _or_tables(images, w)
            assert [len(t) for t in tables] \
                == [1 << min(w, k - p) for p in range(0, k, w)], (k, w)
            assert _union(tables, masks).tolist() == direct, (k, w)


def _check_connectivity(G, units, reps, closed):
    """The connectivity the enumeration reads from the maximal subgroup
    masks equals the per-class product closure's (closed) on every class;
    returns it."""
    k = len(units)
    products = _unit_products(G, units)
    connected = _connected(_maximal_masks(G.order, k, products), reps)
    assert connected.tolist() == (closed == (1 << k) - 1).tolist()
    return connected


def test_maximal_masks_match_maximal_subgroups():
    # on every pool group within the enumeration's unit bound: the
    # subgroup walk's maximal masks are the unit masks of the maximal
    # subgroups that brute-force joins of cyclic subgroups find
    seen = 0
    for G in group_pool(48):
        units = colour_units(G, range(1, G.order))
        k = len(units)
        if k > _MAX_UNITS:
            continue
        seen += 1
        maximal = _maximal_masks(G.order, k, _unit_products(G, units))
        assert maximal.tolist() \
            == reference_maximal_subgroup_masks(G, units), G.meta
    assert seen >= 100


def test_subgroup_walk_must_reach_the_group(monkeypatch):
    # a closure that drops the highest unit leaves the walk below G
    G = builders.f21()
    units = colour_units(G, range(1, G.order))
    k = len(units)
    products = _unit_products(G, units)
    monkeypatch.setattr(mask_kernels, "_subgroup_masks",
                        lambda n, k, products, masks:
                        masks & ((1 << (k - 1)) - 1))
    with pytest.raises(RuntimeError, match="did not reach"):
        _maximal_masks(G.order, k, products)


@pytest.mark.parametrize("base", ["f21xz2", "agl17"])
def test_gather_matches_two_table_reference(base, monkeypatch):
    # eff is bit-identical to the two-table gather on the masks _settled
    # gathers (pieces sized to them) and, on f21xz2, on every connected
    # class (the widest pieces); _settled is unchanged with the reference
    # gather in its place
    G = builders.build_spec(base)
    n = G.order
    units = colour_units(G, range(1, n))
    k = len(units)
    reps, _ = _classes(k, _unit_action(G, units))
    reps = reps[_connected(_maximal_masks(n, k, _unit_products(G, units)),
                           reps)]
    gathered = []

    def checked(sq, masks):
        eff = _gather(sq, masks)
        assert np.array_equal(eff, reference_gather(sq, masks))
        assert eff.dtype == masks.dtype
        gathered.append(len(masks))
        return eff

    monkeypatch.setattr(mask_kernels, "_gather", checked)
    settled = _settled(G, units, reps)
    assert gathered and 0 < gathered[0] < len(reps)
    monkeypatch.setattr(mask_kernels, "_gather", reference_gather)
    assert np.array_equal(_settled(G, units, reps), settled)
    if base == "f21xz2":
        sq = _sign_tables(G, units)
        assert np.array_equal(_gather(sq, reps), reference_gather(sq, reps))


@pytest.mark.parametrize("base, connected_count, engine_runs",
                         [("f21", 51, 4), ("f21xz2", 55575, 159)],
                         ids=["f21", "f21xz2"])
def test_bulk_decision_matches_engine(base, connected_count, engine_runs):
    # on every class: the product closure is the subgroup the BFS reaches,
    # connectivity from the maximal subgroup masks is the closure's and the
    # BFS's, and a connected class the sign propagation settles is CCA by
    # the engine; the engine runs on exactly the classes it leaves
    G = getattr(builders, base)()
    n = G.order
    units = colour_units(G, range(1, n))
    k = len(units)
    unit_of = {s: i for i, u in enumerate(units) for s in u}
    reps = reference_representatives(
        k, reference_mask_tables(k, _unit_action(G, units)))
    closed = _subgroup_masks(n, k, _unit_products(G, units), reps)
    connected = _check_connectivity(G, units, reps, closed)
    settled = np.zeros(len(reps), dtype=bool)
    settled[connected] = _settled(G, units, reps[connected])
    for m, c, a, f in zip(reps.tolist(), closed.tolist(), connected.tolist(),
                          settled.tolist()):
        Gamma = ColouredCayleyGraph(G, _mask_conn(m, units))
        order, _ = bfs_tree(n, Gamma.conn, Gamma.left_rows)
        assert c == sum({1 << unit_of[v] for v, _, _ in order}), m
        try:
            verdict = fast_cca_verdict(Gamma)
        except NotConnected:
            verdict = None
        assert (verdict is not None) == a, m
        if f:
            assert verdict == "CCA", m
    assert int(connected.sum()) == connected_count
    assert int((connected & ~settled).sum()) == engine_runs
    assert enumerate_connection_sets(base).engine_runs == engine_runs


def _open_cycles(G):
    """open_(x, y, img_x, img_y): the vertices g != e for which a 4-cycle
    e-x-g-y-e does not close under a map sending x to img_x and y to img_y:
    no vertex is a neighbour of img_x along the colour of {x, g} and of
    img_y along the colour of {y, g}.  Whether the cycle is in the graph is
    left to the caller."""
    table, inv = G.table, G.inverse

    def ends(g, x, img_x):
        t = table[g][inv[x]]
        return {table[t][img_x], table[inv[t]][img_x]}

    @functools.cache
    def open_(x, y, img_x, img_y):
        return frozenset(g for g in range(1, G.order)
                         if not ends(g, x, img_x) & ends(g, y, img_y))
    return open_


def _sign_solutions(G, conn, open_):
    """Every sign vector on the non-involution units of conn, as the tuple
    of units it inverts (each named by its least element), whose map of
    N[e] keeps the colour of every pair in N[e], edge or not, and closes
    every 4-cycle e-x-g-y-e of the graph with x != y in S (open_ is
    _open_cycles(G)).  The map fixes e and the involutions and sends each
    unit {s, s^-1} to itself, kept or swapped.  Listed unit by unit with
    G.table: both tests depend on the images of two elements only, so a
    partial vector is kept while every pair among the elements it has
    placed passes them."""
    table, inv = G.table, G.inverse
    S = set(conn)
    nbrs = {x: {table[t][x] for t in conn} for x in conn}

    def colour(g):
        return min(g, inv[g])

    def keeps(x, y, img):
        c = colour(table[y][inv[x]])
        c2 = colour(table[img[y]][inv[img[x]]])
        return ((c == c2 or (c not in S and c2 not in S))
                and not open_(x, y, img[x], img[y]) & nbrs[x] & nbrs[y])

    start = {s: s for s in conn if s == inv[s]}
    partial = [(start, ())]
    for s in sorted(s for s in conn if s < inv[s]):
        grown = []
        for img, flips in partial:
            for flip in (False, True):
                new = dict(img)
                new[s], new[inv[s]] = (inv[s], s) if flip else (s, inv[s])
                if all(keeps(x, y, new) for x in (s, inv[s]) for y in new
                       if y != x):
                    grown.append((new, flips + (s,) * flip))
        partial = grown
    return [flips for _, flips in partial]


def _settled_against_signs(G, masks):
    """The number of masks settled and left: the propagation settles a mask
    iff the brute-force sign vectors are only zero, and a settled mask has
    a trivial vertex stabiliser."""
    n = G.order
    units = colour_units(G, range(1, n))
    open_ = _open_cycles(G)
    counts = [0, 0]
    for m, f in zip(masks, _settled(G, units, np.array(masks)).tolist()):
        conn = _mask_conn(m, units)
        assert f == (_sign_solutions(G, conn, open_) == [()]), \
            (G.meta.get("spec"), m)
        if f:
            stab = autc_stabiliser(ColouredCayleyGraph(G, conn))
            assert stab == [identity(n)], (G.meta.get("spec"), m)
        counts[not f] += 1
    return counts


def _connected_masks(G, rng=None, size=None):
    """Every mask of G's colour units whose set is connected, or a sample
    of size of them drawn with rng."""
    units = colour_units(G, range(1, G.order))

    def connected(m):
        return is_connected(ColouredCayleyGraph(G, _mask_conn(m, units)))

    if rng is None:
        return [m for m in range(1, 1 << len(units)) if connected(m)]
    masks = []
    while len(masks) < size:
        m = rng.randrange(1, 1 << len(units))
        if connected(m):
            masks.append(m)
    return masks


def test_propagation_settles_exactly_the_zero_sign_classes():
    rng = random.Random(11)
    counts = [0, 0]
    for G in group_pool(24):
        s, l = _settled_against_signs(G, _connected_masks(G, rng, 12))
        counts = [counts[0] + s, counts[1] + l]
    assert counts == [181, 503]
    # nonabelian groups outside the families group_pool draws from the
    # catalog (abelian, dihedral, dicyclic, Q8 x Z2^k)
    G = builders.build_spec("prod(z3;s3)")
    masks = _connected_masks(G)
    assert len(masks) == 979
    assert _settled_against_signs(G, masks) == [648, 331]
    G = builders.build_spec("prod(z3;d4)")
    masks = _connected_masks(G, random.Random(17), 400)
    assert _settled_against_signs(G, masks) == [261, 139]


def test_propagation_on_every_q8xz3_set():
    # Q8 x Z3 has unit pairs whose one-colour clauses forbidding signs
    # (1, 0) are not all among those forbidding (1, 1), neither set empty,
    # which no group of group_pool(64) has (Z3 x S3 and Z3 x D4 have them
    # too): only on such groups is the pairwise round's (1, 1) test not
    # implied by its (1, 0) test
    G = builders.build_spec("prod(q8;z3)")
    masks = _connected_masks(G)
    assert len(masks) == 3912
    assert _settled_against_signs(G, masks) == [1728, 2184]


def test_propagation_on_f21xz2_classes():
    G = builders.f21xz2()
    n = G.order
    units = colour_units(G, range(1, n))
    k = len(units)
    reps = reference_representatives(
        k, reference_mask_tables(k, _unit_action(G, units)))
    reps = reps[_subgroup_masks(n, k, _unit_products(G, units), reps)
                == (1 << k) - 1]
    sample = random.Random(13).sample(reps.tolist(), 2000)
    assert _settled_against_signs(G, sample) == [1993, 7]


def test_enumerate_rejects_unknown_inputs():
    for mode in ("quick", "full"):
        with pytest.raises(InvalidSpec):
            enumerate_connection_sets("f21", mode=mode)


@pytest.mark.parametrize("spec", ["z6", "z15", "z21", "d7", "dih(z9)",
                                  "prod(z3;d5)", "q8xz2^1", "prod(z4;z4)"])
def test_class_count_against_brute_force_automorphisms(spec):
    # the classes are the Aut(G) orbits: their number is the orbit-counting
    # mean over Aut(G) found by brute force, and their sizes add up to 2^k
    G = builders.build_spec(spec)
    rep = enumerate_connection_sets(spec)
    assert rep.class_count == burnside_class_count(
        G, brute_force_automorphisms(G))
    assert rep.orbit_size_sum == rep.scanned


@pytest.mark.parametrize("spec", ["z1", "z2^0"])
def test_enumerate_the_trivial_group(spec):
    # no unit: the one empty mask is a class of size 1, connected, since it
    # generates the trivial group, and CCA
    reps, sizes = _classes(0, [()])
    assert (reps.tolist(), sizes.tolist()) == ([0], [1])
    rep = enumerate_connection_sets(spec)
    assert (rep.scanned, rep.connected_count, rep.class_count) == (1, 1, 1)
    assert rep.non_cca_classes == []


def test_scan_against_counting_is_checked_by_a_raise(monkeypatch):
    # the canonical scan's class count is checked against the orbit-counting
    # lemma, and its class sizes against 2^k, by a raise that python -O
    # keeps: a scan that loses a class, or miscounts the sizes, stops the
    # enumeration
    for broken, message in (
            (lambda reps, sizes: (reps[1:], sizes[1:]),
             "the canonical scan found 55 classes"),
            (lambda reps, sizes: (reps, 2 * sizes),
             "the class sizes do not add up")):
        monkeypatch.setattr("cca.masks._classes",
                            lambda k, ws: broken(*_classes(k, ws)))
        with pytest.raises(RuntimeError, match=f"internal error: {message}"):
            enumerate_connection_sets("f21")


def _check_against_every_subset(spec, ws):
    """The per-subset oracle under the unit permutations ws: on each
    subset, connectivity and the verdict are those of its class, and every
    class, with its size, connectivity and verdict, is the enumeration's
    and the reference scan's.  Returns the number of NonCCA classes."""
    G = builders.build_spec(spec)
    n = G.order
    least, verdicts = reference_subset_verdicts(G, ws)
    classes = {}
    for c, v in zip(least, verdicts):
        classes.setdefault(c, set()).add(v)
    assert all(len(vs) == 1 for vs in classes.values())
    rep = enumerate_connection_sets(spec)
    assert rep.scanned == len(verdicts)
    assert rep.orbit_size_sum == rep.scanned
    assert rep.class_count == len(classes)
    assert rep.connected_count == sum(v is not None for v in verdicts)
    units = colour_units(G, range(1, n))
    k = len(units)
    counts = {c: least.count(c) for c in classes}
    action = _unit_action(G, units)
    tables = reference_mask_tables(k, action)
    reps = reference_representatives(k, tables)
    sizes = reference_orbit_sizes(k, tables, reps).tolist()
    assert dict(zip(reps.tolist(), sizes)) == counts
    masks, sizes = _classes(k, action)
    assert {least[m]: size for m, size in zip(masks.tolist(),
                                              sizes.tolist())} == counts
    closed = _subgroup_masks(n, k, _unit_products(G, units), reps)
    connected = _check_connectivity(G, units, reps, closed)
    assert dict(zip(reps.tolist(), connected.tolist())) \
        == {c: None not in vs for c, vs in classes.items()}
    unit_of = {s: i for i, u in enumerate(units) for s in u}
    non_cca = {}
    for cls in rep.non_cca_classes:
        m = sum({1 << unit_of[s] for s in cls["representative_indices"]})
        non_cca[least[m]] = cls["orbit_size"]
    assert non_cca == {c: counts[c] for c, vs in classes.items()
                       if vs == {"NonCCA"}}
    return len(non_cca)


def test_enumerate_f21_against_every_subset():
    # the classes under conjugation by AGL(1,7), over all 1024 subsets
    G = builders.f21()
    ws = reference_unit_action(G, builders.agl17())
    assert _check_against_every_subset("f21", ws) == 1


@pytest.mark.parametrize("spec, non_cca_count", [("q8xz2^1", 44), ("d7", 0)])
def test_enumerate_against_every_subset_under_aut(spec, non_cca_count):
    # off the three worked bases: the classes under Aut(G) found by brute
    # force, on a group with NonCCA classes and on one without
    G = builders.build_spec(spec)
    ws = unit_permutations(G, brute_force_automorphisms(G))
    assert _check_against_every_subset(spec, ws) == non_cca_count


def test_enumeration_never_lists_the_stabiliser(monkeypatch):
    # a NonCCA class's |Aut_c| = n*2^m comes from the search's m levels, so
    # the cap on listing A_1 never applies, though autc_group, which gives
    # the same orders under the default cap, obeys it
    rep = enumerate_connection_sets("q8xz2^1")
    G = builders.build_spec("q8xz2^1")
    assert len(rep.non_cca_classes) == 44
    for cls in rep.non_cca_classes:
        Gamma = ColouredCayleyGraph(G, cls["representative_indices"])
        assert cls["autc_order"] == autc_group(Gamma).autc_order
    monkeypatch.setattr("cca.engine.STABILISER_CAP", 1)
    with pytest.raises(StabiliserTooLarge, match="exceeds cap 1$"):
        autc_group(Gamma)
    assert enumerate_connection_sets("q8xz2^1").to_json_dict() \
        == rep.to_json_dict()


def test_enumeration_searches_once_per_engine_run(monkeypatch):
    # each class left to the engine is decided, and a NonCCA class's
    # |Aut_c| read, from one stabiliser search; the search is counted in
    # every cca module that binds it
    search = engine._search_stabiliser
    calls = []

    def counted(Gamma):
        calls.append(Gamma.conn)
        return search(Gamma)

    for name, mod in list(sys.modules.items()):
        if name.startswith("cca.") and \
                getattr(mod, "_search_stabiliser", None) is search:
            monkeypatch.setattr(mod, "_search_stabiliser", counted)
    rep = enumerate_connection_sets("q8xz2^1")
    assert len(rep.non_cca_classes) == 44
    assert len(calls) == rep.engine_runs


def test_enumerate_f21_report_content():
    rep = enumerate_connection_sets("f21")
    # disconnected subsets: the 8 inside the order-7 subgroup (3 units,
    # empty included) and the 7 single order-3 pairs
    assert rep.connected_count == 1024 - 15
    assert rep.class_count == subset_class_count(
        builders.f21(), builders.agl17()) == 56
    assert len(rep.non_cca_classes) == 1
    cls = rep.non_cca_classes[0]
    assert cls["orbit_size"] == 21
    assert cls["autc_order"] == 168
    G, S21 = canonical_sets()["S21"]
    amb = builders.agl17()
    assert are_conjugate_subsets(
        amb, [G.elements[s] for s in cls["representative_indices"]],
        [G.elements[s] for s in S21])
    d = rep.to_json_dict()
    assert set(d) == {"base", "scanned", "connected_count", "non_cca_classes"}
    json.loads(json.dumps(d, sort_keys=True))
    rows = list(csv.reader(io.StringIO(rep.to_csv())))
    assert rows[0] == ["representative", "orbit_size", "autc_order"]
    assert len(rows) == 2
