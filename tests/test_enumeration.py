import csv
import io
import json
import random

import numpy as np
import pytest

from cca import builders
from cca.engine import autc_stabiliser
from cca.errors import InvalidSpec
from cca.graphs import ColouredCayleyGraph, colour_units, is_connected
from cca.groups import are_conjugate_subsets, bfs_tree
from cca.perms import identity
from cca.structure import (_canonical_blocks, _flip_tables, _mask_conn,
                           _mask_tables, _may_flip, _or_tables, _orbit_sizes,
                           _representatives, _subgroup_masks, _unit_action,
                           _unit_products, _verdict, canonical_sets,
                           enumerate_connection_sets)

from conftest import group_pool, reference_unit_action, subset_class_count


def _canonical_masks(k, tables):
    # the least image of every mask, from the blocks the enumeration scans
    return np.concatenate([block for _, block in _canonical_blocks(k, tables)])


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
    assert ws == reference_unit_action(G, getattr(builders, amb)(), units)


def test_canonical_masks_against_direct_minimum():
    G = builders.f21()
    units = colour_units(G, range(1, G.order))
    ws = _unit_action(G, units)
    k = len(units)
    canon = _canonical_masks(k, _mask_tables(k, ws))
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
    # orbit-stabiliser on the representatives gives the class sizes that
    # counting the canonical form of every mask gives
    G = getattr(builders, base)()
    units = colour_units(G, range(1, G.order))
    k = len(units)
    tables = _mask_tables(k, _unit_action(G, units))
    canon = _canonical_masks(k, tables)
    assert len(canon) == 1 << k
    reps = np.flatnonzero(canon == np.arange(1 << k, dtype=canon.dtype))
    assert len(reps) == subset_class_count(G, getattr(builders, amb)())
    assert _representatives(k, tables).tolist() == reps.tolist()
    sizes = _orbit_sizes(k, tables, reps)
    assert sizes.tolist() == np.bincount(canon, minlength=1 << k)[reps].tolist()


def test_or_tables_against_direct_union():
    # the split tables map a mask to the union of its bits' images
    rng = random.Random(7)
    for k in (1, 2, 9, 21):
        images = [rng.randrange(1 << k) for _ in range(k)]
        hightab, lowtab = _or_tables(k, images)
        kl = k // 2
        for _ in range(100):
            m = rng.randrange(1 << k)
            direct = 0
            for i in range(k):
                if m >> i & 1:
                    direct |= images[i]
            assert int(hightab[m >> kl] | lowtab[m & ((1 << kl) - 1)]) \
                == direct


@pytest.mark.parametrize("base", ["f21", "f21xz2"])
def test_bulk_decision_matches_engine(base):
    # on every class: the product closure is the subgroup the BFS reaches,
    # and a connected class the flip test rules out is CCA by the engine
    G = getattr(builders, base)()
    n = G.order
    units = colour_units(G, range(1, n))
    k = len(units)
    unit_of = {s: i for i, u in enumerate(units) for s in u}
    reps = _representatives(k, _mask_tables(k, _unit_action(G, units)))
    closed = _subgroup_masks(n, k, _unit_products(G, units), reps)
    may = _may_flip(_flip_tables(G, units), reps)
    table, inv = G.table, G.inverse
    for m, c, f in zip(reps.tolist(), closed.tolist(), may.tolist()):
        conn = _mask_conn(m, units)
        order, _ = bfs_tree(n, conn, {s: table[s] for s in conn})
        assert c == sum({1 << unit_of[v] for v, _, _ in order}), m
        verdict = _verdict(n, table, inv, conn)
        assert (verdict is not None) == (c == (1 << k) - 1), m
        if verdict is not None and not f:
            assert verdict == "CCA", m


def test_flip_test_rules_out_only_trivial_stabilisers():
    # wherever no non-involution unit passes the neighbour-flip test, the
    # stabiliser of the identity vertex is trivial
    rng = random.Random(11)
    ruled_out = passed = 0
    for G in group_pool(24):
        n = G.order
        units = colour_units(G, range(1, n))
        masks = []
        while len(masks) < 12:
            m = rng.randrange(1, 1 << len(units))
            if is_connected(ColouredCayleyGraph(G, _mask_conn(m, units))):
                masks.append(m)
        may = _may_flip(_flip_tables(G, units), np.array(masks))
        for m, f in zip(masks, may.tolist()):
            stab = autc_stabiliser(ColouredCayleyGraph(G, _mask_conn(m, units)))
            if not f:
                assert stab == [identity(n)], (G.meta.get("spec"), m)
            ruled_out += not f
            passed += f and len(stab) > 1
    assert ruled_out > 100 and passed > 100


def test_enumerate_rejects_unknown_inputs():
    with pytest.raises(InvalidSpec):
        enumerate_connection_sets("z6")
    with pytest.raises(InvalidSpec):
        enumerate_connection_sets("f21", mode="quick")


def test_enumerate_f21_modes_agree():
    pruned = enumerate_connection_sets("f21", mode="canonical-pruned")
    full = enumerate_connection_sets("f21", mode="full")
    assert pruned.scanned == full.scanned == 1024
    assert pruned.orbit_size_sum == pruned.scanned
    assert pruned.to_json() == full.to_json()


def test_enumerate_f21_report_content():
    rep = enumerate_connection_sets("f21", mode="full")
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
    json.loads(rep.to_json())
    rows = list(csv.reader(io.StringIO(rep.to_csv())))
    assert rows[0] == ["representative", "orbit_size", "autc_order"]
    assert len(rows) == 2
