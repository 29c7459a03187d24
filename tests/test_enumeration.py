import csv
import io
import json
import random

import numpy as np
import pytest

from cca import builders
from cca.errors import InvalidSpec
from cca.graphs import colour_units
from cca.groups import are_conjugate_subsets
from cca.structure import (_canonical_masks, _mask_tables, _orbit_sizes,
                           _unit_action, canonical_sets,
                           enumerate_connection_sets)

from conftest import reference_unit_action, subset_class_count


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
    reps = np.flatnonzero(canon == np.arange(1 << k, dtype=canon.dtype))
    assert len(reps) == subset_class_count(G, getattr(builders, amb)())
    sizes = _orbit_sizes(k, tables, reps)
    assert sizes.tolist() == np.bincount(canon, minlength=1 << k)[reps].tolist()


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


def test_enumerate_f21_parallel_merge_is_deterministic():
    one = enumerate_connection_sets("f21", mode="full", jobs=1)
    two = enumerate_connection_sets("f21", mode="full", jobs=2)
    assert one.to_json() == two.to_json()
    assert one.to_csv() == two.to_csv()


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
