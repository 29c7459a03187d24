import random
import time

import pytest

from cca import builders, groups
from cca.errors import (BoundExceeded, ClosureExceedsCap, NotASubgroup,
                        UnknownLabel)
from cca.engine import AutcResult, aut_pm1_group
from cca.graphs import ColouredCayleyGraph, colour_units
from cca.groups import (FiniteGroup, are_conjugate_subsets, are_isomorphic,
                        automorphism_transversals, bfs_tree, centralizer,
                        close_generators,
                        conjugacy_classes, coset_growth, find_isomorphism, generated,
                        is_normal, is_subgroup,
                        is_sylow_cyclic_order_not_div_4, normal_subgroups,
                        normalizer, p_part, prime_factors, sylow_subgroup,
                        trivial_group)
from cca.perms import identity, pconj, pmul, porder
from cca.recipes import _heawood_groups
from cca.structure import canonical_sets

from conftest import (automorphisms, brute_force_automorphisms,
                      full_scan_bfs, group_pool, reference_closure,
                      reference_generated, reference_right_regular,
                      reference_generating_sequence,
                      reference_normal_subgroups, reference_products)


def test_close_generators_deterministic_order():
    a = (1, 2, 3, 0)
    G1 = close_generators([a], 4)
    G2 = close_generators([a], 4)
    assert G1.elements == G2.elements
    assert G1.order == 4


def test_close_generators_cap():
    a = (1, 2, 3, 4, 0)
    with pytest.raises(ClosureExceedsCap):
        close_generators([a], 5, cap=3)


def _seeded_generator_lists():
    """(degree, generator list) pairs: every pool group's own generators and
    seeded random samples of its elements, then degrees 0, 1 and 2, where
    itemgetter of a single point would return a bare point."""
    rng = random.Random(7)
    for G in group_pool(48):
        yield G.degree, list(G.generators)
        for k in (1, 2, 3):
            yield G.degree, rng.sample(G.elements, min(k, G.order))
    for gens in ([], [()], [(), ()]):
        yield 0, gens
    for gens in ([], [(0,)], [(0,), (0,)]):
        yield 1, gens
    for gens in ([], [(0, 1)], [(1, 0)], [(0, 1), (1, 0)], [(1, 0), (1, 0)]):
        yield 2, gens


def test_close_generators_matches_reference_closure():
    for degree, gens in _seeded_generator_lists():
        ref = reference_closure(gens, degree, cap=10_000)
        H = close_generators(gens, degree, cap=len(ref))
        assert H.elements == ref, (degree, gens)
        assert H.generators == [tuple(g) for g in gens]
        if len(ref) > 1:
            with pytest.raises(ClosureExceedsCap):
                close_generators(gens, degree, cap=len(ref) - 1)


def test_coset_growth_matches_closure():
    # the membership set is the closure's element set and the generators
    # are the ones re-closing after each adjoined element keeps; the cap
    # refuses exactly the subgroups larger than it
    for degree, gens in _seeded_generator_lists():
        ref = reference_closure(gens, degree, cap=10_000)
        kept, members = coset_growth(gens, degree, len(ref))
        assert members == set(ref), (degree, gens)
        assert kept == reference_generated(gens, degree, len(ref)).generators
        if len(ref) > 1:
            with pytest.raises(ClosureExceedsCap):
                coset_growth(gens, degree, len(ref) - 1)


def test_generated_keeps_few_generators():
    # generated adjoins the candidates a first fit over a BFS of the table
    # adjoins, in the same order: from all elements and from seeded
    # connection sets
    rng = random.Random(83)
    for G in group_pool(48):
        H = generated(G.elements, G.degree)
        assert set(H.elements) == set(G.elements)
        assert [G.index[g] for g in H.generators] == \
            reference_generating_sequence(G, range(G.order))
        units = colour_units(G, range(1, G.order))
        for _ in range(3):
            conn = [s for u in units if rng.random() < 0.5 for s in u]
            H = generated([G.elements[s] for s in conn], G.degree)
            assert [G.index[g] for g in H.generators] == \
                reference_generating_sequence(G, conn), conn
    T = generated([(0,), (0,)], 1)
    assert T.elements == [(0,)] and T.generators == []


def test_generated_closes_once(monkeypatch):
    # the membership set grows in place and is not closed again: the same
    # elements, sorted, and the same generators as re-closing after each
    # adjoined element, from all elements and from seeded connection sets,
    # with no call to close_generators
    rng = random.Random(22)
    cases = []
    for G in group_pool(32):
        units = colour_units(G, range(1, G.order))
        cases.append((G, G.elements))
        for _ in range(3):
            cases.append((G, [G.elements[s] for u in units
                              if rng.random() < 0.5 for s in u]))
    refs = [reference_generated(elems, G.degree, G.order)
            for G, elems in cases]
    calls = []
    close = groups.close_generators

    def counted(*args, **kwargs):
        calls.append(1)
        return close(*args, **kwargs)

    monkeypatch.setattr(groups, "close_generators", counted)
    for (G, elems), ref in zip(cases, refs):
        H = generated(elems, G.degree, cap=G.order)
        assert H.elements == sorted(ref.elements)
        assert H.generators == ref.generators
    assert calls == []
    G = builders.build_spec("s4")
    with pytest.raises(ClosureExceedsCap):
        generated(G.elements, G.degree, cap=G.order - 1)


def test_automorphism_transversals_generate_aut():
    # one transversal per level generates Aut(G), and the product of the
    # orbit sizes is its order: against Aut(G) found by brute force
    for G in group_pool(24):
        maps, size = automorphism_transversals(G)
        auts = {tuple(phi) for phi in brute_force_automorphisms(G)}
        assert size == len(auts)
        assert set(close_generators(maps, G.order, cap=size).elements) \
            == auts


def test_identity_first_and_index_arithmetic():
    G = builders.symmetric(3)
    assert G.elements[0] == identity(3)
    for i in range(G.order):
        for j in range(G.order):
            assert G.elements[G.imul(i, j)] == pmul(G.elements[i], G.elements[j])
        assert G.imul(i, G.inverse[i]) == 0


def _arithmetic_groups():
    """Groups of every shape a base takes: right-regular ones (one point),
    products and permutation groups (several points), groups that fix
    point 0 and trivial groups (no point)."""
    for _, G in builders.catalog():
        yield G
    for spec in ("psl27", "pgl27", "agl17", "f21xz2", "s4",
                 "wreath(z3;z2@2)", "dic(z6)"):
        yield builders.build_spec(spec)
    yield builders.agl17xz2()
    S4 = builders.symmetric(4)
    yield centralizer(S4, S4.subgroup([(1, 0, 3, 2)]))
    P = builders.agl17xz2()
    yield centralizer(P, P)                     # Z2 on points 8 and 9
    G = builders.quaternion8()
    yield aut_pm1_group(G, list(range(1, G.order)))
    Z = builders.cyclic(6)
    yield aut_pm1_group(Z, [1, 5])              # inversion, fixing 0 and 3
    for degree in (0, 1, 4):
        yield trivial_group(degree)


def test_index_arithmetic_matches_permutation_products():
    for G in _arithmetic_groups():
        table, inverse = reference_products(G)
        assert G.table == [tuple(row) for row in table], G.base
        assert [G.imul(i, j) for i in range(G.order)
                for j in range(G.order)] == sum(table, []), G.base
        for s in range(G.order):
            assert G.left_row(s) == tuple(table[s])
            assert G.right_row(s) == tuple(row[s] for row in table)
        assert G.inverse == inverse, G.base


def test_label_index_rejects_unknown_labels():
    G = close_generators([(1, 2, 0)], 3)           # unlabelled: e0, e1, e2
    assert G.label_index("e2") == 2
    for lab in ("e3", "x", ""):
        with pytest.raises(UnknownLabel):
            G.label_index(lab)
    with pytest.raises(KeyError):                  # older callers still work
        builders.cyclic(4).label_index("banana")


def test_rows_and_table():
    G = builders.symmetric(3)
    for s in range(G.order):
        assert G.left_row(s) == tuple(G.imul(s, x) for x in range(G.order))
        assert G.right_row(s) == tuple(G.imul(x, s) for x in range(G.order))
    assert G.table == [G.left_row(i) for i in range(G.order)]


def test_right_regular_is_regular_and_isomorphic():
    G = builders.quaternion8()
    R = G.right_regular
    assert R.order == G.order
    assert len({p[0] for p in R.elements}) == G.order
    assert are_isomorphic(G, R)


def test_right_regular_is_read_from_the_rows():
    # element i of G_R is the right row of e_i, not closed: the element set
    # of the closure of the right rows of G's generators, which stay its
    # generators
    for G in group_pool(48):
        R = G.right_regular
        assert R.elements == [G.right_row(i) for i in range(G.order)]
        ref = reference_right_regular(G)
        assert set(R.elements) == set(ref.elements)
        assert R.generators == ref.generators


def test_subgroup_rejects_outside_elements():
    G = close_generators([(1, 0, 2, 3)], 4)
    with pytest.raises(NotASubgroup):
        G.subgroup([(0, 1, 3, 2)])


def test_element_orders_match_porder():
    # the orders read at the base equal perms.porder over every point: on
    # the pool, whose groups act regularly on their element indices, and
    # on groups whose base has more than one point, the colour-preserving
    # groups of the named sets and the Heawood graph's automorphism group
    named = canonical_sets()
    pool = group_pool(48) + [
        AutcResult(ColouredCayleyGraph(*named[k])).full_group
        for k in ("S21", "S42_1", "S42_2")] + [_heawood_groups()[1]]
    assert pool[-1].order == 336
    assert sum(len(G.base) > 1 for G in pool) >= 4
    for G in pool:
        ref = [porder(p) for p in G.elements]
        assert G.element_orders == ref
        fresh = FiniteGroup(G.elements, G.generators)
        assert [fresh.order_of[i] for i in reversed(range(G.order))] == \
            ref[::-1]


def test_isomorphisms_read_only_the_orders_they_reach():
    # aut_pm1_group's candidates are s and s^-1, so the search reads the
    # orders of a few elements and never lists the orders of all of them
    G = builders.cyclic(2000)
    A = aut_pm1_group(G, [1, 1999])
    assert A.order == 2
    assert "element_orders" not in G.__dict__
    assert set(G.order_of) <= {0, 1, 1999}
    assert all(G.order_of[i] == 2000 for i in (1, 1999))


def test_abelian_cyclic_exponent():
    assert builders.cyclic(6).is_abelian()
    assert builders.cyclic(6).is_cyclic()
    assert not builders.symmetric(3).is_abelian()
    assert builders.dihedral(4).exponent() == 4
    Z2x2 = builders.build_spec("z2^2")
    assert Z2x2.exponent() == 2 and not Z2x2.is_cyclic()


def test_normality():
    S3 = builders.symmetric(3)
    A3 = S3.subgroup([(1, 2, 0)])
    T2 = S3.subgroup([(1, 0, 2)])
    assert is_normal(A3, S3)
    assert not is_normal(T2, S3)
    assert is_subgroup(A3, S3)


def _conjugation_pairs():
    """(H, G) pairs: every cyclic subgroup of every pool group, and the
    group and its trivial subgroup, then the degree-0 and degree-1 groups,
    where itemgetter of one point would return a bare value."""
    for G in group_pool(24):
        yield trivial_group(G.degree), G
        yield G, G
        for g in G.elements[1:]:
            yield G.subgroup([g]), G
    for degree in (0, 1):
        yield trivial_group(degree), trivial_group(degree)


def test_is_normal_and_normalizer_match_pconj_reference():
    # against the definitions with perms.pconj, which takes the inverse of
    # the conjugating element for every pair
    normal = {True: 0, False: 0}
    for H, G in _conjugation_pairs():
        ref = all(pconj(h, g) in H.index
                  for g in G.generators for h in H.elements)
        assert is_normal(H, G) == ref, (H.generators, G.generators)
        normal[ref] += 1
        N = normalizer(G, H)
        elems = [g for g in G.elements
                 if all(pconj(h, g) in H.index for h in H.generators)]
        assert N.elements == elems
        assert N.generators == [g for g in elems if g != identity(G.degree)]
    assert normal[True] and normal[False]
    assert normalizer(trivial_group(1), trivial_group(1)).elements == [(0,)]


def test_sylow_subgroups():
    S4 = builders.symmetric(4)
    assert sylow_subgroup(S4, 2).order == 8
    assert sylow_subgroup(S4, 3).order == 3
    assert sylow_subgroup(S4, 5).order == 1
    A = builders.agl17()
    assert sylow_subgroup(A, 7).order == 7
    assert sylow_subgroup(A, 2).order == 2


def test_sylow_cyclic_gate():
    assert is_sylow_cyclic_order_not_div_4(builders.f21())
    assert is_sylow_cyclic_order_not_div_4(builders.agl17())
    assert is_sylow_cyclic_order_not_div_4(builders.cyclic(6))
    assert not is_sylow_cyclic_order_not_div_4(builders.cyclic(4))
    assert not is_sylow_cyclic_order_not_div_4(builders.build_spec("z2^2"))
    assert not is_sylow_cyclic_order_not_div_4(builders.symmetric(4))


def test_number_theory_helpers():
    assert p_part(168, 2) == 8
    assert prime_factors(168) == [2, 3, 7]


def test_squares_centralizer_normalizer():
    D4 = builders.dihedral(4)
    Z = centralizer(D4, D4)
    assert Z.order == 2
    r = D4.subgroup([D4.elements[D4.label_index("r")]])
    assert normalizer(D4, r).order == 8


def test_conjugacy_classes_s3():
    sizes = sorted(len(c) for c in conjugacy_classes(builders.symmetric(3)))
    assert sizes == [1, 2, 3]


def test_normal_subgroups_s4():
    orders = [N.order for N in normal_subgroups(builders.symmetric(4))]
    assert orders == [1, 4, 12, 24]


def test_normal_subgroups_simple_group():
    orders = [N.order for N in normal_subgroups(builders.psl27())]
    assert orders == [1, 168]


def test_normal_subgroups_match_reference():
    # joining each pair once finds the same subgroups, each with the same
    # generators and element order, as re-joining every pair every round
    for G in group_pool(48):
        got = normal_subgroups(G)
        ref = reference_normal_subgroups(G)
        assert [N.order for N in got] == [N.order for N in ref]
        assert [N.generators for N in got] == [N.generators for N in ref]
        assert [N.elements for N in got] == [N.elements for N in ref]


def test_bounds_refuse_large_groups(monkeypatch):
    G = builders.symmetric(4)
    monkeypatch.setattr("cca.groups.ISO_BOUND", G.order - 1)
    with pytest.raises(BoundExceeded, match="bound 23 exceeded"):
        find_isomorphism(G, G)
    monkeypatch.setattr("cca.groups.DEFAULT_CAP", G.order - 1)
    with pytest.raises(BoundExceeded, match="exceeds bound 23"):
        normal_subgroups(G)


def test_bfs_tree_matches_full_scan():
    # bfs_tree stops once every vertex is queued; a scan of every queue
    # entry gives the same order and positions
    rng = random.Random(61)
    pool = group_pool(24)
    seen = {True: 0, False: 0}
    for _ in range(300):
        G = pool[rng.randrange(len(pool))]
        units = colour_units(G, range(1, G.order))
        picked = rng.sample(units, rng.randint(0, len(units)))
        conn = [s for u in picked for s in u]
        left = {s: G.left_row(s) for s in conn}
        order, pos = bfs_tree(G.order, conn, left)
        assert (order, pos) == full_scan_bfs(G.order, conn, left), conn
        seen[len(order) == G.order - 1] += 1
    assert seen[True] >= 50 and seen[False] >= 50


def test_isomorphism_positive_and_negative():
    assert are_isomorphic(builders.cyclic(4), builders.cyclic(4))
    assert not are_isomorphic(builders.cyclic(4), builders.build_spec("z2^2"))
    assert not are_isomorphic(builders.quaternion8(), builders.dihedral(4))
    phi = find_isomorphism(builders.dihedral(3), builders.symmetric(3))
    assert phi is not None
    D, S = builders.dihedral(3), builders.symmetric(3)
    for i in range(6):
        for j in range(6):
            assert phi[D.imul(i, j)] == S.imul(phi[i], phi[j])


def test_isomorphism_rejects_abelian_against_nonabelian_at_once():
    # equal order histograms, but only Z4 x Z4 x Z2 is abelian; a search
    # over generator images would take seconds to come back empty
    G = builders.q8_times_z2(2)
    H = builders.build_spec("prod(z4;z4;z2)")
    start = time.perf_counter()
    assert find_isomorphism(G, H) is None
    assert find_isomorphism(H, G) is None
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("spec, order", [("z7", 6), ("s3", 6), ("d4", 8),
                                         ("q8", 24), ("z2^3", 168),
                                         ("f21", 42)])
def test_automorphisms_known_orders(spec, order):
    G = builders.build_spec(spec)
    auts = automorphisms(G)
    assert len(auts) == order
    assert len({tuple(phi) for phi in auts}) == order
    n = G.order
    for phi in auts:
        assert sorted(phi) == list(range(n))
        assert all(phi[G.imul(i, j)] == G.imul(phi[i], phi[j])
                   for i in range(n) for j in range(n))


def test_conjugate_subsets():
    S4 = builders.symmetric(4)
    a = (1, 0, 2, 3)
    b = (0, 1, 3, 2)
    assert are_conjugate_subsets(S4, [a], [b])
    assert not are_conjugate_subsets(S4, [a], [(1, 2, 0, 3)])
    assert not are_conjugate_subsets(S4, [a], [a, b])


def test_trivial_group():
    T = trivial_group(3)
    assert T.order == 1 and T.elements == [(0, 1, 2)]
