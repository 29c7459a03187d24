import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cca
from cca import builders
from cca.constructions import line_graph_construction
from cca.engine import (AutcResult, aut_pm1_group, autc_group,
                        autc_stabiliser, colour_break, fast_cca_verdict,
                        is_colour_preserving, multiplicative_break,
                        predicted_autc_complete)
from cca.errors import NotConnected, StabiliserTooLarge
from cca.graphs import (ColouredCayleyGraph, colour_units, complete_cayley,
                        quotient_graph)
from cca.groups import (FiniteGroup, close_generators, is_normal,
                        normal_subgroups)
from cca.perms import identity, pconj, pmul
from cca.recipes import _knn_q8_inputs
from cca.structure import canonical_sets

from conftest import (automorphisms, brute_force_stabiliser, group_pool,
                      is_power_of_two, random_connected_cayley,
                      reference_aut_pm1,
                      reference_autc, reference_edge_colour,
                      reference_stabiliser,
                      stabiliser_shape_allowed, vf2_stabiliser)


def test_colour_preserving_basics():
    Z4 = builders.cyclic(4)
    Gamma = ColouredCayleyGraph(Z4, [1, 3])
    assert is_colour_preserving(Gamma, identity(4))
    for g in Z4.elements:                      # right translations
        assert is_colour_preserving(Gamma, Z4.right_row(Z4.index[g]))
    reflection = (0, 3, 2, 1)
    assert is_colour_preserving(Gamma, reflection)
    assert not is_colour_preserving(Gamma, (0, 2, 1, 3))
    assert colour_break(Gamma, (0, 2, 1, 3)) == (0, 1)
    assert colour_break(Gamma, reflection) is None


def test_colour_break_matches_edge_scan():
    # the first broken edge read from the left rows is the first one a scan
    # over the reference edge colours, in their insertion order, meets:
    # on stabiliser elements, on those with two images swapped, on random
    # permutations and on maps that are not bijections
    rng = random.Random(67)
    pool = group_pool(48)
    compared = breaking = 0
    for _ in range(120):
        Gamma = random_connected_cayley(rng, pool)
        n = Gamma.n
        ec = reference_edge_colour(Gamma)
        maps = autc_stabiliser(Gamma)[:16]
        for b in list(maps):
            q = list(b)
            i, j = rng.sample(range(n), 2)
            q[i], q[j] = q[j], q[i]
            maps.append(tuple(q))
        maps += [tuple(rng.sample(range(n), n)) for _ in range(16)]
        maps += [tuple(rng.randrange(n) for _ in range(n)) for _ in range(16)]
        for p in maps:
            first = next(((u, v) for (u, v), c in ec.items()
                          if ec.get((min(p[u], p[v]), max(p[u], p[v]))) != c),
                         None)
            assert colour_break(Gamma, p) == first, (Gamma.conn, p)
            compared += 1
            breaking += first is not None
    assert compared > 4000 and breaking > 3000 and compared - breaking > 300


def test_multiplicative_break_matches_pair_scan():
    # multiplicative_break is None iff no pair of elements breaks
    # b(a*c) = b(a)*b(c), and otherwise it is the first breaking (s, g), s in
    # S in connection-set order and g ascending: on the stabiliser elements
    # of NonCCA sets, automorphisms of G with two images swapped or not, and
    # random bijections, all fixing the identity.  Aut(G) is not listed on
    # orders 16, 27, 32 and 48, where Z2^4, Z3^3, Z2^5 and Z2^4 x Z3 have
    # from 11232 to 9999360 automorphisms
    rng = random.Random(79)
    pool = group_pool(48)
    auts = {}
    seen = {"stabiliser": [0, 0], "automorphism": [0, 0], "swapped": [0, 0],
            "random": [0, 0]}
    for _ in range(360):
        Gamma = random_connected_cayley(rng, pool)
        G, n = Gamma.group, Gamma.n
        maps = [("random", (0,) + tuple(rng.sample(range(1, n), n - 1)))
                for _ in range(4)]
        if n not in (16, 27, 32, 48):
            if id(G) not in auts:
                auts[id(G)] = automorphisms(G)
            for phi in rng.sample(auts[id(G)], min(4, len(auts[id(G)]))):
                maps.append(("automorphism", tuple(phi)))
                if n > 2:
                    q = list(phi)
                    i, j = rng.sample(range(1, n), 2)
                    q[i], q[j] = q[j], q[i]
                    maps.append(("swapped", tuple(q)))
        if fast_cca_verdict(Gamma) == "NonCCA":
            maps += [("stabiliser", b) for b in autc_stabiliser(Gamma)[:16]]
        for kind, b in maps:
            scan = next(((a, c) for a in range(n) for c in range(n)
                         if b[G.imul(a, c)] != G.imul(b[a], b[c])), None)
            got = multiplicative_break(Gamma, b)
            assert (got is None) == (scan is None), (Gamma.conn, b)
            if got is not None:
                assert got == next((s, g) for s in Gamma.conn
                                   for g in range(n)
                                   if b[G.imul(s, g)]
                                   != G.imul(b[s], b[g])), (Gamma.conn, b)
            seen[kind][got is None] += 1
    assert seen["stabiliser"][0] > 50 and seen["stabiliser"][1] > 25, seen
    assert seen["automorphism"][0] == 0 and seen["automorphism"][1] > 500
    assert seen["swapped"][0] > 500 and seen["random"][0] > 1000, seen


def test_stabiliser_z4():
    Gamma = ColouredCayleyGraph(builders.cyclic(4), [1, 3])
    stab = autc_stabiliser(Gamma)
    assert sorted(stab) == brute_force_stabiliser(Gamma)
    assert len(stab) == 2


def test_stabiliser_cap_refuses(monkeypatch):
    # the complete graph on Q8 has a stabiliser of order 8
    monkeypatch.setattr("cca.engine.STABILISER_CAP", 4)
    with pytest.raises(StabiliserTooLarge, match="exceeds cap 4"):
        autc_stabiliser(complete_cayley(builders.quaternion8()))


def test_stabiliser_cap_refuses_before_closure(monkeypatch):
    # |A_1| = 2^m is known from the m strong generators, so a stabiliser
    # over the cap is refused without closing it
    G = builders.build_spec("q8xz2^2")
    labels = ["(j,1,0)", "(-j,1,0)", "(j,0,0)", "(-j,0,0)", "(-j,1,1)",
              "(j,1,1)", "(j,0,1)", "(-j,0,1)", "(i,1,1)", "(-i,1,1)"]
    Gamma = ColouredCayleyGraph(G, [G.label_index(x) for x in labels])

    def no_closure(*args, **kwargs):
        raise AssertionError("close_generators called")

    monkeypatch.setattr("cca.engine.close_generators", no_closure)
    with pytest.raises(StabiliserTooLarge, match="exceeds cap 16384"):
        autc_stabiliser(Gamma)
    with pytest.raises(StabiliserTooLarge, match="exceeds cap 16384"):
        autc_group(Gamma)


def test_stabiliser_requires_connected():
    G = builders.cyclic(6)
    Gamma = ColouredCayleyGraph(G, [2, 4])
    with pytest.raises(NotConnected):
        autc_stabiliser(Gamma)
    # the enumeration reads a disconnected class from this error
    with pytest.raises(NotConnected):
        fast_cca_verdict(Gamma)
    with pytest.raises(NotConnected):
        aut_pm1_group(G, [2, 4])


def test_aut_pm1_requires_generating_set_under_optimize():
    # python -O strips asserts; the check must survive it
    code = ("from cca import builders\n"
            "from cca.engine import aut_pm1_group\n"
            "from cca.errors import NotConnected\n"
            "try:\n"
            "    aut_pm1_group(builders.cyclic(6), [2, 4])\n"
            "except NotConnected:\n"
            "    print('NotConnected')\n")
    src = str(Path(cca.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "NotConnected\n", out.stderr


def test_autc_z5_complete():
    res = autc_group(ColouredCayleyGraph(builders.cyclic(5), [1, 4, 2, 3]))
    assert res.verdict == "CCA"
    assert res.full_group.order == 10
    assert res.witness is None


def test_autc_z2_cube_basis():
    G = builders.build_spec("z2^3")
    basis = [G.meta["tuple_index"][t]
             for t in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    Gamma = ColouredCayleyGraph(G, basis)
    res = autc_group(Gamma)
    assert res.verdict == "CCA"
    assert len(autc_stabiliser(Gamma)) == 1
    assert res.aut_pm1.order == 1


def test_autc_f21_named_set():
    G, S = canonical_sets()["S21"]
    Gamma = ColouredCayleyGraph(G, S)
    res = autc_group(Gamma)
    assert res.verdict == "NonCCA"
    assert len(autc_stabiliser(Gamma)) == 8
    assert res.full_group.order == 168
    assert res.witness is not None
    # the witness really fails to normalise the regular copy
    G_R = close_generators([G.right_row(G.index[g]) for g in G.generators],
                           21, cap=22)
    assert any(pconj(h, res.witness) not in G_R.index for h in G_R.elements)


def test_result_invariants_on_random_graphs():
    rng = random.Random(11)
    pool = group_pool(24)
    for _ in range(25):
        Gamma = random_connected_cayley(rng, pool)
        res = autc_group(Gamma)
        stab = autc_stabiliser(Gamma)
        n = Gamma.n
        assert res.full_group.order == n * len(stab)
        assert is_power_of_two(len(stab))
        assert stabiliser_shape_allowed(stab, n)
        for p in stab:
            assert is_colour_preserving(Gamma, p)
        # the semidirect lower bound sits inside the full group
        for a in res.aut_pm1.elements:
            assert a in res.full_group.index
        assert (res.witness is not None) == (res.verdict == "NonCCA")


def test_witness_is_the_first_breaking_generator():
    # on NonCCA graphs the witness is the first strong generator, in
    # _levels order, that is not a group automorphism; it is also the first
    # element of the descent-ordered listing that is not one, and sits at
    # place 2^j for the generator of _levels[j].  Aut_pm1 from its own
    # search holds exactly the automorphisms of that listing
    rng = random.Random(71)
    pool = group_pool(48)
    graphs = [ColouredCayleyGraph(*canonical_sets()["S21"])]
    while len(graphs) < 25:
        Gamma = random_connected_cayley(rng, pool)
        if fast_cca_verdict(Gamma) == "NonCCA":
            graphs.append(Gamma)
    for Gamma in graphs:
        res = AutcResult(Gamma)
        stab = autc_stabiliser(Gamma)
        gens = [g for *_, g in res._levels]
        assert [stab[1 << j] for j in range(len(gens))] == gens
        breaks = [multiplicative_break(Gamma, b) is not None for b in stab]
        j = next(j for j, g in enumerate(gens)
                 if multiplicative_break(Gamma, g) is not None)
        assert res.witness == gens[j] == stab[breaks.index(True)]
        assert breaks.index(True) == 1 << j, Gamma.conn
        assert sorted(res.aut_pm1.elements) == \
            sorted(b for b, brk in zip(stab, breaks) if not brk)


def test_noncca_check_with_a_huge_stabiliser():
    # on Q8 x Z2^3, the units (+-j, a, b, c) and (+-i, 1, 1, 1) give a NonCCA
    # graph with |A_1| = 2^31, which can never be listed: the check's
    # witness is a strong generator and Aut_pm1 comes from its own search
    G = builders.build_spec("q8xz2^3")
    labels = [f"({x},{a},{b},{c})" for a in (0, 1) for b in (0, 1)
              for c in (0, 1) for x in ("j", "-j")]
    Gamma = ColouredCayleyGraph(
        G, [G.label_index(x) for x in labels + ["(i,1,1,1)", "(-i,1,1,1)"]])
    t0 = time.perf_counter()
    d = AutcResult(Gamma).to_json_dict()
    assert time.perf_counter() - t0 < 2
    assert d["verdict"] == "NonCCA"
    assert d["stabiliser_order"] == 2 ** 31
    assert d["full_group_order"] == 64 * 2 ** 31
    assert d["aut_pm1_order"] == 32
    witness = tuple(d["witness_permutation"])
    assert colour_break(Gamma, witness) is None and witness[0] == 0
    assert multiplicative_break(Gamma, witness) is not None
    with pytest.raises(StabiliserTooLarge, match="exceeds cap 16384"):
        autc_group(Gamma)


def test_search_depth_does_not_grow_with_n():
    # the descent is a loop, so a BFS of 1999 levels (the 2000-cycle) needs
    # no Python recursion; Aut_pm1 = {1, inversion} is found from the two
    # left rows of S alone
    for n in (1000, 2000):
        G = builders.cyclic(n)
        res = AutcResult(ColouredCayleyGraph(G, [1, n - 1]))
        assert (res.verdict, res.stabiliser_order) == ("CCA", 2)
        assert res.autc_order == 2 * n
        pm1 = aut_pm1_group(G, [1, n - 1])
        assert pm1.order == 2 and sorted(G._rows) == [1, n - 1]


def test_search_finds_identity_first():
    # A_1 is listed in descent order, which starts at the identity, and the
    # verdict fast_cca_verdict reads from the generators is autc_group's
    rng = random.Random(47)
    pool = group_pool(48)
    for _ in range(30):
        Gamma = random_connected_cayley(rng, pool)
        assert autc_stabiliser(Gamma)[0] == identity(Gamma.n)
        assert fast_cca_verdict(Gamma) == autc_group(Gamma).verdict


def test_cca_check_closes_nothing(monkeypatch):
    # on a CCA graph the orders and the verdict come from the strong
    # generators, and A_1 = Aut_pm1 with no witness, so a check closes no
    # group, even where |A_1| > 1; the orders are the reference search's
    # and the generator-image search's
    rng = random.Random(61)
    pool = group_pool(24)
    graphs = [random_connected_cayley(rng, pool) for _ in range(40)]
    refs = [(len(reference_stabiliser(Gamma)),
             reference_aut_pm1(Gamma.group, Gamma.conn).order)
            for Gamma in graphs]

    def no_closure(*args, **kwargs):
        raise AssertionError("close_generators called")

    monkeypatch.setattr("cca.engine.close_generators", no_closure)
    checked = nontrivial = 0
    for Gamma, (stab, pm1) in zip(graphs, refs):
        if pm1 != stab:
            continue
        d = autc_group(Gamma).to_json_dict()
        assert d["verdict"] == "CCA" and "witness_permutation" not in d
        assert d["stabiliser_order"] == d["aut_pm1_order"] == stab
        assert d["full_group_order"] == Gamma.n * stab
        checked += 1
        nontrivial += stab > 1
    assert checked > 20 and nontrivial > 10, (checked, nontrivial)


def _is_automorphism(G, b):
    return all(b[G.imul(g, h)] == G.imul(b[g], b[h])
               for g in range(G.order) for h in range(G.order))


def test_search_order_matches_reference(monkeypatch):
    # the search starts at the identity leaf and walks back up its path;
    # a plain descent from the root must give the same list in the same
    # order, hence the same witness and the same cap behaviour
    rng = random.Random(53)
    pool = group_pool(48)
    graphs = [random_connected_cayley(rng, pool) for _ in range(40)]
    named = canonical_sets()
    graphs += [ColouredCayleyGraph(*named[k])
               for k in ("S21", "S42_1", "S42_2")]
    capped = 0
    for Gamma in graphs:
        stab = reference_stabiliser(Gamma)
        assert autc_stabiliser(Gamma) == stab, Gamma.conn
        G = Gamma.group
        witness = next((b for b in stab if not _is_automorphism(G, b)), None)
        assert autc_group(Gamma).witness == witness, Gamma.conn
        if len(stab) > 1:
            monkeypatch.setattr("cca.engine.STABILISER_CAP", len(stab) - 1)
            with pytest.raises(StabiliserTooLarge):
                autc_stabiliser(Gamma)
            monkeypatch.setattr("cca.engine.STABILISER_CAP", len(stab))
            assert autc_stabiliser(Gamma) == stab
            monkeypatch.undo()
            capped += 1
    assert capped >= 10
    assert autc_group(graphs[-1]).verdict == "NonCCA"


def test_membership_matches_full_group():
    # p in res tests that p is a colour-preserving permutation of the
    # vertices; the closed group answers by lookup.  Every element of Aut_c
    # is asked, and each composed with a random transposition, which is
    # mostly not one
    rng = random.Random(59)
    pool = group_pool(48)
    graphs = [random_connected_cayley(rng, pool) for _ in range(20)]
    named = canonical_sets()
    graphs += [ColouredCayleyGraph(*named[k])
               for k in ("S21", "S42_1", "S42_2")]
    graphs.append(line_graph_construction(*_knn_q8_inputs())[0])
    assert graphs[-1].n == 64
    members = outside = 0
    for Gamma in graphs:
        res = autc_group(Gamma)
        A = res.full_group
        n = Gamma.n
        for p in A.elements:
            assert p in res
            i, j = rng.sample(range(n), 2)
            t = list(range(n))
            t[i], t[j] = j, i
            q = pmul(p, tuple(t))
            assert (q in res) == (q in A.index), Gamma.conn
            members += 1
            outside += q not in A.index
        assert identity(n + 1) not in res
    assert members > 5000 and outside > 1000


def test_aut_pm1_z8():
    G = builders.cyclic(8)
    pm1 = aut_pm1_group(G, [1, 7])
    assert pm1.order == 2
    pm1_full = aut_pm1_group(G, [1, 7, 2, 6])
    assert pm1_full.order == 2
    pm3 = aut_pm1_group(G, [2, 6, 1, 7, 3, 5])
    assert pm3.order == 2


def test_aut_pm1_elementary_abelian():
    # involutions satisfy s = s^-1, so every listed element must be fixed
    G = builders.build_spec("z2^2")
    assert aut_pm1_group(G, [1, 2, 3]).order == 1
    assert aut_pm1_group(G, [1, 2]).order == 1


def test_aut_pm1_matches_reference():
    # the pruned generator-image search keeps the maps that trying every
    # choice s -> s^{+-1} keeps, in the same order, so the closure gives the
    # same elements and generators
    rng = random.Random(41)
    pool = group_pool(32)
    for G in pool:
        units = colour_units(G, range(1, G.order))
        sets = [list(range(1, G.order))]
        while len(sets) < 4:
            conn = sorted(s for u in units if rng.random() < 0.5 for s in u)
            if conn and close_generators([G.elements[s] for s in conn],
                                         G.degree, cap=G.order + 1).order \
                    == G.order:
                sets.append(conn)
        for S in sets:
            got = aut_pm1_group(G, S)
            ref = reference_aut_pm1(G, S)
            assert got.elements == ref.elements, S
            assert got.generators == ref.generators, S


def test_aut_pm1_closes_no_subgroup(monkeypatch):
    # aut_pm1_group's images are s or s^-1, which generate the subgroup the
    # generators do, so the search closes no subgroup to prune by order;
    # automorphisms, with images of every same order, still does
    rng = random.Random(43)
    cases = []
    for G in group_pool(32):
        units = colour_units(G, range(1, G.order))
        cases.append((G, list(range(1, G.order))))
        while len(cases) % 3:
            conn = sorted(s for u in units if rng.random() < 0.5 for s in u)
            if conn and close_generators([G.elements[s] for s in conn],
                                         G.degree, cap=G.order + 1).order \
                    == G.order:
                cases.append((G, conn))
    F = builders.f21()
    calls = []
    subgroup = FiniteGroup.subgroup

    def counted(self, *args, **kwargs):
        calls.append(self.order)
        return subgroup(self, *args, **kwargs)

    monkeypatch.setattr(FiniteGroup, "subgroup", counted)
    for G, S in cases:
        aut_pm1_group(G, S)
    assert calls == []
    automorphisms(F)
    assert calls


def test_fast_verdict_matches_engine():
    rng = random.Random(5)
    pool = group_pool(24)
    for _ in range(30):
        Gamma = random_connected_cayley(rng, pool)
        assert fast_cca_verdict(Gamma) == autc_group(Gamma).verdict


def test_prediction_z6():
    pred = predicted_autc_complete(builders.cyclic(6))
    assert pred.case == "1" and pred.predicted_order == 12


def test_prediction_q8():
    pred = predicted_autc_complete(builders.quaternion8())
    assert pred.case == "3" and pred.predicted_order == 64
    Gamma = complete_cayley(builders.quaternion8())
    res = autc_group(Gamma)
    assert len(autc_stabiliser(Gamma)) == 8
    assert res.full_group.order == 64


def test_prediction_elementary_abelian_is_cca():
    pred = predicted_autc_complete(builders.build_spec("z2^2"))
    assert pred.case == "CCA"


def test_prediction_dicyclic():
    G = builders.generalized_dicyclic(builders.cyclic(6))
    pred = predicted_autc_complete(G)
    assert pred.case == "2" and pred.predicted_order == 24


def test_prediction_plain_nonabelian_is_cca():
    pred = predicted_autc_complete(builders.symmetric(3))
    assert pred.case == "CCA"
    res = autc_group(complete_cayley(builders.symmetric(3)))
    assert res.verdict == "CCA"
    assert res.full_group.order == pred.predicted_order


def _coset_partition(G, N):
    nset = set(N.elements)
    coset_of = {}
    cosets = []
    for i, e in enumerate(G.elements):
        if i in coset_of:
            continue
        from cca.perms import pmul
        coset = sorted(G.index[pmul(x, e)] for x in nset)
        ci = len(cosets)
        cosets.append(coset)
        for j in coset:
            coset_of[j] = ci
    return coset_of, cosets


def test_quotient_action_stays_colour_preserving():
    # a normal subgroup of the base group whose regular copy is normal in
    # the full colour group induces a colour-preserving action downstairs
    Z12 = builders.cyclic(12)
    Gamma = ColouredCayleyGraph(Z12, [1, 11])
    res = autc_group(Gamma)
    N = Z12.subgroup([Z12.elements[3]])        # order 4
    Q = quotient_graph(Gamma, N)
    coset_of, cosets = _coset_partition(Z12, N)
    N_R = close_generators([Z12.right_row(3)], 12, cap=5)
    assert is_normal(N_R, res.full_group)
    for a in res.full_group.elements:
        img = [-1] * len(cosets)
        for v in range(12):
            c, ic = coset_of[v], coset_of[a[v]]
            assert img[c] in (-1, ic)          # blocks map to blocks
            img[c] = ic
        assert is_colour_preserving(Q, tuple(img))


def test_two_kernel_acts_semiregularly_without_order_four_colours():
    # with no connection element of order divisible by 4, the kernel of the
    # action on the orbits of a normal 2-subgroup has trivial stabilisers
    for spec, conn_labels in (("z6", ["1", "5", "3"]),
                              ("d3", ["s", "r*s", "r^2*s"])):
        G = builders.build_spec(spec)
        conn = [G.label_index(l) for l in conn_labels]
        assert all(G.element_orders[s] % 4 != 0 for s in conn)
        Gamma = ColouredCayleyGraph(G, conn)
        res = autc_group(Gamma)
        for N in normal_subgroups(res.full_group):
            if N.order == 1 or N.order & (N.order - 1):
                continue
            orbit_of = {}
            for v in range(Gamma.n):
                orbit = frozenset(p[v] for p in N.elements)
                orbit_of[v] = orbit
            kernel = [a for a in res.full_group.elements
                      if all(orbit_of[a[v]] == orbit_of[v]
                             for v in range(Gamma.n))]
            for a in kernel:
                if a[0] == 0:
                    assert a == identity(Gamma.n)


def _assert_matches_reference(Gamma):
    res = autc_group(Gamma)
    ref = reference_autc(Gamma)
    assert res.verdict == ref.verdict
    assert res.witness == ref.witness
    assert autc_stabiliser(Gamma) == ref.stabiliser
    assert set(res.aut_pm1.elements) == set(ref.aut_pm1.elements)
    assert res.autc_order == ref.full_group.order
    assert res.full_group.order == ref.full_group.order
    assert set(res.full_group.elements) == set(ref.full_group.elements)


def _random_oracle_graphs():
    rng = random.Random(23)
    pool = group_pool(20)
    return [random_connected_cayley(rng, pool) for _ in range(20)]


def test_verdict_routes_cross_validate():
    for Gamma in _random_oracle_graphs():
        _assert_matches_reference(Gamma)


def _sparse_cayley(rng, G, most=4):
    """A connected Cayley graph on at most `most` colours; few colours give
    the large stabilisers and the NonCCA verdicts."""
    units = colour_units(G, range(1, G.order))
    while True:
        conn = sorted(s for u in rng.sample(units, rng.randint(1, most))
                      for s in u)
        gens = [G.elements[s] for s in conn]
        if close_generators(gens, G.degree, cap=G.order + 1).order == G.order:
            return ColouredCayleyGraph(G, conn)


def _sparse_oracle_graphs():
    rng = random.Random(31)
    graphs = []
    for spec in ("f21", "agl17", "f21xz2", "q8xz2^1", "psl27"):
        G = builders.build_spec(spec)
        graphs += [_sparse_cayley(rng, G) for _ in range(6)]
    named = canonical_sets()
    return graphs + [ColouredCayleyGraph(*named[name])
                     for name in ("S21", "S42_1", "S42_2")]


def test_autc_group_matches_reference_oracle():
    for Gamma in _sparse_oracle_graphs():
        _assert_matches_reference(Gamma)


def test_full_group_closes_from_strong_generators(monkeypatch):
    # full_group is one closure, from the generators of G_R and the
    # search's strong generators, with no listing of A_1 before it, and it
    # is the group the closure route builds from all of A_1, on the graphs
    # compared above
    graphs = _random_oracle_graphs() + _sparse_oracle_graphs()
    refs = [reference_autc(Gamma).full_group for Gamma in graphs]
    closures = []

    def counted(gens, degree, cap):
        closures.append(len(gens))
        return close_generators(gens, degree, cap=cap)

    monkeypatch.setattr("cca.engine.close_generators", counted)
    for Gamma, ref in zip(graphs, refs):
        closures.clear()
        res = autc_group(Gamma)
        assert set(res.full_group.elements) == set(ref.elements), Gamma.conn
        gens = len(Gamma.group.right_regular.generators) + len(res._levels)
        assert closures == [gens], Gamma.conn


def test_stabiliser_matches_vf2_oracle():
    # the search checks no element it finds; VF2 finds the same set
    rng = random.Random(37)
    for spec in ("f21", "agl17", "f21xz2", "q8xz2^1", "dic(z6)", "d8"):
        G = builders.build_spec(spec)
        for _ in range(2):
            Gamma = _sparse_cayley(rng, G)
            assert sorted(autc_stabiliser(Gamma)) == vf2_stabiliser(Gamma)


def test_stabiliser_order_is_power_of_two():
    # each BFS level at most doubles A_1, on the sets VF2 checks above
    rng = random.Random(37)
    for spec in ("f21", "agl17", "f21xz2", "q8xz2^1", "dic(z6)", "d8"):
        G = builders.build_spec(spec)
        for _ in range(2):
            Gamma = _sparse_cayley(rng, G)
            size = len(autc_stabiliser(Gamma))
            assert is_power_of_two(size)
            assert size == len(vf2_stabiliser(Gamma))
