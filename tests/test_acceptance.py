"""End-to-end acceptance gate: classification sweep, exhaustive enumerations,
named examples, structure decomposition, converse assembly and the
property suites, each with its runtime budget."""

import itertools
import random
import time

import pytest
from sympy.combinatorics import Permutation, PermutationGroup

from cca import builders, recipes
from cca.engine import autc_group, autc_stabiliser, fast_cca_verdict
from cca.graphs import ColouredCayleyGraph, colour_units, is_connected
from cca.groups import are_conjugate_subsets, close_generators
from cca.structure import (_mask_conn, canonical_sets,
                           enumerate_connection_sets, reduction_gamma_prime)

from conftest import (assert_decomposition_matches_reference,
                      brute_force_stabiliser, generating_connection_sets,
                      group_pool, is_power_of_two, random_connected_cayley,
                      reference_autc, stabiliser_shape_allowed,
                      subset_class_count, vf2_stabiliser)


@pytest.fixture(scope="module")
def f21_enumeration():
    return enumerate_connection_sets("f21")


def test_complete_graph_classification_sweep():
    t0 = time.monotonic()
    out = recipes.thm45_sweep()
    assert out["all_match"] is True
    assert len(out["groups"]) >= 70
    cases = {row["case"] for row in out["groups"]}
    assert cases == {"1", "2", "3", "CCA"}
    assert time.monotonic() - t0 < 120


def test_f21_exhaustive_classification(f21_enumeration):
    t0 = time.monotonic()
    rep = f21_enumeration
    assert rep.scanned == 1024
    assert len(rep.non_cca_classes) == 1
    cls = rep.non_cca_classes[0]
    assert cls["orbit_size"] == 21
    G, S21 = canonical_sets()["S21"]
    assert are_conjugate_subsets(
        builders.agl17(),
        [G.elements[s] for s in cls["representative_indices"]],
        [G.elements[s] for s in S21])
    assert time.monotonic() - t0 < 60


def test_f21xz2_classification_eleven_classes():
    t0 = time.monotonic()
    rep = enumerate_connection_sets("f21xz2", mode="canonical-pruned")
    assert len(rep.non_cca_classes) == 11
    G, sup = canonical_sets()["f21xz2_superset"]
    amb = builders.agl17xz2()
    assert rep.class_count == subset_class_count(G, amb) == 55680
    sup_units = colour_units(G, sup)
    assert len(sup_units) == 5
    for cls in rep.non_cca_classes:
        assert cls["autc_order"] == 336
        rep_perms = [G.elements[s] for s in cls["representative_indices"]]
        hit = False
        for r in range(1, 6):
            for combo in itertools.combinations(sup_units, r):
                sub = [G.elements[s] for u in combo for s in u]
                if len(sub) == len(rep_perms) and \
                        are_conjugate_subsets(amb, rep_perms, sub):
                    hit = True
                    break
            if hit:
                break
        assert hit, cls["representative"]
        assert_decomposition_matches_reference(
            ColouredCayleyGraph(G, cls["representative_indices"]))
    assert time.monotonic() - t0 < 600


def test_autc_order_by_schreier_sims(f21_enumeration):
    # |Aut_c| and the normality of G_R on the named sets and on every NonCCA
    # class of F21, AGL(1,7) and F21 x Z2, by a route that shares no code
    # with the engine: A_1 from VF2, and the group G_R and A_1 generate
    # closed by sympy's Schreier-Sims.  That group is all of Aut_c, since G_R is
    # transitive and A_1 is the whole stabiliser of the identity.
    t0 = time.monotonic()
    named = canonical_sets()
    graphs = [ColouredCayleyGraph(*named[name])
              for name in ("S21", "S42_1", "S42_2")]
    for G, rep in ((builders.f21(), f21_enumeration),
                   (builders.agl17(), enumerate_connection_sets("agl17")),
                   (builders.f21xz2(), enumerate_connection_sets("f21xz2"))):
        graphs += [ColouredCayleyGraph(G, cls["representative_indices"])
                   for cls in rep.non_cca_classes]
    assert len(graphs) == 17
    for Gamma in graphs:
        G = Gamma.group
        G_R = PermutationGroup([Permutation([G.table[x][g]
                                             for x in range(G.order)])
                                for g in range(G.order)])
        full = PermutationGroup(G_R.generators + [
            Permutation(list(p)) for p in vf2_stabiliser(Gamma)])
        assert full.order() == autc_group(Gamma).autc_order
        assert not G_R.is_normal(full)
    assert time.monotonic() - t0 < 30


def test_agl17_named_sets_and_random_consistency():
    t0 = time.monotonic()
    cs = canonical_sets()
    for name in ("S42_1", "S42_2"):
        G, S = cs[name]
        res = autc_group(ColouredCayleyGraph(G, S))
        assert res.verdict == "NonCCA"
        assert res.full_group.order == 336
    G = builders.agl17()
    units = colour_units(G, range(1, G.order))
    rng = random.Random(42)
    compared = 0
    for _ in range(10_000):
        mask = rng.randrange(1, 1 << len(units))
        conn = _mask_conn(mask, units)
        Gamma = ColouredCayleyGraph(G, conn)
        if not is_connected(Gamma):
            continue
        fast = fast_cca_verdict(Gamma)
        ref = reference_autc(Gamma)
        assert fast == ref.verdict, conn
        # reference_autc takes A_1 from a plain descent that shares no code
        # with the engine; for the first 500 sets, VF2 checks it as well
        if compared < 500:
            assert sorted(ref.stabiliser) == vf2_stabiliser(Gamma), conn
        compared += 1
    assert compared > 9000
    assert time.monotonic() - t0 < 480


def test_agl17_exhaustive_classification_slow():
    t0 = time.monotonic()
    rep = enumerate_connection_sets("agl17", mode="canonical-pruned")
    assert len(rep.non_cca_classes) == 2
    G = builders.agl17()
    assert rep.class_count == subset_class_count(G, G) == 405312
    assert rep.engine_runs == 129
    cs = canonical_sets()
    found = []
    for cls in rep.non_cca_classes:
        rep_perms = [G.elements[s] for s in cls["representative_indices"]]
        for name in ("S42_1", "S42_2"):
            _, S = cs[name]
            if are_conjugate_subsets(G, rep_perms,
                                     [G.elements[s] for s in S]):
                found.append(name)
        assert_decomposition_matches_reference(
            ColouredCayleyGraph(G, cls["representative_indices"]))
    assert sorted(found) == ["S42_1", "S42_2"]
    assert time.monotonic() - t0 < 3600


def test_reproduce_line_graph_example():
    t0 = time.monotonic()
    out = recipes.reproduce("f21-heawood")
    assert out["vertices"] == 21
    assert out["verdict"] == "NonCCA"
    assert out["autc_order"] == 168
    assert out["embedded_in_autc"] is True
    assert time.monotonic() - t0 < 30


def test_reproduce_subdivision_example():
    t0 = time.monotonic()
    out = recipes.reproduce("agl17-subdivision")
    assert out["vertices"] == 42
    assert out["verdict"] == "NonCCA"
    assert out["autc_order"] % 336 == 0
    assert time.monotonic() - t0 < 30


def test_reproduce_bipartite_complete_example():
    t0 = time.monotonic()
    out = recipes.reproduce("knn-q8")
    assert out["vertices"] == 64
    assert out["verdict"] == "NonCCA"
    assert time.monotonic() - t0 < 30


def test_structure_decomposition_on_found_graphs(f21_enumeration):
    t0 = time.monotonic()
    graphs = []
    G21 = builders.f21()
    cls = f21_enumeration.non_cca_classes[0]
    graphs.append(ColouredCayleyGraph(G21, cls["representative_indices"]))
    for G, S in canonical_sets().values():
        graphs.append(ColouredCayleyGraph(G, S))
    from cca.constructions import subdivision_construction
    from cca.recipes import _heawood_groups
    P, full, _, _, G42 = _heawood_groups()
    graphs.append(subdivision_construction(P, G42, full)[0])
    for Gamma in graphs:
        dec = assert_decomposition_matches_reference(Gamma)
        assert list(dec.properties.values()) == [True] * 6
        red = reduction_gamma_prime(Gamma, dec)
        assert all(red.checks.values())
    assert time.monotonic() - t0 < 60


def test_converse_assembly_roundtrip():
    t0 = time.monotonic()
    out = recipes.reproduce("prop53-roundtrip")
    assert out["order"] == 210
    assert out["verdict"] == "NonCCA"
    assert time.monotonic() - t0 < 300


def test_property_suite_random_stabilisers():
    t0 = time.monotonic()
    rng = random.Random(2024)
    pool = group_pool(48)
    for _ in range(200):
        Gamma = random_connected_cayley(rng, pool)
        stab = autc_stabiliser(Gamma)
        assert is_power_of_two(len(stab))
        assert stabiliser_shape_allowed(stab, Gamma.n)
    assert time.monotonic() - t0 < 420


def test_property_suite_brute_force_oracle():
    t0 = time.monotonic()
    small = [builders.cyclic(k) for k in (2, 3, 4, 5, 6, 7, 8)]
    small += [builders.build_spec("z2^2"), builders.build_spec("z2^3"),
              builders.build_spec("prod(z4;z2)"),
              builders.dihedral(3), builders.dihedral(4),
              builders.quaternion8()]
    for G in small:
        for conn in generating_connection_sets(G):
            Gamma = ColouredCayleyGraph(G, conn)
            stab = sorted(autc_stabiliser(Gamma))
            assert stab == brute_force_stabiliser(Gamma)
            assert is_power_of_two(len(stab))
            assert stabiliser_shape_allowed(stab, G.order)
    assert time.monotonic() - t0 < 420


def test_property_suite_wreath_witnesses():
    from cca.constructions import wreath_witness
    from cca.engine import is_colour_preserving
    from cca.groups import trivial_group
    from cca.recipes import _dihedral_coset_tau

    t0 = time.monotonic()
    Z2 = builders.cyclic(2)
    combos = []
    for spec in ("z3", "z4", "z5", "z6", "z7", "z8", "z9", "z10", "z12",
                 "prod(z3;z3)", "prod(z4;z2)", "prod(z6;z2)"):
        G = builders.build_spec(spec)
        gens = {G.index[g] for g in G.generators}
        conn = sorted(gens | {G.inverse[i] for i in gens})
        combos.append((G, conn, builders.named_map(G, "inversion"), Z2))
    # inversion on a quaternion-type group preserves colours but is not a
    # homomorphism, so it supports a trivial top group
    Q = builders.quaternion8()
    for labels in (("i", "-i", "j", "-j"),
                   ("i", "-i", "j", "-j", "k", "-k"),
                   ("i", "-i", "j", "-j", "-1")):
        qconn = [Q.label_index(l) for l in labels]
        combos.append((Q, qconn, builders.named_map(Q, "inversion"),
                       trivial_group(1)))
    combos.append((Q, [Q.label_index(l) for l in ("i", "-i", "j", "-j")],
                   builders.named_map(Q, "inversion"), Z2))
    Q2 = builders.q8_times_z2(1)
    q2gens = {Q2.index[g] for g in Q2.generators}
    q2conn = sorted(q2gens | {Q2.inverse[i] for i in q2gens})
    combos.append((Q2, q2conn, builders.named_map(Q2, "inversion"),
                   trivial_group(1)))
    # iota on a generalised dicyclic group and the reflection-coset map on a
    # dihedral group are automorphisms, so both need a nontrivial top group
    dic = builders.generalized_dicyclic(builders.cyclic(6))
    dconn = [i for i, o in enumerate(dic.element_orders) if o == 4]
    combos.append((dic, dconn, builders.named_map(dic, "iota-dicyclic"), Z2))
    for k in (3, 5, 7, 9):
        D = builders.dihedral(k)
        tau, S = _dihedral_coset_tau(D)
        combos.append((D, S, tau, Z2))

    assert len(combos) >= 20
    for G, S, tau, H in combos:
        W = wreath_witness(G, S, tau, H)
        # invariant 1: the connection set is inverse-closed and generating
        X = W.X
        assert all(X.inverse[s] in W.T_conn for s in W.T_conn)
        assert close_generators([X.elements[s] for s in W.T_conn],
                                X.degree, cap=X.order + 1).order == X.order
        # invariant 2: tau' fixes the identity and preserves colours
        assert W.tau_prime[0] == 0
        assert is_colour_preserving(W.graph, W.tau_prime)
        # invariant 3: tau' is not multiplicative at the recorded pair
        a, b = W.non_hom_pair
        assert W.tau_prime[X.imul(a, b)] != \
            X.imul(W.tau_prime[a], W.tau_prime[b])
    assert time.monotonic() - t0 < 420
