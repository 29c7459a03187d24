import sys
import time

import pytest

from cca import builders
from cca.errors import BoundExceeded, IncompatibleGroup, InvalidSpec
from cca.groups import are_isomorphic, is_normal, is_subgroup, trivial_group
from cca.perms import pmul, porder, ppow

from conftest import group_pool, reference_direct_product, reference_from_table


def test_cyclic():
    G = builders.cyclic(6)
    assert G.order == 6 and G.is_cyclic()
    assert G.label(1) == "1" and G.label_index("5") == 5


def test_cyclic_elements_are_shift_powers():
    # the elements are built by slicing; they must be the powers of the
    # shift x -> x + 1, in order
    for n in list(range(1, 65)) + [997]:
        shift = tuple((i + 1) % n for i in range(n))
        G = builders.cyclic(n)
        assert G.elements == [ppow(shift, k) for k in range(n)], n
        assert G.generators == ([shift] if n > 1 else [])


def test_symmetric_and_dihedral():
    assert builders.symmetric(4).order == 24
    D = builders.dihedral(5)
    assert D.order == 10
    assert sorted(set(D.element_orders)) == [1, 2, 5]
    assert D.label_index("r*s") >= 0


def test_quaternion8():
    Q = builders.quaternion8()
    assert Q.order == 8
    assert Q.element_orders.count(2) == 1      # unique involution -1
    assert Q.label_index("-1") == Q.imul(Q.label_index("i"), Q.label_index("i"))


def test_direct_product():
    P = builders.direct_product(builders.cyclic(2), builders.cyclic(3))
    assert P.order == 6 and P.is_cyclic()
    i = P.meta["tuple_index"][(1, 2)]
    assert P.label(i) == "(1,2)"


def test_direct_product_matches_reference():
    # the shifted-block concatenation gives the per-element construction's
    # elements, generators, labels and meta: on pairs of pool groups, with
    # one-point cyclic(1) factors (where itemgetter of one point would
    # return a bare value), and on a triple
    pool = group_pool(12)
    Z1 = builders.cyclic(1)
    cases = [(A, B) for A in pool for B in pool[::3]]
    cases += [(Z1, Z1), (Z1, pool[3]), (pool[3], Z1), (Z1, Z1, Z1),
              (builders.cyclic(2), builders.symmetric(3), builders.cyclic(4))]
    for factors in cases:
        P = builders.direct_product(*factors)
        ref = reference_direct_product(*factors)
        assert P.elements == ref.elements
        assert P.generators == ref.generators
        assert P.labels == ref.labels
        assert P.meta == ref.meta
    assert builders.direct_product(Z1, Z1).elements == [(0, 1)]


def test_generalized_dihedral():
    G = builders.generalized_dihedral(builders.cyclic(5))
    assert are_isomorphic(G, builders.dihedral(5))
    with pytest.raises(InvalidSpec):
        builders.generalized_dihedral(builders.build_spec("z2^2"))


def test_generalized_dicyclic():
    G = builders.generalized_dicyclic(builders.cyclic(4))
    assert G.order == 8
    assert are_isomorphic(G, builders.quaternion8())
    G12 = builders.generalized_dicyclic(builders.cyclic(6))
    assert G12.order == 12 and G12.element_orders.count(2) == 1
    with pytest.raises(InvalidSpec):
        builders.generalized_dicyclic(builders.cyclic(5))


def test_table_builds_multiply_no_permutations(monkeypatch):
    # a semidirect or dicyclic build takes n products in A per generator;
    # each one is read from A's base images, so no product permutation is
    # built
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return pmul(a, b)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cca" and getattr(module, "pmul", None) is pmul:
            monkeypatch.setattr(module, "pmul", counted)
    D = builders.build_spec("dih(z100)")
    Q = builders.build_spec("dic(z12)")
    assert (D.order, Q.order) == (200, 24)
    assert calls == []


def _assert_same_build(G, R):
    assert G.elements == R.elements
    assert G.generators == R.generators
    assert G.labels == R.labels
    assert G.meta.keys() == R.meta.keys()
    for key, value in G.meta.items():
        if key == "factor_groups":
            assert len(value) == len(R.meta[key])
            for F, RF in zip(value, R.meta[key]):
                _assert_same_build(F, RF)
        else:
            assert value == R.meta[key], key


def test_table_builds_match_whole_table_reference(monkeypatch):
    # _from_table multiplies the generator rows only and lists the elements
    # by a search along them; the whole table with its closure check gives
    # the same elements in the same order, generators, labels and meta: on
    # catalog(32), the table-built check-mix specs, the wreath products of
    # the wreath-demo recipe, d500, and one- and two-point groups (where
    # itemgetter of one point would return a bare value)
    specs = ["d5", "d8", "d21", "q8", "dic(z6)", "dih(prod(z3;z3))",
             "prod(z3;s3)", "wreath(z3;z2@2)", "d500", "d1", "d2",
             "wreath(z1;z1@1)"]

    def build_all():
        Z2 = builders.cyclic(2)
        return ([G for _, G in builders.catalog(32)]
                + [builders.build_spec(spec) for spec in specs]
                + [builders.wreath_product(builders.cyclic(3), Z2),
                   builders.wreath_product(builders.dihedral(3), Z2),
                   builders.wreath_product(builders.quaternion8(),
                                           trivial_group(1))])

    built = build_all()
    monkeypatch.setattr(builders, "_from_table", reference_from_table)
    reference = build_all()
    assert len(built) == len(reference)
    for G, R in zip(built, reference):
        _assert_same_build(G, R)
    assert [G.order for G in built[-6:]] == [2, 4, 1, 18, 72, 8]


def test_table_builds_refuse_rules_that_are_no_group():
    # the rotation alone spans half of d5; Z2 acting on Z4 by swapping the
    # elements 1 and 2, no automorphism; and max on {0, 1}, a monoid whose
    # row x -> max(x, 1) is no permutation
    def dihedral_mult(u, v):
        (a, e), (b, f) = u, v
        return ((a + (b if e == 0 else -b)) % 5, e ^ f)

    items = [(a, e) for e in (0, 1) for a in range(5)]
    with pytest.raises(RuntimeError, match="do not generate"):
        builders._from_table(items, dihedral_mult, (0, 0), [(1, 0)], str)
    with pytest.raises(RuntimeError, match="do not generate"):
        builders.semidirect_product(builders.cyclic(4), builders.cyclic(2),
                                    [list(range(4)), [0, 2, 1, 3]])
    with pytest.raises(RuntimeError, match="do not generate"):
        builders._from_table([0, 1], max, 0, [1], str)


def test_wreath_product():
    X = builders.wreath_product(builders.cyclic(3), builders.cyclic(2))
    assert X.order == 3 * 3 * 2
    assert not X.is_abelian()


def test_projective_family_orders_and_containment():
    pgl, psl = builders.pgl27(), builders.psl27()
    agl, f = builders.agl17(), builders.f21()
    assert (pgl.order, psl.order, agl.order, f.order) == (336, 168, 42, 21)
    assert is_subgroup(psl, pgl) and is_normal(psl, pgl)
    assert is_subgroup(f, psl) and is_subgroup(f, agl)
    assert is_subgroup(agl, pgl) and not is_subgroup(agl, psl)


def test_projective_labels():
    ag = builders.agl17()
    x = ag.meta["x"]
    y = ag.meta["y"]
    assert porder(x) == 7 and porder(y) == 6
    assert ag.label(ag.index[pmul(x, y)]) == "x*y"
    f = builders.f21()
    assert sorted(set(porder(p) for p in f.elements)) == [1, 3, 7]


def test_f21xz2():
    G = builders.f21xz2()
    assert G.order == 42
    assert "r" in G.labels
    assert G.element_orders[G.label_index("r")] == 2


def test_named_maps():
    Z6 = builders.cyclic(6)
    inv = builders.named_map(Z6, "inversion")
    assert inv == tuple(Z6.inverse)
    Q = builders.q8_times_z2(0)
    sig = builders.named_map(Q, "sigma-i")
    i_idx, j_idx = Q.label_index("i"), Q.label_index("j")
    assert sig[i_idx] == Q.inverse[i_idx] and sig[j_idx] == j_idx
    dic = builders.generalized_dicyclic(builders.cyclic(4))
    iota = builders.named_map(dic, "iota-dicyclic")
    coset = dic.meta["dic_coset"]
    for g in range(8):
        assert iota[g] == (dic.inverse[g] if coset[g] else g)
    with pytest.raises(IncompatibleGroup):
        builders.named_map(Z6, "sigma-i")
    with pytest.raises(IncompatibleGroup):
        builders.named_map(Z6, "no-such-map")
    # each named map is a tuple on element indices that fixes the identity
    assert all(type(m) is tuple and m[0] == 0 for m in (inv, sig, iota))


def test_build_spec_grammar():
    cases = {
        "z12": 12, "z2^3": 8, "d6": 12, "s4": 24, "q8": 8, "q8xz2^1": 16,
        "f21": 21, "agl17": 42, "psl27": 168, "pgl27": 336, "f21xz2": 42,
        "prod(z2;z3)": 6, "dih(z5)": 10, "dic(z4)": 8,
        "dic(z6;y=3)": 12, "wreath(z3;z2@2)": 18,
        "z2^0": 1, "z2^1": 2, "z1": 1, "q8xz2^0": 8,
    }
    for spec, order in cases.items():
        assert builders.build_spec(spec).order == order, spec
        assert builders.parse_spec(spec)[0] == order, spec
    for bad in ("zz", "dic(z5)", "wreath(z3;z2@3)", "prod()", "dic(z4;3)",
                "prod(z2;)"):
        with pytest.raises(InvalidSpec):
            builders.build_spec(bad)


def test_build_spec_changes_no_group_another_spec_returned():
    # prod of one spec copies its factor, so naming the product leaves the
    # cached named group, and every later build of it, with its own spec;
    # the trivial and symmetric groups carry their spec too
    for spec in ("f21", "agl17", "psl27", "pgl27", "f21xz2"):
        G = builders.build_spec(spec)
        P = builders.build_spec(f"prod({spec})")
        assert P is not G and P.meta["spec"] == f"prod({spec})"
        assert (P.elements, P.generators, P.labels) == \
            (G.elements, G.generators, G.labels)
        assert builders.build_spec(spec) is G
        assert G.meta["spec"] == spec, spec
    for spec in ("z1", "s1", "s3", "z2^0", "z2^1", "prod(z5)"):
        assert builders.build_spec(spec).meta["spec"] == spec


def test_build_spec_refuses_orders_over_the_cap():
    # the order is known before any element is built, so each refusal is
    # immediate; 2^14 and 101^2 pass the cap of 10000 by little, a rank far
    # beyond it costs no more, and no factor of a refused spec is built
    for spec in ("z10001", "d5001", "z2^14", "prod(z101;z101)",
                 "q8xz2^11", "z2^99999999999", "wreath(z5;s4@4)",
                 "dih(z5001)", "dic(z5002)", "prod(z9999;z2)"):
        t0 = time.monotonic()
        with pytest.raises(BoundExceeded):
            builders.build_spec(spec)
        assert time.monotonic() - t0 < 1, spec
    assert builders.build_spec("z2^13").order == 8192


def test_catalog():
    cat = builders.catalog(32)
    names = [name for name, _ in cat]
    assert "q8xz2^2" in names and "dic(z8)" in names and "d16" in names
    for name, G in cat:
        assert 2 <= G.order <= 32, name
    abelian = [n for n, G in cat if G.is_abelian()]
    assert "z32" in abelian and "z2xz2xz2xz2xz2" in abelian
