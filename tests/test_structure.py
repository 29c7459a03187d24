import pytest

from cca import builders
from cca.engine import autc_group
from cca.errors import (DecompositionNotFound, HypothesesNotMet,
                        HypothesisViolated)
from cca.graphs import ColouredCayleyGraph
from cca.groups import are_isomorphic, is_normal
from cca.structure import (canonical_sets, converse_build,
                           decompose_structure, reduction_gamma_prime)


def test_canonical_sets_shapes():
    cs = canonical_sets()
    f, s21 = cs["S21"]
    assert f.order == 21 and len(s21) == 4
    assert sorted(f.element_orders[s] for s in s21) == [3, 3, 3, 3]
    ag, s42_1 = cs["S42_1"]
    assert ag.order == 42 and len(s42_1) == 3
    assert sorted(ag.element_orders[s] for s in s42_1) == [2, 3, 3]
    _, s42_2 = cs["S42_2"]
    assert len(s42_2) == 5
    fz, sup = cs["f21xz2_superset"]
    assert fz.order == 42 and len(sup) == 9
    # inverse-closed: four pairs plus one involution
    assert sorted(sup) == sorted({fz.inverse[s] for s in sup})
    assert sum(1 for s in sup if fz.inverse[s] == s) == 1


def test_canonical_sets_are_connected_non_cca():
    cs = canonical_sets()
    for name in ("S21", "S42_1", "S42_2"):
        G, S = cs[name]
        res = autc_group(ColouredCayleyGraph(G, S))
        assert res.verdict == "NonCCA", name


def test_decompose_f21():
    G, S = canonical_sets()["S21"]
    Gamma = ColouredCayleyGraph(G, S)
    res = autc_group(Gamma)
    dec = decompose_structure(Gamma, res)
    assert dec.T.order == 168 and are_isomorphic(dec.T, builders.psl27())
    assert dec.J.order == 1
    assert dec.F.order == 21 and dec.H.order == 1 and dec.R.order == 1
    assert all(dec.properties.values())
    assert is_normal(dec.T, dec.A)
    fset, hset, rset, hr = dec.element_sets()
    assert fset == set(range(21))
    assert hset == rset == hr == {0}


def test_decompose_without_psl27_copy_fails():
    G, S = canonical_sets()["S21"]
    Gamma = ColouredCayleyGraph(G, S)
    res = autc_group(Gamma)
    # a NonCCA result whose A is only the regular copy of F21: its elements
    # of order 7 close to Z7, not to a copy of PSL(2,7)
    res.full_group = G.right_regular
    with pytest.raises(DecompositionNotFound, match="PSL"):
        decompose_structure(Gamma, res)


def test_decompose_agl17_sets():
    cs = canonical_sets()
    for name in ("S42_1", "S42_2"):
        G, S = cs[name]
        Gamma = ColouredCayleyGraph(G, S)
        res = autc_group(Gamma)
        dec = decompose_structure(Gamma, res)
        assert all(dec.properties.values()), name
        assert dec.A.order == 336 and dec.T.order == 168
        assert dec.F.order == 21 and dec.R.order == 2
        assert G.element_orders[dec.r] == 2
        # r is fixed by the vertex-stabiliser of T
        T1 = [t for t in dec.T.elements if t[0] == 0]
        assert all(t[dec.r] == dec.r for t in T1)


def test_decompose_gates():
    Z4 = builders.cyclic(4)
    Gamma = ColouredCayleyGraph(Z4, [1, 3])
    res = autc_group(Gamma)
    with pytest.raises(HypothesesNotMet):
        decompose_structure(Gamma, res)
    G, S = canonical_sets()["S21"]
    full = ColouredCayleyGraph(G, list(range(1, 21)))
    res_full = autc_group(full)
    if res_full.verdict == "CCA":
        with pytest.raises(HypothesesNotMet):
            decompose_structure(full, res_full)


def test_reduction_f21_is_identity_like():
    G, S = canonical_sets()["S21"]
    Gamma = ColouredCayleyGraph(G, S)
    dec = decompose_structure(Gamma, autc_group(Gamma))
    red = reduction_gamma_prime(Gamma, dec)
    assert red.Y == []
    assert sorted(red.S_prime) == sorted(S)
    assert all(red.checks.values())
    assert red.gamma_prime.n == 21


def test_reduction_agl17():
    G, S = canonical_sets()["S42_1"]
    Gamma = ColouredCayleyGraph(G, S)
    dec = decompose_structure(Gamma, autc_group(Gamma))
    red = reduction_gamma_prime(Gamma, dec)
    assert all(red.checks.values())
    assert red.gamma_prime.group.order == 42
    assert dec.r in red.S_prime
    d = red.to_json_dict()
    assert set(d) == {"Y", "S_prime", "checks"}


def test_converse_build_order_210():
    F = builders.f21()
    H = builders.cyclic(5)
    R = builders.cyclic(2)
    _, S21 = canonical_sets()["S21"]
    S = [(s, 0, 0) for s in S21] + [(0, 1, 0), (0, 4, 0), (0, 0, 1)]
    graph, res = converse_build(F, H, R, S)
    assert graph.n == 210
    assert res.verdict == "NonCCA"


def test_decompose_order_210_roundtrip():
    # the prop53-roundtrip graph on F21 x Z5 x Z2, where J = H x| Q has order
    # 10, so properties (iv) and (v) are not vacuous
    _, S21 = canonical_sets()["S21"]
    S = [(s, 0, 0) for s in S21] + [(0, 1, 0), (0, 4, 0), (0, 0, 1)]
    Gamma, res = converse_build(builders.f21(), builders.cyclic(5),
                                builders.cyclic(2), S)
    assert res.autc_order == 3360
    dec = decompose_structure(Gamma, res)
    assert [dec.T.order, dec.J.order, dec.H.order, dec.R.order,
            dec.F.order] == [168, 10, 5, 2, 21]
    assert list(dec.properties.values()) == [True] * 6
    red = reduction_gamma_prime(Gamma, dec)
    assert list(red.checks.values()) == [True] * 3


def test_converse_build_gates():
    F = builders.f21()
    H = builders.cyclic(5)
    R = builders.cyclic(2)
    _, S21 = canonical_sets()["S21"]
    with pytest.raises(HypothesisViolated, match="F21"):
        converse_build(builders.cyclic(21), H, R, [])
    with pytest.raises(HypothesisViolated, match="R must"):
        converse_build(F, H, builders.cyclic(3), [])
    with pytest.raises(HypothesisViolated, match="generate"):
        converse_build(F, H, R, [(s, 0, 0) for s in S21])
    # an outside element whose cube is not an involution of H x R
    xf = F.index[F.meta["x"]]
    bad = [(s, 0, 0) for s in S21] + [(0, 1, 0), (0, 4, 0), (0, 0, 1)] \
        + [(xf, 0, 1), (F.inverse[xf], 0, 1)]
    with pytest.raises(HypothesisViolated, match="factor"):
        converse_build(F, H, R, bad)
