"""Named end-to-end computations exposed through `reproduce`.

Each recipe takes no arguments, builds its objects from scratch, runs the
independent engine verdict, and returns a JSON-serialisable dict.
"""

from __future__ import annotations

from . import builders
from .constructions import (line_graph_construction, subdivision_construction,
                            wreath_witness)
from .engine import autc_group, predicted_autc_complete
from .graphs import (ColouredCayleyGraph, PlainGraph, complete_cayley,
                     graph_automorphisms, heawood)
from .groups import (FiniteGroup, close_generators, generated, normalizer,
                     trivial_group)
from .structure import (canonical_sets, converse_build, decompose_structure,
                        enumerate_connection_sets, reduction_gamma_prime)


def _heawood_groups():
    """(Heawood graph, full automorphism group, bipart-preserving subgroup,
    edge-regular order-21 subgroup, arc-regular order-42 subgroup)."""
    P = heawood()
    auts = graph_automorphisms(P)
    full = generated(auts, P.n, cap=len(auts) + 1)
    bip = [p for p in auts if all(p[v] < 7 for v in range(7))]
    Hbip = generated(bip, P.n, cap=len(bip) + 1)
    if (full.order, Hbip.order) != (336, 168):
        raise RuntimeError("internal error: Heawood automorphism orders")
    sev = next(p for p in full.elements if full.element_orders[full.index[p]] == 7)
    C7 = close_generators([sev], P.n, cap=8)
    G21 = normalizer(Hbip, C7)
    G42 = normalizer(full, C7)
    if (G21.order, G42.order) != (21, 42):
        raise RuntimeError("internal error: Heawood normaliser orders")
    return P, full, Hbip, G21, G42


def _result_summary(Gamma, res, embedded=None):
    out = {
        "vertices": Gamma.n,
        "connection_size": len(Gamma.conn),
        "verdict": res.verdict,
        "autc_order": res.autc_order,
        "stabiliser_order": len(res.stabiliser),
        "aut_pm1_order": res.aut_pm1.order,
    }
    if embedded is not None:
        out["embedded_order"] = embedded.order
        out["embedded_in_autc"] = all(p in res.full_group.index
                                      for p in embedded.elements)
    return out


def f21_heawood() -> dict:
    P, _, Hbip, G21, _ = _heawood_groups()
    Gamma, Hemb = line_graph_construction(P, G21, Hbip)
    res = autc_group(Gamma)
    return {"example": "f21-heawood", **_result_summary(Gamma, res, Hemb)}


def agl17_subdivision() -> dict:
    P, full, _, _, G42 = _heawood_groups()
    Gamma, Hemb = subdivision_construction(P, G42, full)
    res = autc_group(Gamma)
    return {"example": "agl17-subdivision", **_result_summary(Gamma, res, Hemb)}


def knn_q8() -> dict:
    """L(K_{8,8}) as a 64-vertex non-CCA Cayley graph on Q8 x Q8."""
    A = builders.q8_times_z2(0)
    AR = A.right_regular
    sigmas = [builders.named_map(A, f"sigma-{u}").carrier for u in "ijk"]
    B = close_generators(list(AR.generators) + sigmas, 8, cap=65)
    if B.order != 64:
        raise RuntimeError("internal error: Q8 sigma overgroup order")
    K = PlainGraph(16, [(i, 8 + j) for i in range(8) for j in range(8)],
                   bipartition=(list(range(8)), list(range(8, 16))))
    G16 = builders.direct_product(AR, AR)
    H16 = builders.direct_product(B, B)
    Gamma, Hemb = line_graph_construction(K, G16, H16)
    res = autc_group(Gamma)
    return {"example": "knn-q8", "n": 8, **_result_summary(Gamma, res, Hemb)}


def _dihedral_coset_tau(D: FiniteGroup):
    """For D = B |x A with A the odd-order rotation subgroup and B = <s>,
    the map b*a -> b*a^-1."""
    orders = D.element_orders
    aset = {i for i in range(D.order) if orders[i] % 2 == 1}
    s0 = next(i for i in range(D.order) if i not in aset)
    inv = D.inverse
    tau = []
    for g in range(D.order):
        if g in aset:
            tau.append(inv[g])
        else:
            a = D.imul(inv[s0], g)
            tau.append(D.imul(s0, inv[a]))
    return tuple(tau), sorted(aset - {0}) + [s0]


def wreath_demo() -> dict:
    entries = []

    Z3 = builders.cyclic(3)
    W = wreath_witness(Z3, [1, 2], builders.named_map(Z3, "inversion"),
                       builders.cyclic(2))
    res = autc_group(W.graph)
    entries.append({"base": "z3 wr z2", **_result_summary(W.graph, res)})

    Q = builders.quaternion8()
    S = [Q.label_index(l) for l in ("i", "-i", "j", "-j")]
    W = wreath_witness(Q, S, builders.named_map(Q, "inversion"),
                       trivial_group(1))
    res = autc_group(W.graph)
    entries.append({"base": "q8 wr 1", **_result_summary(W.graph, res)})

    D = builders.dihedral(3)
    tau, S = _dihedral_coset_tau(D)
    W = wreath_witness(D, S, tau, builders.cyclic(2))
    res = autc_group(W.graph)
    entries.append({"base": "s3 wr z2", **_result_summary(W.graph, res)})

    return {"example": "wreath-demo",
            "witnesses": entries,
            "all_non_cca": all(e["verdict"] == "NonCCA" for e in entries)}


def thm45_sweep() -> dict:
    rows = []
    for name, G in builders.catalog():
        pred = predicted_autc_complete(G)
        res = autc_group(complete_cayley(G))
        cap = max(pred.predicted_order, res.autc_order) + 1
        predicted = close_generators(pred.predicted_generators, G.order,
                                     cap=cap)
        match = (predicted.order == pred.predicted_order
                 and set(predicted.elements) == set(res.full_group.elements))
        rows.append({"spec": name,
                     "order": G.order, "case": pred.case,
                     "predicted_order": pred.predicted_order,
                     "autc_order": res.autc_order, "match": match})
    return {"example": "thm45-sweep", "groups": rows,
            "all_match": all(r["match"] for r in rows)}


def _prop56(base: str) -> dict:
    rep = enumerate_connection_sets(base)
    return {"example": f"prop56-{base}", **rep.to_json_dict(),
            "class_count": len(rep.non_cca_classes)}


def thm51_decompose() -> dict:
    cs = canonical_sets()
    out = []
    for name in ("S21", "S42_1", "S42_2"):
        G, S = cs[name]
        Gamma = ColouredCayleyGraph(G, S)
        res = autc_group(Gamma)
        dec = decompose_structure(Gamma, res)
        red = reduction_gamma_prime(Gamma, dec)
        out.append({"set": name, "verdict": res.verdict,
                    "decomposition": dec.to_json_dict(),
                    "reduction": red.to_json_dict()})
    ok = all(e["verdict"] == "NonCCA"
             and all(e["decomposition"]["properties"].values())
             and all(e["reduction"]["checks"].values()) for e in out)
    return {"example": "thm51-decompose", "graphs": out, "all_verified": ok}


def prop53_roundtrip() -> dict:
    F = builders.f21()
    H = builders.cyclic(5)
    R = builders.cyclic(2)
    _, S21 = canonical_sets()["S21"]
    S = [(s, 0, 0) for s in S21] + [(0, 1, 0), (0, 4, 0), (0, 0, 1)]
    graph, res = converse_build(F, H, R, S)
    return {"example": "prop53-roundtrip", "order": graph.n,
            **_result_summary(graph, res)}


RECIPES = {
    "f21-heawood": f21_heawood,
    "knn-q8": knn_q8,
    "agl17-subdivision": agl17_subdivision,
    "wreath-demo": wreath_demo,
    "thm45-sweep": thm45_sweep,
    "prop56-f21": lambda: _prop56("f21"),
    "prop56-agl17": lambda: {**_prop56("agl17"), "mode": "canonical-pruned"},
    "prop56-f21xz2": lambda: _prop56("f21xz2"),
    "thm51-decompose": thm51_decompose,
    "prop53-roundtrip": prop53_roundtrip,
}


def reproduce(example_id: str) -> dict:
    """Run the recipe named example_id; KeyError for an unknown id."""
    return RECIPES[example_id]()
