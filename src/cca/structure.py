"""Structure theory for non-CCA graphs on Sylow cyclic groups of order not
divisible by four: the (T x J) x| R decomposition of the colour-preserving
group, the reduction to a graph on F x| R, the converse assembly, and the
exhaustive classification of non-CCA connection sets on F21, AGL(1,7) and
F21 x Z2.
"""

from __future__ import annotations

import csv
import io
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import builders
from .engine import AutcResult, autc_group, fast_cca_verdict
from .errors import (DecompositionNotFound, HypothesesNotMet,
                     HypothesisViolated, InvalidSpec, NotConnected)
from .graphs import ColouredCayleyGraph, cayley, colour_units, is_connected
from .groups import (FiniteGroup, are_isomorphic, close_generators,
                     is_normal, is_sylow_cyclic_order_not_div_4,
                     normal_subgroups, sylow_subgroup, trivial_group)
from .perms import identity, pconj, pinv, pmul, porder


# -- Theorem-style decomposition A = (T x J) x| R ---------------------------

@dataclass
class StructureDecomposition:
    A: FiniteGroup                  # the colour-preserving group
    G_R: FiniteGroup                # regular copy of the base group
    T: FiniteGroup
    J: FiniteGroup
    F: FiniteGroup
    H: FiniteGroup
    R: FiniteGroup
    r: int                          # base-group element index generating R
    properties: dict[str, bool]

    def element_sets(self):
        """F, H, R and H x| R as sets of base-group element indices.

        A regular permutation rho(g) satisfies rho(g)[0] = g, so subgroups of
        the regular copy project to subsets of the base group."""
        f = {p[0] for p in self.F.elements}
        h = {p[0] for p in self.H.elements}
        r = {p[0] for p in self.R.elements}
        hr_group = close_generators(self.H.elements + self.R.elements,
                                    self.F.degree, cap=self.G_R.order + 1)
        return f, h, r, {p[0] for p in hr_group.elements}

    def to_json_dict(self) -> dict:
        return {
            "A_order": self.A.order,
            "T_order": self.T.order,
            "J_order": self.J.order,
            "F_order": self.F.order,
            "H_order": self.H.order,
            "R_order": self.R.order,
            "properties": dict(self.properties),
        }


def _known_subgroup(elems: list, degree: int,
                    labelled_by: FiniteGroup | None = None) -> FiniteGroup:
    """The group on a known element set (which must contain the identity),
    closed from its elements in the given order; with labelled_by, it
    carries that group's labels and spec."""
    sub = close_generators(elems, degree, cap=len(elems) + 1)
    if sub.order != len(elems):
        raise RuntimeError("internal error: element set is not a subgroup")
    if labelled_by is not None:
        sub.labels = [labelled_by.label(labelled_by.index[p])
                      for p in sub.elements]
        sub.meta = {"spec": labelled_by.meta.get("spec")}
    return sub


def decompose_structure(Gamma: ColouredCayleyGraph,
                        res: AutcResult) -> StructureDecomposition:
    """Split the colour-preserving group A as (T x J) x| R with T a copy of
    PSL(2,7), and the base group G as (F x H) x| R with F a copy of F21.

    Requires G Sylow cyclic of order not divisible by four and a NonCCA
    verdict; fails loudly if any of the six structural properties cannot be
    realised."""
    G = Gamma.group
    if not is_sylow_cyclic_order_not_div_4(G):
        raise HypothesesNotMet(
            "base group must be Sylow cyclic with order not divisible by 4")
    if res.verdict != "NonCCA":
        raise HypothesesNotMet("decomposition applies to NonCCA graphs only")

    A = res.full_group
    n = G.order
    G_R = G.right_regular

    normals = normal_subgroups(A)
    psl = builders.psl27()
    T = next((N for N in normals
              if N.order == 168 and are_isomorphic(N, psl)), None)
    if T is None:
        raise DecompositionNotFound("no normal copy of PSL(2,7) in A")

    # R must be the Sylow 2-subgroup singled out by the base vertex: the
    # fixed points of the vertex-stabiliser in T are exactly H x| R, so the
    # generator r is an involution fixed by that stabiliser.
    if n % 2:
        R = trivial_group(n)
        r = 0
    else:
        T1 = [t for t in T.elements if t[0] == 0]
        fixed = [v for v in range(n) if all(t[v] == v for t in T1)]
        r = next((v for v in fixed if G.element_orders[v] == 2), None)
        if r is None:
            raise DecompositionNotFound(
                "no involution fixed by the vertex-stabiliser of T")
        R = close_generators([G.right_row(r)], n, cap=3)

    tset = set(T.elements)
    F = _known_subgroup(sorted(p for p in G_R.elements if p in tset), n)
    f21g = builders.f21()

    candidates = sorted(
        (N for N in normals
         if set(N.elements) & tset == {identity(n)}
         and T.order * N.order * R.order == A.order),
        key=lambda N: (N.order, sorted(N.elements)))
    for J in candidates:
        jset = set(J.elements)
        H = _known_subgroup(sorted(p for p in G_R.elements if p in jset), n)
        span = close_generators(T.elements + J.elements + R.elements, n,
                                cap=A.order + 1)
        if span.order != A.order:
            continue
        gspan = close_generators(F.elements + H.elements + R.elements, n,
                                 cap=n + 1)
        cj_h = [g for g in jset
                if all(pmul(g, h) == pmul(h, g) for h in H.generators)] \
            if H.generators else sorted(jset)
        Q = sylow_subgroup(J, 2)
        props = {
            "(i) T normal copy of PSL(2,7)": is_normal(T, A),
            "(ii) T meet G = F copy of F21":
                F.order == 21 and are_isomorphic(F, f21g),
            "(iii) H = J meet G, H normal in J, J normal in A":
                is_normal(H, J) and is_normal(J, A),
            "(iv) H self-centralising in J": all(p in H.index for p in cj_h),
            "(v) J splits over H": H.order * Q.order == J.order
                and set(H.elements) & set(Q.elements) == {identity(n)},
            "(vi) H normal in A": is_normal(H, A),
        }
        if all(props.values()) \
                and gspan.order == n \
                and F.order * H.order * R.order == n:
            return StructureDecomposition(A, G_R, T, J, F, H, R, r, props)
    raise DecompositionNotFound(
        "no normal complement J realises all six properties")


# -- reduction to Gamma' on F x| R ------------------------------------------

@dataclass
class ReductionData:
    Y: list[int]                    # base-group element indices
    S_prime: list[int]              # base-group element indices
    Y_labels: list[str]
    S_prime_labels: list[str]
    gamma_prime: ColouredCayleyGraph
    checks: dict[str, bool]

    def to_json_dict(self) -> dict:
        return {
            "Y": self.Y_labels,
            "S_prime": self.S_prime_labels,
            "checks": dict(self.checks),
        }


def reduction_gamma_prime(Gamma: ColouredCayleyGraph,
                          dec: StructureDecomposition) -> ReductionData:
    """Compute Y = S minus (F union H x| R), the reduced connection set
    S' = (F meet S) union {r} union {s^2 : s in Y}, and the reduced graph on
    F x| R; all three advertised claims are verified by direct computation."""
    G = Gamma.group
    fset, hset, rset, hr = dec.element_sets()
    S = Gamma.conn
    Y = [s for s in S if s not in fset and s not in hr]
    sq = {G.imul(s, s) for s in Y}
    S_prime = sorted((set(S) & fset) | ({dec.r} if dec.r != 0 else set()) | sq)

    fr = close_generators(dec.F.elements + dec.R.elements, G.order,
                          cap=G.order + 1)
    fr_idx = sorted({p[0] for p in fr.elements})
    FR = _known_subgroup([G.elements[i] for i in fr_idx], G.degree, G)
    gamma_prime = cayley(FR, [FR.index[G.elements[s]] for s in S_prime])

    factor_ok = True
    for y in Y:
        f = G.imul(G.imul(y, y), G.imul(y, y))     # y^4
        z = G.imul(G.imul(y, y), y)                # y^3
        factor_ok &= (f in fset and G.element_orders[f] == 3
                      and z in hr and z not in hset
                      and G.element_orders[z] == 2 and G.imul(f, z) == y)
    rho_r = G.right_row(dec.r)
    checks = {
        "(1) reduced graph connected and NonCCA":
            is_connected(gamma_prime)
            and autc_group(gamma_prime).verdict == "NonCCA",
        "(2) every y in Y factors as f*z with |f|=3, f in F, z in Hr, |z|=2":
            factor_ok,
        "(3) Y nonempty implies |R|=2 and T commutes with R":
            not Y or (dec.R.order == 2
                      and all(pmul(t, rho_r) == pmul(rho_r, t)
                              for t in dec.T.generators)),
    }
    return ReductionData(sorted(Y), S_prime,
                         [G.label(s) for s in sorted(Y)],
                         [G.label(s) for s in S_prime],
                         gamma_prime, checks)


# -- converse assembly ------------------------------------------------------

def converse_build(F: FiniteGroup, H: FiniteGroup, R: FiniteGroup, S):
    """Assemble G = F x H x R (R acting trivially), verify the converse
    hypotheses on the derived reduced graph, then confirm the predicted
    NonCCA verdict with an independent engine run.

    S lists elements of the product as (f, h, r) factor-index triples, or as
    product element indices."""
    if not are_isomorphic(F, builders.f21()):
        raise HypothesisViolated("F must be a copy of F21")
    if R.order not in (1, 2) or not R.is_cyclic():
        raise HypothesisViolated("R must be trivial or of order 2")
    G = builders.direct_product(F, H, R)
    if not is_sylow_cyclic_order_not_div_4(G):
        raise HypothesisViolated(
            "assembled group is not Sylow cyclic with order prime to 4")
    ti = G.meta["tuple_index"]
    S = [s if isinstance(s, int) else ti[tuple(s)] for s in S]

    tuples = G.meta["tuples"]
    fset = {i for i, t in enumerate(tuples) if t[1] == 0 and t[2] == 0}
    hr = {i for i, t in enumerate(tuples) if t[0] == 0}
    hset = {i for i, t in enumerate(tuples) if t[0] == 0 and t[2] == 0}
    r = next((i for i, t in enumerate(tuples)
              if t[0] == 0 and t[1] == 0 and t[2] != 0), 0)

    graph = ColouredCayleyGraph(G, S)
    if not is_connected(graph):
        raise HypothesisViolated("S does not generate the assembled group")

    Y = [s for s in S if s not in fset and s not in hr]
    for y in Y:
        f, z = G.imul(G.imul(y, y), G.imul(y, y)), G.imul(G.imul(y, y), y)
        if not (f in fset and G.element_orders[f] == 3 and z in hr
                and z not in hset and G.element_orders[z] == 2):
            raise HypothesisViolated(
                "condition (2): Y element does not factor as f*z")
    if Y and R.order != 2:
        raise HypothesisViolated("condition (3): Y nonempty but |R| != 2")

    FR = _known_subgroup([G.elements[i] for i, t in enumerate(tuples)
                          if t[1] == 0], G.degree, G)
    S_prime = sorted((set(S) & fset) | ({r} if r else set())
                     | {G.imul(s, s) for s in Y})
    gamma_prime = cayley(FR, [FR.index[G.elements[s]] for s in S_prime])
    if not is_connected(gamma_prime):
        raise HypothesisViolated("condition (1): reduced graph disconnected")
    if autc_group(gamma_prime).verdict != "NonCCA":
        raise HypothesisViolated("condition (1): reduced graph is CCA")

    res = autc_group(graph)
    if res.verdict != "NonCCA":
        raise RuntimeError("internal error: engine disagrees with the "
                           "predicted NonCCA verdict")
    return graph, res


# -- the named connection sets ---------------------------------------------

def canonical_sets() -> dict:
    """The classification's named sets, as (group, element indices) pairs.

    x has order 7, y order 6, d = (y^3)^x; the last entry is the 9-element
    superset on F21 x Z2 whose generating inverse-closed subsets exhaust the
    non-CCA sets up to conjugacy."""
    ag = builders.agl17()
    x, y = ag.meta["x"], ag.meta["y"]
    y2 = pmul(y, y)
    y2i = pinv(y2)
    xy2 = pmul(x, y2)
    xy2i = pinv(xy2)
    d = pconj(pmul(y2, y), x)

    f = builders.f21()
    fz = builders.f21xz2()
    ti = fz.meta["tuple_index"]

    def fzi(p, bit):
        return ti[(f.index[p], bit)]

    return {
        "S21": (f, [f.index[p] for p in (y2, y2i, xy2, xy2i)]),
        "S42_1": (ag, [ag.index[p] for p in (y2, y2i, d)]),
        "S42_2": (ag, [ag.index[p] for p in
                       (y2, y2i, pconj(y2, d), pconj(y2i, d), d)]),
        "f21xz2_superset": (fz, [fzi(p, 0) for p in (y2, y2i, xy2, xy2i)]
                            + [fzi(p, 1) for p in (y2, y2i, xy2, xy2i)]
                            + [fzi(identity(8), 1)]),
    }


# -- exhaustive enumeration -------------------------------------------------

@dataclass
class EnumerationReport:
    base: str
    mode: str
    scanned: int
    connected_count: int
    class_count: int
    orbit_size_sum: int
    non_cca_classes: list[dict] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "base": self.base,
            "scanned": self.scanned,
            "connected_count": self.connected_count,
            "non_cca_classes": [
                {"representative": c["representative"],
                 "orbit_size": c["orbit_size"],
                 "autc_order": c["autc_order"]}
                for c in self.non_cca_classes],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def to_csv(self) -> str:
        out = io.StringIO()
        w = csv.writer(out)
        w.writerow(["representative", "orbit_size", "autc_order"])
        for c in self.non_cca_classes:
            w.writerow([" ".join(c["representative"]),
                        c["orbit_size"], c["autc_order"]])
        return out.getvalue()


def _base_and_ambient(base: str):
    if base == "f21":
        return builders.f21(), builders.agl17()
    if base == "agl17":
        g = builders.agl17()
        return g, g
    if base == "f21xz2":
        return builders.f21xz2(), builders.agl17xz2()
    raise InvalidSpec(f"unknown enumeration base {base!r}")


def _unit_action(G: FiniteGroup, Amb: FiniteGroup, units):
    """Distinct permutations of the unit list induced by ambient conjugation."""
    unit_of = {}
    for i, u in enumerate(units):
        for s in u:
            unit_of[s] = i
    ws = set()
    for a in Amb.elements:
        cg = [G.index[pconj(p, a)] for p in G.elements]
        ws.add(tuple(unit_of[cg[u[0]]] for u in units))
    return sorted(ws)


def _canonical_masks(k: int, ws):
    """canon[m] = least bitmask conjugate to m under the unit permutations.

    With kl = k // 2, a mask m = h*2^kl + l maps under w to
    hightab[h] | lowtab[l], so each w costs one outer OR over the grid of
    (h, l) into a buffer that all w share."""
    dtype = np.int64 if k > 30 else np.int32
    kl = k // 2
    canon = np.arange(1 << k, dtype=dtype).reshape(1 << (k - kl), 1 << kl)
    image = np.empty_like(canon)
    ident = tuple(range(k))
    for w in ws:
        if w == ident:
            continue
        lowtab = np.array([sum(1 << w[i] for i in range(kl) if m >> i & 1)
                           for m in range(1 << kl)], dtype=dtype)
        hightab = np.array([sum(1 << w[kl + i] for i in range(k - kl)
                                if m >> i & 1)
                            for m in range(1 << (k - kl))], dtype=dtype)
        np.bitwise_or(hightab[:, None], lowtab, out=image)
        np.minimum(canon, image, out=canon)
    return canon.ravel()


def _mask_conn(mask: int, units) -> list[int]:
    conn = []
    for i, u in enumerate(units):
        if mask >> i & 1:
            conn.extend(u)
    return sorted(conn)


def _verdict(n, table, inv, conn) -> str | None:
    """The CCA verdict, or None when conn does not generate the group: the
    search's own BFS raises NotConnected before any search."""
    try:
        return fast_cca_verdict(n, table, inv, conn)
    except NotConnected:
        return None


def _verdict_chunk(payload):
    n, table, inv, jobs_conn = payload
    return [_verdict(n, table, inv, conn) for conn in jobs_conn]


def enumerate_connection_sets(base: str, mode: str = "canonical-pruned",
                              jobs: int = 1) -> EnumerationReport:
    """Classify inverse-closed connection sets on the base group by the CCA
    verdict, up to conjugacy in the stated ambient group.

    canonical-pruned mode runs the engine only on the numerically least
    conjugate of each subset; full mode tests every subset and checks that
    verdicts are constant on conjugacy classes."""
    if mode not in ("full", "canonical-pruned"):
        raise InvalidSpec(f"unknown enumeration mode {mode!r}")
    G, Amb = _base_and_ambient(base)
    n = G.order
    units = colour_units(G, range(1, n))
    k = len(units)
    ws = _unit_action(G, Amb, units)
    canon = _canonical_masks(k, ws)
    reps = np.flatnonzero(canon == np.arange(1 << k, dtype=canon.dtype))
    sizes = dict(zip(reps.tolist(),
                     np.bincount(canon, minlength=1 << k)[reps].tolist()))

    table = G.table
    inv = G.inverse

    def run_verdicts(masks):
        if jobs > 1 and len(masks) > jobs:
            chunks = [masks[i::jobs] for i in range(jobs)]
            payloads = [(n, table, inv, [_mask_conn(m, units) for m in ch])
                        for ch in chunks]
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(_verdict_chunk, payloads))
            out = {}
            for ch, vs in zip(chunks, results):
                out.update(zip(ch, vs))
            return out
        return {m: _verdict(n, table, inv, _mask_conn(m, units))
                for m in masks}

    # None marks a class that does not generate G
    verdicts = run_verdicts(list(sizes))

    if mode == "full":
        # honest re-run on every subset; class verdicts must be constant
        for m in range(1 << k):
            if _verdict(n, table, inv, _mask_conn(m, units)) \
                    != verdicts[int(canon[m])]:
                raise RuntimeError(
                    "connectivity or verdict not conjugation-invariant")

    connected_count = sum(size for m, size in sizes.items()
                          if verdicts[m] is not None)
    non_cca = []
    for m in sizes:
        if verdicts[m] != "NonCCA":
            continue
        conn = _mask_conn(m, units)
        res = autc_group(ColouredCayleyGraph(G, conn))
        if res.verdict != "NonCCA":
            raise RuntimeError("internal error: verdict routes disagree on "
                               f"representative {m}")
        non_cca.append({
            "representative": [G.label(s) for s in conn],
            "representative_indices": conn,
            "mask": m,
            "orbit_size": sizes[m],
            "connected": True,
            "verdict": "NonCCA",
            "autc_order": res.autc_order,
        })
    return EnumerationReport(
        base=base, mode=mode, scanned=1 << k,
        connected_count=connected_count,
        class_count=len(sizes),
        orbit_size_sum=sum(sizes.values()),
        non_cca_classes=non_cca)
