"""Structure theory for non-CCA graphs on Sylow cyclic groups of order not
divisible by four: the (T x J) x| R decomposition of the colour-preserving
group, the reduction to a graph on F x| R, the converse assembly, and the
exhaustive classification of connection sets on any GroupSpec within the
enumeration's bounds, up to Aut(G); F21, AGL(1,7) and F21 x Z2 are the
worked examples.  The enumeration's numpy kernels live in cca.masks, which
only enumerate_connection_sets loads, so importing this module loads no
numpy.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

# pmul is looked up in perms at each call, so a rebinding of perms.pmul is
# followed here even if this module is first imported while it is in place
from . import builders, perms
from .engine import AutcResult, autc_group
from .errors import (BoundExceeded, DecompositionNotFound, HypothesesNotMet,
                     HypothesisViolated, InvalidSpec, NotConnected)
from .graphs import ColouredCayleyGraph, cayley, colour_units, is_connected
from .groups import (FiniteGroup, are_isomorphic, automorphism_transversals,
                     centralizer, coset_growth, generated, is_normal,
                     is_sylow_cyclic_order_not_div_4, normal_subgroups,
                     sylow_subgroup, trivial_group)
from .perms import identity, pconj, pinv


# -- Theorem-style decomposition A = (T x J) x| R ---------------------------

@dataclass
class StructureDecomposition:
    A: FiniteGroup                  # the colour-preserving group
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
        hr = coset_growth(self.H.generators + self.R.generators,
                          self.F.degree, self.F.degree + 1)[1]
        return f, h, r, {p[0] for p in hr}

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


def decompose_structure(Gamma: ColouredCayleyGraph,
                        res: AutcResult) -> StructureDecomposition:
    """Split the colour-preserving group A as (T x J) x| R with T a copy of
    PSL(2,7), and the base group G as (F x H) x| R with F a copy of F21.

    T is the subgroup generated by A's elements of order 7.  This is exact:
    F x H <= G is Sylow cyclic, so 7 does not divide |J| and every element
    of order 7 lies in the normal subgroup T, which, being simple, they
    generate.  J is sought among the normal subgroups of C_A(T), since
    [T, J] <= T meet J = 1, in (order, sorted elements) order.

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

    T = generated((p for p, o in zip(A.elements, A.element_orders) if o == 7),
                  n, cap=A.order + 1)
    if T.order != 168 or not are_isomorphic(T, builders.psl27()):
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
        R = generated([G.right_row(r)], n, cap=3)

    def regular(t):
        """t in A lies in G_R iff t = rho(t[0]), as rho(g) sends 0 to g;
        rho(t[0]), which sends b to b*t[0], lies in A too, so it is enough
        that the two agree on A's base, and G_R is never listed."""
        return all(t[b] == G.imul(b, t[0]) for b in A.base)

    F = generated(filter(regular, T.elements), n, cap=n + 1)
    # Z21 and F21 are the only groups of order 21, as 3 divides 7 - 1
    f_is_f21 = F.order == 21 and not F.is_cyclic()

    for J in normal_subgroups(centralizer(A, T)):
        if T.order * J.order * R.order != A.order:
            continue
        H = generated(filter(regular, J.elements), n, cap=n + 1)
        span = coset_growth(T.generators + J.generators + R.generators,
                            n, A.order + 1)[1]
        if len(span) != A.order:
            continue
        gspan = coset_growth(F.generators + H.generators + R.generators,
                             n, n + 1)[1]
        cj_h = centralizer(J, H).elements
        Q = sylow_subgroup(J, 2)
        props = {
            "(i) T normal copy of PSL(2,7)": is_normal(T, A),
            "(ii) T meet G = F copy of F21": f_is_f21,
            "(iii) H = J meet G, H normal in J, J normal in A":
                is_normal(H, J) and is_normal(J, A),
            "(iv) H self-centralising in J": all(p in H.index for p in cj_h),
            "(v) J splits over H": H.order * Q.order == J.order
                and set(H.elements) & set(Q.elements) == {identity(n)},
            "(vi) H normal in A": is_normal(H, A),
        }
        if all(props.values()) \
                and len(gspan) == n \
                and F.order * H.order * R.order == n:
            return StructureDecomposition(A, T, J, F, H, R, r, props)
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


def _reduce(G: FiniteGroup, S, fset, hset, hr, r: int, fr_gens,
            violation: str | None = None):
    """Y = S minus (F union H x| R), the reduced connection set
    S' = (F meet S) union {r} union {y^2 : y in Y}, whether every y in Y
    factors as y = y^4 * y^3 with y^4 of order 3 in F and y^3 an involution
    in H x| R outside H, and the reduced graph Cay(F x| R, S'), with F x| R
    grown by generated from fr_gens.  Sets hold element indices of G.

    With a violation message, a y that does not factor raises
    HypothesisViolated before the reduced graph is built."""
    Y = sorted(s for s in S if s not in fset and s not in hr)
    factors = True
    for y in Y:
        y2 = G.imul(y, y)
        f, z = G.imul(y2, y2), G.imul(y2, y)
        factors &= (f in fset and G.element_orders[f] == 3
                    and z in hr and z not in hset
                    and G.element_orders[z] == 2 and G.imul(f, z) == y)
    if violation is not None and not factors:
        raise HypothesisViolated(violation)
    S_prime = sorted((set(S) & fset) | ({r} if r else set())
                     | {G.imul(y, y) for y in Y})
    FR = generated(fr_gens, G.degree, cap=G.order + 1)
    FR.labels = [G.label(G.index[p]) for p in FR.elements]
    FR.meta = {"spec": G.meta.get("spec")}
    gamma_prime = cayley(FR, [FR.index[G.elements[s]] for s in S_prime])
    return Y, S_prime, factors, gamma_prime


def reduction_gamma_prime(Gamma: ColouredCayleyGraph,
                          dec: StructureDecomposition) -> ReductionData:
    """Y, S' and the reduced graph on F x| R (see _reduce); all three
    advertised claims are verified by direct computation."""
    G = Gamma.group
    fset, hset, _, hr = dec.element_sets()
    fr_gens = [G.elements[p[0]] for p in dec.F.generators + dec.R.generators]
    Y, S_prime, factors, gamma_prime = _reduce(G, Gamma.conn, fset, hset, hr,
                                               dec.r, fr_gens)
    rho_r = G.right_row(dec.r)
    checks = {
        "(1) reduced graph connected and NonCCA":
            is_connected(gamma_prime)
            and autc_group(gamma_prime).verdict == "NonCCA",
        "(2) every y in Y factors as f*z with |f|=3, f in F, z in Hr, |z|=2":
            factors,
        "(3) Y nonempty implies |R|=2 and T commutes with R":
            not Y or (dec.R.order == 2
                      and all(perms.pmul(t, rho_r) == perms.pmul(rho_r, t)
                              for t in dec.T.generators)),
    }
    return ReductionData(Y, S_prime, [G.label(s) for s in Y],
                         [G.label(s) for s in S_prime], gamma_prime, checks)


# -- converse assembly ------------------------------------------------------

def converse_build(F: FiniteGroup, H: FiniteGroup, R: FiniteGroup, S):
    """Assemble G = F x H x R (R acting trivially), verify the converse
    hypotheses on the derived reduced graph, then confirm the predicted
    NonCCA verdict with an independent engine run.

    S lists elements of the product as (f, h, r) factor-index triples, or as
    product element indices."""
    # Z21 and F21 are the only groups of order 21, as 3 divides 7 - 1
    if F.order != 21 or F.is_cyclic():
        raise HypothesisViolated("F must be a copy of F21")
    if R.order not in (1, 2):
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

    # the generators of the F and R factors
    fr_gens = [g for g in G.generators if tuples[G.index[g]][1] == 0]
    Y, _, _, gamma_prime = _reduce(
        G, S, fset, hset, hr, r, fr_gens,
        violation="condition (2): Y element does not factor as f*z")
    if Y and R.order != 2:
        raise HypothesisViolated("condition (3): Y nonempty but |R| != 2")
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
    y2 = perms.pmul(y, y)
    y2i = pinv(y2)
    xy2 = perms.pmul(x, y2)
    xy2i = pinv(xy2)
    d = pconj(perms.pmul(y2, y), x)

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
    scanned: int
    connected_count: int
    class_count: int
    orbit_size_sum: int
    engine_runs: int                # classes the bulk decisions leave
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

    def to_csv(self) -> str:
        out = io.StringIO()
        w = csv.writer(out)
        w.writerow(["representative", "orbit_size", "autc_order"])
        for c in self.non_cca_classes:
            w.writerow([" ".join(c["representative"]),
                        c["orbit_size"], c["autc_order"]])
        return out.getvalue()


def _unit_action(G: FiniteGroup, units):
    """Distinct permutations of the unit list induced by Aut(G), sorted:
    the group W that coset_growth grows from the unit permutations that the
    generators of groups.automorphism_transversals induce.  Aut(G) is never
    listed, and |Aut(G)| bounds the growth."""
    unit_of = {s: i for i, u in enumerate(units) for s in u}
    maps, size = automorphism_transversals(G)
    return sorted(coset_growth(
        [tuple(unit_of[phi[u[0]]] for u in units) for phi in maps],
        len(units), size)[1])


def _class_count(ws) -> int:
    """The number of classes of masks under the unit permutations ws, a
    group W, by the orbit-counting lemma: the mean over w in W of
    2^(number of cycles of w)."""
    total = 0
    for w in ws:
        seen = [False] * len(w)
        cycles = 0
        for i in range(len(w)):
            cycles += not seen[i]
            j = i
            while not seen[j]:
                seen[j] = True
                j = w[j]
        total += 1 << cycles
    return total // len(ws)


def _mask_conn(mask: int, units) -> list[int]:
    conn = []
    for i, u in enumerate(units):
        if mask >> i & 1:
            conn.extend(u)
    return sorted(conn)


_MAX_UNITS = 24        # k of agl17, the largest base a shipped command runs
_MAX_CLASSES = 500_000  # Z42's 355200 classes pass, Z49's 798960 do not


def enumerate_connection_sets(
        base: str, mode: str = "canonical-pruned") -> EnumerationReport:
    """Classify inverse-closed connection sets on the group the GroupSpec
    base names by the CCA verdict, up to Aut(G): an automorphism phi maps
    Cay(G, S) onto Cay(G, phi(S)) preserving colours, so the verdict is
    constant on each class.  The classes are the orbits of Aut(G) on the
    sets of colour units, those of W, the group of unit permutations that
    _unit_action closes from one transversal per level of Aut(G), which is
    never listed.

    The work is bounded before it starts, with BoundExceeded.  The k colour
    units of G hold its n - 1 other elements, at most two each, so
    k >= (n - 1) / 2: an order over 2 * _MAX_UNITS + 1 is refused before G
    is built, and k over _MAX_UNITS before W is computed.  A class
    count over _MAX_CLASSES, read from the orbit-counting lemma, is refused
    before any mask is scanned: Z49 (k = 24) has 798960 classes, and
    enumerating them took 231 s and 1.1 GB peak RSS in one run on a 2-core
    Xeon, nearly all of it in the engine.

    Each class is represented by its two-level canonical mask
    (masks._classes): among the masks whose top, their units in the
    Aut(G)-orbit B of the highest unit, is least among its images, the one
    whose other units are least among their images under that top's
    stabiliser.  Each class has exactly one, so this is a canonical form,
    though not in general the class's least mask.  Its class count must
    equal the orbit-counting lemma's, and its class sizes must add up to
    2^k; either failure is an internal error.  The classes are decided in
    bulk, over numpy arrays of those masks, by the kernels in cca.masks;
    that module, and with it numpy, is imported only once the bounds have
    passed.  Connectivity and the verdict depend only on the class, so the
    choice of mask changes neither.  Each NonCCA class is reported by its
    least mask, its least image under every unit permutation at once, and
    the list is sorted by it.  A class is connected iff its units generate
    G, that is, iff it lies in no maximal subgroup: it has a unit outside
    each maximal subgroup's mask (masks._connected).  Every subgroup is a
    union of units, and masks._maximal_masks finds the maximal ones by a
    walk from the trivial subgroup that adds one unit at a time and closes
    under products, so its cost grows with the subgroups of G, not with the
    classes.  A connected class is CCA whenever the stabiliser A_1 of the
    identity vertex is trivial, and the engine runs only on the classes
    where sign propagation (masks._settled) cannot prove that.

    Each phi in A_1 maps the closed neighbourhood N[e] onto itself and keeps
    the colour of every edge {e, t}, so it sends each t in S to t or t^-1,
    with one sign per unit since it is a bijection.  It keeps the colour of
    every pair inside N[e], edge or not.  So its signs lie in V, the set of
    sign vectors x on the non-involution units of S (an involution t has
    t^-1 = t) whose map of N[e] keeps every pair colour; masks._sign_tables
    lists the sign pairs each colour rules out, one-colour clauses that make
    V the solution set of a 2-SAT.

    (a) V contains 0, so every clause has a literal that 0 satisfies, and
    when propagation from x_j = 1 ends without a conflict, the units it set
    to 1 with 0 elsewhere give a vector of V: a clause on two units set to
    1 was checked, one between a unit set to 1 and a unit at 0 would have
    forced the latter, and one on two units at 0 holds.  Propagation
    therefore decides exactly whether V has a vector with x_j = 1, and
    V = {0} iff it conflicts for every unit j.

    (b) If V = {0}, every phi in A_1 fixes N[e] pointwise.  A right
    translation r(g) = g*u preserves colours and A_u = r A_1 r^-1, so every
    element of a vertex stabiliser A_u fixes N[u] = N[e]*u pointwise.  Then
    phi in A_1 lies in A_s for each s in S, so it fixes N[s], and by
    connectivity it fixes every vertex: phi = 1, and the class is CCA.

    (c) The signs of phi also keep every 4-cycle through e.  Take s, s2, t
    and t2 in S with g = t*s = t2*s2 and (t2, s2) != (t, s).  The edges
    {s, g} and {s2, g} have colours unit(t) and unit(t2), so phi(g) lies in
    {t*phi(s), t^-1*phi(s)} and in {t2*phi(s2), t2^-1*phi(s2)}: signs that
    make the two sets disjoint are ruled out, by a clause that needs both
    colours in S.  Let V' be the vectors of V that keep these clauses too.
    It still holds the signs of every phi in A_1, and it still contains 0,
    since with signs 0 both sets hold g.  So (a) and (b) hold for V' word
    for word: propagation decides V' = {0} exactly, and V' = {0} implies
    A_1 = 1.  _settled propagates the clauses of V'.

    The engine runs only on the connected classes _settled leaves: one
    AutcResult on each class's Cayley graph, one stabiliser search, gives
    the verdict from the strong generators of A_1 and a NonCCA class's
    |Aut_c| = n*2^m.  A_1 is never listed, so STABILISER_CAP does not apply
    here.  mode accepts only "canonical-pruned", the name callers
    give this path."""
    if mode != "canonical-pruned":
        raise InvalidSpec(f"unknown enumeration mode {mode!r}")
    n, build = builders.parse_spec(base)
    if n > 2 * _MAX_UNITS + 1:
        raise BoundExceeded(f"{base}: order over {2 * _MAX_UNITS + 1}, so "
                            f"more than {_MAX_UNITS} colour units")
    G = build()
    units = colour_units(G, range(1, n))
    k = len(units)
    if k > _MAX_UNITS:
        raise BoundExceeded(f"{base}: {k} colour units, more than "
                            f"{_MAX_UNITS}")
    ws = _unit_action(G, units)
    classes = _class_count(ws)
    if classes > _MAX_CLASSES:
        raise BoundExceeded(f"{base}: {classes} classes, more "
                            f"than {_MAX_CLASSES}")
    # numpy loads with the kernels, so a refused spec never loads it
    from . import masks

    reps, sizes = masks._classes(k, ws)
    if len(reps) != classes:
        raise RuntimeError("internal error: the canonical scan found "
                           f"{len(reps)} classes, the orbit-counting lemma "
                           f"{classes}")
    if int(sizes.sum()) != 1 << k:
        raise RuntimeError("internal error: the class sizes do not add up "
                           "to 2^k")
    connected = masks._connected(
        masks._maximal_masks(n, k, masks._unit_products(G, units)), reps)
    survivors = connected.nonzero()[0]
    survivors = survivors[~masks._settled(G, units, reps[survivors])]

    found = []
    for x in survivors.tolist():
        try:
            res = AutcResult(ColouredCayleyGraph(
                G, _mask_conn(int(reps[x]), units)))
        except NotConnected:
            raise RuntimeError("internal error: the maximal subgroups and "
                               "the BFS disagree on connectivity") from None
        if res.verdict == "NonCCA":
            found.append((x, res.autc_order))
    least = masks._least_images(ws, [int(reps[x]) for x, _ in found])
    non_cca = []
    for m, (x, autc_order) in sorted(zip(least, found)):
        conn = _mask_conn(m, units)
        non_cca.append({
            "representative": [G.label(s) for s in conn],
            "representative_indices": conn,
            "orbit_size": int(sizes[x]),
            "autc_order": autc_order,
        })
    return EnumerationReport(
        base=base, scanned=1 << k,
        connected_count=int(sizes[connected].sum()),
        class_count=len(reps),
        orbit_size_sum=int(sizes.sum()),
        engine_runs=len(survivors),
        non_cca_classes=non_cca)
