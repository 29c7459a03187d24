"""The check-mix query pool: generation, stratified stream sampling and the
query itself.

A query is a group spec and a list of element labels, exactly what
`cca check SPEC --set LABELS` receives.  The pool is generated once from
POOL_SEED and committed together with each query's reference outcome; a run
draws its stream from the pool with the run's own seed, so every query a run
can send has a recorded reference.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import defaultdict

POOL_SEED = 1702_06651

# Group specs of order <= 42 whose random generating sets give small
# stabilisers.  Generalised dicyclic groups beyond dic(z6) are left out: a
# 4-element set on dic(z10) has a stabiliser of order 512 and one such query
# costs more than the rest of the class together.  Large stabilisers are the
# large-autc class's job, where they come in fixed counts per stream.
SMALL_SPECS = ["z10", "z12", "d5", "d8", "q8", "z2^4", "prod(z4;z2)",
               "dic(z6)", "dih(prod(z3;z3))", "s4", "f21", "agl17",
               "prod(z3;s3)", "d21", "f21xz2"]

# class -> [(spec, pool size, (least, most) colour units per set)]
POOL_PLAN = {
    "small": [(spec, 30, (1, 8)) for spec in SMALL_SPECS],
    "large-n": [("psl27", 100, (6, 12)), ("pgl27", 100, (6, 12))],
    "large-autc": [("q8xz2^1", 36, (3, 7)), ("q8xz2^2", 14, (2, 5))],
}
NONCCA_SETS = {"S21": "f21", "S42_1": "agl17", "S42_2": "agl17"}
NONCCA_POOL = 240


def colour_units(G):
    """Inverse pairs and involutions of G other than the identity."""
    units, seen = [], set()
    for s in range(1, G.order):
        if s not in seen:
            si = G.inverse[s]
            seen.update((s, si))
            units.append((s,) if si == s else (s, si))
    return units


def _labels(rng, G, units) -> list[str]:
    """Labels of the chosen units, in random order, each pair in random order."""
    units = [list(u) for u in units]
    rng.shuffle(units)
    for u in units:
        rng.shuffle(u)
    return [G.label(s) for u in units for s in u]


def _random_generating_set(rng, G, k_range, close_generators):
    units = colour_units(G)
    lo, hi = k_range
    while True:
        pick = rng.sample(units, rng.randint(lo, min(hi, len(units))))
        gens = [G.elements[s] for u in pick for s in u]
        if close_generators(gens, G.degree, cap=G.order + 1).order == G.order:
            return _labels(rng, G, pick)


def generate_pool(cca, seed: int = POOL_SEED) -> list[dict]:
    """The query pool, a pure function of the seed and the public group API.
    Each group draws from its own generator, so resizing one class leaves
    the queries of the others as they were."""
    from cca.groups import close_generators
    from cca.perms import pconj

    pool = []
    for cls, plan in POOL_PLAN.items():
        for spec, count, k_range in plan:
            rng = random.Random(f"{seed}:{spec}")
            G = cca.builders.build_spec(spec)
            for _ in range(count):
                pool.append({"class": cls, "spec": spec, "labels":
                             _random_generating_set(rng, G, k_range,
                                                    close_generators)})
    named = cca.structure.canonical_sets()
    A = cca.builders.agl17()
    rng = random.Random(f"{seed}:noncca")
    for _ in range(NONCCA_POOL):
        name = rng.choice(sorted(NONCCA_SETS))
        G, S = named[name]
        a = rng.choice(A.elements)
        conj = {G.index[pconj(G.elements[s], a)] for s in S}
        units = [u for u in colour_units(G) if u[0] in conj]
        pool.append({"class": "noncca", "spec": NONCCA_SETS[name],
                     "labels": _labels(rng, G, units)})
    for i, q in enumerate(pool):
        q["id"] = f"q{i:04d}"
    return pool


def run_query(cca, spec: str, labels: list[str]) -> str:
    """`cca check SPEC --set LABELS` in-process: the JSON text it prints.

    Raises cca.errors.StabiliserTooLarge when the engine refuses."""
    G = cca.builders.build_spec(spec)
    S = [G.label_index(lab) for lab in labels]
    res = cca.engine.autc_group(cca.graphs.ColouredCayleyGraph(G, S))
    return json.dumps(res.to_json_dict(), sort_keys=True, indent=2)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def stratum(q: dict) -> tuple:
    """Queries of one stratum cost about the same: same class, group and
    reference outcome (verdict and stabiliser order, or refusal)."""
    ref = q["reference"]
    outcome = "refused" if ref["refused"] else (ref["verdict"],
                                                ref["stabiliser_order"])
    return (q["class"], q["spec"], str(outcome))


# Share of each stratum a stream takes, per class.  The few expensive
# large-autc queries (the cap refusal and the stabilisers of order 128) and
# the large-n groups are sampled thinly so that no class takes most of a
# pass; see NOTES.md for the shares this gives.
STREAM_FRACTION = {"small": 1 / 2, "noncca": 1 / 2, "large-n": 1 / 5,
                   "large-autc": 1 / 10}


def sample_stream(pool: list[dict], seed: int) -> list[dict]:
    """STREAM_FRACTION of every stratum, rounded up, drawn with the seed,
    then shuffled.

    The count per stratum does not depend on the seed, so streams of
    different seeds carry the same mix of cheap and expensive queries."""
    rng = random.Random(seed)
    strata = defaultdict(list)
    for q in pool:
        strata[stratum(q)].append(q)
    stream = []
    for key in sorted(strata):
        members = strata[key]
        take = math.ceil(len(members) * STREAM_FRACTION[key[0]])
        stream.extend(rng.sample(members, take))
    rng.shuffle(stream)
    return stream
