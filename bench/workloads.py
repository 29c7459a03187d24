"""The three workloads.  Each one builds its inputs from the seed and lists
its fixed work as tasks; run.py times the tasks.  Every output is checked
against the reference recorded at the seed commit and against the paper's
facts.

Why these three (see NOTES.md for the numbers behind each choice):
  enum-f21xz2  the per-representative verdict loop and the canonical-mask
               table; the only numpy-bound workload.
  check-mix    the full autc_group route on many independent queries:
               closure, normality, Aut_pm1 backtracking, perms.pmul.
  recipes      few huge closures, normal_subgroups, find_isomorphism and
               graph_automorphisms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checkmix import colour_units, digest, run_query, sample_stream

REFERENCE = Path(__file__).resolve().parent / "reference"

RECIPE_ORDER = ["f21-heawood", "agl17-subdivision", "knn-q8", "wreath-demo",
                "thm45-sweep", "prop56-f21", "thm51-decompose",
                "prop53-roundtrip"]
SMOKE_RECIPES = ["f21-heawood", "prop53-roundtrip"]


@dataclass
class Task:
    """One operation of a workload.

    `call` is the timed work; `check` turns its result into a status and
    detail, `on_error` does the same for an exception it raised.  `span` is
    the name of the root span the traced run opens around `call`."""
    item: str
    span: str
    call: Callable[[], object]
    check: Callable[[object], tuple[str, str | None]]
    on_error: Callable[[Exception], tuple[str, str | None]] | None = None
    cls: str | None = None


@dataclass
class Op:
    """One timed run of a task.

    status is "ok", "refused" (the engine's StabiliserTooLarge, matching a
    refusal recorded in the reference) or "failed" (raised, refused against
    the reference, or output differing from the reference)."""
    item: str
    start: float
    end: float
    status: str
    detail: str | None = None
    cls: str | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def load_reference(name: str):
    with open(REFERENCE / name) as fh:
        return json.load(fh)


def _compare(item: str, text: str, ref: dict) -> tuple[str, str | None]:
    got = digest(text)
    if got != ref["digest"]:
        return "failed", f"{item}: output sha256 {got[:12]} != reference " \
                         f"{ref['digest'][:12]}"
    return "ok", None


def _with_facts(item, status, detail, facts):
    if not facts:
        return status, detail
    return "failed", f"{item}: " + "; ".join(facts + ([detail] if detail
                                                       else []))


# -- enumeration -------------------------------------------------------------

def n_cycles(w) -> int:
    seen = [False] * len(w)
    count = 0
    for i in range(len(w)):
        if not seen[i]:
            count += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = w[j]
    return count


def burnside_class_count(cca, base: str) -> int:
    """Orbits of the ambient group's conjugation action on subsets of the
    colour units, by the orbit-counting lemma (1/|W|) sum_w 2^cycles(w).

    Uses only the public group API, none of the enumeration's code."""
    from cca.perms import pconj

    if base == "f21":
        G, amb = cca.builders.f21(), cca.builders.agl17()
    else:
        G, amb = cca.builders.f21xz2(), cca.builders.agl17xz2()
    units = colour_units(G)
    unit_of = {s: i for i, u in enumerate(units) for s in u}
    W = {tuple(unit_of[G.index[pconj(G.elements[u[0]], a)]] for u in units)
         for a in amb.elements}
    total = sum(2 ** n_cycles(w) for w in W)
    if total % len(W):
        raise ArithmeticError("Burnside sum not divisible by |W|")
    return total // len(W)


class EnumWorkload:
    """enumerate_connection_sets on F21 x Z2, canonical-pruned: the same
    work as `cca reproduce prop56-f21xz2`.  Its input is fixed, so the seed
    changes nothing here.  The smoke variant enumerates F21 instead."""

    name = "enum-f21xz2"
    NON_CCA = {"f21xz2": 11, "f21": 1}

    def __init__(self, seed: int, smoke: bool = False):
        self.base = "f21" if smoke else "f21xz2"

    def setup_calls(self) -> list[str]:
        return (["builder:f21", "builder:agl17"] if self.base == "f21"
                else ["builder:f21xz2", "builder:agl17xz2"])

    def setup(self, cca) -> list[Task]:
        for token in self.setup_calls():
            getattr(cca.builders, token.split(":", 1)[1])()
        reference = load_reference("enum.json")[self.base]
        self.burnside = burnside_class_count(cca, self.base)
        item = f"enumerate {self.base}"

        def check(rep):
            text = json.dumps(rep.to_json_dict(), sort_keys=True, indent=2)
            status, detail = _compare(item, text, reference)
            facts = []
            if len(rep.non_cca_classes) != self.NON_CCA[self.base]:
                facts.append(f"{len(rep.non_cca_classes)} non-CCA classes, "
                             f"paper has {self.NON_CCA[self.base]}")
            if rep.class_count != self.burnside:
                facts.append(f"class_count {rep.class_count} != Burnside "
                             f"{self.burnside}")
            return _with_facts(item, status, detail, facts)

        return [Task(item, "enum.op",
                     lambda: cca.structure.enumerate_connection_sets(
                         self.base, mode="canonical-pruned"), check)]

    def info(self) -> dict:
        return {"base": self.base, "burnside_class_count": self.burnside}


# -- check-mix -----------------------------------------------------------------

class CheckMixWorkload:
    """A closed loop with one client sending `cca check` queries, each the
    next as soon as the previous one has answered.  The smoke variant sends
    six cheap queries of the stream."""

    name = "check-mix"

    def __init__(self, seed: int, smoke: bool = False):
        pool = load_reference("checkmix_pool.json")["queries"]
        self.specs = sorted({q["spec"] for q in pool})
        self.stream = sample_stream(pool, seed)
        if smoke:
            self.stream = [q for q in self.stream
                           if q["class"] in ("small", "noncca")][:6]

    def setup_calls(self) -> list[str]:
        return [f"spec:{s}" for s in self.specs]

    def setup(self, cca) -> list[Task]:
        for spec in self.specs:
            cca.builders.build_spec(spec)
        return [self._task(cca, q) for q in self.stream]

    @staticmethod
    def _task(cca, q) -> Task:
        ref, item = q["reference"], q["id"]

        def check(text):
            if ref["refused"]:
                return "failed", f"{item}: answered, reference refused"
            return _compare(item, text, ref)

        def on_error(exc):
            if isinstance(exc, cca.errors.StabiliserTooLarge):
                if ref["refused"]:
                    return "refused", None
                return "failed", f"{item}: refused, reference answered"
            return "failed", f"{item}: {type(exc).__name__}: {exc}"

        return Task(item, f"check-mix.{q['class']}",
                    lambda: run_query(cca, q["spec"], q["labels"]), check,
                    on_error, q["class"])

    def info(self) -> dict:
        counts: dict[str, int] = {}
        for q in self.stream:
            counts[q["class"]] = counts.get(q["class"], 0) + 1
        return {"queries": len(self.stream), "class_counts": counts,
                "refusals_expected": sum(q["reference"]["refused"]
                                         for q in self.stream)}


# -- recipes -------------------------------------------------------------------

def recipe_facts(rid: str, out: dict) -> list[str]:
    """The paper's facts that each recipe must reproduce."""
    expect = {
        "f21-heawood": [("autc_order", 168), ("verdict", "NonCCA")],
        "agl17-subdivision": [("autc_order", 336), ("verdict", "NonCCA")],
        "knn-q8": [("autc_order", 4096), ("verdict", "NonCCA")],
        "wreath-demo": [("all_non_cca", True)],
        "thm45-sweep": [("all_match", True)],
        "prop56-f21": [("class_count", 1)],
        "thm51-decompose": [("all_verified", True)],
        "prop53-roundtrip": [("verdict", "NonCCA")],
    }[rid]
    return [f"{key} is {out.get(key)!r}, paper has {want!r}"
            for key, want in expect if out.get(key) != want]


class RecipesWorkload:
    """The eight short `cca reproduce` recipes in-process, in a fixed order.
    The input is fixed, so the seed changes nothing here.  The smoke variant
    runs two of them."""

    name = "recipes"

    def __init__(self, seed: int, smoke: bool = False):
        self.order = SMOKE_RECIPES if smoke else RECIPE_ORDER

    def setup_calls(self) -> list[str]:
        return ["builder:f21", "builder:agl17"]

    def setup(self, cca) -> list[Task]:
        cca.builders.f21()
        cca.builders.agl17()
        reference = load_reference("recipes.json")

        def task(rid):
            def check(out):
                text = json.dumps(out, sort_keys=True, indent=2)
                status, detail = _compare(rid, text, reference[rid])
                return _with_facts(rid, status, detail, recipe_facts(rid, out))

            return Task(rid, f"recipes.{rid}",
                        lambda: cca.recipes.reproduce(rid), check)

        return [task(rid) for rid in self.order]

    def info(self) -> dict:
        return {"recipes": list(self.order)}


WORKLOADS = {w.name: w for w in (EnumWorkload, CheckMixWorkload,
                                 RecipesWorkload)}
