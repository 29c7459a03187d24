"""Spans and counters recorded from outside the program.

A traced function is replaced by a wrapper in every `cca` module that bound
it, so calls made through `from .groups import close_generators` in another
module are caught as well as calls through `cca.groups`.  Spans are kept in
memory (name, start, end, parent) and written out when the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, attribute, span name); a dotted attribute patches a method.
SPANS = [
    ("groups", "close_generators", "groups.close_generators"),
    ("groups", "is_normal", "groups.is_normal"),
    ("groups", "normal_subgroups", "groups.normal_subgroups"),
    ("groups", "find_isomorphism", "groups.find_isomorphism"),
    ("builders", "build_spec", "builders.build_spec"),
    ("graphs", "ColouredCayleyGraph.__init__", "graphs.ColouredCayleyGraph"),
    ("graphs", "graph_automorphisms", "graphs.graph_automorphisms"),
    ("engine", "autc_group", "engine.autc_group"),
    ("engine", "autc_stabiliser", "engine.autc_stabiliser"),
    ("engine", "aut_pm1_group", "engine.aut_pm1_group"),
    ("engine", "fast_cca_verdict", "engine.fast_cca_verdict"),
    ("engine", "predicted_autc_complete", "engine.predicted_autc_complete"),
    ("structure", "enumerate_connection_sets",
     "structure.enumerate_connection_sets"),
    ("structure", "decompose_structure", "structure.decompose_structure"),
    ("structure", "reduction_gamma_prime", "structure.reduction_gamma_prime"),
    ("structure", "converse_build", "structure.converse_build"),
    ("constructions", "line_graph_construction",
     "constructions.line_graph_construction"),
    ("constructions", "subdivision_construction",
     "constructions.subdivision_construction"),
    ("constructions", "wreath_witness", "constructions.wreath_witness"),
]


def _count_result(counts: Counter, name: str, result) -> None:
    """Work counters measured at the same boundaries as the spans."""
    if name == "groups.close_generators":
        counts["groups.close_generators.elements"] += result.order
    elif name == "engine.autc_stabiliser":
        counts["engine.stabiliser.elements"] += len(result)
    elif name == "engine.fast_cca_verdict" and result == "NonCCA":
        counts["engine.fast_cca_verdict.noncca"] += 1


class Patches:
    """Rebinds functions in every loaded `cca` module; undo() restores them."""

    def __init__(self):
        self._undo = []

    def rebind(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "cca" and not modname.startswith("cca."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def set_attr(self, obj, attr, replacement) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, replacement)

    def undo(self) -> None:
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()


class Tracer:
    """Span recorder.  Parent links come from a stack, so a span's parent is
    the innermost span open when it started; the root of each operation is
    opened by the benchmark itself with `span()`."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.errors: list[str | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.errors.append(None)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i: int, error: BaseException | None = None) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()
        if error is not None:
            self.errors[i] = type(error).__name__

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name`."""
        i = self._open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._close(i, exc)
            if (name == "engine.autc_stabiliser"
                    and type(exc).__name__ == "StabiliserTooLarge"):
                self.counts["engine.refused"] += 1
            raise
        self._close(i)
        _count_result(self.counts, name, result)
        return result

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def install(self, cca) -> Patches:
        patches = Patches()
        for module, attr, name in SPANS:
            mod = getattr(cca, module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                patches.set_attr(cls, meth, self.wrap(name, getattr(cls, meth)))
            else:
                original = getattr(mod, attr)
                patches.rebind(original, self.wrap(name, original))
        return patches

    def summary(self, exclude=None) -> dict:
        """Per span name: calls, busy seconds (outermost spans of that name,
        so recursion is not counted twice) and self seconds (duration minus
        direct children).  `exclude(start, end)`, if given, is time inside a
        span that belongs to none of them, such as a sampler's."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i]
               - (exclude(self.starts[i], self.ends[i]) if exclude else 0.0)
               for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict] = {}
        for i in range(n):
            name = self.names[i]
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += dur[i] - child[i]
            p = self.parents[i]
            while p >= 0 and self.names[p] != name:
                p = self.parents[p]
            if p < 0:
                row["s"] += dur[i]
        return out

    def to_json_dict(self) -> dict:
        names = sorted(set(self.names))
        code = {name: k for k, name in enumerate(names)}
        return {"names": names,
                "name": [code[x] for x in self.names],
                "start": self.starts, "end": self.ends,
                "parent": self.parents, "error": self.errors}


def count_calls(cca, module: str, attr: str, counts: Counter,
                key: str) -> Patches:
    """Count calls to one function without timing them; for functions called
    millions of times, whose spans would distort every other span."""
    original = getattr(getattr(cca, module), attr)

    def counted(*args):
        counts[key] += 1
        return original(*args)

    patches = Patches()
    patches.rebind(original, counted)
    return patches
