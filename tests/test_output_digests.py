"""The byte-identity gate: what `cca` prints stays what it printed when each
digest was recorded.

bench/reference holds the benchmark's references, read here and never
written: the sha256 of every check-mix pool query's `cca check` output (or
its refusal), and the whole text of eight recipes and two enumerations.
tests/data/cli_digests.json holds what they lack, each invocation run
through cli.main with its exit code, the sha256 of its stdout and its
stderr: the other two recipes, six enumerations in both formats,
`decompose` on the four named sets, and the refusals.

A change that alters an output re-records the digests it alters in the same
commit, and says which and why.  From the root of the repository,

    PYTHONPATH=src python tests/test_output_digests.py

rewrites tests/data/cli_digests.json from the code in src.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from cca import builders, cli, structure
from cca.engine import autc_group
from cca.errors import StabiliserTooLarge
from cca.graphs import ColouredCayleyGraph

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "bench" / "reference"
DIGESTS = ROOT / "tests" / "data" / "cli_digests.json"

# the q8xz2^3 set of 16 units (+-j, a, b, c) and (+-i, 1, 1, 1): NonCCA with
# |A_1| = 2^31, over autc_group's cap
Q8XZ2_3_M31 = ",".join(
    [f"({x},{a},{b},{c})" for a in (0, 1) for b in (0, 1) for c in (0, 1)
     for x in ("j", "-j")] + ["(i,1,1,1)", "(-i,1,1,1)"])

INVOCATIONS = [
    ["reproduce", "prop56-agl17"],
    ["reproduce", "prop56-f21xz2"],
    # z1 and z2^0 are the trivial group: no unit, one empty class
    *[["enumerate", spec, "--format", fmt]
      for spec in ("agl17", "q8xz2^1", "q8xz2^2", "prod(z4;z2^3)", "z1",
                   "z2^0")
      for fmt in ("json", "csv")],
    ["decompose", "f21", "--set", "y^2,y^4,x*y^2,x^5*y^4"],
    ["decompose", "agl17", "--set", "y^2,y^4,x^5*y^3"],
    ["decompose", "agl17", "--set", "y^2,y^4,x^6*y^2,x^2*y^4,x^5*y^3"],
    ["decompose", "f21xz2", "--set",
     "y^2,y^4,x*y^2,x^5*y^4,y^2*r,y^4*r,x*y^2*r,x^5*y^4*r,r"],
    # refusals, exit 2
    ["check", "q8xz2^3", "--set", Q8XZ2_3_M31],
    ["check", "z6", "--set", "2,4"],
    ["check", "z6", "--set", "1"],
    ["check", "z6", "--set", "banana"],
    ["cayley", "z6", "--set", "0,1,5"],
    ["check", "dih(z5001)", "--set", "r"],
    ["group", "build", "zz9"],
    ["group", "build", "z10001"],
    ["enumerate", "z49"],
    ["enumerate", "z2^5"],
    ["enumerate", "z101"],
    ["enumerate", "z9999"],
]

# check-mix pool queries also run through cli.main, besides every refused one
CLI_SAMPLE = 60


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def invoke(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `cca ARGV`, run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _load(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _record() -> None:
    entries = []
    for argv in INVOCATIONS:
        code, out, err = invoke(argv)
        entries.append({"argv": argv, "exit": code,
                        "stdout_sha256": sha256(out), "stderr": err})
    DIGESTS.parent.mkdir(exist_ok=True)
    with open(DIGESTS, "w") as fh:
        json.dump({"invocations": entries}, fh, indent=1)
        fh.write("\n")


def test_checkmix_pool_outputs_are_unchanged():
    # every pool query in-process, rendered as `cca check` renders it; the
    # refused ones still raise the cap refusal
    queries = _load(REFERENCE / "checkmix_pool.json")["queries"]
    answered = refused = 0
    for q in queries:
        G = builders.build_spec(q["spec"])
        Gamma = ColouredCayleyGraph(G, [G.label_index(x) for x in q["labels"]])
        ref = q["reference"]
        if ref["refused"]:
            with pytest.raises(StabiliserTooLarge):
                autc_group(Gamma)
            refused += 1
            continue
        text = json.dumps(autc_group(Gamma).to_json_dict(), sort_keys=True,
                          indent=2)
        assert sha256(text) == ref["digest"], q["id"]
        answered += 1
    assert (answered, refused) == (939, 1)


def test_checkmix_sample_through_the_cli():
    # a seeded sample of the pool, and the refusal, through cli.main: the
    # printed text is the digested one plus a newline
    queries = _load(REFERENCE / "checkmix_pool.json")["queries"]
    sample = random.Random(26).sample(queries, CLI_SAMPLE)
    sample += [q for q in queries if q["reference"]["refused"]]
    for q in sample:
        code, out, err = invoke(["check", q["spec"],
                                 f"--set={','.join(q['labels'])}"])
        if q["reference"]["refused"]:
            assert (code, out, err) == (
                2, "", "error: stabiliser exceeds cap 16384\n"), q["id"]
        else:
            assert (code, err) == (0, ""), q["id"]
            assert out.endswith("\n") and \
                sha256(out[:-1]) == q["reference"]["digest"], q["id"]


def test_recipe_and_enumeration_texts_are_unchanged():
    # the benchmark's recipe and enumeration references hold whole texts
    recipes = _load(REFERENCE / "recipes.json")
    enums = _load(REFERENCE / "enum.json")
    assert len(recipes) == 8 and sorted(enums) == ["f21", "f21xz2"]
    cases = [(["reproduce", rid], ref) for rid, ref in recipes.items()]
    cases += [(["enumerate", base], ref) for base, ref in enums.items()]
    for argv, ref in cases:
        assert sha256(ref["text"]) == ref["digest"], argv
        assert invoke(argv) == (0, ref["text"] + "\n", ""), argv


def test_recorded_invocations_are_unchanged(monkeypatch):
    # each enumeration runs once for its two formats
    monkeypatch.setattr(structure, "enumerate_connection_sets",
                        functools.cache(structure.enumerate_connection_sets))
    entries = _load(DIGESTS)["invocations"]
    assert [e["argv"] for e in entries] == INVOCATIONS
    for e in entries:
        code, out, err = invoke(e["argv"])
        assert (code, sha256(out), err) == \
            (e["exit"], e["stdout_sha256"], e["stderr"]), e["argv"]
    assert sum(e["exit"] == 2 for e in entries) == 12


if __name__ == "__main__":
    _record()
