import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

from cca import builders, cli, masks, structure
from cca.cli import main
from cca.engine import autc_group
from cca.graphs import ColouredCayleyGraph
from cca.structure import enumerate_connection_sets

from conftest import brute_force_automorphisms, burnside_class_count


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_group_build(capsys):
    code, out, _ = run(capsys, ["group", "build", "z6"])
    assert code == 0
    d = json.loads(out)
    assert d["order"] == 6 and d["abelian"] is True
    assert d["labels"][0] == "0"


def test_cayley_json_and_dot(capsys):
    code, out, _ = run(capsys, ["cayley", "z6", "--set", "1,5"])
    assert code == 0
    d = json.loads(out)
    assert d["connection_set"] == ["1", "5"]
    # empty labels are dropped
    code, out, _ = run(capsys, ["cayley", "z6", "--set=1,,5"])
    assert code == 0
    assert json.loads(out)["connection_set"] == ["1", "5"]
    code, out, _ = run(capsys, ["cayley", "z6", "--set", "1,5",
                                "--format", "dot"])
    assert code == 0
    assert out.startswith("graph cayley {")


def test_cayley_json_names_the_spec_given(capsys):
    # the trivial groups name their spec, and a prod of one named group
    # leaves that group's spec, read by every later graph on it, as it was
    for spec in ("z1", "s1"):
        code, out, _ = run(capsys, ["cayley", spec, "--set="])
        assert code == 0 and json.loads(out)["group_spec"] == spec
    for spec in ("prod(f21)", "f21"):
        code, out, _ = run(capsys, ["cayley", spec, "--set=x,x^6"])
        assert code == 0 and json.loads(out)["group_spec"] == spec


def test_check_verdicts(capsys):
    code, out, _ = run(capsys, ["check", "z6", "--set", "1,5"])
    assert code == 0
    assert json.loads(out)["verdict"] == "CCA"
    code, out, _ = run(capsys,
                       ["check", "f21", "--set", "y^2,y^4,x*y^2,x^5*y^4"])
    assert code == 0
    d = json.loads(out)
    assert d["verdict"] == "NonCCA"
    assert d["full_group_order"] == 168
    assert "witness_permutation" in d


def test_check_labels_with_commas(capsys):
    labels = ["(i,0)", "(-i,0)", "(j,1)", "(-j,1)", "(1,1)"]
    code, out, _ = run(capsys,
                       ["check", "q8xz2^1", "--set", ",".join(labels)])
    assert code == 0
    G = builders.build_spec("q8xz2^1")
    res = autc_group(ColouredCayleyGraph(G, [G.label_index(l)
                                             for l in labels]))
    assert out == json.dumps(res.to_json_dict(), sort_keys=True, indent=2) + "\n"


def test_check_labels_with_leading_minus(capsys):
    # a value that begins with '-' must be attached with '=', or argparse
    # reads it as an option
    code, out, _ = run(capsys, ["check", "q8", "--set=-j,j,-k,k"])
    assert code == 0
    d = json.loads(out)
    assert d["graph"]["connection_set"] == ["-j", "j", "-k", "k"]
    assert d["full_group_order"] == 64
    code, _, err = run(capsys, ["check", "q8", "--set", "-j,j,-k,k"])
    assert code == 64 and "--set" in err


def test_check_output_is_deterministic(capsys):
    argv = ["check", "f21", "--set", "y^2,y^4,x*y^2,x^5*y^4"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_decompose(capsys):
    code, out, _ = run(capsys,
                       ["decompose", "f21", "--set", "y^2,y^4,x*y^2,x^5*y^4"])
    assert code == 0
    d = json.loads(out)
    assert d["verdict"] == "NonCCA"
    assert all(d["decomposition"]["properties"].values())
    assert all(d["reduction"]["checks"].values())


def test_reproduce(capsys):
    code, out, _ = run(capsys, ["reproduce", "thm45-sweep"])
    assert code == 0
    assert json.loads(out)["all_match"] is True


def test_usage_errors_exit_64(capsys):
    assert run(capsys, [])[0] == 64
    assert run(capsys, ["no-such-command"])[0] == 64
    assert run(capsys, ["check", "z6"])[0] == 64           # missing --set
    assert run(capsys, ["reproduce", "no-such-example"])[0] == 64
    # options that were removed
    for argv, option in ((["enumerate", "f21", "--jobs", "2"], "--jobs"),
                         (["reproduce", "prop56-f21", "--jobs", "2"], "--jobs"),
                         (["reproduce", "prop56-agl17", "--slow"], "--slow"),
                         (["enumerate", "f21", "--mode", "full"], "--mode"),
                         (["enumerate", "agl17", "--slow"], "--slow")):
        code, _, err = run(capsys, argv)
        assert code == 64 and option in err, argv


def test_precondition_errors_exit_2(capsys):
    # identity in the connection set
    code, _, err = run(capsys, ["cayley", "z6", "--set", "0,1,5"])
    assert code == 2 and "error" in err
    # not inverse-closed
    assert run(capsys, ["check", "z6", "--set", "1"])[0] == 2
    # disconnected graph
    assert run(capsys, ["check", "z6", "--set", "2,4"])[0] == 2
    # unparsable group spec
    assert run(capsys, ["group", "build", "zz9"])[0] == 2
    # a group over the order cap, refused before it is built
    code, _, err = run(capsys, ["group", "build", "z10001"])
    assert code == 2 and "cap 10000" in err


def test_unknown_label_exit_2(capsys):
    code, _, err = run(capsys, ["check", "z6", "--set", "banana"])
    assert code == 2
    assert "banana" in err


def test_internal_key_error_exit_1(capsys, monkeypatch):
    def broken(Gamma):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "autc_group", broken)
    code, _, err = run(capsys, ["check", "z6", "--set", "1,5"])
    assert code == 1 and "internal error" in err


def _subprocess_env():
    """The environment for a fresh interpreter that imports this cca."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_closed_stdout_exits_141_quietly():
    """A reader that closes the pipe before the output ends, as
    `cca group build ... | head -c 100` may, gets exit 141 (128 + SIGPIPE)
    and nothing on stderr.  The reader here closes before the first write,
    so every run takes the same path."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cca.cli", "group", "build",
             "prod(f21;z5;z2)"],
            stdout=write_end, stderr=subprocess.PIPE, env=_subprocess_env(),
            timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


_NUMPY_PROBE = """
import contextlib, io, json, sys
import cca
from cca import cli
steps = [["import cca", None, "numpy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    steps.append([" ".join(argv), code, "numpy" in sys.modules])
print(json.dumps(steps))
"""


def test_only_the_enumeration_loads_numpy():
    # importing numpy takes about half of a fresh `cca check` process, so
    # only an enumeration that passes its bounds may load it; one process
    # runs the steps in order, with the step that loads numpy last
    steps = [("check q8 --set=-j,j,-k,k", 0, False),
             ("decompose f21 --set y^2,y^4,x*y^2,x^5*y^4", 0, False),
             ("cayley z6 --set 1,5", 0, False),
             ("enumerate z9999", 2, False),
             ("enumerate z49", 2, False),
             ("enumerate f21", 0, True)]
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE,
         json.dumps([argv.split() for argv, _, _ in steps])],
        capture_output=True, text=True, env=_subprocess_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert [tuple(step) for step in json.loads(proc.stdout)] == \
        [("import cca", None, False), *steps]


_MODULES_PROBE = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "cca")

import cca
steps = [["import cca", None, loaded(), "dataclasses" in sys.modules]]
cca.builders.build_spec("f21xz2")
steps.append(["build_spec f21xz2", None, loaded(),
              "dataclasses" in sys.modules])
from cca import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    steps.append([" ".join(argv), code, loaded(),
                  "dataclasses" in sys.modules])
print(json.dumps(steps))
"""


def test_each_step_loads_only_the_modules_it_uses():
    # `import cca` loads no submodule, building a group loads four, and each
    # command loads what it runs; one process runs the steps in order, so
    # each set is the one before it plus what that step needs.  dataclasses
    # (which imports inspect) comes in only with structure, so a `cca
    # check` process never pays for it
    def cca_modules(*names):
        return sorted(["cca", *(f"cca.{name}" for name in names)])

    build = ("builders", "errors", "groups", "perms")
    command = (*build, "cli", "engine", "graphs")
    steps = [("import cca", None, cca_modules(), False),
             ("build_spec f21xz2", None, cca_modules(*build), False),
             ("check q8 --set=-j,j,-k,k", 0, cca_modules(*command), False),
             ("group build z6", 0, cca_modules(*command), False),
             ("cayley z6 --set 1,5", 0, cca_modules(*command), False),
             ("decompose f21 --set y^2,y^4,x*y^2,x^5*y^4", 0,
              cca_modules(*command, "structure"), True),
             ("enumerate f21", 0, cca_modules(*command, "structure", "masks"),
              True),
             ("reproduce no-such-example", 64,
              cca_modules(*command, "structure", "masks", "recipes",
                          "constructions"), True)]
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_PROBE,
         json.dumps([argv.split() for argv, *_ in steps[2:]])],
        capture_output=True, text=True, env=_subprocess_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert [tuple(step) for step in json.loads(proc.stdout)] == steps


def test_enumerate_f21(capsys):
    code, out, _ = run(capsys, ["enumerate", "f21"])
    assert code == 0
    d = json.loads(out)
    assert d["scanned"] == 1024
    assert len(d["non_cca_classes"]) == 1
    code, out, _ = run(capsys, ["enumerate", "f21", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "representative,orbit_size,autc_order"


def test_enumerate_any_spec(capsys):
    # Z6 has 8 classes of unit sets under Aut(Z6) = {1, -1}, the same
    # number the orbit-counting lemma gives over Aut(Z6) found by brute force
    code, out, _ = run(capsys, ["enumerate", "z6"])
    assert code == 0
    rep = enumerate_connection_sets("z6")
    assert json.loads(out) == rep.to_json_dict()
    G = builders.build_spec("z6")
    assert rep.class_count == burnside_class_count(
        G, brute_force_automorphisms(G)) == 8


def test_enumerate_refusals_exit_2_at_once(capsys, monkeypatch):
    # an order over 49, k over 24 (Aut(Z2^5) has about 10^7 elements) and
    # more than 500000 classes (Z49 has 798960) are each refused before the
    # work they bound: the order refusal builds no group, the k refusal
    # computes no automorphism and the class refusal scans no mask
    def refuse(*args):
        raise RuntimeError("the refusal came too late")

    for spec, reason, module, late in (
            ("z9999", "order over 49", builders, "cyclic"),
            ("z2^5", "31 colour units", structure,
             "automorphism_transversals"),
            ("z49", "798960 classes", masks, "_classes")):
        with monkeypatch.context() as m:
            m.setattr(module, late, refuse)
            t0 = time.monotonic()
            code, out, err = run(capsys, ["enumerate", spec])
            assert time.monotonic() - t0 < 1, spec
        assert (code, out) == (2, "") and reason in err, (spec, err)


def test_readme_synopsis_lists_every_option():
    # the README's "Command line" synopsis names each subcommand and exactly
    # the options the parser defines for it, so a removed option cannot
    # linger there
    readme = (Path(cli.__file__).resolve().parents[2] / "README.md").read_text()
    synopsis = readme.split("## Command line\n", 1)[1] \
        .split("```\n", 2)[1]
    listed = {}
    for line in synopsis.splitlines():
        if line.startswith("cca "):
            command = line.split()[1]
            listed[command] = set()
        listed[command] |= set(re.findall(r"--[a-z][a-z-]*", line))
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    defined = {name: {opt for a in p._actions for opt in a.option_strings
                      if opt.startswith("--") and opt != "--help"}
               for name, p in sub.choices.items()}
    assert listed == defined
