"""Command-line front end.

Exit codes: 0 success, 2 hypothesis/precondition violations, 1 internal
errors, 64 usage errors, 141 (128 + SIGPIPE) when the reader of stdout
closes it before the output ends, as `cca ... | head` does.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import builders, recipes
from .engine import autc_group
from .errors import CCAError
from .graphs import ColouredCayleyGraph, to_dot, to_json_dict
from .structure import (decompose_structure, enumerate_connection_sets,
                        reduction_gamma_prime)

USAGE_EXIT = 64
BROKEN_PIPE_EXIT = 141
_SET_HELP = ("comma-separated element labels, e.g. 'y^2,y^4,d'; write "
             "--set=LABELS when the first label begins with '-'")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _resolve_set(G, text: str):
    """The elements of a comma-separated label list; empty labels are
    dropped."""
    return [G.label_index(tok)
            for tok in builders.split_top_level(text, ",") if tok]


def _graph_from_args(args) -> ColouredCayleyGraph:
    G = builders.build_spec(args.spec)
    return ColouredCayleyGraph(G, _resolve_set(G, args.set))


def _cmd_group(args) -> int:
    G = builders.build_spec(args.build)
    _emit({
        "spec": args.build,
        "order": G.order,
        "abelian": G.is_abelian(),
        "exponent": G.exponent(),
        "element_orders": list(G.element_orders),
        "labels": [G.label(i) for i in range(G.order)],
    })
    return 0


def _cmd_cayley(args) -> int:
    Gamma = _graph_from_args(args)
    if args.format == "dot":
        sys.stdout.write(to_dot(Gamma))
    else:
        _emit(to_json_dict(Gamma))
    return 0


def _cmd_check(args) -> int:
    Gamma = _graph_from_args(args)
    _emit(autc_group(Gamma).to_json_dict())
    return 0


def _cmd_decompose(args) -> int:
    Gamma = _graph_from_args(args)
    res = autc_group(Gamma)
    dec = decompose_structure(Gamma, res)
    red = reduction_gamma_prime(Gamma, dec)
    _emit({"verdict": res.verdict,
           "decomposition": dec.to_json_dict(),
           "reduction": red.to_json_dict()})
    return 0


def _cmd_reproduce(args) -> int:
    _emit(recipes.reproduce(args.example))
    return 0


def _cmd_enumerate(args) -> int:
    rep = enumerate_connection_sets(args.spec)
    if args.format == "csv":
        sys.stdout.write(rep.to_csv())
    else:
        _emit(rep.to_json_dict())
    return 0


def _build_parser() -> _Parser:
    p = _Parser(prog="cca",
                description="Cayley graphs, colour-preserving automorphism "
                            "groups and the CCA property")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("group", help="build a group from its textual spec")
    g.add_argument("action", choices=["build"])
    g.add_argument("build", metavar="SPEC")
    g.set_defaults(fn=_cmd_group)

    c = sub.add_parser("cayley", help="build a coloured Cayley graph")
    c.add_argument("spec", metavar="SPEC")
    c.add_argument("--set", required=True, help=_SET_HELP)
    c.add_argument("--format", choices=["json", "dot"], default="json")
    c.set_defaults(fn=_cmd_cayley)

    k = sub.add_parser("check", help="CCA verdict for Cay(SPEC, SET)")
    k.add_argument("spec", metavar="SPEC")
    k.add_argument("--set", required=True, help=_SET_HELP)
    k.set_defaults(fn=_cmd_check)

    d = sub.add_parser("decompose",
                       help="structure decomposition of the colour group")
    d.add_argument("spec", metavar="SPEC")
    d.add_argument("--set", required=True, help=_SET_HELP)
    d.set_defaults(fn=_cmd_decompose)

    r = sub.add_parser("reproduce", help="run a named end-to-end computation")
    r.add_argument("example", choices=sorted(recipes.RECIPES))
    r.set_defaults(fn=_cmd_reproduce)

    e = sub.add_parser("enumerate",
                       help="classify connection sets up to automorphism")
    e.add_argument("spec", metavar="SPEC")
    e.add_argument("--format", choices=["json", "csv"], default="json")
    e.set_defaults(fn=_cmd_enumerate)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_EXIT
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Nothing more can reach the reader; send what is still buffered to
        # devnull, so that the interpreter's flush at exit stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE_EXIT
    except CCAError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:   # noqa: BLE001 - CLI boundary
        sys.stderr.write(f"internal error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
