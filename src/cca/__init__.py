"""Edge-coloured Cayley graphs, colour-preserving automorphism groups and
the CCA property: builders, decision engine, non-CCA constructions,
structure decomposition and exhaustive connection-set classification.

The namespace is lazy (PEP 562): `import cca` loads no submodule, and each
name below imports its module on first access, so a process pays only for
the modules it uses.
"""

from importlib import import_module

_EXPORTS = {
    "builders": (
        "build_spec", "catalog", "cyclic", "dihedral", "direct_product", "f21",
        "f21xz2", "agl17", "agl17xz2", "generalized_dicyclic",
        "generalized_dihedral", "named_map", "pgl27", "psl27", "q8_times_z2",
        "quaternion8", "symmetric", "wreath_product"),
    "constructions": (
        "CompleteColourPairCheck", "WreathWitness", "is_complete_colour_pair",
        "line_graph_construction", "subdivision_construction",
        "wreath_witness"),
    "engine": (
        "AutcResult", "aut_pm1_group", "autc_group", "autc_stabiliser",
        "fast_cca_verdict", "is_colour_preserving", "predicted_autc_complete"),
    "errors": ("CCAError", "HypothesesNotMet", "HypothesisViolated"),
    "graphs": (
        "ColouredCayleyGraph", "PlainGraph", "cayley", "complete_cayley",
        "graph_automorphisms", "heawood", "is_connected", "quotient_graph",
        "realize_line_graph_as_cayley", "subdivision", "to_dot",
        "to_json_dict"),
    "groups": (
        "FiniteGroup", "are_conjugate_subsets", "are_isomorphic",
        "close_generators", "find_isomorphism", "is_normal", "is_subgroup",
        "is_sylow_cyclic_order_not_div_4", "normal_subgroups",
        "sylow_subgroup"),
    "perms": (),
    "recipes": ("RECIPES", "reproduce"),
    "structure": (
        "EnumerationReport", "ReductionData", "StructureDecomposition",
        "canonical_sets", "converse_build", "decompose_structure",
        "enumerate_connection_sets", "reduction_gamma_prime"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])
__version__ = "0.1.0"


def __getattr__(name):
    # a name is looked up in its module on every access and never stored
    # here, so that a function rebound in its module (as the benchmark's
    # tracer does) is seen through the package as well
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
