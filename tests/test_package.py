"""The package namespace: the names `cca` exports and the objects they
resolve to, now that each submodule loads on first use."""

import importlib

import pytest

import cca

# the names `cca` exports, by the module that defines each: the list it
# re-exported when it imported every submodule at once
EXPORTS = {
    "builders": ["agl17", "agl17xz2", "build_spec", "catalog", "cyclic",
                 "dihedral", "direct_product", "f21", "f21xz2",
                 "generalized_dicyclic", "generalized_dihedral", "named_map",
                 "pgl27", "psl27", "q8_times_z2", "quaternion8", "symmetric",
                 "wreath_product"],
    "constructions": ["CompleteColourPairCheck", "WreathWitness",
                      "is_complete_colour_pair", "line_graph_construction",
                      "subdivision_construction", "wreath_witness"],
    "engine": ["AutcResult", "aut_pm1_group", "autc_group", "autc_stabiliser",
               "fast_cca_verdict", "is_colour_preserving",
               "predicted_autc_complete"],
    "errors": ["CCAError", "HypothesesNotMet", "HypothesisViolated"],
    "graphs": ["ColouredCayleyGraph", "PlainGraph", "cayley",
               "complete_cayley", "graph_automorphisms", "heawood",
               "is_connected", "quotient_graph",
               "realize_line_graph_as_cayley", "subdivision", "to_dot",
               "to_json_dict"],
    "groups": ["FiniteGroup", "are_conjugate_subsets", "are_isomorphic",
               "close_generators", "find_isomorphism", "is_normal",
               "is_subgroup", "is_sylow_cyclic_order_not_div_4",
               "normal_subgroups", "sylow_subgroup"],
    "perms": [],
    "recipes": ["RECIPES", "reproduce"],
    "structure": ["EnumerationReport", "ReductionData",
                  "StructureDecomposition", "canonical_sets",
                  "converse_build", "decompose_structure",
                  "enumerate_connection_sets", "reduction_gamma_prime"],
}


def test_all_is_unchanged():
    names = [*EXPORTS, *(name for names in EXPORTS.values() for name in names)]
    assert len(names) == 75
    assert cca.__all__ == sorted(names)


def test_each_name_is_its_modules_own_object():
    for module, names in EXPORTS.items():
        mod = importlib.import_module(f"cca.{module}")
        assert getattr(cca, module) is mod
        for name in names:
            obj = getattr(cca, name)
            assert obj is vars(mod)[name], name
            assert getattr(obj, "__module__", mod.__name__) == mod.__name__


def test_star_import_dir_and_unknown_names():
    namespace = {}
    exec("from cca import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == cca.__all__
    assert set(cca.__all__) <= set(dir(cca))
    assert "__version__" in dir(cca)
    with pytest.raises(AttributeError, match="no_such_name"):
        cca.no_such_name
    with pytest.raises(ImportError):
        exec("from cca import no_such_name", {})


def test_names_are_resolved_on_each_access():
    # the package keeps no copy of a name: a function rebound in its module,
    # as the benchmark's tracer rebinds them, is seen through the package,
    # and so is the original once it is restored
    original = cca.autc_group
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cca.engine, "autc_group", len)
        assert cca.autc_group is len
    assert cca.autc_group is original
    assert "autc_group" not in vars(cca)
