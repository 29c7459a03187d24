"""Edge-coloured Cayley graphs, colour-preserving automorphism groups and
the CCA property: builders, decision engine, non-CCA constructions,
structure decomposition and exhaustive connection-set classification.
"""

from .builders import (build_spec, catalog, cyclic, dihedral, direct_product,
                       f21, f21xz2, agl17, agl17xz2, generalized_dicyclic,
                       generalized_dihedral, named_map, pgl27, psl27,
                       q8_times_z2, quaternion8, symmetric, wreath_product)
from .constructions import (CompleteColourPairCheck, WreathWitness,
                            is_complete_colour_pair, line_graph_construction,
                            subdivision_construction, wreath_witness)
from .engine import (AutcResult, aut_pm1_group, autc_group, autc_stabiliser,
                     fast_cca_verdict, is_colour_preserving,
                     predicted_autc_complete)
from .errors import CCAError, HypothesesNotMet, HypothesisViolated
from .graphs import (ColouredCayleyGraph, PlainGraph, cayley, complete_cayley,
                     graph_automorphisms, heawood, is_connected,
                     quotient_graph, realize_line_graph_as_cayley,
                     subdivision, to_dot, to_json_dict)
from .groups import (FiniteGroup, are_conjugate_subsets, are_isomorphic,
                     close_generators, find_isomorphism, is_normal,
                     is_subgroup, is_sylow_cyclic_order_not_div_4,
                     normal_subgroups, sylow_subgroup)
from .recipes import RECIPES, reproduce
from .structure import (EnumerationReport, ReductionData,
                        StructureDecomposition, canonical_sets,
                        converse_build, decompose_structure,
                        enumerate_connection_sets, reduction_gamma_prime)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
