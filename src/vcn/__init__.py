"""Workbench for box shattering over product universes and its relatives.

Submodules: setsys (set systems, shattering, shifts), zar (box-free
thresholds, extremal families and the counterexample structure), fmodel
(quantifier-free formulas and type counting over finite structures, with
pi_phi and dim_phi on the support of delta), indisc (families of
indiscernibles indexed by hypergraphs: encoding and indiscernibility
checks), ramsey (ordered substructure arrows and partite encodings),
hyperrand (random hypergraphs with verified extension levels, adjacency
walks), cli (the vcn command).

``import vcn`` loads no submodule: each public name below is looked up in
its home module on first use, which imports that module then.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_EXPORTS = {
    "errors": """BudgetExceededError FiniteStructure GenerationError InputError
        PartiteHypergraph Relation SelectionStuckError WalkStuckError""",
    "setsys": """BoxSpec GroundFamily ProductUniverse SetSystem is_shattered
        iter_boxes sauer_binomial_bound shatter_fn shift trace vc_n_dim""",
    "zar": """ZarResult build_counterexample_structure build_extremal_family
        contains_complete_partite zarankiewicz""",
    "fmodel": """QfFormula TypeCount conjoin count_types dim_phi eval_formula
        format_formula negate parse_formula permute_blocks phi_class pi_phi
        verify_ipn_witness""",
    "indisc": "IndexedFamily check_encodes check_indiscernible",
    "ramsey": """ColoringProblem EmbeddingSet RelStructure arrow_check
        arrow_scan bar_restrict build_direct_sum_witness copies direct_sum
        encode_tilde flatten hereditary_closure induced ordered_set_oracle
        points""",
    "hyperrand": """ExtensionHypergraph VAdjacencyWitness
        achieved_extension_level adjacency_walk check_extension_level
        diagonal_hypergraph dichotomy_verdict find_extension_violation
        gen_extension_hypergraph is_v_adjacent random_subgraph
        step_certificate walk_discrepancies""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    # Not cached in the package globals: a name stays a view of its home
    # module, so a function patched there is seen here too.
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    if name in _HOME:
        return getattr(importlib.import_module("." + _HOME[name], __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
