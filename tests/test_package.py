"""The package namespace: its public names, each its home module's own object."""

import importlib

import pytest

import vcn

# The public names of the package; a change here is an API change.
PUBLIC = {
    "errors": [
        "BudgetExceededError", "FiniteStructure", "GenerationError", "InputError",
        "PartiteHypergraph", "Relation", "SelectionStuckError", "WalkStuckError",
    ],
    "setsys": [
        "BoxSpec", "GroundFamily", "ProductUniverse", "SetSystem", "is_shattered",
        "iter_boxes", "sauer_binomial_bound", "shatter_fn", "shift", "trace", "vc_n_dim",
    ],
    "zar": [
        "ZarResult", "build_counterexample_structure", "build_extremal_family",
        "contains_complete_partite", "zarankiewicz",
    ],
    "fmodel": [
        "QfFormula", "TypeCount", "conjoin", "count_types", "dim_phi",
        "eval_formula", "format_formula", "negate", "parse_formula", "permute_blocks",
        "phi_class", "pi_phi", "verify_ipn_witness",
    ],
    "indisc": ["IndexedFamily", "check_encodes", "check_indiscernible"],
    "ramsey": [
        "ColoringProblem", "EmbeddingSet", "RelStructure", "arrow_check", "arrow_scan",
        "bar_restrict", "build_direct_sum_witness", "copies", "direct_sum", "encode_tilde",
        "flatten", "hereditary_closure", "induced", "ordered_set_oracle", "points",
    ],
    "hyperrand": [
        "ExtensionHypergraph", "VAdjacencyWitness", "achieved_extension_level",
        "adjacency_walk", "check_extension_level", "diagonal_hypergraph",
        "dichotomy_verdict", "find_extension_violation", "gen_extension_hypergraph",
        "is_v_adjacent", "random_subgraph", "step_certificate", "walk_discrepancies",
    ],
}
HOME = {name: module for module, names in PUBLIC.items() for name in names}


def test_all_is_the_frozen_name_list():
    assert len(HOME) == 68
    assert vcn.__all__ == sorted(HOME)


@pytest.mark.parametrize("name", sorted(HOME))
def test_name_is_its_home_module_object(name):
    home = importlib.import_module(f"vcn.{HOME[name]}")
    assert getattr(vcn, name) is getattr(home, name)
    assert name not in vars(vcn)  # looked up anew, so a patch of the home module shows


def test_dir_covers_all():
    assert set(vcn.__all__) <= set(dir(vcn))
    assert {"__version__", *PUBLIC} <= set(dir(vcn))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from vcn import *", namespace)
    assert {name: namespace[name] for name in HOME} == {name: getattr(vcn, name) for name in HOME}


def test_submodules_are_attributes():
    for module in PUBLIC:
        assert getattr(vcn, module) is importlib.import_module(f"vcn.{module}")


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'vcn' has no attribute 'no_such_name'$"):
        vcn.no_such_name
