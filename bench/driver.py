"""Call one public vcn function that has no CLI verb.

Usage: python bench/driver.py FUNCTION SPEC.json

SPEC is a JSON object; the input files it names are read relative to the
directory that holds SPEC.  The answer is printed as one JSON line, and
exceptions propagate, so a refusal or a bug ends the process with a
traceback and a nonzero exit code.  Run it with ``src`` on ``PYTHONPATH``.

The functions reach the package through ``vcn.<name>`` at call time, so a
traced run that wraps the package namespace sees every call.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import vcn

# The counterexample structure defines the extremal family through R(x, y0, y1).
CE_FORMULA, CE_BLOCKS = "(R x y0 y1)", (1, 1, 1)
# Random ternary structures are read with a pair object block.
STRUCT_FORMULAS = ("(R x.0 y0 y1)", "(or (R x.1 y1 y0) (= x.0 y0))")
STRUCT_BLOCKS = (2, 1, 1)
# R(x.0, y0, y1) xor R(x.1, y0, y1) depends on both object components, so
# the 100 objects of a random structure realize every pattern of a 2 x 2
# grid for some seeds and not for others.
IPN_FORMULA = "(or (and (R x.0 y0 y1) (not (R x.1 y0 y1))) (and (not (R x.0 y0 y1)) (R x.1 y0 y1)))"


def _structure(base: Path, spec) -> vcn.FiniteStructure:
    return vcn.FiniteStructure.from_json((base / spec["structure"]).read_text())


def _hypergraph(base: Path, spec) -> vcn.PartiteHypergraph:
    text = (base / spec["hypergraph"]).read_text()
    if "t" in json.loads(text):
        return vcn.ExtensionHypergraph.from_json(text).base
    return vcn.PartiteHypergraph.from_json(text)


def phi_class(base, spec):
    system = vcn.phi_class(_structure(base, spec), vcn.parse_formula(CE_FORMULA, CE_BLOCKS))
    return {"members": len(system.members), "part_sizes": list(system.universe.part_sizes)}


def pi_phi(base, spec):
    phi = vcn.parse_formula(CE_FORMULA, CE_BLOCKS)
    return {"pi": vcn.pi_phi(_structure(base, spec), [phi], spec["m"])}


def dim_phi(base, spec):
    phi = vcn.parse_formula(CE_FORMULA, CE_BLOCKS)
    return {"dim": vcn.dim_phi(_structure(base, spec), phi, spec["cap"])}


def count_types(base, spec):
    structure = _structure(base, spec)
    delta = [vcn.parse_formula(f, STRUCT_BLOCKS) for f in STRUCT_FORMULAS]
    return {"counts": [vcn.count_types(structure, delta, box).count for box in spec["boxes"]]}


def verify_ipn_witness(base, spec):
    structure = _structure(base, spec)
    phi = vcn.parse_formula(IPN_FORMULA, STRUCT_BLOCKS)
    return {"realized": [vcn.verify_ipn_witness(structure, phi, grid) for grid in spec["grids"]]}


def step_certificate(base, spec):
    h = _hypergraph(base, spec)
    steps = json.loads((base / spec["walk"]).read_text())["steps"]
    certs = [vcn.step_certificate(h, a, b) for a, b in zip(steps, steps[1:])]
    return {
        "certificates": [
            {"v": [list(x) for x in c.v], "flipped": [list(x) for x in c.flipped_edge]}
            for c in certs
        ]
    }


def random_subgraph(base, spec):
    h = _hypergraph(base, spec)
    v = [tuple(x) for x in spec["v"]]
    windows = [sorted(i for p, i in v if p == q) for q in range(h.n)]
    # the reference edge is the first one strictly inside V's windows
    g = min(e for e in h.edges if all(w[0] < x < w[-1] for x, w in zip(e, windows)))
    selection = vcn.random_subgraph(h, v, g, spec["s"])
    return {"g": list(g), "selection": selection}


def achieved_extension_level(base, spec):
    return {"level": vcn.achieved_extension_level(_hypergraph(base, spec), spec["cap"])}


FUNCTIONS = {
    f.__name__: f
    for f in (
        phi_class,
        pi_phi,
        dim_phi,
        count_types,
        verify_ipn_witness,
        step_certificate,
        random_subgraph,
        achieved_extension_level,
    )
}


def run(function: str, spec_path: str) -> str:
    path = Path(spec_path)
    spec = json.loads(path.read_text())
    return json.dumps(FUNCTIONS[function](path.parent, spec), sort_keys=True)


if __name__ == "__main__":
    print(run(sys.argv[1], sys.argv[2]))
