"""Formulas over finite structures and the families they define.

A quantifier-free formula with an object block and parameter blocks turns
a structure into a set system: one member per object tuple, one universe
cell per parameter tuple.  Counting truth patterns over a parameter box
and tracing the definable family on the same box give the same number.
"""

from vcn import (
    FiniteStructure,
    Relation,
    build_counterexample_structure,
    count_types,
    dim_phi,
    negate,
    parse_formula,
    phi_class,
    pi_phi,
    shatter_fn,
    vc_n_dim,
    verify_ipn_witness,
)

structure = FiniteStructure(
    4, {"R": Relation(2, frozenset({(0, 1), (0, 2), (1, 2), (2, 3), (3, 0)}))}
)
phi = parse_formula("(R x y0)", (1, 1))
print(f"structure on 4 elements, formula {phi}")

system = phi_class(structure, phi)
print(f"definable family: {len(system.members)} members over parts {system.universe.part_sizes}")

box = (((1,), (2,)),)
tc = count_types(structure, [phi], box)
print(f"types over box {box}: {tc.count}")

print("\ninvariants:")
for m in (1, 2):
    print(f"  pi_phi({m}) = {pi_phi(structure, [phi], m)}  == shatter {shatter_fn(system, m)}")
print(f"  dim = {dim_phi(structure, phi)} == {vc_n_dim(system)}")
print(f"  negation keeps pi: {pi_phi(structure, [negate(phi)], 2)}")

# the packaged counterexample: its family has dimension 1 yet its shatter
# value at m=2 meets 2**(z-1), above any fixed polynomial in m
ce = build_counterexample_structure([2])
psi = parse_formula("(R x y0 y1)", (1, 1, 1))
print(f"\ncounterexample structure: domain {ce.size}")
print(f"  dim = {dim_phi(ce, psi)}, pi(2) = {pi_phi(ce, [psi], 2)}")

# no 2x2 parameter grid realizes all 16 patterns on it
grid = [[(1,), (2,)], [(8,), (9,)]]
print(f"  a sample grid fully realized: {verify_ipn_witness(ce, psi, grid)}")
