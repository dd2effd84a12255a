"""Ordered substructure arrows, tagged sums, and the partite double.

Ordered structures are rigid, so counting copies means counting
increasing selections.  The arrow check searches the colorings with the
pattern copies in colex order, cutting every branch that already has a
monochromatic copy, and refuses past its node budget rather than
sampling.
"""

from vcn import (
    ColoringProblem,
    RelStructure,
    arrow_scan,
    bar_restrict,
    build_direct_sum_witness,
    copies,
    direct_sum,
    encode_tilde,
    flatten,
    hereditary_closure,
    points,
)

pair, triple = points(2), points(3)
ok, checked = arrow_scan(ColoringProblem(pair, triple, points(6), 2))
print(f"6 points -> (3 points) for pairs, 2 colors: {ok} ({checked} colorings)")
ok, checked = arrow_scan(ColoringProblem(pair, triple, points(5), 2))
print(f"5 points: {ok} (stopped after {checked})")

path = RelStructure(3, None, 2, frozenset({frozenset({0, 1}), frozenset({1, 2})}))
print(f"\ncopies of an edge in the ordered path: {copies(path, RelStructure(2, None, 2, frozenset({frozenset({0, 1})}))).embeddings}")
print(f"hereditary closure of the path: {len(hereditary_closure([path]))} structures")

# tagged sums: a witness for the pair of problems, built by chaining
pt, two = points(1), points(2)
witness = build_direct_sum_witness(pt, two, pt, two, 2)
print(f"\nsum witness parts: {witness.part_sizes}")
small = build_direct_sum_witness(pt, two, pt, pt, 2)
print(f"smaller instance parts: {small.part_sizes}")
print(f"tagged pattern: {direct_sum(pt, pt).part_sizes}")

# the partite double: each part is a copy of the domain; restriction
# along the identity recovers the original graph exactly
graph = RelStructure(4, (2, 2), 2, frozenset({frozenset({0, 2}), frozenset({1, 3})}))
double = encode_tilde(flatten(graph))
print(f"\ndouble of a 4-vertex graph: {double.size} vertices, parts {double.part_sizes}")
bar = bar_restrict(graph)
print(f"restriction reproduces the input: {bar == graph}")
