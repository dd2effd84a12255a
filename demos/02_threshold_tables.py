"""Box-free thresholds: exact values, witnesses, budgets and their proven brackets.

The threshold z(n, m, d) is the smallest edge count that forces a d-box
inside the full n-part grid with parts of size m.  The search is exact by
default and degrades to explicit lower and upper bounds only when given
a node budget it cannot respect.
"""

from vcn import (
    build_extremal_family,
    contains_complete_partite,
    shatter_fn,
    vc_n_dim,
    zarankiewicz,
)

print("two-part thresholds for 2x2 boxes:")
print("m  z      extremal")
for m in range(1, 6):
    res = zarankiewicz(2, m, 2)
    print(f"{m}  {res.z:<6} {res.extremal_edge_count}")

res = zarankiewicz(2, 4, 2)
print(f"\nwitness for m=4 ({res.extremal_edge_count} edges):")
for e in sorted(res.extremal_witness.edges):
    print(f"  {e}")
print(f"free of 2x2 boxes: {not contains_complete_partite(res.extremal_witness, 2)}")

# a starved budget cannot invent an exact answer: it brackets the threshold
starved = zarankiewicz(2, 4, 2, node_budget=3)
print(f"\nwith node_budget=3: {starved.z} <= z <= {starved.z_upper} [{starved.status}]")

# extremal families: power sets of witnesses on disjoint blocks
fam = build_extremal_family(2, 1, [2])
print(f"\nextremal family for d=1 on one block of 2:")
print(f"  members {len(fam.members)}, dimension {vc_n_dim(fam)}, pi(2) = {shatter_fn(fam, 2)}")
