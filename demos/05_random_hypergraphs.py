"""Random ordered partite hypergraphs: extension levels, walks, subgraphs.

Generation is rejection sampling: coin-flip every edge, verify the
extension level, retry on failure.  Verified instances support adjacency
walks between vertex lists and greedy selection of dichotomous subgraphs.
"""

from itertools import product

from vcn import (
    achieved_extension_level,
    adjacency_walk,
    diagonal_hypergraph,
    dichotomy_verdict,
    find_extension_violation,
    gen_extension_hypergraph,
    random_subgraph,
    step_certificate,
    walk_discrepancies,
)

eh = gen_extension_hypergraph(2, 10, 1, seed=7)
h = eh.base
print(f"generated: {h.n} parts of size {h.part_sizes[0]}, {len(h.edges)} edges, level {eh.t}")
print(f"violation at level {eh.t}: {find_extension_violation(h, eh.t)}")
print(f"best level within cap 3: {achieved_extension_level(h, 3)}")
viol = find_extension_violation(h, 2)
if viol is not None:
    j, a0, a1, window = viol
    print(f"level 2 fails in part {j}: window {window}, forced rows {a0}, forbidden rows {a1}")

# a walk repairs one cross edge per step, each step certified
big = gen_extension_hypergraph(2, 26, 1, seed=3).base
w = [(0, 10), (1, 10), (0, 5), (0, 20), (1, 5), (1, 20)]
w_prime = [(0, 11), (1, 10), (0, 5), (0, 20), (1, 5), (1, 20)]
start = walk_discrepancies(big, w, w_prime)
walk = adjacency_walk(big, w, w_prime)
print(f"\nwalk of {len(walk) - 1} steps for {len(start)} discrepancies")
for a, b in zip(walk, walk[1:]):
    cert = step_certificate(big, a, b)
    print(f"  flipped edge {tuple(sorted(cert.flipped_edge))}")
print(f"remaining discrepancies: {walk_discrepancies(big, walk[-1], w_prime)}")

# greedy subgraph: every cross tuple ends up isomorphic or adjacent to g
v = [(0, 2), (0, 23), (1, 3), (1, 22)]
g = next(e for e in sorted(big.edges) if 2 < e[0] < 23 and 3 < e[1] < 22)
parts = random_subgraph(big, v, g, 2)
print(f"\nsubgraph parts around {g}: {parts}")
for cross in product(*parts):
    print(f"  {cross}: {dichotomy_verdict(big, v, g, cross)}")

diag = diagonal_hypergraph(h)
edges = diag.relations["R"]
print(f"\ndiagonal structure: {diag.size} vertices, arity {edges.arity}, {len(edges.tuples)} edges")
