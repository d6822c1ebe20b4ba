#!/usr/bin/env python3
"""The three pooling heuristics and their provenance records.

Pooling turns a variable tree topology into a fixed number of slots by
taking the per-dimension maximum inside each slot, remembering which
node supplied it.
"""

import numpy as np

from treeconv.corpus_io import parse_constituency, parse_dependency
from treeconv.pooling import (
    THREE_SLOT_NAMES,
    assign_global,
    assign_k_slot,
    assign_three_slot,
    pool,
)
from treeconv.tensor_core import Tape, Tensor

rng = np.random.default_rng(1)

# --- global pooling: one slot, any structure --------------------------------
dep = parse_dependency("\n".join(
    f"{i}\tw{i}\t_\t_\t_\t_\t{h}\t{r}"
    for i, (h, r) in enumerate([(0, "root"), (1, "a"), (1, "b"),
                                (2, "a"), (2, "b"), (3, "a")], start=1)
))
# the feature map holds one row per tree node
fm = Tensor(np.round(rng.normal(size=(len(dep.nodes), 4)), 2))
pooled, prov = pool(Tape(), fm, assign_global(dep))
print("=== global pooling (6-word dependency tree) ===")
for v, row in enumerate(fm.data):
    print(f"  features[{v}] = {row}")
print("  pooled       =", pooled.data[0])
print("  winner/node  =", prov.winners[0])

# --- k-slot pooling: equal spans of word positions ---------------------------
print("\n=== k-slot pooling, k=2, n=5 (boundary word stays low) ===")
chain = parse_dependency("\n".join(
    f"{i}\tw{i}\t_\t_\t_\t_\t{i - 1}\t{'root' if i == 1 else 'dep'}"
    for i in range(1, 6)
))
assignment = assign_k_slot(chain, 2)
for node in chain.nodes:
    print(f"  position {node.position} -> slot {assignment.slot_of[node.position - 1] + 1}")

# --- 3-slot pooling: depth threshold + left/right of the root ---------------
print("\n=== 3-slot pooling on a depth-4 constituency tree ===")
con = parse_constituency("(0 (0 (0 a) (0 b)) (0 (0 (0 c) (0 d)) (0 e)))")
assignment = assign_three_slot(con, alpha=0.6)
threshold = 0.6 * con.depth()
print(f"  max depth d={con.depth()}, threshold alpha*d={threshold:.1f}")
for v, node in enumerate(con.nodes):
    what = node.word or "constituent"
    print(f"  node {v} ({what}, layer {node.depth_layer}) -> "
          f"{THREE_SLOT_NAMES[assignment.slot_of[v]]}")
