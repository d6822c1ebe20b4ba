#!/usr/bin/env python3
"""Walk through tree-based convolution on the sentence "I loved it.".

The same sentence is read as a constituency tree and as a dependency
tree; a depth-2 feature-detector window slides over every node of each
and emits one feature vector per node.
"""

import numpy as np

from treeconv.config import TrainConfig
from treeconv.corpus_io import (
    bind_vocabulary,
    build_dep_inventory,
    parse_constituency,
    parse_dependency,
)
from treeconv.network import init_model
from treeconv.synthetic import toy_vocab_table
from treeconv.tensor_core import Tape, Tensor
from treeconv.tree_conv import Span, convolve, forest, index_trees, init_d_window

rng = np.random.default_rng(0)
n_e, n_c = 6, 4
vocab, table = toy_vocab_table(["I", "loved", "it", "."], n_e, seed=0)

# --- the dependency reading -------------------------------------------------
print("=== dependency variant ===")
dep = parse_dependency(
    "1\tI\t_\t_\t_\t_\t2\tnsubj\n"
    "2\tloved\t_\t_\t_\t_\t0\troot\n"
    "3\tit\t_\t_\t_\t_\t2\tdobj\n"
)
bind_vocabulary(dep, vocab)
print("words:", dep.words())
print("root:", dep.nodes[dep.root].word)

# weights bind to dependency relations, not child positions; rare
# relations share one matrix through the inventory
inventory = build_dep_inventory([dep])
print("relation slots:", {r: inventory.slot_of(r) for r in ("nsubj", "dobj", "???")})

d_params = init_d_window(n_c, n_e, inventory.n_slots, rng)
# one row per node: the convolution runs over the whole tree as arrays,
# the forest of its one span (a minibatch is a forest of many)
vectors = Tensor(table.vectors[[node.embedding_index for node in dep.nodes]])
index = index_trees([dep], inventory)
features = convolve(Tape(), forest([Span(index, 0, len(dep))]), vectors,
                    d_params)
for v, node in enumerate(dep.nodes):
    kids = [dep.nodes[c].word for c in node.children]
    print(f"  window at {node.word!r} (children {kids}): "
          f"{np.round(features.data[v], 3)}")

# --- the constituency reading -----------------------------------------------
print("\n=== constituency variant ===")
con = parse_constituency("(3 (2 I) (3 (3 loved) (2 it)))")
bind_vocabulary(con, vocab)
print("leaves:", con.words(), "| nodes:", len(con.nodes))

# non-leaf constituents have no word vectors of their own, so a
# recursive autoencoder composes them bottom-up (frozen afterward); a
# fresh c-model draws its window, its head and that composition, and
# its forward_features annotates the tree and convolves it
model = init_model(TrainConfig(variant="c", n_e=n_e, n_c=n_c, n_h=2,
                               classes=2), table, rng)
features = model.forward_features(Tape(), [con])
for v, node in enumerate(con.nodes):
    what = node.word or f"constituent(depth {node.depth_layer})"
    print(f"  window at {what}: {np.round(features.data[v], 3)}")

print("\nwindow count equals node count in both variants: cost is linear "
      "in sentence size.")
