#!/usr/bin/env python3
"""Trace where pooled features come from.

After overfitting the structural task, we count for each node the
fraction of pooled dimensions it supplied (under global pooling, where
the trace is easiest to read).  The windows holding the
label-determining edge should dominate; bland pad words should get
almost nothing.  DOT and JSON renderings go to ./provenance_demo_*.
"""

from treeconv.config import TrainConfig
from treeconv.pooling import assign_global, pool
from treeconv.protocols import run_structural_experiment
from treeconv.synthetic import make_structural_corpus
from treeconv.tensor_core import Tape
from treeconv.viz import emit_dot, emit_json, fractions

task = make_structural_corpus(n_train=160, n_test=80, n_e=8, seed=0)
config = TrainConfig(variant="d", n_e=8, n_c=16, n_h=8, classes=2,
                     batch_size=16, learning_rate=0.2, l2=1e-4,
                     max_epochs=40, pooling="kslot", k=2, seed=0,
                     train_embeddings=False).validate()
print("training the tree model on the structural task ...")
result = run_structural_experiment(task, config)
clf = result.tree_model

for i, tree in enumerate(task.test[:2]):
    tape = Tape(record=False)
    features = clf.forward_features(tape, [tree])
    _, provenance = pool(tape, features, assign_global(tree))
    fracs = fractions(provenance, tree)
    label = "positive" if tree.sentence_label == 1 else "negative"
    print(f"\nsentence {i} ({label}): {' '.join(tree.words())}")
    for v, node in enumerate(tree.nodes):
        kids = [tree.nodes[c].word for c in node.children]
        bar = "#" * int(40 * float(fracs.fractions[v]))
        print(f"  {node.word:>8} (children {kids!s:<30}) "
              f"{float(fracs.fractions[v]):.2f} {bar}")
    print(f"  fractions sum to {float(fracs.total()):.1f} exactly")

    with open(f"provenance_demo_{i}.dot", "w") as fh:
        fh.write(emit_dot(tree, fracs))
    with open(f"provenance_demo_{i}.json", "w") as fh:
        fh.write(emit_json(tree, fracs))
print("\nwrote provenance_demo_*.dot / .json "
      "(render with: dot -Tpng provenance_demo_0.dot)")
