#!/usr/bin/env python3
"""Overfit sanity run: both variants memorize a 50-sentence toy corpus.

Each sentence plants one marker word that decides its class; minibatch
SGD should drive training accuracy to 100% quickly.  The constituency
variant first pretrains its recursive composition so non-leaf nodes
have vectors.
"""

import numpy as np

from treeconv.config import TrainConfig
from treeconv.rae_pretrain import PretrainConfig, pretrain
from treeconv.synthetic import make_overfit_corpus
from treeconv.trainer import evaluate, train

corpus = make_overfit_corpus(n_sentences=50, classes=3, n_e=16, seed=0)
print(f"corpus: {len(corpus.dep_trees)} sentences, {corpus.classes} classes")
print("example:", " ".join(corpus.dep_trees[0].words()),
      "-> class", corpus.dep_trees[0].sentence_label)

for variant, trees in (("d", corpus.dep_trees), ("c", corpus.con_trees)):
    config = TrainConfig(variant=variant, n_e=16, n_c=32, n_h=16, classes=3,
                         batch_size=10, learning_rate=0.2, l2=0.0,
                         max_epochs=30, k=2, seed=0,
                         train_embeddings=(variant == "d")).validate()
    rae = None
    if variant == "c":
        print("\npretraining the recursive composition for the "
              "constituency variant ...")
        rae = pretrain(corpus.con_trees, corpus.table,
                       PretrainConfig(max_epochs=5, seed=0))

    print(f"\n=== training {variant}-variant "
          f"(pooling {config.resolved_pooling()}) ===")
    model, report = train(trees, trees, corpus.vocab, corpus.table, config,
                          rae=rae, log=None)
    for epoch, (loss, acc) in enumerate(zip(report.train_loss,
                                            report.val_accuracy), 1):
        if epoch <= 5 or acc == 1.0:
            print(f"  epoch {epoch:3d}  loss {loss:.4f}  accuracy {acc:.3f}")
        if acc == 1.0:
            print(f"  reached 100% at epoch {epoch}")
            break
    final = evaluate(model, trees)
    print(f"  best-epoch model accuracy: {final.accuracy:.3f} "
          f"({final.correct}/{final.total})")
