#!/usr/bin/env python3
"""Finite-difference verification of the full backward pass.

Every trainable scalar of a small model (both variants, both pooling
styles, with and without the l2 penalty) is perturbed by +-1e-5 and the
central difference compared against the taped gradient.
"""

import numpy as np

from treeconv.config import TrainConfig
from treeconv.corpus_io import build_dep_inventory
from treeconv.network import SentenceClassifier, init_model
from treeconv.rae_pretrain import init_composition
from treeconv.synthetic import fixture_pair
from treeconv.trainer import gradient_check

con, dep, vocab, table = fixture_pair(n_e=4, seed=0)

for variant, pooling, tree in [("d", "global", dep), ("d", "kslot", dep),
                               ("c", "global", con), ("c", "3slot", con)]:
    for lam in (0.0, 1e-5):
        config = TrainConfig(variant=variant, n_e=4, n_c=4, n_h=4, classes=3,
                             l2=lam, pooling=pooling, k=2, seed=0,
                             train_embeddings=(variant == "d")).validate()
        rng = np.random.default_rng(17)
        if variant == "d":
            inventory = build_dep_inventory([dep])
            params = init_model(config, table, inventory, rng, [dep])
            clf = SentenceClassifier(config, params, inventory=inventory)
        else:
            params = init_model(config, table, None, rng)
            clf = SentenceClassifier(config, params, rae=init_composition(4, rng))
        report = gradient_check(clf, tree, gold=1)
        print(f"variant {variant}, pooling {pooling}, l2 {lam:g}: "
              f"max relative error {report.max_relative_error:.2e} "
              f"over {report.checked} scalars")

print("\nthe same check is exposed as `treeconv gradcheck` (exit 0 iff "
      "every error is below --tol, default 1e-4)")
