#!/usr/bin/env python3
"""Finite-difference verification of the full backward pass.

Every trainable scalar of a small model (both variants, both pooling
styles, with and without the l2 penalty) is perturbed by +-1e-5 and the
central difference compared against the taped gradient.
"""

from treeconv.synthetic import fixture_model
from treeconv.trainer import gradient_check

for variant, pooling in [("d", "global"), ("d", "kslot"),
                         ("c", "global"), ("c", "3slot")]:
    for lam in (0.0, 1e-5):
        report = gradient_check(*fixture_model(variant, pooling, lam), gold=1)
        print(f"variant {variant}, pooling {pooling}, l2 {lam:g}: "
              f"max relative error {report.max_relative_error:.2e} "
              f"over {report.checked} scalars")

print("\nthe same check is exposed as `treeconv gradcheck` (exit 0 iff "
      "every error is below 1e-4)")
