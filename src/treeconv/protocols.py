"""Experiment protocols built on the trainer: the multi-seed pooling
comparison table and the structural-signal experiment."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence

import numpy as np

from .baseline import train_bag_baseline
from .config import VARIANT_C, VARIANT_D, TrainConfig
from .errors import ConfigError
from .network import SentenceClassifier
from .rae_pretrain import CompositionParams
from .synthetic import StructuralTask, ToyCorpus
from .trainer import evaluate, train


@dataclass
class ComparisonRow:
    model: str
    pooling: str
    accuracies: List[float]

    @property
    def mean(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def std(self) -> float:
        # sample standard deviation over the seed runs
        return float(np.std(self.accuracies, ddof=1)) if len(self.accuracies) > 1 else 0.0


def format_comparison_table(rows: Sequence[ComparisonRow]) -> str:
    """Mean +- standard deviation per configuration, averaged over seeds."""
    lines = [f"{'Model':<18}{'Pooling':<12}Accuracy (%)"]
    for row in rows:
        lines.append(
            f"{row.model:<18}{row.pooling:<12}"
            f"{100 * row.mean:.2f} +- {100 * row.std:.2f}"
        )
    return "\n".join(lines)


def pooling_comparison(corpus: ToyCorpus, rae: CompositionParams,
                       base_config: TrainConfig, seeds: Sequence[int] = range(5),
                       ) -> List[ComparisonRow]:
    """Train every {variant x pooling} configuration once per seed.

    Constituency runs global and 3-slot pooling; dependency runs global
    and 2-slot.  Hyperparameters besides pooling and seed come from
    `base_config` (variant, pooling, k, alpha are overridden).
    """
    setups = [
        ("c-TBCNN", VARIANT_C, "global", {}),
        ("c-TBCNN", VARIANT_C, "3slot", {}),
        ("d-TBCNN", VARIANT_D, "global", {}),
        ("d-TBCNN", VARIANT_D, "2-slot", {"pooling": "kslot", "k": 2}),
    ]
    rows = []
    for label, variant, pooling_label, extra in setups:
        pooling = extra.get("pooling", pooling_label)
        accs = []
        for seed in seeds:
            config = replace(base_config, variant=variant, pooling=pooling,
                             k=extra.get("k", base_config.k), seed=seed,
                             train_embeddings=(variant == VARIANT_D
                                               and base_config.train_embeddings))
            config.validate()
            trees = corpus.con_trees if variant == VARIANT_C else corpus.dep_trees
            model, _ = train(trees, trees, corpus.vocab, corpus.table, config,
                             rae=rae if variant == VARIANT_C else None)
            accs.append(evaluate(model, trees).accuracy)
        rows.append(ComparisonRow(model=label, pooling=pooling_label,
                                  accuracies=accs))
    return rows


@dataclass
class StructuralResult:
    tree_model: SentenceClassifier
    tree_accuracy: float
    baseline_accuracy: float


def run_structural_experiment(task: StructuralTask, config: TrainConfig,
                              ) -> StructuralResult:
    """Train d-TBCNN and the flat baseline on the edge-pattern task.

    The corpus keeps word sequences and bags identical across classes,
    so the baseline has nothing to learn from while the tree model can
    read the label off one convolution window.
    """
    if config.variant != VARIANT_D:
        raise ConfigError("the structural experiment uses the dependency variant")
    model, _ = train(task.train, task.train, task.vocab, task.table, config)
    tree_acc = evaluate(model, task.test).accuracy
    baseline, _ = train_bag_baseline(task.train, task.train, task.table, config)
    base_acc = evaluate(baseline, task.test).accuracy
    return StructuralResult(tree_model=model, tree_accuracy=tree_acc,
                            baseline_accuracy=base_acc)
