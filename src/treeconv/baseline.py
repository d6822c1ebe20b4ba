"""Flat bag-of-embeddings baseline: the same hidden+softmax head fed by
the mean word vector, with no tree structure anywhere, trained by the
same epoch loop as the tree model.  Serves as the control in the
structural-signal experiment."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import classifier_head
from .classifier_head import HeadParams, PredictionOutput
from .config import TrainConfig
from .corpus_io import EmbeddingTable, ParseTree
from .errors import ConfigError, ContractError
from .tensor_core import Tape, Tensor, by_name, parameter
from .trainer import TrainReport, evaluate, fit


class BagOfEmbeddings:
    """Mean of word vectors into ReLU hidden into softmax."""

    def __init__(self, head: HeadParams, table: EmbeddingTable,
                 embeddings: Optional[Tensor] = None):
        self.head = head
        self.table = table
        self.embeddings = embeddings

    def named(self) -> List[Tuple[str, Tensor]]:
        return self.head.named() + by_name(self.embeddings)

    def logits(self, tape: Tape, trees: Sequence[ParseTree]) -> Tensor:
        """The (len(trees), classes) logits: each tree's mean word vector
        as one row, through one head pass."""
        table = (Tensor(self.table.vectors) if self.embeddings is None
                 else self.embeddings)
        means = []
        for tree in trees:
            rows = []
            for node in tree.nodes:
                if node.word is None:
                    continue
                if node.embedding_index is None:
                    raise ContractError("bind_vocabulary before using the baseline")
                rows.append(node.embedding_index)
            if not rows:
                raise ContractError("sentence has no words")
            words = tape.take_rows(table, rows)
            means.append(tape.reshape(
                tape.scale(tape.sum_rows(words), 1.0 / len(rows)), (1, -1)))
        return classifier_head.forward(
            tape, tape.take_rows(means, range(len(means))), self.head)

    def predict_batch(self, trees: Sequence[ParseTree]) -> List[PredictionOutput]:
        return classifier_head.predictions(
            self.logits(Tape(record=False), trees).data)

    def predict(self, tree: ParseTree) -> PredictionOutput:
        return self.predict_batch([tree])[0]


def train_bag_baseline(train_trees: Sequence[ParseTree],
                       val_trees: Sequence[ParseTree],
                       table: EmbeddingTable, config: TrainConfig,
                       ) -> Tuple[BagOfEmbeddings, TrainReport]:
    """The baseline trained by the tree model's epoch loop (`trainer.fit`):
    the same batches, rate halving, best-epoch rule and blow-up stop."""
    config.validate()
    if not train_trees or not val_trees:
        raise ConfigError("train and validation splits must both be non-empty")
    rng = np.random.default_rng(config.seed)
    head = classifier_head.init_head(config.n_h, config.n_e, config.classes, rng)
    embeddings = None
    if config.train_embeddings:
        embeddings = parameter(table.vectors.copy(), "embeddings")
    model = BagOfEmbeddings(head, table, embeddings)
    report = fit(
        train_trees,
        lambda tape, batch: classifier_head.loss(
            tape, model.logits(tape, batch),
            [tree.sentence_label for tree in batch]),
        model.named(), [head.W_h, head.W_o],
        lambda: evaluate(model, val_trees).accuracy, config, rng)
    return model, report
