"""Flat bag-of-embeddings baseline: the same hidden+softmax head fed by
the mean word vector, with no tree structure anywhere.  Serves as the
control in the structural-signal experiment."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import classifier_head
from .classifier_head import HeadParams, PredictionOutput
from .config import TrainConfig
from .corpus_io import EmbeddingTable, ParseTree
from .errors import ConfigError, ContractError
from .tensor_core import Tape, Tensor, by_name, parameter, sgd_epoch
from .trainer import TrainReport, evaluate


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
    """SGD loop for the baseline, mirroring the tree model's regime."""
    config.validate()
    if not train_trees or not val_trees:
        raise ConfigError("train and validation splits must both be non-empty")
    rng = np.random.default_rng(config.seed)
    head = classifier_head.init_head(config.n_h, config.n_e, config.classes, rng)
    embeddings = None
    if config.train_embeddings:
        embeddings = parameter(table.vectors.copy(), "embeddings")
    model = BagOfEmbeddings(head, table, embeddings)
    named = model.named()
    underflows = 0

    def batch_loss(tape, batch):
        nonlocal underflows
        value = classifier_head.loss(tape, model.logits(tape, batch),
                                     [tree.sentence_label for tree in batch])
        underflows += int(np.count_nonzero(value.clamped))
        return value.node, value.per_row, len(batch)

    report = TrainReport()
    # validation accuracy is >= 0, so epoch 1 always sets best
    best_acc = -1.0
    for epoch in range(1, config.max_epochs + 1):
        underflows = 0
        # no blow-up bound (see trainer.train): the control is left to
        # run through a saturated softmax
        epoch_loss = sgd_epoch(train_trees, batch_loss, named,
                               config.learning_rate, config.batch_size, rng,
                               epoch=epoch, decayed=[head.W_h, head.W_o],
                               lam=config.l2)
        classifier_head.warn_underflow(epoch, underflows, len(train_trees))
        report.train_loss.append(epoch_loss / len(train_trees))
        acc = evaluate(model, val_trees).accuracy
        report.val_accuracy.append(acc)
        if acc > best_acc:
            best_acc = acc
            report.best_epoch = epoch
            best = {name: p.data.copy() for name, p in named}
    for name, p in named:
        p.data = best[name]
    return model, report
