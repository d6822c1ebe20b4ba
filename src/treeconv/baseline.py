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
from .tensor_core import Tape, Tensor, parameter, sgd_epoch
from .trainer import TrainReport, evaluate


class BagOfEmbeddings:
    """Mean of word vectors into ReLU hidden into softmax."""

    def __init__(self, head: HeadParams, table: EmbeddingTable,
                 embeddings: Optional[Tensor] = None):
        self.head = head
        self.table = table
        self.embeddings = embeddings

    def named(self) -> List[Tuple[str, Tensor]]:
        out = list(self.head.named())
        if self.embeddings is not None:
            out.append(("embeddings", self.embeddings))
        return out

    def _forward(self, tape: Tape, tree: ParseTree) -> PredictionOutput:
        rows = []
        for node in tree.nodes:
            if node.word is None:
                continue
            if node.embedding_index is None:
                raise ContractError("bind_vocabulary before using the baseline")
            rows.append(node.embedding_index)
        if not rows:
            raise ContractError("sentence has no words")
        if self.embeddings is not None:
            words = tape.take_rows(self.embeddings, rows)
        else:
            words = Tensor(self.table.vectors[rows])
        mean = tape.scale(tape.sum_rows(words), 1.0 / len(rows))
        return classifier_head.forward(tape, mean, self.head)

    def predict(self, tree: ParseTree) -> PredictionOutput:
        return self._forward(Tape(), tree)


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

    def sample_loss(tape, tree):
        nonlocal underflows
        pred = model._forward(tape, tree)
        value = classifier_head.loss(tape, pred, tree.sentence_label)
        underflows += value.clamped
        return value.node, value.cross_entropy, 1

    report = TrainReport()
    # validation accuracy is >= 0, so epoch 1 always sets best
    best_acc = -1.0
    for epoch in range(1, config.max_epochs + 1):
        underflows = 0
        # no blow-up bound (see trainer.train): the control is left to
        # run through a saturated softmax
        epoch_loss = sgd_epoch(train_trees, sample_loss, named,
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
