"""Flat bag-of-embeddings baseline: the same hidden+softmax head fed by
the mean word vector, with no tree structure anywhere, trained by the
same epoch loop as the tree model.  Its parameters are a window-less
:class:`network.ModelParams`, so it reads and trains its words as the
tree model does.  Serves as the control in the structural-signal
experiment."""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from . import classifier_head
from .classifier_head import PredictionOutput
from .config import TrainConfig
from .corpus_io import EmbeddingTable, ParseTree
from .errors import ConfigError, ContractError
from .network import ModelParams
from .tensor_core import Tape, Tensor
from .trainer import TrainReport, evaluate, fit


class BagOfEmbeddings:
    """Mean of word vectors into ReLU hidden into softmax."""

    def __init__(self, params: ModelParams):
        self.params = params

    def named(self) -> List[Tuple[str, Tensor]]:
        return self.params.named()

    def logits(self, tape: Tape, trees: Sequence[ParseTree]) -> Tensor:
        """The (len(trees), classes) logits: one lookup of every word of
        the batch, one sum of each tree's rows, one scale by its 1/word
        count, one head pass."""
        counts = np.array([sum(node.word is not None for node in tree.nodes)
                           for tree in trees])
        if not counts.all():
            raise ContractError("sentence has no words")
        words = self.params.vectors(tape, self.params.lookup(trees))
        sums = tape.sum_rows(words, np.repeat(np.arange(len(trees)), counts),
                             len(trees))
        return classifier_head.forward(
            tape, tape.scale(sums, 1.0 / counts[:, None]), self.params.head)

    def predict_batch(self, trees: Sequence[ParseTree]) -> List[PredictionOutput]:
        return classifier_head.predictions(
            self.logits(Tape(record=False), trees).data)


def train_bag_baseline(train_trees: Sequence[ParseTree],
                       val_trees: Sequence[ParseTree],
                       table: EmbeddingTable, config: TrainConfig,
                       ) -> Tuple[BagOfEmbeddings, TrainReport]:
    """The baseline trained by the tree model's epoch loop (`trainer.fit`):
    the same batches, rate halving, best-epoch rule and blow-up stop.
    With train_embeddings it trains the rows its training and validation
    trees read; `table` is never written."""
    config.validate()
    if not train_trees or not val_trees:
        raise ConfigError("train and validation splits must both be non-empty")
    rng = np.random.default_rng(config.seed)
    head = classifier_head.init_head(config.n_h, config.n_e, config.classes, rng)
    trees = list(train_trees) + list(val_trees) if config.train_embeddings else None
    model = BagOfEmbeddings(ModelParams.gather(None, head, table, trees))
    report = fit(
        train_trees,
        lambda tape, batch: classifier_head.loss(
            tape, model.logits(tape, batch),
            [tree.sentence_label for tree in batch]),
        model.named(), model.params.weight_matrices(),
        lambda: evaluate(model, val_trees).accuracy, config, rng)
    return model, report
