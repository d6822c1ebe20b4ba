"""End-to-end sentence network: node vectors, tree convolution, pooling,
classifier head.  A minibatch of sentences is one forest on one tape:
one node-vector matrix, one convolution, one pooling over every tree's
slots and one head, with one backward pass per batch.  Both variants
take this path with one window type (see :mod:`tree_conv`); a variant
picks the node vectors, the window's child matrices and the pooling.

Constituency node rows are the frozen RAE annotation.  During
`trainer.train` they come from the trainer's once-per-run cache; a
trained classifier annotates its trees on every call, the whole forest
at once, one matrix product per tree height (see
:func:`rae_pretrain.annotate_forest`)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import classifier_head, pooling, tree_conv
from .classifier_head import HeadParams, LossValue, PredictionOutput, dropout_mask
from .config import VARIANT_C, VARIANT_D, TrainConfig
from .corpus_io import (
    DepTypeInventory,
    EmbeddingTable,
    ParseTree,
    Vocabulary,
)
from .errors import ContractError
from .pooling import GLOBAL, THREE_SLOT, SlotAssignment
from .rae_pretrain import CompositionParams, annotate_forest
from .tensor_core import Tape, Tensor, by_name, parameter


@dataclass
class ModelParams:
    """All trainable weights in a fixed order: window, head and, when
    they train, embeddings, under the names their init functions gave
    them (the checkpoint layout)."""

    conv: tree_conv.WindowParams
    head: HeadParams
    embeddings: Optional[Tensor] = None

    def named(self) -> List[Tuple[str, Tensor]]:
        return self.conv.named() + self.head.named() + by_name(self.embeddings)

    def weight_matrices(self) -> List[Tensor]:
        """Matrices under the l2 penalty: biases and embeddings excluded."""
        return [t for _, t in self.named()
                if t.data.ndim == 2 and t is not self.embeddings]

    def copy_arrays(self) -> Dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.named()}

    def load_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        """Rebind every parameter to its array in `arrays` (no copy)."""
        for name, t in self.named():
            t.data = arrays[name]


def slot_count(config: TrainConfig) -> int:
    strategy = config.resolved_pooling()
    if strategy == GLOBAL:
        return 1
    if strategy == THREE_SLOT:
        return 3
    return config.k


def assign_slots(tree: ParseTree, config: TrainConfig) -> SlotAssignment:
    strategy = config.resolved_pooling()
    if strategy == GLOBAL:
        return pooling.assign_global(tree)
    if strategy == THREE_SLOT:
        return pooling.assign_three_slot(tree, config.alpha)
    return pooling.assign_k_slot(tree, config.k)


def init_model(config: TrainConfig, table: EmbeddingTable,
               inventory: Optional[DepTypeInventory], rng) -> ModelParams:
    """Fresh parameters: uniform +-sqrt(6/(fan_in+fan_out)), zero biases."""
    if config.variant == VARIANT_D:
        if inventory is None:
            raise ContractError("dependency model needs a relation inventory")
        conv = tree_conv.init_d_window(config.n_c, config.n_e,
                                       inventory.n_slots, rng)
    else:
        conv = tree_conv.init_c_window(config.n_c, config.n_e, rng)
    head = classifier_head.init_head(
        config.n_h, slot_count(config) * config.n_c, config.classes, rng)
    embeddings = None
    if config.variant == VARIANT_D and config.train_embeddings:
        embeddings = parameter(table.vectors.copy(), "embeddings")
    return ModelParams(conv, head, embeddings)


class SentenceClassifier:
    """Forward evaluation of one trained (or training) variant, a
    minibatch of trees at a time.

    Constituency node vectors come frozen from the recursive-autoencoder
    annotation; no gradient ever flows into them or its parameters.
    `node_rows`, when given, maps id(tree) to those rows for every tree
    the classifier forwards (`trainer.train`'s cache); without it each
    forward annotates its forest in one batch.
    Dependency node vectors are embedding rows, trainable when the model
    owns an embedding parameter.
    """

    def __init__(self, config: TrainConfig, params: ModelParams,
                 table: EmbeddingTable,
                 inventory: Optional[DepTypeInventory] = None,
                 rae: Optional[CompositionParams] = None,
                 node_rows: Optional[Dict[int, np.ndarray]] = None):
        config.validate()
        self.config = config
        self.params = params
        self.table = table
        self.inventory = inventory
        self.rae = rae
        self.node_rows = node_rows
        if config.variant == VARIANT_C and rae is None:
            raise ContractError("constituency classifier needs composition params")
        if config.variant == VARIANT_D and inventory is None:
            raise ContractError("dependency classifier needs a relation inventory")

    def node_vectors(self, tape: Tape, forest: tree_conv.Forest) -> Tensor:
        """The (n_nodes, n_e) matrix of node vectors, row v for forest
        row v: constituency annotations (from `node_rows` when given),
        or rows of the embedding table (a parameter when it trains, else
        a constant)."""
        if self.config.variant == VARIANT_C:
            if self.node_rows is None:
                return Tensor(annotate_forest(forest.trees, self.rae, self.table))
            return Tensor(np.concatenate([self.node_rows[id(tree)]
                                          for tree in forest.trees]))
        rows = [node.embedding_index for node in forest.nodes]
        if None in rows:
            node = forest.nodes[rows.index(None)]
            raise ContractError(
                f"node {node.word!r} has no embedding index; bind_vocabulary first")
        table = self.params.embeddings
        return tape.take_rows(Tensor(self.table.vectors, name="embedding table")
                              if table is None else table, rows)

    def _dropout(self, tape: Tape, forest: tree_conv.Forest, vectors: Tensor,
                 mode: str, rng) -> Tuple[Tensor, Optional[np.ndarray]]:
        """Training-mode inverted dropout: the node vectors times their
        mask, and the (trees, n_h) hidden-unit mask (None when off).

        The masks are drawn tree by tree, the node rows and then the
        hidden row, so a tree's masks do not depend on the batch it is
        in.  `tape.mul` applies the node mask; it records nothing when
        the vectors are frozen, and never writes them.
        """
        embed_rate, hidden_rate = self.config.dropout_embed, self.config.dropout_hidden
        if mode != "train" or not (embed_rate or hidden_rate):
            return vectors, None
        if rng is None:
            raise ContractError("training with dropout needs an rng")
        embed, hidden = [], []
        for tree in forest.trees:
            if embed_rate:
                embed.append(dropout_mask((len(tree.nodes), self.config.n_e),
                                          embed_rate, mode, rng))
            if hidden_rate:
                hidden.append(dropout_mask(self.config.n_h, hidden_rate, mode, rng))
        if embed:
            vectors = tape.mul(vectors, Tensor(np.concatenate(embed)))
        return vectors, np.array(hidden) if hidden else None

    def forward_features(self, tape: Tape, trees: Sequence[ParseTree]) -> Tensor:
        """The convolution's feature map of `trees` in evaluation mode,
        stacked tree after tree (see :class:`tree_conv.Forest`)."""
        forest = tree_conv.forest(trees, self.inventory)
        return tree_conv.convolve(tape, forest, self.node_vectors(tape, forest),
                                  self.params.conv)

    def _slots(self, trees: Sequence[ParseTree]) -> SlotAssignment:
        """Every tree's slots, tree b's numbered from b * slot_count."""
        per_tree = slot_count(self.config)
        slot_of: List[int] = []
        for b, tree in enumerate(trees):
            offset = b * per_tree
            slot_of += [s + offset for s in assign_slots(tree, self.config).slot_of]
        return SlotAssignment(slot_of=slot_of, slot_count=per_tree * len(trees))

    def logits(self, tape: Tape, trees: Sequence[ParseTree], mode: str = "eval",
               rng=None) -> Tensor:
        """The (len(trees), classes) logit matrix: node vectors,
        convolution, pooling and head, each one array op for the batch."""
        forest = tree_conv.forest(trees, self.inventory)
        vectors, hidden_mask = self._dropout(
            tape, forest, self.node_vectors(tape, forest), mode, rng)
        features = tree_conv.convolve(tape, forest, vectors, self.params.conv)
        pooled, _ = pooling.pool(tape, features, self._slots(trees))
        return classifier_head.forward(
            tape, tape.reshape(pooled, (len(trees), -1)), self.params.head,
            hidden_mask=hidden_mask)

    def loss(self, tape: Tape, trees: Sequence[ParseTree], gold: Sequence[int],
             mode: str = "train", rng=None) -> LossValue:
        """Summed cross entropy of `trees` against their `gold` classes."""
        return classifier_head.loss(
            tape, self.logits(tape, trees, mode=mode, rng=rng), gold)

    def predict_batch(self, trees: Sequence[ParseTree]) -> List[PredictionOutput]:
        """Predictions for `trees`, one batched forward that records
        nothing."""
        return classifier_head.predictions(
            self.logits(Tape(record=False), trees).data)

    def predict(self, tree: ParseTree) -> PredictionOutput:
        return self.predict_batch([tree])[0]


@dataclass
class TrainedModel:
    """Everything a checkpoint stores: self-describing and reloadable."""

    config: TrainConfig
    params: ModelParams
    vocab: Vocabulary
    table: EmbeddingTable
    inventory: Optional[DepTypeInventory] = None
    rae: Optional[CompositionParams] = None
    label_names: Optional[List[str]] = None

    @property
    def variant(self) -> str:
        return self.config.variant

    def classifier(self) -> SentenceClassifier:
        return SentenceClassifier(self.config, self.params, self.table,
                                  inventory=self.inventory, rae=self.rae)
