"""End-to-end sentence network: node vectors, tree convolution, pooling,
classifier head, assembled on one tape per sentence."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import classifier_head, pooling, tree_conv
from .classifier_head import HeadParams, LossValue, PredictionOutput, dropout_mask
from .config import VARIANT_C, VARIANT_D, TrainConfig
from .corpus_io import (
    CONSTITUENCY,
    DEPENDENCY,
    DepTypeInventory,
    EmbeddingTable,
    ParseTree,
    Vocabulary,
)
from .errors import ContractError
from .pooling import GLOBAL, THREE_SLOT, PoolProvenance, SlotAssignment
from .rae_pretrain import CompositionParams, annotate
from .tensor_core import Tape, Tensor, parameter


class ModelParams:
    """All trainable weights for one variant, iterable in a fixed order."""

    def __init__(self, variant: str, conv, head: HeadParams,
                 embeddings: Optional[Tensor] = None):
        self.variant = variant
        self.conv = conv
        self.head = head
        self.embeddings = embeddings

    def named(self) -> List[Tuple[str, Tensor]]:
        out = list(self.conv.named()) + list(self.head.named())
        if self.embeddings is not None:
            out.append(("embeddings", self.embeddings))
        return out

    def weight_matrices(self) -> List[Tensor]:
        """Matrices under the l2 penalty: biases and embeddings excluded."""
        return [t for name, t in self.named()
                if t.data.ndim == 2 and name != "embeddings"]

    def copy_arrays(self) -> Dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.named()}

    def load_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        for name, t in self.named():
            src = arrays[name]
            if src.shape != t.data.shape:
                raise ContractError(
                    f"parameter {name} has shape {t.data.shape}, "
                    f"stored array has {src.shape}"
                )
            t.data = src.copy()


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
    return ModelParams(config.variant, conv, head, embeddings)


class SentenceClassifier:
    """Forward evaluation of one trained (or training) variant.

    Constituency node vectors come frozen from the recursive-autoencoder
    annotation; no gradient ever flows into them or its parameters.
    Dependency node vectors are embedding rows, trainable when the model
    owns an embedding parameter.
    """

    def __init__(self, config: TrainConfig, params: ModelParams,
                 table: EmbeddingTable,
                 inventory: Optional[DepTypeInventory] = None,
                 rae: Optional[CompositionParams] = None):
        config.validate()
        self.config = config
        self.params = params
        self.table = table
        self.inventory = inventory
        self.rae = rae
        if config.variant == VARIANT_C and rae is None:
            raise ContractError("constituency classifier needs composition params")
        if config.variant == VARIANT_D and inventory is None:
            raise ContractError("dependency classifier needs a relation inventory")

    def _expect_kind(self, tree: ParseTree) -> None:
        want = CONSTITUENCY if self.config.variant == VARIANT_C else DEPENDENCY
        if tree.kind != want:
            raise ContractError(
                f"variant {self.config.variant!r} cannot read a {tree.kind} tree"
            )

    def node_vectors(self, tape: Tape, tree: ParseTree, mode: str = "eval",
                     rng=None) -> Tensor:
        """The (n_nodes, n_e) matrix of node vectors, row v for node v,
        with one embedding-dropout mask over all of it in training."""
        self._expect_kind(tree)
        rate = self.config.dropout_embed
        if mode == "train" and rate > 0.0 and rng is None:
            raise ContractError("training with embedding dropout needs an rng")

        if self.config.variant == VARIANT_C:
            vectors = Tensor(annotate(tree, self.rae, self.table))
        else:
            rows = []
            for node in tree.nodes:
                if node.embedding_index is None:
                    raise ContractError(
                        f"node {node.word!r} has no embedding index; "
                        "bind_vocabulary first"
                    )
                rows.append(node.embedding_index)
            if self.params.embeddings is not None:
                vectors = tape.take_rows(self.params.embeddings, rows)
            else:
                vectors = Tensor(self.table.vectors[rows])

        if mode == "train" and rate > 0.0:
            vectors = tape.mul(vectors, Tensor(dropout_mask(
                vectors.data.shape, rate, "train", rng)))
        return vectors

    def forward_features(self, tape: Tape, tree: ParseTree,
                         mode: str = "eval", rng=None) -> Tensor:
        vectors = self.node_vectors(tape, tree, mode=mode, rng=rng)
        return tree_conv.convolve(tape, tree, vectors, self.params.conv,
                                  self.inventory)

    def forward(self, tape: Tape, tree: ParseTree, mode: str = "eval",
                rng=None) -> Tuple[PredictionOutput, PoolProvenance]:
        features = self.forward_features(tape, tree, mode=mode, rng=rng)
        pooled, provenance = pooling.pool(tape, features,
                                          assign_slots(tree, self.config))
        mask = None
        if mode == "train" and self.config.dropout_hidden > 0.0:
            if rng is None:
                raise ContractError("training with hidden dropout needs an rng")
            mask = dropout_mask(self.config.n_h, self.config.dropout_hidden,
                                "train", rng)
        pred = classifier_head.forward(tape, pooled, self.params.head,
                                       hidden_mask=mask)
        return pred, provenance

    def loss_on(self, tape: Tape, tree: ParseTree, gold: int,
                mode: str = "train", rng=None) -> Tuple[LossValue, PredictionOutput]:
        pred, _ = self.forward(tape, tree, mode=mode, rng=rng)
        value = classifier_head.loss(tape, pred, gold)
        return value, pred

    def predict(self, tree: ParseTree) -> PredictionOutput:
        pred, _ = self.forward(Tape(), tree, mode="eval")
        return pred


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
