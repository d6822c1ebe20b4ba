"""End-to-end sentence network: node vectors, tree convolution, pooling,
classifier head.  A minibatch of samples is one forest on one tape:
one node-vector matrix, one convolution, one pooling over every
sample's slots and one head, with one backward pass per batch.  Both
variants take this path with one window type (see :mod:`tree_conv`); a
variant picks the node vectors, the window's child matrices and the
pooling.

A sample is a :class:`tree_conv.Span` of an indexed tree, the whole
tree or a constituency sub-sentence.  Trees are indexed once where the
work starts (`trainer.train`, or a prediction call), in one walk per
constituency tree: window edges, the composition order and the node
rows, which are the frozen RAE annotation composed from that order
(see :func:`rae_pretrain.annotate_forest`) or embedding indices.

A model is one :class:`SentenceClassifier`, whether it trains or not:
`trainer.train` and `checkpoint.load_checkpoint` return it, and it holds
everything a checkpoint stores.  It has one forward pass; given an rng,
that pass draws dropout masks (training), else it draws none."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

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
    them (the checkpoint layout), and the table the model reads.

    `embeddings` holds the rows `rows` of the vocabulary, in order, or
    every row when `rows` is None; `base_table` is then that parameter's
    own array.  A word whose row the parameter does not hold reads
    `base_table`.
    """

    conv: tree_conv.WindowParams
    head: HeadParams
    base_table: EmbeddingTable
    embeddings: Optional[Tensor] = None
    rows: Optional[np.ndarray] = None

    def named(self) -> List[Tuple[str, Tensor]]:
        return self.conv.named() + self.head.named() + by_name(self.embeddings)

    def weight_matrices(self) -> List[Tensor]:
        """Matrices under the l2 penalty: biases and embeddings excluded."""
        return [t for _, t in self.named()
                if t.data.ndim == 2 and t is not self.embeddings]


def slot_count(config: TrainConfig) -> int:
    strategy = config.resolved_pooling()
    if strategy == GLOBAL:
        return 1
    if strategy == THREE_SLOT:
        return 3
    return config.k


def assign_slots(tree: ParseTree, config: TrainConfig,
                 v: Optional[int] = None) -> SlotAssignment:
    """The slots of `tree`, or of the sub-sentence at node v, under the
    config's pooling."""
    strategy = config.resolved_pooling()
    if strategy == GLOBAL:
        return pooling.assign_global(tree, v)
    if strategy == THREE_SLOT:
        return pooling.assign_three_slot(tree, config.alpha, v)
    return pooling.assign_k_slot(tree, config.k)


def init_model(config: TrainConfig, table: EmbeddingTable,
               inventory: Optional[DepTypeInventory], rng,
               trees: Optional[Sequence[ParseTree]] = None) -> ModelParams:
    """Fresh parameters: uniform +-sqrt(6/(fan_in+fan_out)), zero biases.

    Trained embeddings start as the rows of `table` that `trees` read,
    gathered (SGD cannot move any other row), or as a copy of the whole
    table when `trees` is None; `table` is never written.  The model
    reads `table` (its `base_table`), or the copy when it holds every row.
    """
    if config.variant == VARIANT_D:
        if inventory is None:
            raise ContractError("dependency model needs a relation inventory")
        conv = tree_conv.init_d_window(config.n_c, config.n_e,
                                       inventory.n_slots, rng)
    else:
        conv = tree_conv.init_c_window(config.n_c, config.n_e, rng)
    head = classifier_head.init_head(
        config.n_h, slot_count(config) * config.n_c, config.classes, rng)
    if not (config.variant == VARIANT_D and config.train_embeddings):
        return ModelParams(conv, head, table)
    if trees is None:
        embeddings = parameter(table.vectors.copy(), "embeddings")
        return ModelParams(conv, head, EmbeddingTable(embeddings.data), embeddings)
    rows = np.unique(read_rows(trees, table))
    return ModelParams(conv, head, table,
                       parameter(table.vectors[rows], "embeddings"), rows)


def read_rows(trees: Sequence[ParseTree], table: EmbeddingTable) -> np.ndarray:
    """The embedding index of every node of `trees`, in order, each
    checked to be a row of `table`."""
    rows = [node.embedding_index for tree in trees for node in tree.nodes]
    if None in rows:
        word = next(node.word for tree in trees for node in tree.nodes
                    if node.embedding_index is None)
        raise ContractError(f"node {word!r} has no embedding index; "
                            f"bind_vocabulary first")
    if min(rows) < 0 or max(rows) >= len(table):
        raise ContractError("embedding index out of range for the table")
    return np.array(rows, dtype=np.intp)


class SentenceClassifier:
    """One TBCNN of either variant, trained or training: its forward pass,
    a minibatch of spans at a time, and everything a checkpoint stores,
    so it is self-describing and reloadable.

    Constituency node vectors come frozen from the recursive-autoencoder
    annotation; no gradient ever flows into them or its parameters.
    Dependency node vectors are embedding rows, trainable when the model
    owns an embedding parameter.  The table it reads is the one
    `init_model` was given, `params.base_table`; training never writes
    it.  A model that trains its embeddings holds the trained rows in its
    embedding parameter and their vocabulary indices in `params.rows`
    (None: every row, as in a loaded checkpoint, and `base_table` is the
    parameter's array).  `vocab` and `label_names` are stored with the
    model, and no forward pass reads them.
    """

    def __init__(self, config: TrainConfig, params: ModelParams,
                 inventory: Optional[DepTypeInventory] = None,
                 rae: Optional[CompositionParams] = None,
                 vocab: Optional[Vocabulary] = None,
                 label_names: Optional[List[str]] = None):
        config.validate()
        self.config = config
        self.params = params
        self.inventory = inventory
        self.rae = rae
        self.vocab = vocab
        self.label_names = label_names
        if config.variant == VARIANT_C and rae is None:
            raise ContractError("constituency classifier needs composition params")
        if config.variant == VARIANT_D and inventory is None:
            raise ContractError("dependency classifier needs a relation inventory")

    @cached_property
    def table(self) -> EmbeddingTable:
        """The whole table the model reads: `base_table`, or a copy of it
        with the trained rows in place when the embedding parameter holds
        only some rows, built on first read.  No forward pass reads it;
        `save_checkpoint` does."""
        base, rows = self.params.base_table, self.params.rows
        if rows is None:
            return base
        vectors = base.vectors.copy()
        vectors[rows] = self.params.embeddings.data
        return EmbeddingTable(vectors)

    def classifier(self) -> "SentenceClassifier":
        """The model itself: a trained model is its own classifier."""
        return self

    def index(self, trees: Sequence[ParseTree]) -> tree_conv.TreeIndex:
        """The window index of `trees` with the rows their node vectors
        read: the frozen RAE annotation, composed `node_groups` trees at
        a time, or embedding indices.  Where the embedding parameter
        holds only some rows of the vocabulary, a word's index is its
        row of the parameter, and for any other word the parameter's
        length plus its vocabulary index (see `node_vectors`)."""
        index = tree_conv.index_trees(trees, self.inventory)
        if self.config.variant == VARIANT_C:
            index.rows = annotate_forest(index, self.rae, self.params.base_table)
            return index
        index.rows = read_rows(trees, self.params.base_table)
        if self.params.rows is not None:
            index.rows = self._stacked_rows[index.rows]
        return index

    @cached_property
    def _stacked_rows(self) -> np.ndarray:
        """Each vocabulary index's row in the embedding parameter stacked
        over `base_table`, where the parameter holds only some rows."""
        trained = self.params.rows
        at = np.arange(len(trained), len(trained) + len(self.params.base_table))
        at[trained] = np.arange(len(trained))
        return at

    def span(self, index: tree_conv.TreeIndex, t: int,
             v: Optional[int] = None) -> tree_conv.Span:
        """The sample of tree t of `index`, with its sentence label as its
        class, or of the sub-sentence at its constituency node v, with
        v's tag: its rows and its slot map."""
        tree = index.trees[t]
        slots = np.array(assign_slots(tree, self.config, v).slot_of, dtype=np.intp)
        start = index.offsets[t] + (0 if v is None else v)
        return tree_conv.Span(index, start, start + len(slots), slots,
                              tree.sentence_label if v is None else tree.nodes[v].label)

    def spans(self, trees: Sequence[ParseTree]) -> List[tree_conv.Span]:
        """Whole-tree samples of `trees`, indexed together."""
        index = self.index(trees)
        return [self.span(index, t) for t in range(len(trees))]

    def node_vectors(self, tape: Tape, forest: tree_conv.Forest) -> Tensor:
        """The (n_nodes, n_e) matrix of node vectors, row v for forest
        row v: constituency annotations, or rows of the embedding table
        (a parameter when it trains, else a constant).  Trained
        embeddings are read as if stacked over `base_table`, so that a row
        past the parameter's reads a word it does not hold."""
        rows = np.concatenate([span.index.rows[span.start:span.stop]
                               for span in forest.spans])
        if self.config.variant == VARIANT_C:
            return Tensor(rows)
        base = self.params.base_table.vectors
        if self.params.embeddings is None:  # `index` checked the rows
            return Tensor(base[rows])
        return tape.take_rows([self.params.embeddings, Tensor(base)], rows)

    def _dropout(self, tape: Tape, forest: tree_conv.Forest, vectors: Tensor,
                 rng) -> Tuple[Tensor, Optional[np.ndarray]]:
        """Inverted dropout when training, that is given an `rng`: the
        node vectors times their mask, and the (spans, n_h) hidden-unit
        mask (None when off).  Without an rng, or at rates 0, it draws
        nothing.

        The masks are drawn span by span, the node rows and then the
        hidden row, so a sample's masks do not depend on the batch it is
        in.  `tape.mul` applies the node mask; it records nothing when
        the vectors are frozen, and never writes them.
        """
        embed_rate, hidden_rate = self.config.dropout_embed, self.config.dropout_hidden
        if rng is None or not (embed_rate or hidden_rate):
            return vectors, None
        embed, hidden = [], []
        for span in forest.spans:
            if embed_rate:
                embed.append(dropout_mask((len(span), self.config.n_e),
                                          embed_rate, rng))
            if hidden_rate:
                hidden.append(dropout_mask(self.config.n_h, hidden_rate, rng))
        if embed:
            vectors = tape.mul(vectors, Tensor(np.concatenate(embed)))
        return vectors, np.array(hidden) if hidden else None

    def forward_features(self, tape: Tape, trees: Sequence[ParseTree]) -> Tensor:
        """The convolution's feature map of `trees` without dropout,
        stacked tree after tree (see :class:`tree_conv.Forest`)."""
        forest = tree_conv.forest(self.spans(trees))
        return tree_conv.convolve(tape, forest, self.node_vectors(tape, forest),
                                  self.params.conv)

    def logits(self, tape: Tape, samples, rng=None) -> Tensor:
        """The (samples, classes) logit matrix of spans, or of parse trees
        (indexed here): node vectors, convolution, pooling and head, each
        one array op for the batch, with dropout masks drawn from `rng`
        when one is given."""
        spans = self.spans(samples) if isinstance(samples[0], ParseTree) else samples
        forest = tree_conv.forest(spans)
        vectors, hidden_mask = self._dropout(
            tape, forest, self.node_vectors(tape, forest), rng)
        features = tree_conv.convolve(tape, forest, vectors, self.params.conv)
        per_span = slot_count(self.config)
        slot_of = np.concatenate([span.slots for span in spans])
        if len(spans) > 1:  # span b's slots are numbered from b * per_span
            slot_of += np.repeat(np.arange(0, per_span * len(spans), per_span),
                                 [len(span) for span in spans])
        pooled, _ = pooling.pool(tape, features,
                                 SlotAssignment(slot_of, per_span * len(spans)))
        return classifier_head.forward(
            tape, tape.reshape(pooled, (len(spans), -1)), self.params.head,
            hidden_mask=hidden_mask)

    def loss(self, tape: Tape, samples, gold: Sequence[int],
             rng=None) -> LossValue:
        """Summed cross entropy of `samples` (spans or parse trees)
        against their `gold` classes, with dropout when given an `rng`."""
        return classifier_head.loss(tape, self.logits(tape, samples, rng), gold)

    def predict_batch(self, samples) -> List[PredictionOutput]:
        """Predictions for `samples` (parse trees, indexed here, or
        spans), one batched forward that records nothing."""
        return classifier_head.predictions(
            self.logits(Tape(record=False), samples).data)

    def predict(self, tree: ParseTree) -> PredictionOutput:
        return self.predict_batch([tree])[0]
