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
(see :func:`rae_pretrain.annotate_forest`) or embedding rows.

A model is one :class:`SentenceClassifier`, trained or not, and
:func:`init_model` is the one way to make one; it holds everything a
checkpoint stores.  It has one forward pass; given an rng, that pass
draws dropout masks (training), else it draws none.
:class:`ModelParams` owns the embedding layout, for the tree model and
the bag baseline alike."""

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
from .rae_pretrain import CompositionParams, annotate_forest, init_composition
from .tensor_core import Tape, Tensor, by_name, parameter


@dataclass
class ModelParams:
    """All trainable weights in a fixed order: window (none in the bag
    baseline), head and, when they train, embeddings, under the names
    their init functions gave them (the checkpoint layout).

    The one owner of the embedding layout: `embeddings`, when they
    train, holds the rows `rows` of `base_table` (the caller's table,
    never written) that `gather`'s trees read; any other word reads
    `base_table`.  Words read rows of the two stacked (see `lookup`).
    """

    conv: Optional[tree_conv.WindowParams]
    head: HeadParams
    base_table: EmbeddingTable
    embeddings: Optional[Tensor] = None
    rows: Optional[np.ndarray] = None

    @classmethod
    def gather(cls, conv: Optional[tree_conv.WindowParams], head: HeadParams,
               table: EmbeddingTable, trees: Optional[Sequence[ParseTree]] = None,
               ) -> "ModelParams":
        """Parameters that train the rows of `table` that `trees` read (SGD
        cannot move any other), or, when `trees` is None, read it frozen."""
        if trees is None:
            return cls(conv, head, table)
        rows = np.unique(word_rows(trees, table))
        return cls(conv, head, table,
                   parameter(table.vectors[rows], "embeddings"), rows)

    def named(self) -> List[Tuple[str, Tensor]]:
        window = [] if self.conv is None else self.conv.named()
        return window + self.head.named() + by_name(self.embeddings)

    def weight_matrices(self) -> List[Tensor]:
        """Matrices under the l2 penalty: biases and embeddings excluded."""
        return [t for _, t in self.named()
                if t.data.ndim == 2 and t is not self.embeddings]

    def lookup(self, trees: Sequence[ParseTree]) -> np.ndarray:
        """The row each word of `trees` reads (see `word_rows`) of the
        embedding parameter stacked over `base_table`: its row of the
        parameter, or past it, its vocabulary index."""
        rows = word_rows(trees, self.base_table)
        return rows if self.rows is None else self._stacked_rows[rows]

    @cached_property
    def _stacked_rows(self) -> np.ndarray:
        """Each vocabulary index's row of the two matrices `lookup` stacks."""
        at = np.arange(len(self.rows), len(self.rows) + len(self.base_table))
        at[self.rows] = np.arange(len(self.rows))
        return at

    def vectors(self, tape: Tape, rows: np.ndarray) -> Tensor:
        """The word vectors of `lookup` rows: a plain gather from a frozen
        table, else one `take_rows` of the two matrices stacked."""
        base = self.base_table.vectors
        if self.embeddings is None:  # `lookup` checked the rows
            return Tensor(base[rows])
        return tape.take_rows([self.embeddings, Tensor(base)], rows)

    def merged_table(self) -> EmbeddingTable:
        """The whole table the model reads: `base_table`, or a copy of it
        with the trained rows in place."""
        if self.rows is None:
            return self.base_table
        vectors = self.base_table.vectors.copy()
        vectors[self.rows] = self.embeddings.data
        return EmbeddingTable(vectors)


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


def init_model(config: TrainConfig, table: EmbeddingTable, rng, *,
               inventory: Optional[DepTypeInventory] = None,
               rae: Optional[CompositionParams] = None,
               trees: Optional[Sequence[ParseTree]] = None,
               vocab: Optional[Vocabulary] = None,
               label_names: Optional[List[str]] = None) -> "SentenceClassifier":
    """A fresh model: window and head uniform +-sqrt(6/(fan_in+fan_out))
    with zero biases, then, for a c-model given no `rae`, a fresh
    composition, all drawn from `rng` in that order.  A d-model needs a
    relation `inventory` and takes no `rae`.

    With train_embeddings, a d-model trains the rows of `table` that
    `trees` read (`ModelParams.gather`); without `trees` it reads
    `table` frozen, as a loaded checkpoint does.  `table` is never
    written.
    """
    config.validate()
    if config.variant == VARIANT_D:
        if inventory is None:
            raise ContractError("dependency model needs a relation inventory")
        if rae is not None:
            raise ContractError("dependency model takes no composition params")
        conv = tree_conv.init_d_window(config.n_c, config.n_e,
                                       inventory.n_slots, rng)
    else:
        conv = tree_conv.init_c_window(config.n_c, config.n_e, rng)
    head = classifier_head.init_head(
        config.n_h, slot_count(config) * config.n_c, config.classes, rng)
    trained = config.variant == VARIANT_D and config.train_embeddings
    params = ModelParams.gather(conv, head, table, trees if trained else None)
    if config.variant == VARIANT_C and rae is None:
        rae = init_composition(config.n_e, rng)
    return SentenceClassifier(config, params, inventory, rae, vocab, label_names)


def word_rows(trees: Sequence[ParseTree], table: EmbeddingTable) -> np.ndarray:
    """The embedding index of every word-bearing node of `trees` (each
    node of a dependency tree, the leaves of a constituency tree), in
    order, each checked to be a row of `table`."""
    rows = [node.embedding_index for tree in trees for node in tree.nodes
            if node.word is not None]
    if None in rows:
        word = next(node.word for tree in trees for node in tree.nodes
                    if node.word is not None and node.embedding_index is None)
        raise ContractError(f"node {word!r} has no embedding index; "
                            f"bind_vocabulary first")
    if rows and (min(rows) < 0 or max(rows) >= len(table)):
        raise ContractError("embedding index out of range for the table")
    return np.array(rows, dtype=np.intp)


@dataclass(eq=False)
class SentenceClassifier:
    """One TBCNN of either variant, trained or training: its forward pass,
    a minibatch of spans at a time, and everything a checkpoint stores,
    so it is self-describing and reloadable.  `init_model` makes it.

    Constituency node vectors come frozen from the recursive-autoencoder
    annotation `rae`; no gradient ever flows into them or its parameters.
    Dependency node vectors are embedding rows, read through `params`.
    `vocab` and `label_names` are stored with the model, and no forward
    pass reads them.
    """

    config: TrainConfig
    params: ModelParams
    inventory: Optional[DepTypeInventory] = None
    rae: Optional[CompositionParams] = None
    vocab: Optional[Vocabulary] = None
    label_names: Optional[List[str]] = None

    @cached_property
    def table(self) -> EmbeddingTable:
        """`ModelParams.merged_table`, built on first read.  No forward
        pass reads it; `save_checkpoint` does."""
        return self.params.merged_table()

    def classifier(self) -> "SentenceClassifier":
        """The model itself: a trained model is its own classifier."""
        return self

    def index(self, trees: Sequence[ParseTree]) -> tree_conv.TreeIndex:
        """The window index of `trees` with the rows their node vectors
        read: the frozen RAE annotation, composed `node_groups` trees at
        a time, or the rows `ModelParams.lookup` gives their words."""
        index = tree_conv.index_trees(trees, self.inventory)
        if self.config.variant == VARIANT_C:
            index.rows = annotate_forest(index, self.rae, self.params.base_table)
        else:
            index.rows = self.params.lookup(trees)
        return index

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
        row v: constituency annotations, or embedding rows
        (`ModelParams.vectors`)."""
        rows = np.concatenate([span.index.rows[span.start:span.stop]
                               for span in forest.spans])
        if self.config.variant == VARIANT_C:
            return Tensor(rows)
        return self.params.vectors(tape, rows)

    def _dropout(self, tape: Tape, forest: tree_conv.Forest, vectors: Tensor,
                 rng) -> Tuple[Tensor, Optional[np.ndarray]]:
        """Inverted dropout when training, that is given an `rng`: the
        node vectors times their mask, and the (spans, n_h) hidden-unit
        mask (None when off).  Without an rng, or at rates 0, it draws
        nothing.

        One `rng.random` call draws the batch's masks, laid out span by
        span, the node rows and then the hidden row, so a sample's masks
        do not depend on the batch it is in.  `tape.mul` applies the
        node mask; it records nothing when the vectors are frozen, and
        never writes them.
        """
        embed_rate, hidden_rate = self.config.dropout_embed, self.config.dropout_hidden
        if rng is None or not (embed_rate or hidden_rate):
            return vectors, None
        n_e, n_h = self.config.n_e, self.config.n_h
        sizes = [size for span in forest.spans
                 for size in (len(span) * n_e if embed_rate else 0,
                              n_h if hidden_rate else 0)]
        draws = np.split(rng.random(sum(sizes)), np.cumsum(sizes)[:-1])
        if embed_rate:
            mask = dropout_mask(np.concatenate(draws[0::2]), embed_rate)
            vectors = tape.mul(vectors, Tensor(mask.reshape(-1, n_e)))
        if not hidden_rate:
            return vectors, None
        return vectors, dropout_mask(np.stack(draws[1::2]), hidden_rate)

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
