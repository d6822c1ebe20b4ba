"""Recursive-autoencoder vectors for constituency non-leaf nodes.

Constituency constituents have no word embedding of their own, so each
non-leaf vector is composed from its children, p = tanh(W.[c1;c2] + b),
and the composition weights are pretrained to reconstruct the children
from p.  The trees' window index (`tree_conv.index_trees`) also orders
them bottom up: the non-leaf nodes of one height, across all its trees,
compose as one matrix.  The pretraining loss composes and reconstructs
each height on a tape, so a batch records a few ops per height of its
tallest tree whatever its tree count; `annotate_forest` composes each
height of a group of trees with one matrix product, recording nothing.
After pretraining the node vectors are frozen: tree convolution reads
them as constants and no gradient ever reaches them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .corpus_io import CONSTITUENCY, EmbeddingTable, ParseTree
from .errors import ConfigError, ContractError, ShapeError
from .tensor_core import (Tape, Tensor, by_name, node_groups, parameter,
                          sgd_epoch, uniform_init)
from .tree_conv import TreeIndex, index_trees

HOLDOUT_FRACTION = 0.1  # the corpus share `pretrain` selects its epoch on


@dataclass
class CompositionParams:
    """Composition and reconstruction weights for the recursive encoder."""

    W_comp: Tensor  # (n_e, 2*n_e)
    b_comp: Tensor  # (n_e,)
    W_rec: Tensor   # (2*n_e, n_e)
    b_rec: Tensor   # (2*n_e,)

    @property
    def n_e(self) -> int:
        return self.W_comp.data.shape[0]

    def named(self) -> List[Tuple[str, Tensor]]:
        return by_name(self.W_comp, self.b_comp, self.W_rec, self.b_rec)


@dataclass
class PretrainConfig:
    learning_rate: float = 0.01
    batch_size: int = 100
    max_epochs: int = 30
    patience: Optional[int] = 3  # epochs without held-out improvement; None = off
    seed: int = 0

    def validate(self) -> "PretrainConfig":
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ConfigError(f"learning_rate must be finite and positive, "
                              f"got {self.learning_rate}")
        for name in ("batch_size", "max_epochs", "patience"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        return self


def init_composition(n_e: int, rng) -> CompositionParams:
    return CompositionParams(
        W_comp=parameter(uniform_init(rng, (n_e, 2 * n_e)), "rae.W_comp"),
        b_comp=parameter(np.zeros(n_e), "rae.b_comp"),
        W_rec=parameter(uniform_init(rng, (2 * n_e, n_e)), "rae.W_rec"),
        b_rec=parameter(np.zeros(2 * n_e), "rae.b_rec"),
    )


def _check_composable(index: TreeIndex) -> None:
    """Annotation reads constituency trees with bound leaves."""
    if index.kind != CONSTITUENCY:
        raise ContractError("annotation expects constituency trees")
    if index.leaves is None:
        word = next(node.word for tree in index.trees for node in tree.nodes
                    if not node.children and node.embedding_index is None)
        raise ContractError(f"leaf {word!r} has no embedding index; "
                            f"bind_vocabulary first")


def annotate_forest(index: TreeIndex, params: CompositionParams,
                    table: EmbeddingTable) -> np.ndarray:
    """Frozen node vectors of an index's constituency trees: embedding
    rows at the leaves and p = tanh(W.[c1;c2] + b) above, as one
    (len(index), n_e) array, row for index row.

    A unary node composes its only child with a zero vector, matching
    the absent-child convention used by the convolution window.  The
    leaves are one table gather, and each height of each `node_groups`
    group of trees is one matrix product over the group's nodes of that
    height.  (Composing a height across all groups at once would change
    each product's row count, and with it OpenBLAS's rounding.)
    """
    n_e = params.n_e
    if table.dim != n_e:
        raise ShapeError(f"embedding dim {table.dim} != composition dim {n_e}")
    _check_composable(index)
    size = len(index)
    out = np.zeros((size + 1, n_e))  # the last row stays zero
    out[index.levels[0]] = table.vectors[index.leaves]
    W_comp, b_comp = params.W_comp.data, params.b_comp.data
    start = 0
    for group in node_groups(index.trees):
        stop = start + sum(len(tree) for tree in group)
        for rows, kids in zip(index.levels[1:], index.children):
            # a level holds its rows tree after tree, so the group's
            # rows are one run of it, found by bisection
            a, b = np.searchsorted(rows, (start, stop)).tolist()
            if a == b:  # the group has no taller node
                break
            p = out[kids[a:b]].reshape(b - a, 2 * n_e) @ W_comp.T
            p += b_comp
            out[rows[a:b]] = np.tanh(p, out=p)
        start = stop
    return out[:size]


def annotate(tree: ParseTree, params: CompositionParams,
             table: EmbeddingTable) -> np.ndarray:
    """The (n_nodes, n_e) frozen vectors of one tree, aligned with its
    node indices (see `annotate_forest`)."""
    return annotate_forest(index_trees([tree]), params, table)


def _recon_loss(tape: Tape, trees: Sequence[ParseTree], params: CompositionParams,
                table: EmbeddingTable) -> Tuple[Optional[Tensor], int]:
    """Reconstruction loss summed over the non-leaf nodes of `trees`
    (None if they have none), and their count.

    The non-leaf nodes of one height, across all the trees, compose and
    reconstruct together (see `tree_conv.TreeIndex`): their [left; right]
    child rows form one (m, 2*n_e) matrix, read from the leaf rows and
    from just the lower levels those children sit in.
    """
    index = index_trees(trees)
    _check_composable(index)
    # each index row's vector is row `rank` of level `level_of`'s
    # matrix; level 0 is a zero row, then the leaves
    level_of = np.zeros(len(index) + 1, dtype=np.intp)
    rank = np.zeros(len(index) + 1, dtype=np.intp)
    for h, rows in enumerate(index.levels):
        level_of[rows] = h
        rank[rows] = np.arange(len(rows)) + int(h == 0)
    vectors = [Tensor(np.concatenate([np.zeros((1, params.n_e)),
                                      table.vectors[index.leaves]]))]
    total = None
    for kids in index.children:
        refs = kids.ravel()
        used = np.unique(level_of[refs])
        start = np.zeros(len(vectors), dtype=np.intp)
        start[used] = np.cumsum([0] + [len(vectors[l].data) for l in used[:-1]])
        pairs = tape.reshape(
            tape.take_rows([vectors[l] for l in used],
                           start[level_of[refs]] + rank[refs]),
            (len(kids), 2 * params.n_e))
        p = tape.tanh(tape.edge_matmul(pairs, params.W_comp, params.b_comp))
        recon = tape.tanh(tape.edge_matmul(p, params.W_rec, params.b_rec))
        loss = tape.sumsq(tape.sub(pairs, recon))
        total = loss if total is None else tape.add(total, loss)
        vectors.append(p)
    return total, sum(len(rows) for rows in index.levels[1:])


def reconstruction_loss(trees: Sequence[ParseTree], params: CompositionParams,
                        table: EmbeddingTable) -> float:
    """Mean reconstruction loss per non-leaf node over a corpus, scored
    EVAL_NODES nodes at a time."""
    scored = [_recon_loss(Tape(record=False), group, params, table)
              for group in node_groups(trees)]
    count = sum(n for _, n in scored)
    if count == 0:
        raise ContractError("corpus has no non-leaf nodes to reconstruct")
    return sum(loss.item() for loss, n in scored if n) / count


def pretrain(trees: Sequence[ParseTree], table: EmbeddingTable,
             config: PretrainConfig = PretrainConfig()) -> CompositionParams:
    """Minibatch SGD on the children-reconstruction objective.

    Holds out a fraction of the corpus and returns the parameters from
    the epoch with the best held-out loss, so the returned held-out loss
    never exceeds the initial one.  Gradients are averaged per non-leaf
    node in the batch.
    """
    config.validate()
    trees = list(trees)
    if any(t.kind != CONSTITUENCY for t in trees):
        raise ContractError("pretraining expects constituency trees")

    rng = np.random.default_rng(config.seed)
    params = init_composition(table.dim, rng)

    holdout = train = trees
    if len(trees) >= 2:
        order = rng.permutation(len(trees))
        n_hold = max(1, round(HOLDOUT_FRACTION * len(trees)))
        # a split without a non-leaf node falls back to the whole corpus,
        # which reconstruction_loss rejects if it has none either
        holdout, train = [
            split if any(node.children for t in split for node in t.nodes)
            else trees
            for split in ([trees[i] for i in order[:n_hold]],
                          [trees[i] for i in order[n_hold:]])]

    named = params.named()
    best_loss = reconstruction_loss(holdout, params, table)
    best_state = {name: p.data.copy() for name, p in named}
    stale = 0

    def batch_loss(tape, batch):
        """The batch's loss, as its one value."""
        loss, count = _recon_loss(tape, batch, params, table)
        return loss, [] if loss is None else [loss.item()], count

    for epoch in range(1, config.max_epochs + 1):
        sgd_epoch(train, batch_loss, named, config.learning_rate,
                  config.batch_size, rng, epoch=epoch)
        held = reconstruction_loss(holdout, params, table)
        if held < best_loss:
            best_loss = held
            best_state = {name: p.data.copy() for name, p in named}
            stale = 0
        else:
            stale += 1
            if config.patience is not None and stale >= config.patience:
                break

    for name, p in named:
        p.data = best_state[name]
    return params
