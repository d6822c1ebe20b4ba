"""Recursive-autoencoder vectors for constituency non-leaf nodes.

Constituency constituents have no word embedding of their own, so each
non-leaf vector is composed from its children, p = tanh(W.[c1;c2] + b),
and the composition weights are pretrained to reconstruct the children
from p.  The pretraining loss batches a minibatch by height: the
non-leaf nodes of one height, across all its trees, compose and
reconstruct as one matrix, so a batch records a few ops per height of
its tallest tree whatever its tree count.  After pretraining the
per-node vectors are frozen: tree convolution reads them as constants
and no gradient ever reaches them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .corpus_io import CONSTITUENCY, EmbeddingTable, ParseTree
from .errors import ContractError, ShapeError
from .tensor_core import (Tape, Tensor, by_name, node_groups, parameter,
                          sgd_epoch, uniform_init)

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


def init_composition(n_e: int, rng) -> CompositionParams:
    return CompositionParams(
        W_comp=parameter(uniform_init(rng, (n_e, 2 * n_e)), "rae.W_comp"),
        b_comp=parameter(np.zeros(n_e), "rae.b_comp"),
        W_rec=parameter(uniform_init(rng, (2 * n_e, n_e)), "rae.W_rec"),
        b_rec=parameter(np.zeros(2 * n_e), "rae.b_rec"),
    )


def compose(c1: np.ndarray, c2: np.ndarray, params: CompositionParams) -> np.ndarray:
    """tanh(W.[c1;c2] + b) for two child vectors."""
    c1 = np.asarray(c1, dtype=np.float64)
    c2 = np.asarray(c2, dtype=np.float64)
    n_e = params.n_e
    if c1.shape != (n_e,) or c2.shape != (n_e,):
        raise ShapeError(
            f"compose: children must have dim {n_e}, "
            f"got {c1.shape} and {c2.shape}"
        )
    return np.tanh(params.W_comp.data @ np.concatenate([c1, c2])
                   + params.b_comp.data)


def annotate(tree: ParseTree, params: CompositionParams,
             table: EmbeddingTable) -> np.ndarray:
    """Frozen per-node vectors: embedding rows at leaves, compositions above.

    A unary non-leaf composes its only child with a zero vector, matching
    the absent-child convention used by the convolution window.  Returns
    an (n_nodes, n_e) array aligned with the tree's node indices.
    """
    if tree.kind != CONSTITUENCY:
        raise ContractError("annotate expects a constituency tree")
    n_e = params.n_e
    if table.dim != n_e:
        raise ShapeError(f"embedding dim {table.dim} != composition dim {n_e}")
    zero = np.zeros(n_e)
    out = np.zeros((len(tree.nodes), n_e))
    for v, entering in tree.walk():
        if entering:
            continue
        kids = tree.nodes[v].children
        if not kids:
            out[v] = _leaf_row(tree.nodes[v], table)
        else:
            c2 = out[kids[1]] if len(kids) > 1 else zero
            out[v] = compose(out[kids[0]], c2, params)
    return out


def _leaf_row(node, table: EmbeddingTable) -> np.ndarray:
    if node.embedding_index is None:
        raise ContractError(
            f"leaf {node.word!r} has no embedding index; bind_vocabulary first"
        )
    return table.row(node.embedding_index)


def _recon_loss(tape: Tape, trees: Sequence[ParseTree], params: CompositionParams,
                table: EmbeddingTable) -> Tuple[Optional[Tensor], int]:
    """Reconstruction loss summed over the non-leaf nodes of `trees`
    (None if they have none), and their count.

    The non-leaf nodes of one height, across all the trees, compose and
    reconstruct together: their [left; right] child rows, a zero row for
    a unary node's missing right child, form one (m, 2*n_e) matrix, read
    from the leaf rows and from just the lower levels those children sit
    in.  One post-order walk per tree finds every node's (level, row).
    """
    rows = [np.zeros(params.n_e)]  # level 0: a zero row, then the leaves
    levels: List[list] = []  # per height, the [left; right] child refs
    for tree in trees:
        where = [(0, 0)] * len(tree)  # (level, row) of each node's vector
        for v, entering in tree.walk():
            if entering:
                continue
            kids = tree.nodes[v].children
            if not kids:
                where[v] = (0, len(rows))
                rows.append(_leaf_row(tree.nodes[v], table))
                continue
            pair = [where[kids[0]], where[kids[1]] if len(kids) > 1 else (0, 0)]
            height = 1 + max(pair[0][0], pair[1][0])
            if height > len(levels):
                levels.append([])
            where[v] = (height, len(levels[height - 1]) // 2)
            levels[height - 1] += pair
    vectors = [Tensor(np.array(rows))]
    every = slice(None)
    total = None
    for refs in levels:
        start, offset = {}, 0
        for level in sorted({level for level, _ in refs}):
            start[level], offset = offset, offset + len(vectors[level].data)
        pairs = tape.reshape(
            tape.take_rows([vectors[level] for level in start],
                           [start[level] + row for level, row in refs]),
            (len(refs) // 2, 2 * params.n_e))
        p = tape.tanh(tape.edge_matmul(pairs, [(params.W_comp, every, every)],
                                       params.b_comp))
        recon = tape.tanh(tape.edge_matmul(p, [(params.W_rec, every, every)],
                                           params.b_rec))
        loss = tape.sumsq(tape.sub(pairs, recon))
        total = loss if total is None else tape.add(total, loss)
        vectors.append(p)
    return total, sum(len(refs) for refs in levels) // 2


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
             config: PretrainConfig = PretrainConfig(),
             n_e: Optional[int] = None) -> CompositionParams:
    """Minibatch SGD on the children-reconstruction objective.

    Holds out a fraction of the corpus and returns the parameters from
    the epoch with the best held-out loss, so the returned held-out loss
    never exceeds the initial one.  Gradients are averaged per non-leaf
    node in the batch.
    """
    trees = list(trees)
    if any(t.kind != CONSTITUENCY for t in trees):
        raise ContractError("pretraining expects constituency trees")

    rng = np.random.default_rng(config.seed)
    params = init_composition(n_e if n_e is not None else table.dim, rng)

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
