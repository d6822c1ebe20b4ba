"""Depth-2 subtree convolution slid over every position of a parse tree.

One window evaluation reads a parent node and its direct children and
emits an n_c-dimensional feature vector through shared weights:

* constituency windows bind weights by child position (left / right),
  with absent children contributing zero;
* dependency windows bind weights by the child's dependency relation,
  looked up through the relation inventory (rare relations share one
  matrix).

The window count equals the node count, so convolving a sentence is
linear in its size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .corpus_io import CONSTITUENCY, DEPENDENCY, DepTypeInventory, ParseTree
from .errors import ContractError
from .tensor_core import Tape, Tensor, parameter, uniform_init


@dataclass
class CWindowParams:
    """Position-bound window weights for constituency trees."""

    W_p: Tensor  # (n_c, n_e)
    W_l: Tensor  # (n_c, n_e)
    W_r: Tensor  # (n_c, n_e)
    b: Tensor    # (n_c,)

    @property
    def n_c(self) -> int:
        return self.W_p.data.shape[0]

    def named(self) -> List[Tuple[str, Tensor]]:
        return [("conv.W_p", self.W_p), ("conv.W_l", self.W_l),
                ("conv.W_r", self.W_r), ("conv.b", self.b)]


@dataclass
class DWindowParams:
    """Relation-bound window weights for dependency trees.

    `W_rel[slot]` holds one matrix per inventory slot; the last slot is
    the shared matrix for rare relations.
    """

    W_p: Tensor           # (n_c, n_e)
    W_rel: List[Tensor]   # n_slots matrices, each (n_c, n_e)
    b: Tensor             # (n_c,)

    @property
    def n_c(self) -> int:
        return self.W_p.data.shape[0]

    def named(self) -> List[Tuple[str, Tensor]]:
        out = [("conv.W_p", self.W_p)]
        out.extend((f"conv.W_rel{i}", W) for i, W in enumerate(self.W_rel))
        out.append(("conv.b", self.b))
        return out


@dataclass
class FeatureMap:
    """One convolution output vector per tree node, index-aligned."""

    vectors: List[Tensor]

    @property
    def n_c(self) -> int:
        return self.vectors[0].data.shape[0]

    def __len__(self) -> int:
        return len(self.vectors)

    def as_array(self) -> np.ndarray:
        return np.stack([v.data for v in self.vectors])


def init_c_window(n_c: int, n_e: int, rng) -> CWindowParams:
    return CWindowParams(
        W_p=parameter(uniform_init(rng, (n_c, n_e)), "conv.W_p"),
        W_l=parameter(uniform_init(rng, (n_c, n_e)), "conv.W_l"),
        W_r=parameter(uniform_init(rng, (n_c, n_e)), "conv.W_r"),
        b=parameter(np.zeros(n_c), "conv.b"),
    )


def init_d_window(n_c: int, n_e: int, n_slots: int, rng) -> DWindowParams:
    return DWindowParams(
        W_p=parameter(uniform_init(rng, (n_c, n_e)), "conv.W_p"),
        W_rel=[parameter(uniform_init(rng, (n_c, n_e)), f"conv.W_rel{i}")
               for i in range(n_slots)],
        b=parameter(np.zeros(n_c), "conv.b"),
    )


def conv_window_c(tape: Tape, p: Tensor, cl: Optional[Tensor],
                  cr: Optional[Tensor], params: CWindowParams) -> Tensor:
    """ReLU(W_p.p + W_l.cl + W_r.cr + b); None children count as zero."""
    acc = tape.matvec(params.W_p, p)
    if cl is not None:
        acc = tape.add(acc, tape.matvec(params.W_l, cl))
    if cr is not None:
        acc = tape.add(acc, tape.matvec(params.W_r, cr))
    return tape.relu(tape.add(acc, params.b))


def conv_window_d(tape: Tape, p: Tensor,
                  children: Sequence[Tuple[Tensor, Optional[str]]],
                  params: DWindowParams,
                  inventory: DepTypeInventory) -> Tensor:
    """ReLU(W_p.p + sum_i W_rel[slot(r_i)].c_i + b).

    Unknown relations never fail; they resolve to the shared slot.
    """
    acc = tape.matvec(params.W_p, p)
    for child_vec, relation in children:
        slot = inventory.slot_of(relation)
        acc = tape.add(acc, tape.matvec(params.W_rel[slot], child_vec))
    return tape.relu(tape.add(acc, params.b))


def convolve(tape: Tape, tree: ParseTree, node_vectors: Sequence[Tensor],
             params: Union[CWindowParams, DWindowParams],
             inventory: Optional[DepTypeInventory] = None) -> FeatureMap:
    """Evaluate the depth-2 window at every node of the tree.

    `node_vectors` must cover every node (index-aligned): frozen
    recursive-autoencoder vectors for constituency trees, embedding rows
    for dependency trees.
    """
    if len(node_vectors) != len(tree.nodes):
        raise ContractError(
            f"node_vectors covers {len(node_vectors)} nodes, "
            f"tree has {len(tree.nodes)}"
        )
    out: List[Optional[Tensor]] = [None] * len(tree.nodes)
    if isinstance(params, DWindowParams):
        if tree.kind != DEPENDENCY:
            raise ContractError("dependency window params on a non-dependency tree")
        if inventory is None:
            raise ContractError("dependency convolution needs a relation inventory")
        for v, node in enumerate(tree.nodes):
            children = [(node_vectors[c], tree.nodes[c].dep_relation)
                        for c in node.children]
            out[v] = conv_window_d(tape, node_vectors[v], children,
                                   params, inventory)
    else:
        if tree.kind != CONSTITUENCY:
            raise ContractError("constituency window params on a non-constituency tree")
        for v, node in enumerate(tree.nodes):
            kids = node.children
            if len(kids) > 2:
                raise ContractError(f"node {v} has {len(kids)} children; binarize first")
            cl = node_vectors[kids[0]] if len(kids) >= 1 else None
            cr = node_vectors[kids[1]] if len(kids) == 2 else None
            out[v] = conv_window_c(tape, node_vectors[v], cl, cr, params)
    return FeatureMap(vectors=out)
