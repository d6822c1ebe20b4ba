"""Depth-2 subtree convolution slid over every position of a parse tree.

One window evaluation reads a parent node and its direct children and
emits an n_c-dimensional feature vector through shared weights:

* constituency windows bind weights by child position (left / right),
  with absent children contributing zero;
* dependency windows bind weights by the child's dependency relation,
  looked up through the relation inventory (rare relations share one
  matrix).

The window count equals the node count, so convolving a sentence is
linear in its size.  A minibatch is convolved as one forest (see
:class:`Forest`): one array op per window term per batch, i.e. one
product of the stacked n x n_e node matrix with each weight matrix,
gathered by child and summed into parent rows with the bias, then one
ReLU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .corpus_io import (
    CONSTITUENCY,
    DEPENDENCY,
    DepTypeInventory,
    ParseTree,
    TreeNode,
)
from .errors import ContractError
from .tensor_core import ALL_ROWS, Tape, Tensor, parameter, uniform_init


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


@dataclass
class Forest:
    """Trees stacked as one forest, the convolution's index of a batch.

    Node rows run tree after tree, each tree's nodes in order.  `edges`
    holds, per weight matrix key (relation slot for dependency trees,
    child position for constituency trees), the child rows and their
    parent rows.
    """

    trees: Sequence[ParseTree]
    nodes: List[TreeNode]  # one per row, i.e. one per window
    edges: List[Tuple[int, np.ndarray, np.ndarray]]  # (key, child, parent)


def forest(trees: Sequence[ParseTree], params: Union[CWindowParams, DWindowParams],
           inventory: Optional[DepTypeInventory] = None) -> Forest:
    """The window index of `trees` for `params`' variant."""
    dependency = isinstance(params, DWindowParams)
    if dependency and inventory is None:
        raise ContractError("dependency convolution needs a relation inventory")
    edges: Dict[int, Tuple[List[int], List[int]]] = {}
    nodes: List[TreeNode] = []
    for tree in trees:
        if dependency and tree.kind != DEPENDENCY:
            raise ContractError("dependency window params on a non-dependency tree")
        if not dependency and tree.kind != CONSTITUENCY:
            raise ContractError("constituency window params on a non-constituency tree")
        base = len(nodes)
        for v, node in enumerate(tree.nodes):
            if not dependency and len(node.children) > 2:
                raise ContractError(
                    f"node {v} has {len(node.children)} children; binarize first")
            for position, c in enumerate(node.children):
                key = (inventory.slot_of(tree.nodes[c].dep_relation)
                       if dependency else position)
                src, dst = edges.setdefault(key, ([], []))
                src.append(base + c)
                dst.append(base + v)
        nodes.extend(tree.nodes)
    return Forest(trees=trees, nodes=nodes,
                  edges=[(key, np.array(src), np.array(dst))
                         for key, (src, dst) in sorted(edges.items())])


def convolve(tape: Tape, trees: Union[Forest, ParseTree], node_vectors: Tensor,
             params: Union[CWindowParams, DWindowParams],
             inventory: Optional[DepTypeInventory] = None) -> Tensor:
    """Evaluate the depth-2 window at every node of a forest (a single
    tree is the forest of one, indexed here with `inventory`).

    `node_vectors` is the (n_nodes, n_e) matrix of node vectors, row v
    for node v: frozen recursive-autoencoder vectors for constituency
    trees, embedding rows for dependency trees.  Returns the
    (n_nodes, n_c) feature map, row v the window rooted at node v.
    """
    if isinstance(trees, ParseTree):
        trees = forest([trees], params, inventory)
    n = len(trees.nodes)
    if node_vectors.data.ndim != 2 or node_vectors.data.shape[0] != n:
        raise ContractError(
            f"node_vectors covers {node_vectors.data.shape[0]} nodes, "
            f"forest has {n}"
        )
    weights = (params.W_rel if isinstance(params, DWindowParams)
               else [params.W_l, params.W_r])
    # W_p reads every node; each child matrix reads child rows into parents
    terms = [(params.W_p, ALL_ROWS, ALL_ROWS)]
    terms.extend((weights[key], src, dst) for key, src, dst in trees.edges)
    return tape.relu(tape.edge_matmul(node_vectors, terms, params.b))
