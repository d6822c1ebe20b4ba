"""Depth-2 subtree convolution slid over every position of a parse tree.

One window evaluation reads a parent node and its direct children and
emits an n_c-dimensional feature vector through shared weights,
y = ReLU(W_p.x_p + sum_i W_child[key(c_i)].x_c_i + b).  Both variants
use this one window; the trees' kind picks the key rule:

* constituency: a child's position (0 left, 1 right), with absent
  children contributing zero;
* dependency: the inventory slot of the child's relation (rare
  relations share one matrix).

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

from .corpus_io import (CONSTITUENCY, DEPENDENCY, DepTypeInventory, ParseTree,
                        TreeNode)
from .errors import ContractError
from .tensor_core import (ALL_ROWS, Tape, Tensor, by_name, parameter,
                          uniform_init)


@dataclass
class WindowParams:
    """The window's weights: `W_child[key]` is the matrix for children of
    key `key`, a child position or a relation slot (see :func:`forest`).
    `kind` is the tree kind the window was built for, which picks what
    its keys mean."""

    W_p: Tensor            # (n_c, n_e)
    W_child: List[Tensor]  # one (n_c, n_e) matrix per child key
    b: Tensor              # (n_c,)
    kind: str              # CONSTITUENCY or DEPENDENCY

    def named(self) -> List[Tuple[str, Tensor]]:
        return by_name(self.W_p, *self.W_child, self.b)


def _init_window(n_c: int, n_e: int, child_names: Sequence[str], kind: str,
                 rng) -> WindowParams:
    return WindowParams(
        W_p=parameter(uniform_init(rng, (n_c, n_e)), "conv.W_p"),
        W_child=[parameter(uniform_init(rng, (n_c, n_e)), name)
                 for name in child_names],
        b=parameter(np.zeros(n_c), "conv.b"),
        kind=kind,
    )


def init_c_window(n_c: int, n_e: int, rng) -> WindowParams:
    """A constituency window: left and right child matrices."""
    return _init_window(n_c, n_e, ["conv.W_l", "conv.W_r"], CONSTITUENCY, rng)


def init_d_window(n_c: int, n_e: int, n_slots: int, rng) -> WindowParams:
    """A dependency window: one child matrix per inventory slot."""
    return _init_window(n_c, n_e, [f"conv.W_rel{i}" for i in range(n_slots)],
                        DEPENDENCY, rng)


@dataclass
class Forest:
    """Trees stacked as one forest, the convolution's index of a batch.

    Node rows run tree after tree, each tree's nodes in order.  `edges`
    holds, per child key (relation slot for dependency trees, child
    position for constituency trees), the child rows and their parent
    rows; `n_keys` is how many keys the trees' kind has.
    """

    trees: Sequence[ParseTree]
    nodes: List[TreeNode]  # one per row, i.e. one per window
    edges: List[Tuple[int, np.ndarray, np.ndarray]]  # (key, child, parent)
    n_keys: int
    kind: str  # the trees' kind


def forest(trees: Sequence[ParseTree],
           inventory: Optional[DepTypeInventory] = None) -> Forest:
    """The window index of `trees`, which must all be of one kind.

    Dependency trees key a child by its relation's slot in `inventory`;
    constituency trees key it by position and ignore `inventory`.
    """
    kinds = sorted({tree.kind for tree in trees})
    if len(kinds) > 1:
        raise ContractError(f"a forest holds trees of one kind, got {kinds}")
    dependency = kinds == [DEPENDENCY]
    if dependency and inventory is None:
        raise ContractError("dependency convolution needs a relation inventory")
    edges: Dict[int, Tuple[List[int], List[int]]] = {}
    nodes: List[TreeNode] = []
    for tree in trees:
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
                         for key, (src, dst) in sorted(edges.items())],
                  n_keys=inventory.n_slots if dependency else 2,
                  kind=DEPENDENCY if dependency else CONSTITUENCY)


def convolve(tape: Tape, trees: Union[Forest, ParseTree], node_vectors: Tensor,
             params: WindowParams,
             inventory: Optional[DepTypeInventory] = None) -> Tensor:
    """Evaluate the depth-2 window at every node of a forest (a single
    tree is the forest of one, indexed here with `inventory`).

    `node_vectors` is the (n_nodes, n_e) matrix of node vectors, row v
    for node v: frozen recursive-autoencoder vectors for constituency
    trees, embedding rows for dependency trees.  Returns the
    (n_nodes, n_c) feature map, row v the window rooted at node v.
    """
    if isinstance(trees, ParseTree):
        trees = forest([trees], inventory)
    n = len(trees.nodes)
    if node_vectors.data.ndim != 2 or node_vectors.data.shape[0] != n:
        raise ContractError(
            f"node_vectors covers {node_vectors.data.shape[0]} nodes, "
            f"forest has {n}"
        )
    if params.kind != trees.kind:
        raise ContractError(
            f"window's child matrices are keyed for {params.kind} trees, "
            f"the forest holds {trees.kind} trees"
        )
    if len(params.W_child) != trees.n_keys:
        raise ContractError(
            f"window has {len(params.W_child)} child matrices, the forest's "
            f"trees have {trees.n_keys} child keys"
        )
    # W_p reads every node; each child matrix reads child rows into parents
    terms = [(params.W_p, ALL_ROWS, ALL_ROWS)]
    terms.extend((params.W_child[key], src, dst) for key, src, dst in trees.edges)
    return tape.relu(tape.edge_matmul(node_vectors, terms, params.b))
