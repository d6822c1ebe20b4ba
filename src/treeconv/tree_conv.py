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
linear in its size.  :func:`convolve` takes one forest (see
:class:`Forest`), a minibatch or a single tree's one span: one array
op per window term per batch, i.e. one product of the stacked n x n_e
node matrix with each weight matrix, gathered by child and summed into
parent rows with the bias, then one ReLU.

A forest stacks its samples' slices of an edge index built once for
their trees (:class:`TreeIndex`); a sample is a :class:`Span` of rows,
so a constituency sub-sentence is read in place in its pre-order
sentence.  The same walk that indexes a constituency tree's windows
orders its nodes for the RAE composition (see
:func:`rae_pretrain.annotate_forest`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .corpus_io import CONSTITUENCY, DEPENDENCY, DepTypeInventory, ParseTree
from .errors import ContractError
from .tensor_core import Tape, Tensor, by_name, parameter, uniform_init


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
    """W_p, then each child matrix, drawn in that order into one
    (1 + keys, n_c, n_e) array: every matrix is a view of it, so the
    window's weights are one allocation."""
    W_p, *W_child = uniform_init(rng, (1 + len(child_names), n_c, n_e))
    return WindowParams(
        W_p=parameter(W_p, "conv.W_p"),
        W_child=[parameter(W, name) for W, name in zip(W_child, child_names)],
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
class TreeIndex:
    """The window index of trees stacked tree after tree (see
    :func:`index_trees`): the child links in parent order, row r's in
    columns `first[r]:first[r + 1]` of `edges`, so the links inside a
    span of rows are one slice; and the `rows` the node vectors read
    (see `network.SentenceClassifier.index`).

    Constituency trees also get their bottom-up composition order.  A
    node's height is 0 at a leaf and one more than its taller child's
    above; every node of height h depends only on lower heights, so
    each height composes as one matrix.  Row `len(index)` is a zero row
    that stands in for a unary node's missing right child.
    """

    trees: Sequence[ParseTree]
    offsets: List[int]  # each tree's first row, then the row count
    edges: np.ndarray   # (3, links): child key, child row, parent row
    first: List[int]    # each row's first link, then the link count
    n_keys: int         # how many keys the trees' kind has
    kind: str
    leaves: Optional[np.ndarray]  # embedding index of each levels[0] row
                                  # (None if a leaf has none)
    levels: List[np.ndarray]      # rows of height h, each tree's in post-order
    children: List[np.ndarray]    # per height h >= 1, (m_h, 2) child rows
    rows: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.offsets[-1]


@dataclass(slots=True)
class Span:
    """Rows [start, stop) of an index, a whole tree or a constituency
    sub-sentence; as a sample, with its pooling slot map (a slot per
    row) and gold class (see `network.SentenceClassifier.span`)."""

    index: TreeIndex
    start: int
    stop: int
    slots: Optional[np.ndarray] = None
    label: Optional[int] = None

    def __len__(self) -> int:
        return self.stop - self.start


def index_trees(trees: Sequence[ParseTree],
                inventory: Optional[DepTypeInventory] = None) -> TreeIndex:
    """The window index of `trees`, all of one kind.  Dependency trees
    key a child by its relation's slot in `inventory`; constituency
    trees key it by position, must be binary and in pre-order, and are
    ordered for composition in the same walk: links on entering a
    node, height on leaving it."""
    kinds = sorted({tree.kind for tree in trees})
    if len(kinds) > 1:
        raise ContractError(f"a forest holds trees of one kind, got {kinds}")
    dependency = kinds == [DEPENDENCY]
    if dependency and inventory is None:
        raise ContractError("dependency convolution needs a relation inventory")
    key, child, parent, first, offsets = [], [], [], [0], [0]
    size = sum(len(tree) for tree in trees)
    height = [0] * (size + 1)
    leaves: List[Optional[int]] = []
    levels: List[List[int]] = [] if dependency else [[]]
    children: List[List[int]] = []
    for tree in trees:
        nodes, base = tree.nodes, offsets[-1]
        offsets.append(base + len(nodes))
        if dependency:
            for v, node in enumerate(nodes):
                for c in node.children:
                    key.append(inventory.slot_of(nodes[c].dep_relation))
                    child.append(base + c)
                    parent.append(base + v)
                first.append(len(child))
            continue
        entered = 0
        for v, entering in tree.walk():
            kids = nodes[v].children
            if entering:
                if v != entered:
                    break
                entered += 1
                if len(kids) > 2:
                    raise ContractError(
                        f"node {v} has {len(kids)} children; binarize first")
                for position, c in enumerate(kids):
                    key.append(position)
                    child.append(base + c)
                    parent.append(base + v)
                first.append(len(child))
            elif not kids:
                leaves.append(nodes[v].embedding_index)
                levels[0].append(base + v)
            else:
                left = base + kids[0]
                right = base + kids[1] if len(kids) > 1 else size
                h = height[base + v] = 1 + max(height[left], height[right])
                if h == len(levels):
                    levels.append([])
                    children.append([])
                levels[h].append(base + v)
                children[h - 1] += (left, right)
        if entering or entered != len(nodes):  # broke at v, or missed a node
            raise ContractError(f"node {v if entering else entered} is not "
                                f"numbered in pre-order, as constituency "
                                f"trees must be")
    return TreeIndex(trees, offsets, np.array([key, child, parent], dtype=np.intp),
                     first, inventory.n_slots if dependency else 2, kinds[0],
                     None if None in leaves else np.array(leaves, dtype=np.intp),
                     [np.array(rows, dtype=np.intp) for rows in levels],
                     [np.array(kids, dtype=np.intp).reshape(-1, 2)
                      for kids in children])


@dataclass
class Forest:
    """Spans of one index stacked as the convolution's index of a batch:
    rows run span after span, and `edges` holds, per child key, the
    child rows and their parent rows."""

    spans: Sequence[Span]
    nodes: range  # the forest's rows, one per window
    edges: List[Tuple[int, np.ndarray, np.ndarray]]  # (key, child, parent)
    n_keys: int
    kind: str


def forest(spans: Sequence[Span]) -> Forest:
    """The forest of `spans`, all of one index: each span's slice of the
    links, moved to its forest rows, grouped by key in span order."""
    index = spans[0].index
    parts, shifts, counts, rows = [], [], [], 0
    for span in spans:
        if span.index is not index:
            raise ContractError("a forest's spans come from one index")
        a, b = index.first[span.start], index.first[span.stop]
        parts.append(index.edges[:, a:b])
        shifts.append(rows - span.start)
        counts.append(b - a)
        rows += span.stop - span.start
    edges = np.concatenate(parts, axis=1)
    if any(shifts):
        edges[1:] += np.repeat(shifts, counts)
    edges = edges[:, np.argsort(edges[0], kind="stable")]
    ends = np.searchsorted(edges[0], np.arange(index.n_keys + 1)).tolist()
    return Forest(spans, range(rows),
                  [(key, edges[1, a:b], edges[2, a:b])
                   for key, (a, b) in enumerate(zip(ends, ends[1:])) if b > a],
                  index.n_keys, index.kind)


def convolve(tape: Tape, forest: Forest, node_vectors: Tensor,
             params: WindowParams) -> Tensor:
    """Evaluate the depth-2 window at every node of a forest (see
    :func:`forest`; one tree is the forest of its one whole-tree span).

    `node_vectors` is the (n_nodes, n_e) matrix of node vectors, row v
    for forest row v: frozen recursive-autoencoder vectors for
    constituency trees, embedding rows for dependency trees.  Returns
    the (n_nodes, n_c) feature map, row v the window rooted at row v.
    """
    n = len(forest.nodes)
    if node_vectors.data.ndim != 2 or node_vectors.data.shape[0] != n:
        raise ContractError(
            f"node_vectors covers {node_vectors.data.shape[0]} nodes, "
            f"forest has {n}"
        )
    if params.kind != forest.kind:
        raise ContractError(
            f"window's child matrices are keyed for {params.kind} trees, "
            f"the forest holds {forest.kind} trees"
        )
    if len(params.W_child) != forest.n_keys:
        raise ContractError(
            f"window has {len(params.W_child)} child matrices, the forest's "
            f"trees have {forest.n_keys} child keys"
        )
    # W_p reads every node; each child matrix reads child rows into parents
    edges = [(params.W_child[key], src, dst) for key, src, dst in forest.edges]
    return tape.relu(tape.edge_matmul(node_vectors, params.W_p, params.b, edges))
