"""Dynamic max pooling over variable tree topologies.

Three slot-assignment heuristics compress a per-node feature map into a
fixed number of slots:

* global: every node into one slot;
* 3-slot (constituency): nodes above the depth threshold alpha*d go to
  TOP, the rest split LOWER_LEFT / LOWER_RIGHT by which root subtree
  holds them;
* k-slot (dependency): words allocated to k equal spans by position.

The global and 3-slot rules also give a constituency sub-sentence's.

Pooling takes the per-dimension maximum within each slot and records
which node won every dimension (the provenance used for visualization
and for routing gradients).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .corpus_io import CONSTITUENCY, DEPENDENCY, ParseTree, TreeNode
from .errors import ContractError
from .tensor_core import Tape, Tensor

GLOBAL = "global"
THREE_SLOT = "3slot"
K_SLOT = "kslot"

TOP, LOWER_LEFT, LOWER_RIGHT = 0, 1, 2
THREE_SLOT_NAMES = ("TOP", "LOWER_LEFT", "LOWER_RIGHT")

DEFAULT_ALPHA = 0.6


@dataclass
class SlotAssignment:
    slot_of: List[int]   # node index -> slot id
    slot_count: int

    def members(self, slot: int) -> List[int]:
        return [v for v, s in enumerate(self.slot_of) if s == slot]


@dataclass
class PoolProvenance:
    """Winning node index per slot and dimension (None for empty slots)."""

    winners: List[Optional[np.ndarray]]

    def credited(self) -> Iterator[Tuple[int, int, int]]:
        """Yield (slot, dimension, winning node) for every credited dim."""
        for slot, arr in enumerate(self.winners):
            if arr is None:
                continue
            for dim, node in enumerate(arr):
                yield slot, dim, int(node)


def _span(tree: ParseTree, v: Optional[int]) -> List[TreeNode]:
    """The nodes of the sub-sentence at node v, every node when v is
    None: in a pre-order tree, v and the run of deeper nodes after it."""
    if v is None:
        return tree.nodes
    depth, stop = tree.nodes[v].depth_layer, v + 1
    while stop < len(tree.nodes) and tree.nodes[stop].depth_layer > depth:
        stop += 1
    return tree.nodes[v:stop]


def assign_global(tree: ParseTree, v: Optional[int] = None) -> SlotAssignment:
    """Everything into one slot; applicable to any structure (with `v`,
    to the sub-sentence at constituency node v)."""
    return SlotAssignment(slot_of=[0] * len(_span(tree, v)), slot_count=1)


def assign_three_slot(tree: ParseTree, alpha: float = DEFAULT_ALPHA,
                      v: Optional[int] = None) -> SlotAssignment:
    """Depth-thresholded TOP plus lower-left / lower-right split.

    Nodes with depth_layer < alpha*d pool to TOP; lower nodes go by
    which of the root's child subtrees contains them.  The root itself
    is always TOP, which only matters for degenerate trees where
    alpha*d <= 1.  With `v`, those of the sub-sentence at node v, as of
    its `subtree_at` copy: from its own depths and its root's children.
    """
    if tree.kind != CONSTITUENCY:
        raise ContractError("3-slot pooling is defined for constituency trees")
    v = tree.root if v is None else v
    nodes = _span(tree, v)
    base = nodes[0].depth_layer - 1
    threshold = alpha * (max(node.depth_layer for node in nodes) - base)
    kids = nodes[0].children
    right = kids[1] - v if len(kids) > 1 else len(nodes)  # the right subtree's row
    slot_of = [TOP if node.depth_layer - base < threshold
               else LOWER_LEFT if u < right else LOWER_RIGHT
               for u, node in enumerate(nodes)]
    slot_of[0] = TOP
    return SlotAssignment(slot_of=slot_of, slot_count=3)


def assign_k_slot(tree: ParseTree, k: int) -> SlotAssignment:
    """Equal allocation by word position: position i lands in slot
    ceil(i*k/n); positions on a boundary stay in the lower slot.  With
    k > n some slots hold no word (they pool to zero rows), so a
    sentence shorter than k still pools."""
    if tree.kind != DEPENDENCY:
        raise ContractError("k-slot pooling is defined for dependency trees")
    if k < 1:
        raise ContractError(f"k-slot pooling needs k >= 1, got k={k}")
    n = len(tree.nodes)
    slot_of = []
    for node in tree.nodes:
        i = node.position
        slot_of.append((i * k + n - 1) // n - 1)  # ceil(i*k/n), 0-based
    return SlotAssignment(slot_of=slot_of, slot_count=k)


def pool(tape: Tape, features: Tensor,
         assignment: SlotAssignment) -> Tuple[Tensor, PoolProvenance]:
    """Dimension-wise max within each slot, with argmax provenance.

    `features` is the (n_nodes, n_c) feature map of one tree, or of a
    minibatch's forest with the trees' slots numbered one after another;
    the result is the (slot_count, n_c) pooled matrix, row s for slot s,
    recorded as one `segment_max` on the tape.  Ties go to the lowest
    node index.  Empty slots pool to zero rows and record no
    provenance.  Gradient flows only to winning entries.
    """
    if len(assignment.slot_of) != features.data.shape[0]:
        raise ContractError(
            f"assignment covers {len(assignment.slot_of)} nodes, "
            f"feature map has {features.data.shape[0]}"
        )
    pooled, winners = tape.segment_max(features, assignment.slot_of,
                                       assignment.slot_count)
    return pooled, PoolProvenance(winners=winners)
