"""Plain-numpy forward pass used to check `SentenceClassifier.predict`.

It reads only the trained weight arrays, the relation inventory and the
tree's words, children and positions, and recomputes every step itself:
node vectors (embedding rows, or the recursive-autoencoder composition
for constituency trees), the depth-2 window at every node, slot
assignment, dimension-wise max per slot and the head.  None of the
package's forward code runs here.
"""

from __future__ import annotations

import numpy as np


def _depths(tree) -> list:
    depth = [0] * len(tree.nodes)
    depth[tree.root] = 1
    stack = [tree.root]
    while stack:
        v = stack.pop()
        for c in tree.nodes[v].children:
            depth[c] = depth[v] + 1
            stack.append(c)
    return depth


def _postorder(tree) -> list:
    order, stack = [], [(tree.root, False)]
    while stack:
        v, expanded = stack.pop()
        if expanded:
            order.append(v)
            continue
        stack.append((v, True))
        stack.extend((c, False) for c in reversed(tree.nodes[v].children))
    return order


def _node_vectors(tree, model, w) -> np.ndarray:
    if model.config.variant == "d":
        rows = [n.embedding_index for n in tree.nodes]
        return model.table.vectors[rows]
    W, b = w["rae.W_comp"], w["rae.b_comp"]
    n_e = W.shape[0]
    out = np.zeros((len(tree.nodes), n_e))
    for v in _postorder(tree):
        kids = tree.nodes[v].children
        if not kids:
            out[v] = model.table.vectors[tree.nodes[v].embedding_index]
            continue
        right = out[kids[1]] if len(kids) > 1 else np.zeros(n_e)
        out[v] = np.tanh(W @ np.concatenate([out[kids[0]], right]) + b)
    return out


def _windows(tree, model, w, x) -> np.ndarray:
    rows = []
    for v, node in enumerate(tree.nodes):
        acc = w["conv.W_p"] @ x[v]
        if model.config.variant == "d":
            inv = model.inventory
            for c in node.children:
                slot = inv.slot_ids.get(tree.nodes[c].dep_relation, inv.shared_slot)
                acc = acc + w[f"conv.W_rel{slot}"] @ x[c]
        else:
            for c, key in zip(node.children, ("conv.W_l", "conv.W_r")):
                acc = acc + w[key] @ x[c]
        rows.append(np.maximum(acc + w["conv.b"], 0.0))
    return np.array(rows)


def _slots(tree, model) -> tuple:
    config = model.config
    n = len(tree.nodes)
    if config.variant == "d":  # k equal spans by word position
        k = config.k
        return [-(-node.position * k // n) - 1 for node in tree.nodes], k
    depth = _depths(tree)
    threshold = config.alpha * max(depth)
    side = {}
    for mark, top_child in enumerate(tree.nodes[tree.root].children[:2], 1):
        stack = [top_child]
        while stack:
            v = stack.pop()
            side[v] = mark
            stack.extend(tree.nodes[v].children)
    return [0 if v == tree.root or depth[v] < threshold else side[v]
            for v in range(n)], 3


def probabilities(tree, model) -> np.ndarray:
    """Class distribution for `tree` under a `TrainedModel`."""
    w = {name: t.data for name, t in model.params.named()}
    if model.rae is not None:
        w.update((name, t.data) for name, t in model.rae.named())
    y = _windows(tree, model, w, _node_vectors(tree, model, w))
    slot_of, count = _slots(tree, model)
    pooled = np.zeros((count, y.shape[1]))
    for s in range(count):
        members = [v for v in range(len(slot_of)) if slot_of[v] == s]
        if members:
            pooled[s] = y[members].max(axis=0)
    h = np.maximum(w["head.W_h"] @ pooled.reshape(-1) + w["head.b_h"], 0.0)
    z = w["head.W_o"] @ h + w["head.b_o"]
    e = np.exp(z - z.max())
    return e / e.sum()
