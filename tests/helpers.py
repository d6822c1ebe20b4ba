"""Shared oracles for the test suite.

These stay independent of the library's forward/backward code paths:
finite differences perturb raw parameter arrays and re-run a loss
closure, and the naive kernels below are plain-numpy re-derivations.
"""

import numpy as np


def relative_error(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def central_difference(loss_fn, array, index, eps=1e-5):
    """d loss / d array[index] by central differences on the raw array."""
    orig = array.flat[index]
    array.flat[index] = orig + eps
    hi = loss_fn()
    array.flat[index] = orig - eps
    lo = loss_fn()
    array.flat[index] = orig
    return (hi - lo) / (2.0 * eps)


def max_grad_error(loss_fn, params_and_grads, eps=1e-5):
    """Worst relative error between analytic grads and finite differences.

    `params_and_grads` is an iterable of (ndarray, grad ndarray) pairs;
    every scalar entry is checked.
    """
    worst = 0.0
    for array, grad in params_and_grads:
        assert grad.shape == array.shape
        for index in range(array.size):
            fd = central_difference(loss_fn, array, index, eps=eps)
            worst = max(worst, relative_error(grad.flat[index], fd))
    return worst


def naive_matvec(W, x):
    """Element-wise summation oracle for the matrix-vector product."""
    rows, cols = W.shape
    out = np.zeros(rows)
    for r in range(rows):
        acc = 0.0
        for c in range(cols):
            acc += W[r, c] * x[c]
        out[r] = acc
    return out


def convolve_tree(tape, tree, node_vectors, params, inventory=None):
    """`tree_conv.convolve` on one tree: the forest of its one whole-tree
    span, a dependency tree's children keyed by `inventory`."""
    from treeconv.tree_conv import Span, convolve, forest, index_trees

    index = index_trees([tree], inventory)
    return convolve(tape, forest([Span(index, 0, len(tree))]), node_vectors,
                    params)


def compose_node(c1, c2, params):
    """tanh(W.[c1;c2] + b) for one node's two child vectors: the per-node
    RAE composition that the batch annotator runs a tree height at a
    time."""
    x = np.concatenate([np.asarray(c1, dtype=np.float64),
                        np.asarray(c2, dtype=np.float64)])
    return np.tanh(params.W_comp.data @ x + params.b_comp.data)



def record_annotation(monkeypatch):
    """Patch the batch annotator to record each call's tree ids and the
    non-leaf rows it composes (its index's levels above the leaves);
    returns the two lists (one entry per call)."""
    import treeconv.network as network_mod
    import treeconv.rae_pretrain as rae_mod

    calls, composed = [], []
    annotate_forest = rae_mod.annotate_forest

    def counted_forest(index, *args, **kwargs):
        calls.append([id(tree) for tree in index.trees])
        composed.append(sum(len(rows) for rows in index.levels[1:]))
        return annotate_forest(index, *args, **kwargs)
    # network holds its own binding of annotate_forest
    for holder in (rae_mod, network_mod):
        monkeypatch.setattr(holder, "annotate_forest", counted_forest)
    return calls, composed
