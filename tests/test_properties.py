"""Property tests over random trees of up to ~2k nodes: round trips,
structural invariants, sub-tree copies, the frozen annotation and the
rows of `train`'s index, `train`'s spans against their sub-tree copies,
the pre-order rule, the index's composition order against plain
recursion, annotation by node group, the RAE reconstruction loss (one
tree against a per-node oracle, a batch against its trees one call
each) and the convolution oracle; over random matrices and slot maps, single-tree
and batch-shaped, the pooling primitive `segment_max`; over random
tapes of row lookups, the row-gradient sums against a plain-numpy
replay; and over random minibatches, the batched loss and gradient
against the same samples one tape at a time; and over random row
scatters, `_scatter_add` against numpy's `np.add.at`.

The tree shapes come from a hypothesis-drawn `random.Random`, so a
failing example replays from the seed hypothesis prints; the size is a
separate argument that shrinks on its own.
"""

import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeconv.config import TrainConfig
from treeconv.corpus_io import (
    CONSTITUENCY,
    ParseTree,
    TreeNode,
    bind_vocabulary,
    build_dep_inventory,
    parse_constituency,
    parse_dependency,
    random_embeddings,
    serialize_constituency,
    serialize_dependency,
    subtree_at,
    validate_tree,
    vocabulary_from_corpus,
)
from treeconv.network import SentenceClassifier, init_model
from treeconv.rae_pretrain import (
    PretrainConfig,
    _recon_loss,
    annotate,
    annotate_forest,
    init_composition,
    pretrain,
    reconstruction_loss,
)
from treeconv.synthetic import random_dependency_tree
from treeconv.tensor_core import (
    EVAL_NODES,
    FLAT_SCATTER,
    WIDE_SLOT,
    RowGradient,
    _scatter_add,
    Tape,
    Tensor,
    grad_of,
    node_groups,
    parameter,
)
from treeconv.errors import ContractError, StructureError
from treeconv.trainer import _read_trees, _sample_roots, _sample_spans, train
from treeconv.tree_conv import (convolve, index_trees, init_c_window,
                                init_d_window)

from helpers import compose_node
from test_tree_conv import naive_convolve

TAGS = ["0", "1", "2", "3", "4", "S", "NP", "VP", "X", "-1", "+2", "PP$",
        "٣"]
ALPHABET = "abcxyz019éß٣.,:;'$-_!?"
SPACES = [" ", "  ", "\t", "\u3000"]

PROPERTY = settings(deadline=None, max_examples=30)
# batched annotation runs one matrix product per tree height, so a row
# may differ from a one-node-at-a-time composition in the last bits
ANNOTATION_TOLERANCE = dict(rtol=1e-12, atol=1e-15)
RANDOMS = st.randoms(use_true_random=True)
LEAVES = st.integers(min_value=1, max_value=900)
WORDS = st.integers(min_value=1, max_value=2000)


def random_bracketed(rng, n_leaves):
    """A bracketed line over `n_leaves` words, and those words in order.

    Runs of 1-6 neighbouring items are wrapped into one constituent
    until a single item is left, so constituents are unary, binary or
    n-ary; tags are integers, symbols or absent on non-leaves.  Wrapping
    the last new constituent again half the time makes deep trees.
    """
    words = ["".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 3)))
             for _ in range(n_leaves)]
    items = [f"({rng.choice(TAGS)} {w})" for w in words]
    unary = n_leaves  # unary wraps do not shorten the list, so cap them
    i = 0
    while len(items) > 1 or (unary and rng.random() < 0.3):
        k = rng.randint(1 if unary else 2, min(6, len(items)))
        if k == 1:
            unary -= 1
        # half the time wrap the constituent just built again: deep trees
        if rng.random() < 0.5:
            i = min(i, len(items) - k)
        else:
            i = rng.randrange(len(items) - k + 1)
        space = rng.choice(SPACES)
        items[i:i + k] = [f"({rng.choice(TAGS + [''])}{space}"
                          f"{space.join(items[i:i + k])})"]
    return items[0], words


def node_rows(tree):
    return [(n.word, n.children, n.depth_layer, n.label, n.position,
             n.dep_relation) for n in tree.nodes]


def preorder(tree, v):
    out, stack = [], [v]
    while stack:
        u = stack.pop()
        out.append(u)
        stack.extend(reversed(tree.nodes[u].children))
    return out


def bound_constituency(rng, n_leaves, n_e):
    text, _ = random_bracketed(rng, n_leaves)
    tree = parse_constituency(text)
    vocab = vocabulary_from_corpus([tree])
    bind_vocabulary(tree, vocab)
    return tree, random_embeddings(vocab, n_e, seed=rng.randrange(2 ** 32))


@PROPERTY
@given(RANDOMS, LEAVES)
def test_constituency_round_trip_keeps_leaves_and_invariants(rng, n_leaves):
    text, words = random_bracketed(rng, n_leaves)
    tree = parse_constituency(text)
    validate_tree(tree)  # also: at most two children per node
    assert tree.words() == words  # binarization keeps the leaf order
    again = parse_constituency(serialize_constituency(tree))
    validate_tree(again)
    assert again.root == tree.root
    assert again.sentence_label == tree.sentence_label
    assert node_rows(again) == node_rows(tree)
    assert serialize_constituency(again) == serialize_constituency(tree)


@PROPERTY
@given(RANDOMS, WORDS)
def test_dependency_round_trip(rng, n_words):
    tree = random_dependency_tree(np.random.default_rng(rng.randrange(2 ** 32)),
                                  [f"w{i}" for i in range(n_words)])
    validate_tree(tree)
    again = parse_dependency(serialize_dependency(tree))
    validate_tree(again)
    assert again.root == tree.root
    assert node_rows(again) == node_rows(tree)


@PROPERTY
@given(RANDOMS, LEAVES)
def test_subtree_at_copies_the_nodes_under_v(rng, n_leaves):
    tree, _ = bound_constituency(rng, n_leaves, 2)
    for v in [tree.root] + [rng.randrange(len(tree)) for _ in range(4)]:
        order = preorder(tree, v)
        copy = subtree_at(tree, v)
        validate_tree(copy)
        assert copy.root == 0
        assert copy.sentence_label == tree.nodes[v].label
        assert len(copy) == len(order)
        new_index = {u: i for i, u in enumerate(order)}
        base = tree.nodes[v].depth_layer - 1
        for u, node in zip(order, copy.nodes):
            src = tree.nodes[u]
            assert (node.word, node.label, node.embedding_index) == \
                (src.word, src.label, src.embedding_index)
            assert node.depth_layer == src.depth_layer - base
            assert node.children == [new_index[c] for c in src.children]


@PROPERTY
@given(RANDOMS, LEAVES)
def test_annotate_is_compose_node_by_node(rng, n_leaves):
    n_e = 3
    tree, table = bound_constituency(rng, n_leaves, n_e)
    params = init_composition(n_e, np.random.default_rng(rng.randrange(2 ** 32)))
    out = annotate(tree, params, table)
    for v, node in enumerate(tree.nodes):
        kids = node.children
        if not kids:
            want = table.row(node.embedding_index)
        else:
            c2 = out[kids[1]] if len(kids) > 1 else np.zeros(n_e)
            want = compose_node(out[kids[0]], c2, params)
        assert np.allclose(out[v], want, **ANNOTATION_TOLERANCE), v


def unordered_tree():
    """A hand-built tree whose nodes are not numbered in pre-order (the
    walk enters 0, 2, 1, 3, 4, 5), with an untagged root."""
    nodes = [TreeNode(children=[2, 1], depth_layer=1),
             TreeNode(children=[3], depth_layer=2, label=3),
             TreeNode(word="a", depth_layer=2, label=0),
             TreeNode(children=[4, 5], depth_layer=3, label=1),
             TreeNode(word="b", depth_layer=4),
             TreeNode(word="c", depth_layer=4, label=2)]
    return ParseTree(kind=CONSTITUENCY, nodes=nodes, root=0)


def test_trees_not_in_preorder_are_rejected():
    """Constituency trees are numbered in pre-order: `validate_tree`,
    `train`, `predict`, `annotate`, `pretrain` and
    `reconstruction_loss` name the first node the walk enters out of
    turn (node 2, entered second)."""
    tree = unordered_tree()
    with pytest.raises(StructureError, match="node 2 "):
        validate_tree(tree)
    val = parse_constituency("(1 (0 a) (1 b))")
    vocab = vocabulary_from_corpus([tree, val])
    for t in (tree, val):
        bind_vocabulary(t, vocab)
    table = random_embeddings(vocab, 3, seed=0)
    rae = init_composition(3, np.random.default_rng(0))
    config = TrainConfig(variant="c", n_e=3, n_c=2, n_h=2, classes=5,
                         max_epochs=1).validate()
    with pytest.raises(ContractError, match="node 2 "):
        train([tree], [val], vocab, table, config, rae=rae)
    clf = SentenceClassifier(config, init_model(config, table, None,
                                                np.random.default_rng(0)),
                             rae=rae)
    clf.predict(val)
    with pytest.raises(ContractError, match="node 2 "):
        clf.predict(tree)
    for call in (lambda: annotate(tree, rae, table),
                 lambda: pretrain([tree], table, PretrainConfig(max_epochs=1)),
                 lambda: reconstruction_loss([val, tree], rae, table)):
        with pytest.raises(ContractError, match="node 2 "):
            call()


def bound_forest(rng, lines, n_e):
    """`lines` parsed, shuffled and bound to one random table."""
    trees = [parse_constituency(line) for line in lines]
    rng.shuffle(trees)
    vocab = vocabulary_from_corpus(trees)
    for tree in trees:
        bind_vocabulary(tree, vocab)
    return trees, random_embeddings(vocab, n_e, seed=rng.randrange(2 ** 32))


def c_classifier(config, table, nprng):
    return SentenceClassifier(config, init_model(config, table, None, nprng),
                              rae=init_composition(config.n_e, nprng))


def training_spans(classifier, trees, val_trees):
    """`train`'s samples of `trees` and spans of `val_trees`."""
    roots = [_sample_roots(tree, classifier.config) for tree in trees]
    return _sample_spans(classifier, _read_trees(trees, roots, val_trees),
                         trees, roots, val_trees)


@PROPERTY
@given(RANDOMS, st.integers(1, 5))
def test_cached_rows_are_each_samples_annotation(rng, size):
    """Every training sample's rows in its tree's index are what
    `annotate` gives for that sample as a `subtree_at` copy (within the
    batching tolerance), a sub-sentence's as a view of its source
    tree's rows; validation trees get their own annotation, and a
    second build gives the same bytes."""
    lines = [random_bracketed(rng, rng.randint(1, 80))[0] for _ in range(size)]
    lines.append(unary_chain(rng.randint(2, 40), "chain"))
    trees, table = bound_forest(rng, lines, 3)
    for tree in trees:
        if tree.sentence_label is None:  # an untagged root trains whole
            tree.sentence_label = 1
    config = TrainConfig(variant="c", n_e=3, n_c=2, n_h=2, classes=5)
    clf = c_classifier(config, table,
                       np.random.default_rng(rng.randrange(2 ** 32)))
    params = clf.rae

    val_trees = trees[:2]
    samples, val_spans = training_spans(clf, trees, val_trees)
    again, val_again = training_spans(clf, trees, val_trees)
    roots = [(tree, v) for tree in trees for v in _sample_roots(tree, config)]
    assert len(samples) == len(roots)
    index = samples[0].index
    assert all(span.index is index for span in samples + val_spans)
    offset = {id(tree): index.offsets[t] for t, tree in enumerate(index.trees)}
    for span, same, (tree, v) in zip(samples, again, roots):
        copy = tree if v is None else subtree_at(tree, v)
        start = offset[id(tree)] + (v or 0)
        assert (span.start, span.stop) == (start, start + len(copy))
        rows = index.rows[span.start:span.stop]
        assert np.allclose(rows, annotate(copy, params, table),
                           **ANNOTATION_TOLERANCE)
        assert rows.tobytes() == same.index.rows[same.start:same.stop].tobytes()
        assert rows.base is not None  # a slice, not a copy
    for tree, span, same in zip(val_trees, val_spans, val_again):
        assert (span.start, span.stop) == (offset[id(tree)],
                                           offset[id(tree)] + len(tree))
        rows = index.rows[span.start:span.stop]
        assert np.allclose(rows, annotate(tree, params, table),
                           **ANNOTATION_TOLERANCE)
        assert rows.tobytes() == same.index.rows[same.start:same.stop].tobytes()


@PROPERTY
@given(RANDOMS, st.sampled_from(["3slot", "global"]), st.integers(1, 4))
def test_spans_forward_as_their_subtree_copies(rng, pooling, size):
    """A minibatch of `train`'s spans gives byte for byte the logits,
    per-row losses and gradients of the same minibatch of `subtree_at`
    copies, each copy reading its span's frozen rows, with dropout on
    and one seed: trees with unary chains and untagged interiors."""
    lines = [random_bracketed(rng, rng.randint(1, 30))[0] for _ in range(size)]
    lines.append(unary_chain(rng.randint(2, 12), "chain"))
    trees, table = bound_forest(rng, lines, 3)
    for tree in trees:
        if tree.sentence_label is None:  # an untagged root trains whole
            tree.sentence_label = 1
    config = TrainConfig(variant="c", n_e=3, n_c=4, n_h=5, classes=5,
                         pooling=pooling, dropout_embed=0.3,
                         dropout_hidden=0.2).validate()
    clf = c_classifier(config, table,
                       np.random.default_rng(rng.randrange(2 ** 32)))
    samples, _ = training_spans(clf, trees, trees[:1])
    roots = [(tree, v) for tree in trees for v in _sample_roots(tree, config)]
    picked = [rng.randrange(len(samples)) for _ in range(rng.randint(1, 12))]
    spans = [samples[i] for i in picked]
    copies = [tree if v is None else subtree_at(tree, v)
              for tree, v in (roots[i] for i in picked)]
    index = index_trees(copies)
    index.rows = np.concatenate([span.index.rows[span.start:span.stop]
                                 for span in spans])
    oracle = [clf.span(index, t) for t in range(len(copies))]
    assert [span.label for span in spans] == [span.label for span in oracle]
    seed = rng.randrange(2 ** 32)

    def forward(batch):
        tape = Tape()
        value = clf.loss(tape, batch, [span.label % 5 for span in batch],
                         rng=np.random.default_rng(seed))
        grads = tape.backward(value.node)
        logits = clf.logits(Tape(record=False), batch,
                            rng=np.random.default_rng(seed))
        return [logits.data, value.per_row] + [grad_of(grads, p)
                                               for _, p in clf.params.named()]

    for got, want in zip(forward(spans), forward(oracle)):
        assert got.tobytes() == want.tobytes()


def assert_forest_is_its_trees(trees, params, table):
    """One `annotate_forest` call equals the trees' own annotations
    stacked, within the batching tolerance."""
    out = annotate_forest(index_trees(trees), params, table)
    want = np.concatenate([annotate(tree, params, table) for tree in trees])
    assert out.shape == want.shape
    assert np.allclose(out, want, **ANNOTATION_TOLERANCE)


@PROPERTY
@given(RANDOMS, st.integers(1, 6))
def test_annotate_forest_is_each_trees_annotation(rng, size):
    """A batch of random trees, a unary chain and a leaf-only line
    annotates as its trees do one call each."""
    lines = [random_bracketed(rng, rng.randint(1, 120))[0] for _ in range(size)]
    lines += [unary_chain(rng.randint(2, 60), "chain"), "(1 alone)"]
    trees, table = bound_forest(rng, lines, 3)
    params = init_composition(3, np.random.default_rng(rng.randrange(2 ** 32)))
    assert_forest_is_its_trees(trees, params, table)


def test_annotate_forest_with_a_5000_deep_chain():
    rng = random.Random(5000)
    lines = [random_bracketed(rng, 40)[0], unary_chain(5000, "deep"),
             random_bracketed(rng, 10)[0]]
    trees, table = bound_forest(rng, lines, 3)
    params = init_composition(3, np.random.default_rng(7))
    assert_forest_is_its_trees(trees, params, table)


def naive_composition_order(trees):
    """The index's composition order by plain recursion: each height's
    rows (trees stacked), each tree's in post-order; the leaves'
    embedding indices; and per height h >= 1 the [left; right] child
    rows, the zero row (the forest's row count) for a missing right
    child."""
    zero = sum(len(tree) for tree in trees)
    levels, leaves, children = {}, [], {}

    def visit(tree, base, v):
        kids = tree.nodes[v].children
        h = 0
        for c in kids:
            h = max(h, visit(tree, base, c) + 1)
        levels.setdefault(h, []).append(base + v)
        if kids:
            right = base + kids[1] if len(kids) > 1 else zero
            children.setdefault(h, []).append([base + kids[0], right])
        else:
            leaves.append(tree.nodes[v].embedding_index)
        return h

    base = 0
    for tree in trees:
        visit(tree, base, tree.root)
        base += len(tree)
    return ([levels[h] for h in range(len(levels))], leaves,
            [children[h] for h in range(1, len(levels))])


def assert_order_is_naive(trees):
    index = index_trees(trees)
    levels, leaves, children = naive_composition_order(trees)
    assert [rows.tolist() for rows in index.levels] == levels
    assert index.leaves.tolist() == leaves
    assert [kids.tolist() for kids in index.children] == children
    assert all(kids.shape == (len(rows), 2)
               for rows, kids in zip(index.levels[1:], index.children))


@PROPERTY
@given(RANDOMS, st.integers(1, 6))
def test_composition_order_matches_naive_recursion(rng, size):
    """`index_trees`' levels, leaves and child rows are what a recursive
    height count gives, on random bracketings, unary chains and
    leaf-only lines, one tree alone and stacked as a forest."""
    lines = [random_bracketed(rng, rng.randint(1, 120))[0] for _ in range(size)]
    lines += [unary_chain(rng.randint(2, 60), "chain"), "(1 alone)"]
    trees, _ = bound_forest(rng, lines, 3)
    assert_order_is_naive(trees)
    assert_order_is_naive(trees[:1])


def test_composition_order_of_a_5000_deep_chain():
    rng = random.Random(5001)
    lines = [random_bracketed(rng, 30)[0], unary_chain(5000, "deep"), "(1 a)"]
    trees, _ = bound_forest(rng, lines, 3)
    limit = sys.getrecursionlimit()  # the oracle recurses once per level
    sys.setrecursionlimit(20000)
    try:
        assert_order_is_naive(trees)
    finally:
        sys.setrecursionlimit(limit)
    assert len(index_trees(trees).levels) == 5001  # the leaf, then 5000


def test_annotation_composes_each_tree_group_as_its_own_forest():
    """Over an index of more than EVAL_NODES rows, `annotate_forest`
    gives the bytes of one call per `node_groups` group of its trees:
    each height of a group is one matrix product of the same rows, so
    OpenBLAS rounds every row as in a group-sized call."""
    rng = random.Random(19)
    lines = [random_bracketed(rng, rng.randint(1, 80))[0] for _ in range(60)]
    lines += [unary_chain(rng.randint(2, 40), "chain") for _ in range(4)]
    trees, table = bound_forest(rng, lines, 16)
    index = index_trees(trees)
    groups = list(node_groups(trees))
    assert len(index) > EVAL_NODES and len(groups) > 2
    params = init_composition(16, np.random.default_rng(19))
    want = np.concatenate([annotate_forest(index_trees(group), params, table)
                           for group in groups])
    assert annotate_forest(index, params, table).tobytes() == want.tobytes()


def naive_recon_loss(tree, params, table):
    """Children-reconstruction loss summed node by node in plain numpy,
    and the number of non-leaf nodes."""
    n_e = params.n_e
    W_comp, b_comp, W_rec, b_rec = (p.data for _, p in params.named())
    vectors = {}
    total, count = 0.0, 0
    for v in reversed(preorder(tree, tree.root)):  # children first
        node = tree.nodes[v]
        if not node.children:
            vectors[v] = table.row(node.embedding_index)
            continue
        kids = [vectors[c] for c in node.children] + [np.zeros(n_e)]
        target = np.concatenate(kids[:2])
        vectors[v] = np.tanh(W_comp @ target + b_comp)
        recon = np.tanh(W_rec @ vectors[v] + b_rec)
        total += float(np.sum((target - recon) ** 2))
        count += 1
    return total, count


@PROPERTY
@given(RANDOMS, LEAVES)
def test_recon_loss_matches_per_node_oracle(rng, n_leaves):
    n_e = 3
    tree, table = bound_constituency(rng, n_leaves, n_e)
    nprng = np.random.default_rng(rng.randrange(2 ** 32))
    params = init_composition(n_e, nprng)
    want, count = naive_recon_loss(tree, params, table)
    tape = Tape()
    loss, n = _recon_loss(tape, [tree], params, table)
    assert n == count
    if count == 0:
        assert loss is None
        return
    assert abs(loss.item() - want) <= 1e-12 * want

    # the gradient along a random direction against the oracle's
    # central difference
    grads = tape.backward(loss)
    named = [p for _, p in params.named()]
    steps = [nprng.normal(size=p.data.shape) for p in named]
    slope = sum(float(np.sum(grad_of(grads, p) * d))
                for p, d in zip(named, steps))
    eps = 1e-6
    ends = []
    for sign in (1.0, -1.0):
        for p, d in zip(named, steps):
            p.data = p.data + sign * eps * d
        ends.append(naive_recon_loss(tree, params, table)[0])
        for p, d in zip(named, steps):
            p.data = p.data - sign * eps * d
    fd = (ends[0] - ends[1]) / (2 * eps)
    assert abs(slope - fd) <= 1e-5 * max(abs(slope), 1.0), (slope, fd)


def unary_chain(depth, word):
    """A line whose root sits `depth` unary constituents above one word."""
    return "(1 " + "(X " * (depth - 1) + f"(0 {word})" + ")" * (depth - 1) + ")"


@PROPERTY
@given(RANDOMS, st.integers(1, 6))
def test_recon_loss_of_a_batch_is_the_sum_of_one_tree_losses(rng, size):
    """One call over a batch of random trees, a unary chain and a
    leaf-only line gives the summed loss, count and gradient of one call
    per tree, within 1e-12 relative."""
    lines = [random_bracketed(rng, rng.randint(1, 60))[0] for _ in range(size)]
    lines += [unary_chain(rng.randint(2, 40), "chain"), "(1 alone)"]
    rng.shuffle(lines)
    trees = [parse_constituency(line) for line in lines]
    vocab = vocabulary_from_corpus(trees)
    for tree in trees:
        bind_vocabulary(tree, vocab)
    table = random_embeddings(vocab, 3, seed=rng.randrange(2 ** 32))
    params = init_composition(3, np.random.default_rng(rng.randrange(2 ** 32)))
    named = [p for _, p in params.named()]

    tape = Tape()
    loss, count = _recon_loss(tape, trees, params, table)
    batch_grads = tape.backward(loss)
    want, want_count = 0.0, 0
    summed = {p: np.zeros_like(p.data) for p in named}
    for tree in trees:
        tape = Tape()
        one, n = _recon_loss(tape, [tree], params, table)
        want_count += n
        if one is None:
            assert n == 0
            continue
        want += one.item()
        grads = tape.backward(one)
        for p in named:
            summed[p] += grad_of(grads, p)
    assert count == want_count
    assert abs(loss.item() - want) <= 1e-12 * want
    for name, p in params.named():
        got, ref = grad_of(batch_grads, p), summed[p]
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), name


def test_recon_loss_records_as_many_ops_for_k_copies_as_for_one():
    line = random_bracketed(random.Random(5), 40)[0]
    tree = parse_constituency(line)
    vocab = vocabulary_from_corpus([tree])
    table = random_embeddings(vocab, 3, seed=0)
    params = init_composition(3, np.random.default_rng(0))
    non_leaf = sum(1 for node in tree.nodes if node.children)
    records = []
    for copies in (1, 2, 7):
        trees = [parse_constituency(line) for _ in range(copies)]
        for copy in trees:
            bind_vocabulary(copy, vocab)
        tape = Tape()
        _, n = _recon_loss(tape, trees, params, table)
        assert n == copies * non_leaf
        records.append(len(tape))
    assert records[0] == records[1] == records[2]


def naive_segment_max(X, slot_of, count):
    """Per-slot column maxima by a loop over rows: the lowest row that
    reaches a column's maximum wins it, and an empty slot pools to zeros
    with winners None."""
    pooled = np.zeros((count, X.shape[1]))
    winners = [None] * count
    for slot in range(count):
        members = [v for v in range(len(X)) if slot_of[v] == slot]
        if not members:
            continue
        winners[slot] = []
        for c in range(X.shape[1]):
            best = members[0]
            for v in members[1:]:
                if X[v, c] > X[best, c]:
                    best = v
            winners[slot].append(best)
            pooled[slot, c] = X[best, c]
    return pooled, winners


def check_segment_max(X, slot_of, count, coeffs):
    """`segment_max` against the row loop: pooled values, winners, and
    the gradient of sum(coeffs * pooled), which each slot's coefficients
    reach at its winning entries and nowhere else."""
    cols = X.shape[1]
    want, want_winners = naive_segment_max(X, slot_of, count)

    X_ = parameter(X, "X")
    tape = Tape()
    pooled, winners = tape.segment_max(X_, slot_of, count)
    assert np.array_equal(pooled.data, want)
    assert [None if w is None else w.tolist() for w in winners] == want_winners

    weighted = tape.reshape(tape.mul(pooled, Tensor(coeffs)), (-1, 1))
    grads = tape.backward(tape.sum_rows(weighted))
    expected = np.zeros_like(X)
    for slot, won in enumerate(want_winners):
        if won is not None:
            expected[won, range(cols)] = coeffs[slot]
    assert np.array_equal(grad_of(grads, X_), expected)


def small_integers(rng, rows, cols):
    """Entries in [-3, 3), so that ties are common."""
    return np.array([float(rng.randint(-3, 3))
                     for _ in range(rows * cols)]).reshape(rows, cols)


def random_coeffs(rng, count, cols):
    return np.array([rng.choice([-2.0, -0.5, 1.0, 3.0])
                     for _ in range(count * cols)]).reshape(count, cols)


@PROPERTY
@given(RANDOMS, st.integers(0, 40), st.integers(1, 6), st.integers(1, 8))
def test_segment_max_matches_per_slot_loop(rng, rows, cols, count):
    X = small_integers(rng, rows, cols)
    slot_of = [rng.randrange(count) for _ in range(rows)]
    check_segment_max(X, slot_of, count, random_coeffs(rng, count, cols))


@PROPERTY
@given(RANDOMS, st.integers(1, 12), st.integers(1, 4), st.booleans(),
       st.booleans())
def test_segment_max_matches_per_slot_loop_on_batches(rng, trees, per_tree,
                                                      in_order, wide):
    """Slot maps shaped like a minibatch's: tree b's rows use slots
    b * per_tree ... b * per_tree + per_tree - 1, in row order (k-slot
    and global pooling) or shuffled within the tree (3-slot), some slots
    empty.  Narrow and wide maps reach both reduction forms."""
    slot_of = []
    for b in range(trees):
        own = [b * per_tree + rng.randrange(per_tree)
               for _ in range(rng.randint(1, 6))]
        slot_of += sorted(own) if in_order else own
    count = trees * per_tree
    rows = len(slot_of)
    # columns that put the map on either side of WIDE_SLOT entries a slot
    cols = (WIDE_SLOT * count // rows + 1 if wide
            else rng.randint(1, max(1, WIDE_SLOT * count // rows)))
    X = small_integers(rng, rows, cols)
    assert (X.size > WIDE_SLOT * count) == wide
    check_segment_max(X, slot_of, count, random_coeffs(rng, count, cols))


@PROPERTY
@given(RANDOMS, st.booleans(), st.sampled_from(["uniform", "zipf"]),
       st.booleans())
def test_scatter_add_is_np_add_at_bytewise(rng, flat, spread, one_d):
    """`_scatter_add` against the 2-D `np.add.at`, byte for byte: random
    widths, rows repeated at random or Zipf-heavy (a few rows take most
    of the additions), blocks on either side of FLAT_SCATTER entries,
    and a 1-D `out`.  Values span 16 decades, so adding a row's values
    in another order would change the sum's last bits."""
    nprng = np.random.default_rng(rng.randrange(2 ** 32))
    n_out = rng.randint(1, 60)
    width = 1 if one_d else rng.randint(1, 400)
    # rows that put the block on either side of FLAT_SCATTER entries
    n = (FLAT_SCATTER // width + 1 + rng.randrange(40) if flat
         else rng.randint(1, FLAT_SCATTER // width))
    if spread == "zipf":
        rows = np.minimum(nprng.zipf(1.5, n) - 1, n_out - 1)
    else:
        rows = nprng.integers(0, n_out, n)
    if rng.random() < 0.25:
        rows = rows - n_out  # the same rows, counted from the end
    shape = (n_out,) if one_d else (n_out, width)
    values = (nprng.normal(size=(n,) + shape[1:])
              * 10.0 ** nprng.integers(-8, 8, size=(n,) + shape[1:]))
    out = nprng.normal(size=shape)
    want = out.copy()
    np.add.at(want, rows, values)
    _scatter_add(out, rows, values)
    assert (values.size > FLAT_SCATTER) == flat
    assert out.tobytes() == want.tobytes()


BATCH_SETUPS = [("d", "kslot"), ("d", "global"), ("c", "3slot"), ("c", "global")]


def replay_sum(shape, terms):
    """Zeros plus each (rows or None, gradient) term in order, a row
    lookup's gradient one row at a time."""
    out = np.zeros(shape)
    for rows, g in terms:
        if rows is None:
            out += g
        else:
            for row, grad in zip(rows, g):
                out[row] += grad
    return out


@PROPERTY
@given(RANDOMS)
def test_row_gradients_sum_each_row_in_replay_order(rng):
    """Leaf E is read by row lookups only, leaf F by lookups and densely;
    A = tanh(F) and B = 2 E[rows] are read densely and as one stacked
    pair.  Each loss term is sumsq(piece * coefficients)."""
    nprng = np.random.default_rng(rng.randrange(2 ** 32))
    width = rng.randint(1, 3)
    E = parameter(nprng.normal(size=(rng.randint(1, 6), width)), "E")
    F = parameter(nprng.normal(size=(rng.randint(1, 6), width)), "F")
    b_rows = [rng.randrange(len(E.data)) for _ in range(rng.randint(1, 5))]

    def draw(n):
        return [rng.randrange(n) for _ in range(rng.randint(1, 6))]

    tape = Tape()
    A = tape.tanh(F)
    B = tape.scale(tape.take_rows(E, b_rows), 2.0)
    kinds = ["E", "F", "F dense", "A dense", "B dense", "A and B"]
    terms = []  # (kind, rows read or None, piece data, coefficients)
    total = None
    for _ in range(rng.randint(1, 8)):
        kind = rng.choice(kinds)
        if kind == "E":
            rows = draw(len(E.data))
            piece = tape.take_rows(E, rows)
        elif kind == "F":
            rows = draw(len(F.data))
            piece = tape.take_rows(F, rows)
        elif kind == "A and B":
            rows = draw(len(A.data) + len(B.data))
            piece = tape.take_rows([A, B], rows)
        else:
            rows = None
            piece = {"F dense": F, "A dense": A, "B dense": B}[kind]
        coeffs = nprng.normal(size=piece.data.shape)
        terms.append((kind, rows, piece.data, coeffs))
        loss = tape.sumsq(tape.mul(piece, Tensor(coeffs)))
        total = loss if total is None else tape.add(total, loss)
    grads = tape.backward(total)

    # the reference replays the terms last first, then B's and A's records
    to = {"E": [], "F": [], "A": [], "B": []}
    for kind, rows, data, coeffs in reversed(terms):
        g = (2.0 * (data * coeffs)) * coeffs
        if kind == "A and B":
            split = len(A.data)
            for name, mine, shift in (("A", [r < split for r in rows], 0),
                                      ("B", [r >= split for r in rows], split)):
                if any(mine):
                    to[name].append(([r - shift for r, m in zip(rows, mine) if m],
                                     g[mine]))
        else:
            to[kind.split()[0]].append((None if kind.endswith("dense") else rows, g))
    if to["B"]:
        to["E"].append((b_rows, replay_sum(B.data.shape, to["B"]) * 2.0))
    if to["A"]:
        gA = replay_sum(A.data.shape, to["A"])
        to["F"].append((None, gA * (1.0 - A.data * A.data)))

    for leaf, name in ((E, "E"), (F, "F")):
        if not to[name]:
            assert leaf not in grads
            continue
        assert np.array_equal(grad_of(grads, leaf),
                              replay_sum(leaf.data.shape, to[name])), name
        if all(rows is not None for rows, _ in to[name]):
            got = grads[leaf]
            assert isinstance(got, RowGradient)
            assert len(set(got.indices.tolist())) == len(got.indices)
            touched = {r for rows, _ in to[name] for r in rows}
            assert set(got.indices.tolist()) == touched
        else:
            assert isinstance(grads[leaf], np.ndarray)


def random_batch(rng, variant, size):
    """`size` random trees of one kind over a shared vocabulary, bound
    to it, and a 3-dimensional embedding table."""
    nprng = np.random.default_rng(rng.randrange(2 ** 32))
    if variant == "d":
        trees = [random_dependency_tree(
            nprng, [f"w{rng.randrange(12)}" for _ in range(rng.randint(2, 12))])
            for _ in range(size)]
    else:
        trees = [parse_constituency(random_bracketed(rng, rng.randint(1, 12))[0])
                 for _ in range(size)]
    vocab = vocabulary_from_corpus(trees)
    for tree in trees:
        bind_vocabulary(tree, vocab)
    return trees, random_embeddings(vocab, 3, seed=rng.randrange(2 ** 32))


@PROPERTY
@given(RANDOMS, st.sampled_from(BATCH_SETUPS), st.integers(1, 6))
def test_batch_gradient_is_the_sum_of_one_sample_gradients(rng, setup, size):
    """One tape over a minibatch, dropout on and (d) embeddings trained,
    gives every parameter the gradient of its samples' tapes summed, and
    each sample its own loss, both within 1e-12 relative; the masks
    match because both draw them tree by tree from the same seed."""
    variant, pooling = setup
    trees, table = random_batch(rng, variant, size)
    gold = [rng.randrange(3) for _ in trees]
    config = TrainConfig(variant=variant, n_e=3, n_c=4, n_h=5, classes=3,
                         pooling=pooling, k=2, dropout_embed=0.3,
                         dropout_hidden=0.2,
                         train_embeddings=(variant == "d")).validate()
    nprng = np.random.default_rng(rng.randrange(2 ** 32))
    inventory = build_dep_inventory(trees) if variant == "d" else None
    params = init_model(config, table, inventory, nprng)
    clf = SentenceClassifier(
        config, params, inventory=inventory,
        rae=init_composition(3, nprng) if variant == "c" else None)
    seed = rng.randrange(2 ** 32)

    tape = Tape()
    batch = clf.loss(tape, trees, gold, rng=np.random.default_rng(seed))
    batch_grads = tape.backward(batch.node)
    assert batch.per_row.shape == (size,)

    one_rng = np.random.default_rng(seed)
    summed = {p: np.zeros_like(p.data) for _, p in params.named()}
    for b, (tree, g) in enumerate(zip(trees, gold)):
        tape = Tape()
        single = clf.loss(tape, [tree], [g], rng=one_rng)
        # the batch's GEMMs may round differently in the last bit
        assert abs(single.per_row[0] - batch.per_row[b]) <= 1e-12 * single.per_row[0]
        grads = tape.backward(single.node)
        for p in summed:
            summed[p] += grad_of(grads, p)
    for name, p in params.named():
        got, want = grad_of(batch_grads, p), summed[p]
        assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)),
                                                         1e-300), name


@PROPERTY
@given(RANDOMS, LEAVES, WORDS)
def test_convolve_matches_naive_loop(rng, n_leaves, n_words):
    n_e, n_c = 3, 4
    nprng = np.random.default_rng(rng.randrange(2 ** 32))

    con = parse_constituency(random_bracketed(rng, n_leaves)[0])
    params = init_c_window(n_c, n_e, nprng)
    vectors = [nprng.normal(size=n_e) for _ in con.nodes]
    got = convolve(Tape(), con, Tensor(np.stack(vectors)), params).data
    assert np.max(np.abs(got - naive_convolve(con, vectors, params))) < 1e-12

    dep = random_dependency_tree(nprng, [f"w{i}" for i in range(n_words)])
    inventory = build_dep_inventory([dep])
    params = init_d_window(n_c, n_e, inventory.n_slots, nprng)
    vectors = [nprng.normal(size=n_e) for _ in dep.nodes]
    got = convolve(Tape(), dep, Tensor(np.stack(vectors)), params,
                   inventory).data
    want = naive_convolve(dep, vectors, params, inventory)
    assert np.max(np.abs(got - want)) < 1e-12
