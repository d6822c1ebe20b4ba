"""Synthetic corpora: desk-scale stand-ins for treebank experiments.

Three generators cover the experiment suite:

* random trees of both kinds, for property tests and oracles;
* a small overfit corpus whose label is revealed by a marker word;
* a structural task whose label depends only on one parent-child edge in
  the dependency tree.  Both classes share identical token sequences and
  bags of words, so any flat model is blind to the signal by
  construction while tree convolution can read it off one window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .config import VARIANT_D, TrainConfig
from .corpus_io import (
    DEPENDENCY,
    EmbeddingTable,
    ParseTree,
    TreeNode,
    Vocabulary,
    bind_vocabulary,
    build_dep_inventory,
    parse_constituency,
    parse_dependency,
)
from .network import SentenceClassifier, init_model

DEFAULT_RELATIONS = ("nsubj", "dobj", "amod", "advmod", "det", "prep")


def toy_vocab_table(words: Sequence[str], n_e: int, seed: int = 0,
                    scale: float = 0.5) -> Tuple[Vocabulary, EmbeddingTable]:
    """Vocabulary over `words` with seeded uniform embeddings (plus UNK)."""
    vocab = Vocabulary(index={w: i for i, w in enumerate(words)},
                       unk_index=len(words))
    rng = np.random.default_rng(seed)
    table = EmbeddingTable(rng.uniform(-scale, scale, size=(len(words) + 1, n_e)))
    return vocab, table


def random_dependency_tree(rng, words: Sequence[str],
                           relations: Sequence[str] = DEFAULT_RELATIONS) -> ParseTree:
    """Random single-rooted tree over the given tokens, in order."""
    n = len(words)
    attach_order = rng.permutation(n)  # positions 0-based, first becomes root
    nodes = [TreeNode(word=words[i], position=i + 1) for i in range(n)]
    root = int(attach_order[0])
    nodes[root].depth_layer = 1
    for k in range(1, n):
        v = int(attach_order[k])
        # the parent was attached earlier, so its depth is already final
        parent = int(attach_order[int(rng.integers(0, k))])
        nodes[parent].children.append(v)
        nodes[v].dep_relation = str(rng.choice(relations))
        nodes[v].depth_layer = nodes[parent].depth_layer + 1
    for node in nodes:
        node.children.sort()
    return ParseTree(kind=DEPENDENCY, nodes=nodes, root=root)


def random_constituency_tree(rng, words: Sequence[str]) -> ParseTree:
    """Random binary bracketing over the given leaves, every tag X."""
    def build(ws: Sequence[str]) -> str:
        if len(ws) == 1:
            return f"(X {ws[0]})"
        split = int(rng.integers(1, len(ws)))
        return f"(X {build(ws[:split])} {build(ws[split:])})"

    return parse_constituency(build(list(words)))


# ---------------------------------------------------------------------------
# overfit corpus: label marked by one vocabulary item
# ---------------------------------------------------------------------------

@dataclass
class ToyCorpus:
    dep_trees: List[ParseTree]
    con_trees: List[ParseTree]
    vocab: Vocabulary
    table: EmbeddingTable
    classes: int


def make_overfit_corpus(n_sentences: int = 50, classes: int = 3,
                        n_e: int = 16, seed: int = 0) -> ToyCorpus:
    """Small corpus where class k plants the marker word marker<k>."""
    rng = np.random.default_rng(seed)
    markers = [f"marker{k}" for k in range(classes)]
    fillers = [f"filler{i}" for i in range(10)]
    vocab, table = toy_vocab_table(markers + fillers, n_e, seed=seed + 1)

    dep_trees, con_trees = [], []
    for i in range(n_sentences):
        label = i % classes
        length = int(rng.integers(4, 8))
        words = [str(rng.choice(fillers)) for _ in range(length)]
        words[int(rng.integers(0, length))] = markers[label]

        dep = random_dependency_tree(rng, words)
        dep.sentence_label = label
        bind_vocabulary(dep, vocab)
        dep_trees.append(dep)

        con = random_constituency_tree(rng, words)
        con.nodes[con.root].label = label
        con.sentence_label = label
        bind_vocabulary(con, vocab)
        con_trees.append(con)

    return ToyCorpus(dep_trees=dep_trees, con_trees=con_trees,
                     vocab=vocab, table=table, classes=classes)


# ---------------------------------------------------------------------------
# structural task: the label lives in one dependency edge
# ---------------------------------------------------------------------------

TRIGGER = "trigger"
ANCHOR = "anchor"
DECOY = "decoy"

@dataclass
class StructuralTask:
    """Binary task: positive iff TRIGGER is governed directly by ANCHOR.

    Every sentence is the 7-token sequence

        pad TRIGGER pad ANCHOR pad DECOY pad

    with pads drawn identically for both classes, ANCHOR as root and
    DECOY under ANCHOR.  The only difference between classes is whether
    TRIGGER attaches to ANCHOR (label 1) or to DECOY (label 0), so bags
    of words and word-order statistics carry no signal at all.
    """

    train: List[ParseTree]
    test: List[ParseTree]
    vocab: Vocabulary
    table: EmbeddingTable
    classes: int = 2
    signal_words: Tuple[str, ...] = (TRIGGER, ANCHOR, DECOY)


def _structural_sentence(rng, pads: Sequence[str], label: int) -> ParseTree:
    chosen = [str(rng.choice(pads)) for _ in range(4)]
    words = [chosen[0], TRIGGER, chosen[1], ANCHOR, chosen[2], DECOY, chosen[3]]
    anchor_pos, decoy_pos, trigger_pos = 4, 6, 2
    heads = {anchor_pos: (0, "root"), decoy_pos: (anchor_pos, "link")}
    heads[trigger_pos] = (anchor_pos if label == 1 else decoy_pos, "dep")
    for pad_pos in (1, 3, 5, 7):
        heads[pad_pos] = (int(rng.choice([anchor_pos, decoy_pos])), "mod")
    lines = []
    for pos in range(1, 8):
        head, rel = heads[pos]
        lines.append(f"{pos}\t{words[pos - 1]}\t_\t_\t_\t_\t{head}\t{rel}")
    tree = parse_dependency("\n".join(lines))
    tree.sentence_label = label
    return tree


def make_structural_corpus(n_train: int = 160, n_test: int = 80,
                           n_e: int = 8, seed: int = 0,
                           pad_scale: float = 0.15) -> StructuralTask:
    rng = np.random.default_rng(seed)
    pads = [f"pad{i}" for i in range(8)]
    vocab, table = toy_vocab_table([TRIGGER, ANCHOR, DECOY] + pads, n_e,
                                   seed=seed + 1)
    # pads play the stop-word role: low-magnitude vectors, so their
    # windows stay bland while the signal words carry the mass
    for pad in pads:
        table.vectors[vocab.lookup(pad)] *= pad_scale

    def batch(count):
        trees = []
        for i in range(count):
            tree = _structural_sentence(rng, pads, label=i % 2)
            bind_vocabulary(tree, vocab)
            trees.append(tree)
        return trees

    return StructuralTask(train=batch(n_train), test=batch(n_test),
                          vocab=vocab, table=table)


# ---------------------------------------------------------------------------
# fixed 5-word fixture for gradient checking
# ---------------------------------------------------------------------------

FIXTURE_CONLL = (
    "1\tcritics\t_\t_\t_\t_\t2\tnsubj\n"
    "2\tpraised\t_\t_\t_\t_\t0\troot\n"
    "3\tfilm\t_\t_\t_\t_\t2\tdobj\n"
    "4\tthe\t_\t_\t_\t_\t3\tdet\n"
    "5\tquiet\t_\t_\t_\t_\t3\tamod\n"
)

FIXTURE_BRACKETED = (
    "(1 (2 critics) (0 (1 (2 praised) (0 the)) (2 (1 quiet) (0 film))))"
)


def fixture_pair(n_e: int = 4, seed: int = 0):
    """5-word sentence as both tree kinds plus a matching embedding table.

    Returns (constituency tree, dependency tree, vocab, table); labels
    are preset to class 1 of 3.
    """
    words = ["critics", "praised", "film", "the", "quiet"]
    vocab, table = toy_vocab_table(words, n_e, seed=seed)
    dep = parse_dependency(FIXTURE_CONLL)
    con = parse_constituency(FIXTURE_BRACKETED)
    dep.sentence_label = 1
    con.sentence_label = 1
    bind_vocabulary(dep, vocab)
    bind_vocabulary(con, vocab)
    return con, dep, vocab, table


def fixture_model(variant: str, pooling: str,
                  lam: float) -> Tuple[SentenceClassifier, ParseTree]:
    """The gradient-check model and its `fixture_pair` tree (n_e 4): 3
    classes, n_c = n_h = 4, k 2, l2 `lam`, drawn from rng seed 17; a
    d-model trains its tree's embedding rows."""
    con, dep, _, table = fixture_pair(n_e=4)
    config = TrainConfig(variant=variant, n_e=4, n_c=4, n_h=4, classes=3,
                         l2=lam, pooling=pooling, k=2,
                         train_embeddings=(variant == VARIANT_D))
    rng = np.random.default_rng(17)
    if variant == VARIANT_D:
        return init_model(config, table, rng, trees=[dep],
                          inventory=build_dep_inventory([dep])), dep
    return init_model(config, table, rng), con
