"""The benchmark's span tracer keeps counting what it counted when a
sentence was its own forward pass: one convolution window per node and
one pooling slot per sample and slot.  Annotation reads the tree index
of a prediction call or a training run (`rae_pretrain.annotate_forest`),
so the one-tree `annotate` the tracer wraps sees no call; the batch
annotator sees each constituency tree forwarded once per call (in
training, each distinct tree once: `train` indexes and annotates once).

`bench/tracing.py` wraps the package's functions from outside and reads
their arguments and results (`convolve`'s second argument has one
`.nodes` entry per window, `pool` returns `(pooled, PoolProvenance)`),
so these tests pin that contract while the package batches its trees.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from treeconv.config import TrainConfig
from treeconv.corpus_io import (
    attach_labels,
    bind_vocabulary,
    extract_subsentences,
    load_embeddings,
    read_constituency_file,
    read_dependency_file,
    read_label_file,
)
from treeconv.rae_pretrain import init_composition
from treeconv.trainer import evaluate, train

from helpers import record_annotation

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
sys.path.append(str(ROOT / "bench"))
import tracing  # noqa: E402

SLOTS = {"kslot": 2, "global": 1, "3slot": 3}


def training_samples(trees, config):
    """The samples `train` forwards per epoch, as trees: with
    sub-sentences every tagged constituent (a `subtree_at` copy), plus
    each labelled tree whose root has no tag; else each tree."""
    if config.variant != "c" or not config.use_subsentences:
        return list(trees)
    samples = []
    for tree in trees:
        samples += extract_subsentences(tree)
        if tree.nodes[tree.root].label is None and tree.sentence_label is not None:
            samples.append(tree)
    return samples


def corpus(variant):
    vocab, table = load_embeddings(str(DATA / "tiny_embeddings.txt"))
    if variant == "d":
        trees = read_dependency_file(str(DATA / "tiny_dep.conll"))
        attach_labels(trees, read_label_file(str(DATA / "tiny_dep.lbl")))
    else:
        trees = read_constituency_file(str(DATA / "tiny_con.txt"))
    for tree in trees:
        bind_vocabulary(tree, vocab)
    return vocab, table, trees


@pytest.mark.parametrize("variant,pooling", [("d", "kslot"), ("d", "global"),
                                             ("c", "3slot"), ("c", "global")])
def test_counters_match_the_trees_forwarded(monkeypatch, variant, pooling):
    vocab, table, trees = corpus(variant)
    train_trees, val_trees, test_trees = trees[:5], trees[5:7], trees
    config = TrainConfig(variant=variant, n_e=table.dim, n_c=4, n_h=4,
                         classes=2, batch_size=3, max_epochs=2, l2=1e-5,
                         dropout_embed=0.3, dropout_hidden=0.2,
                         pooling=pooling, k=2, seed=0,
                         train_embeddings=(variant == "d")).validate()
    rae = (init_composition(table.dim, np.random.default_rng(1))
           if variant == "c" else None)
    samples = training_samples(train_trees, config)
    # each epoch forwards every sample once, then the validation split
    seen = config.max_epochs * (list(samples) + list(val_trees))
    # but train annotates each tree that yields a sample, and each
    # validation tree, once per call
    sources = [tree for tree in train_trees if training_samples([tree], config)]
    distinct = {id(tree) for tree in sources + list(val_trees)}

    calls, _ = record_annotation(monkeypatch)
    annotated = {}  # phase -> ids of the trees annotated, call after call
    tracer = tracing.Tracer()
    tracer.phase = "train"
    with tracing.installed(tracer):
        model, _ = train(train_trees, val_trees, vocab, table, config, rae=rae)
    annotated["train"] = [i for call in calls for i in call]
    calls.clear()
    tracer.phase = "predict"
    with tracing.installed(tracer):
        evaluate(model.classifier(), test_trees)
    annotated["predict"] = [i for call in calls for i in call]

    for phase, forwarded in (("train", seen), ("predict", test_trees)):
        counts = tracer.counts[phase]
        assert counts["tree_conv.windows"] == sum(len(t.nodes) for t in forwarded)
        assert counts["pooling.slots"] == len(forwarded) * SLOTS[pooling]
        assert counts["rae_pretrain.annotate_calls"] == 0
        want = [] if variant == "d" else (
            distinct if phase == "train" else [id(t) for t in forwarded])
        assert sorted(annotated[phase]) == sorted(want)
    assert tracer.counts["train"]["tensor_core.backward_calls"] > 0
