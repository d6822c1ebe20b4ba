"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with `pytest tests/test_acceptance.py -v -s` to watch them)."""

import contextlib
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from treeconv.config import TrainConfig, question_regime
from treeconv.corpus_io import (
    attach_labels,
    bind_vocabulary,
    build_dep_inventory,
    random_embeddings,
    read_dependency_file,
    read_label_file,
    vocabulary_from_corpus,
)
from treeconv.network import init_model
from treeconv.pooling import assign_global, pool
from treeconv.protocols import (
    format_comparison_table,
    pooling_comparison,
    run_structural_experiment,
)
from treeconv.rae_pretrain import PretrainConfig, pretrain
from treeconv.synthetic import (
    fixture_model,
    make_overfit_corpus,
    make_structural_corpus,
    random_constituency_tree,
    random_dependency_tree,
)
from treeconv.tensor_core import Tape, Tensor, grad_of, l2_penalty
from treeconv.trainer import evaluate, train
from treeconv.viz import fractions

from helpers import convolve_tree, max_grad_error

DATA = Path(__file__).parent / "data"

GRAD_TOL = 1e-4
CONV_TOL = 1e-10


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"\n[acceptance] criterion {number} ({name}): PASS")


@pytest.fixture(scope="module")
def structural():
    """Shared overfit run on the structural task (criteria 5 and 9)."""
    task = make_structural_corpus(n_train=160, n_test=80, n_e=8, seed=0)
    config = TrainConfig(variant="d", n_e=8, n_c=16, n_h=8, classes=2,
                         batch_size=16, learning_rate=0.2, l2=1e-4,
                         max_epochs=40, pooling="kslot", k=2, seed=0,
                         train_embeddings=False).validate()
    return task, run_structural_experiment(task, config)


def test_criterion_1_gradient_fidelity():
    """Both variants, all three pooling strategies, l2 in {0, 1e-5}:
    every parameter gradient matches central differences < 1e-4."""
    started = time.perf_counter()
    with criterion(1, "gradient fidelity"):
        combos = [("c", "global"), ("c", "3slot"),
                  ("d", "global"), ("d", "kslot")]
        for variant, pooling in combos:
            for lam in (0.0, 1e-5):
                clf, tree = fixture_model(variant, pooling, lam)
                weights = clf.params.weight_matrices()

                # the training objective: cross entropy on the tape plus
                # the l2 penalty that the update applies as 2*lam*W
                def loss_value():
                    tape = Tape()
                    value = clf.loss(tape, [tree], [1])
                    return value.cross_entropy + l2_penalty(weights, lam)[0]

                tape = Tape()
                value = clf.loss(tape, [tree], [1])
                grads = tape.backward(value.node)
                decay = l2_penalty(weights, lam)[1]
                pairs = [(p.data, grad_of(grads, p) + decay.get(p, 0.0))
                         for _, p in clf.params.named()]
                worst = max_grad_error(loss_value, pairs, eps=1e-5)
                assert worst < GRAD_TOL, (variant, pooling, lam, worst)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_2_convolution_oracle():
    """convolve matches an independent naive per-node loop on 100 random
    trees of up to 20 nodes."""
    from test_tree_conv import naive_convolve
    from treeconv.tree_conv import init_c_window, init_d_window

    with criterion(2, "convolution oracle equivalence"):
        rng = np.random.default_rng(2024)
        n_e, n_c = 3, 5
        for case in range(100):
            if case % 2 == 0:
                n = int(rng.integers(1, 21))
                tree = random_dependency_tree(rng, [f"w{i}" for i in range(n)])
                inv = build_dep_inventory([tree])
                params = init_d_window(n_c, n_e, inv.n_slots, rng)
            else:
                leaves = int(rng.integers(1, 11))  # at most 2*10-1 nodes
                tree = random_constituency_tree(
                    rng, [f"w{i}" for i in range(leaves)])
                inv = None
                params = init_c_window(n_c, n_e, rng)
            assert len(tree.nodes) <= 20
            vecs = [rng.normal(size=n_e) for _ in tree.nodes]
            got = convolve_tree(Tape(), tree, Tensor(np.stack(vecs)),
                           params, inv).data
            want = naive_convolve(tree, vecs, params, inv)
            assert np.max(np.abs(got - want)) < CONV_TOL


def test_criterion_3_pooling_invariant_suite():
    """Partition, dominance, k=1 reduction, monotonicity and provenance
    conservation over more than 1000 random trees."""
    from test_pooling import TestPoolingProperties

    with criterion(3, "pooling invariant suite"):
        # each iteration exercises one dependency and one constituency
        # tree plus every strategy, so 600 iterations > 1000 trees
        TestPoolingProperties().run_suite(iterations=600, seed=99)

        # conservation down to exact fractions, on top of the suite
        rng = np.random.default_rng(7)
        trees = 0
        while trees < 1000:
            n = int(rng.integers(1, 10))
            tree = random_dependency_tree(rng, [f"w{i}" for i in range(n)])
            fm = Tensor(np.stack([rng.normal(size=4) for _ in range(n)]))
            _, prov = pool(Tape(), fm, assign_global(tree))
            assert fractions(prov, tree).total() == 1
            trees += 1


def test_criterion_4_overfit_sanity():
    """50-sentence 3-class toy corpus reaches 100% training accuracy
    within 200 epochs for both variants (n_c=32, n_h=16), in under 2
    minutes."""
    started = time.perf_counter()
    with criterion(4, "overfit sanity"):
        corpus = make_overfit_corpus(n_sentences=50, classes=3, n_e=16, seed=0)
        for variant, trees in (("d", corpus.dep_trees), ("c", corpus.con_trees)):
            config = TrainConfig(variant=variant, n_e=16, n_c=32, n_h=16,
                                 classes=3, batch_size=10, learning_rate=0.2,
                                 l2=0.0, max_epochs=200, k=2, seed=0,
                                 train_embeddings=(variant == "d")).validate()
            rae = None
            if variant == "c":
                rae = pretrain(corpus.con_trees, corpus.table,
                               PretrainConfig(max_epochs=5, seed=0))
            model, report = train(trees, trees, corpus.vocab, corpus.table,
                                  config, rae=rae)
            hit = next((e + 1 for e, acc in enumerate(report.val_accuracy)
                        if acc == 1.0), None)
            assert hit is not None and hit <= 200, f"{variant} never hit 100%"
            final = evaluate(model.classifier(), trees).accuracy
            assert final == 1.0
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_5_structural_signal(structural):
    """d-TBCNN reads a parent-child pattern that bags of embeddings
    cannot: tree model >= 95% test accuracy, flat baseline <= 75%."""
    with criterion(5, "structural-signal experiment"):
        task, result = structural
        print(f"\n  d-TBCNN (2-slot) test accuracy: "
              f"{result.tree_accuracy:.3f}")
        print(f"  bag-of-embeddings baseline:     "
              f"{result.baseline_accuracy:.3f}")
        assert result.tree_accuracy >= 0.95
        assert result.baseline_accuracy <= 0.75


def test_criterion_6_trec_stretch(tmp_path, capsys):
    """Non-gating: the question-classification regime (n_c=30, n_h=25,
    30%/5% dropout, frozen embeddings) on the bundled TREC-format
    miniature, reported against the published full-scale 96.0%."""
    with criterion(6, "question-classification stretch run"):
        trees = read_dependency_file(DATA / "trec_mini.conll")
        names = attach_labels(trees, read_label_file(DATA / "trec_mini.lbl"))
        vocab = vocabulary_from_corpus(trees)
        table = random_embeddings(vocab, 300, seed=0)
        for t in trees:
            bind_vocabulary(t, vocab)
        config = replace(question_regime("d", classes=6, n_e=300),
                         batch_size=4, learning_rate=0.3, max_epochs=30,
                         seed=0).validate()
        assert (config.n_c, config.n_h) == (30, 25)
        assert (config.dropout_embed, config.dropout_hidden) == (0.3, 0.05)
        assert not config.train_embeddings
        model, report = train(trees, trees, vocab, table, config,
                              label_names=names)
        assert len(report.train_loss) <= 30
        acc = evaluate(model.classifier(), trees).accuracy
        assert np.isfinite(acc)
        print(f"\n  TREC-format miniature (24 questions, random frozen "
              f"embeddings): {acc:.3f}")
        print("  published full-scale reference: 0.960 (not gated: "
              "corpus and embedding provenance differ)")


def test_criterion_7_pooling_comparison_protocol():
    """Five seeds per {variant x pooling} emit a mean +- std table; the
    gate is the protocol, not any particular accuracy."""
    with criterion(7, "pooling-comparison protocol"):
        corpus = make_overfit_corpus(n_sentences=20, classes=3, n_e=8, seed=1)
        rae = pretrain(corpus.con_trees, corpus.table,
                       PretrainConfig(max_epochs=3, seed=1))
        base = TrainConfig(variant="d", n_e=8, n_c=12, n_h=8, classes=3,
                           batch_size=10, learning_rate=0.2, l2=0.0,
                           max_epochs=6, k=2, seed=0,
                           train_embeddings=True)
        rows = pooling_comparison(corpus, rae, base, seeds=range(5))
        assert len(rows) == 4
        labels = {(r.model, r.pooling) for r in rows}
        assert labels == {("c-TBCNN", "global"), ("c-TBCNN", "3slot"),
                          ("d-TBCNN", "global"), ("d-TBCNN", "2-slot")}
        for row in rows:
            assert len(row.accuracies) == 5
            assert np.isfinite(row.mean) and np.isfinite(row.std)
        table = format_comparison_table(rows)
        assert "+-" in table
        print("\n  accuracies averaged over 5 random initializations:")
        for line in table.splitlines():
            print(f"  {line}")


def test_criterion_8_determinism(tmp_path):
    """Two CLI train runs with one config and seed produce byte-identical
    checkpoints."""
    from treeconv.cli import main

    with criterion(8, "checkpoint determinism"):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(
            "[model]\nvariant = d\nn_e = 8\nn_c = 8\nn_h = 6\nclasses = 2\n"
            "[training]\nbatch_size = 4\nlearning_rate = 0.3\nl2 = 0\n"
            "max_epochs = 10\ntrain_embeddings = true\nseed = 11\n"
            "[pooling]\npooling = kslot\nk = 2\n"
        )
        outs = []
        for name in ("one.ckpt", "two.ckpt"):
            out = tmp_path / name
            code = main([
                "train", "--config", str(cfg),
                "--train", str(DATA / "tiny_dep.conll"),
                "--labels", str(DATA / "tiny_dep.lbl"),
                "--val", str(DATA / "tiny_dep.conll"),
                "--val-labels", str(DATA / "tiny_dep.lbl"),
                "--out", str(out),
            ])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def test_criterion_9_visualization_conservation(structural):
    """Fractions sum to exactly 1 on 100 random sentences, and on the
    overfit structural model the top-fraction window contains the
    label-determining word."""
    with criterion(9, "visualization conservation"):
        rng = np.random.default_rng(13)
        clf_rng = np.random.default_rng(14)
        # 100 random sentences under an untrained model
        words = [f"w{i}" for i in range(9)]
        from treeconv.synthetic import toy_vocab_table
        vocab, table = toy_vocab_table(words, 6, seed=13)
        sample_trees = []
        for _ in range(100):
            n = int(rng.integers(2, 10))
            tree = random_dependency_tree(rng, [words[i] for i in range(n)])
            bind_vocabulary(tree, vocab)
            sample_trees.append(tree)
        inv = build_dep_inventory(sample_trees)
        config = TrainConfig(variant="d", n_e=6, n_c=8, n_h=4, classes=2,
                             pooling="global", seed=0).validate()
        clf = init_model(config, table, clf_rng, inventory=inv)
        for tree in sample_trees:
            tape = Tape()
            features = clf.forward_features(tape, [tree])
            _, prov = pool(tape, features, assign_global(tree))
            assert fractions(prov, tree).total() == 1

        # qualitative trace on the trained structural model: the top
        # window must hold one of the words whose attachment decides the
        # label (the moved word or its two candidate governors)
        task, result = structural
        pattern_words = set(task.signal_words)
        trained = result.tree_model.classifier()
        for tree in task.test:
            tape = Tape()
            features = trained.forward_features(tape, [tree])
            _, prov = pool(tape, features, assign_global(tree))
            fracs = fractions(prov, tree)
            assert fracs.total() == 1
            top = fracs.argmax()
            window = [tree.nodes[top].word] + [
                tree.nodes[c].word for c in tree.nodes[top].children
            ]
            assert pattern_words & set(window), (
                f"top window {window} misses the label-determining pattern"
            )
