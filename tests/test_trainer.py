import copy
import gc
import logging
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from treeconv.baseline import train_bag_baseline
from treeconv.checkpoint import load_checkpoint, save_checkpoint
from treeconv.config import TrainConfig
from treeconv.corpus_io import EmbeddingTable, Vocabulary, build_dep_inventory
from treeconv.errors import ConfigError, ContractError, DivergenceError
from treeconv.network import init_model
from treeconv.rae_pretrain import init_composition
from treeconv.synthetic import fixture_model, make_overfit_corpus
from treeconv.tensor_core import Tape, grad_of, iter_batches, parameter, sgd_epoch
from treeconv.trainer import (
    default_length_buckets,
    evaluate,
    format_eval_report,
    gradient_check,
    train,
)

from helpers import record_annotation


def small_config(variant, **kw):
    base = dict(variant=variant, n_e=16, n_c=12, n_h=8, classes=2,
                batch_size=8, learning_rate=0.2, l2=0.0,
                max_epochs=40, k=2, seed=0, train_embeddings=(variant == "d"))
    base.update(kw)
    return TrainConfig(**base).validate()


def _arrays(model):
    """Copies of the parameter arrays, by name, of a model's `params` or,
    without them, of its own `named()` (parameters or a bag baseline)."""
    named = model.params.named() if hasattr(model, "params") else model.named()
    return {name: p.data.copy() for name, p in named}


def assert_trained_over(model, table, trained):
    """`model.table` holds `trained` in the rows its parameter trained
    and `table`'s own bytes in every other row."""
    rows = model.params.rows
    others = np.setdiff1d(np.arange(len(table)), rows)
    assert model.table.vectors.shape == table.vectors.shape
    assert model.table.vectors[rows].tobytes() == trained.tobytes()
    assert (model.table.vectors[others].tobytes()
            == table.vectors[others].tobytes())


def frozen_d_model():
    """The gradient-check d-model's layout reading its table frozen: built
    without trees, so it has no embedding parameter."""
    model, tree = fixture_model("d", "global", 0.0)
    return init_model(model.config, model.params.base_table,
                      np.random.default_rng(17),
                      inventory=model.inventory), tree


class TestGradientCheck:
    @pytest.mark.parametrize("variant,pooling", [
        ("d", "global"), ("d", "kslot"), ("c", "global"), ("c", "3slot"),
    ])
    @pytest.mark.parametrize("lam", [0.0, 1e-5])
    def test_fixture_sentence_passes(self, variant, pooling, lam):
        clf, tree = fixture_model(variant, pooling, lam)
        report = gradient_check(clf, tree, gold=1)
        assert report.max_relative_error < 1e-4, report.format()

    @pytest.mark.parametrize("variant,pooling", [("d", "global"),
                                                 ("c", "3slot")])
    def test_a_damaged_gradient_fails(self, monkeypatch, variant, pooling):
        """The checker's negative control: one scalar of one parameter's
        analytic gradient off by 0.5 fails that parameter, and only it."""
        import treeconv.trainer as trainer_mod
        clf, tree = fixture_model(variant, pooling, 0.0)
        name, damaged = clf.params.named()[0]

        def grad_of_damaged(grads, p):
            g = grad_of(grads, p)
            if p is damaged:
                g = g.copy()
                g.flat[0] += 0.5
            return g
        monkeypatch.setattr(trainer_mod, "grad_of", grad_of_damaged)
        report = gradient_check(clf, tree, gold=1)
        assert report.group_errors[name] > 1e-4
        assert max(err for other, err in report.group_errors.items()
                   if other != name) < 1e-4

    def test_frozen_composition_gets_exact_zero_gradient(self):
        clf, tree = fixture_model("c", "3slot", 0.0)
        tape = Tape()
        value = clf.loss(tape, [tree], [1])
        grads = tape.backward(value.node)
        for _, p in clf.rae.named():
            assert np.array_equal(grad_of(grads, p), np.zeros_like(p.data))

    def test_every_scalar_is_checked(self):
        clf, tree = fixture_model("d", "kslot", 0.0)
        report = gradient_check(clf, tree, gold=1)
        named = clf.params.named()
        assert report.checked == sum(p.data.size for _, p in named)
        assert sorted(report.group_errors) == sorted(name for name, _ in named)

    def test_l2_gradient_is_2_lambda_w(self):
        """One sgd_epoch step with lam differs from the lam=0 step from the
        same parameters by lr*2*lam*W on the weight matrices, 0 elsewhere."""
        lam, lr = 1e-3, 0.5
        clf0, tree = fixture_model("d", "global", 0.0)
        clf1, _ = fixture_model("d", "global", lam)
        # identical parameters by construction (same seeds); dropout is off
        for (_, p0), (_, p1) in zip(clf0.params.named(), clf1.params.named()):
            assert np.array_equal(p0.data, p1.data)
        before = _arrays(clf1)

        def step(clf):
            def batch_loss(tape, batch):
                value = clf.loss(tape, batch, [1] * len(batch))
                return value.node, value.per_row, len(batch)
            return sgd_epoch([tree], batch_loss, clf.params.named(), lr, 1,
                             np.random.default_rng(0),
                             decayed=clf.params.weight_matrices(),
                             lam=clf.config.l2)

        loss0, loss1 = step(clf0), step(clf1)
        weights = {name for name, p in clf1.params.named()
                   if p in clf1.params.weight_matrices()}
        assert weights and "embeddings" not in weights
        penalty = 0.0
        for (name, p0), (_, p1) in zip(clf0.params.named(),
                                       clf1.params.named()):
            if name in weights:
                W = before[name]
                penalty += lam * float(np.sum(W * W))
                assert np.allclose(p0.data - p1.data, lr * 2.0 * lam * W,
                                   rtol=0.0, atol=1e-15), name
            else:
                assert np.array_equal(p0.data, p1.data), name
        assert loss1 - loss0 == pytest.approx(penalty, rel=1e-12)


class TestNodeVectors:
    def test_frozen_table_rejects_an_out_of_range_embedding_index(self):
        clf, tree = frozen_d_model()
        assert clf.params.embeddings is None
        tree.nodes[0].embedding_index = len(clf.table.vectors)
        with pytest.raises(ContractError, match="out of range"):
            clf.predict(tree)


class TestRowGradientStep:
    """One sgd_epoch step on a d-model whose embedding table is trained."""

    LR, LAM = 0.3, 1e-3

    def _step(self):
        corpus = make_overfit_corpus(n_sentences=8, classes=2, n_e=8, seed=6)
        config = small_config("d", n_e=8, l2=self.LAM, dropout_embed=0.3,
                              dropout_hidden=0.2)
        rng = np.random.default_rng(3)
        inventory = build_dep_inventory(corpus.dep_trees)
        clf = init_model(config, corpus.table, rng, inventory=inventory,
                         trees=corpus.dep_trees)
        params = clf.params
        named = params.named()
        before = _arrays(params)
        grads_seen = []  # the batch's dense gradients, before the update

        def batch_loss(tape, trees):
            value = clf.loss(tape, trees, [t.sentence_label for t in trees],
                             rng=rng)
            grads = tape.backward(value.node)
            grads_seen.append({name: grad_of(grads, p) for name, p in named})
            return value.node, value.per_row, len(trees)

        batch = corpus.dep_trees[:3]
        sgd_epoch(batch, batch_loss, named, self.LR, len(batch), rng,
                  decayed=params.weight_matrices(), lam=config.l2)
        decayed = {name for name, p in named if p in params.weight_matrices()}
        return params, before, grads_seen, batch, decayed

    def test_matches_plain_numpy_dense_reference_bytewise(self):
        params, before, grads, batch, decayed = self._step()
        assert "embeddings" not in decayed
        for name, p in params.named():
            step = np.zeros_like(before[name])
            for g in grads:
                step += g[name]
            step *= self.LR / len(batch)
            if name in decayed:
                step += self.LR * (2.0 * self.LAM * before[name])
            expected = before[name] - step
            assert p.data.tobytes() == expected.tobytes(), name

    def test_rows_no_lookup_touched_are_bitwise_unchanged(self):
        params, before, _, trees, _ = self._step()
        touched = set(params.lookup(trees).tolist())  # rows of the parameter
        table = params.embeddings.data
        untouched = [r for r in range(table.shape[0]) if r not in touched]
        assert untouched and touched
        for r in untouched:
            assert table[r].tobytes() == before["embeddings"][r].tobytes(), r
        assert any(not np.array_equal(table[r], before["embeddings"][r])
                   for r in touched)


class TestTrainLoop:
    def test_overfits_small_corpus_both_variants(self):
        corpus = make_overfit_corpus(n_sentences=16, classes=2, n_e=16, seed=1)
        for variant, trees in (("d", corpus.dep_trees), ("c", corpus.con_trees)):
            config = small_config(variant)
            kwargs = {}
            if variant == "c":
                kwargs["rae"] = init_composition(16, np.random.default_rng(5))
            model, report = train(trees, trees, corpus.vocab, corpus.table,
                                  config, **kwargs)
            acc = evaluate(model.classifier(), trees).accuracy
            assert acc == 1.0, f"{variant} only reached {acc}"

    def test_composition_params_go_with_the_variant(self):
        """A c-run needs pretrained composition params and a d-run takes
        none, so a checkpoint's variant alone says whether it stores
        them."""
        corpus = make_overfit_corpus(n_sentences=4, classes=2, n_e=4, seed=1)
        rae = init_composition(4, np.random.default_rng(5))
        for variant, trees, kwargs, error in (
                ("c", corpus.con_trees, {}, ConfigError),
                ("d", corpus.dep_trees, {"rae": rae}, ContractError)):
            config = small_config(variant, n_e=4, max_epochs=1)
            with pytest.raises(error, match="composition"):
                train(trees, trees, corpus.vocab, corpus.table, config,
                      **kwargs)

    def test_seed_determinism(self):
        corpus = make_overfit_corpus(n_sentences=10, classes=2, n_e=8, seed=2)
        config = small_config("d", n_e=8, max_epochs=5)

        def run():
            return train(corpus.dep_trees, corpus.dep_trees, corpus.vocab,
                         corpus.table, config)

        m1, r1 = run()
        m2, r2 = run()
        assert r1.train_loss == r2.train_loss
        assert r1.val_accuracy == r2.val_accuracy
        a1, a2 = _arrays(m1), _arrays(m2)
        assert a1.keys() == a2.keys()
        for name in a1:
            assert np.array_equal(a1[name], a2[name]), name

    def test_frozen_embeddings_stay_bit_identical(self):
        corpus = make_overfit_corpus(n_sentences=10, classes=2, n_e=8, seed=3)
        before = corpus.table.vectors.copy()
        config = small_config("d", n_e=8, max_epochs=3, train_embeddings=False)
        model, _ = train(corpus.dep_trees, corpus.dep_trees, corpus.vocab,
                         corpus.table, config)
        assert np.array_equal(corpus.table.vectors, before)
        assert model.table is corpus.table

    def test_trained_embeddings_move_and_original_untouched(self):
        corpus = make_overfit_corpus(n_sentences=10, classes=2, n_e=8, seed=4)
        before = corpus.table.vectors.copy()
        config = small_config("d", n_e=8, max_epochs=3, train_embeddings=True)
        model, _ = train(corpus.dep_trees, corpus.dep_trees, corpus.vocab,
                         corpus.table, config)
        assert np.array_equal(corpus.table.vectors, before)
        assert not np.array_equal(model.table.vectors, before)

    def test_returned_table_is_the_trained_embeddings(self):
        corpus = make_overfit_corpus(n_sentences=6, classes=2, n_e=8, seed=4)
        config = small_config("d", n_e=8, max_epochs=2, train_embeddings=True)
        model, _ = train(corpus.dep_trees, corpus.dep_trees, corpus.vocab,
                         corpus.table, config)
        read = np.unique([node.embedding_index for tree in corpus.dep_trees
                          for node in tree.nodes])
        assert len(read) < len(corpus.table)  # some rows are never read
        assert np.array_equal(model.params.rows, read)
        assert_trained_over(model, corpus.table, model.params.embeddings.data)

    def test_a_trained_table_is_held_once(self):
        # tracemalloc sees numpy buffers: the model may hold one table,
        # not the parameter and a copy of it
        corpus = make_overfit_corpus(n_sentences=6, classes=2, n_e=8, seed=4)
        filler = np.random.default_rng(0).random(
            (100_000 - len(corpus.table), 8))
        table = EmbeddingTable(np.vstack([corpus.table.vectors, filler]))
        config = small_config("d", n_e=8, max_epochs=1, train_embeddings=True)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model, _ = train(corpus.dep_trees, corpus.dep_trees, corpus.vocab,
                             table, config)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert model.table.vectors.shape == table.vectors.shape
        assert held < 1.5 * table.vectors.nbytes, held

    def test_only_saving_builds_the_whole_trained_table(self, tmp_path):
        # a forward pass reads the trained rows over `base_table`; the
        # merged `table` is built only by a read such as `save_checkpoint`
        corpus = make_overfit_corpus(n_sentences=6, classes=2, n_e=8, seed=4)
        filler = np.random.default_rng(0).random((1000, 8))
        table = EmbeddingTable(np.vstack([corpus.table.vectors, filler]))
        config = small_config("d", n_e=8, max_epochs=1, train_embeddings=True)
        model, _ = train(corpus.dep_trees, corpus.dep_trees, corpus.vocab,
                         table, config)
        assert model.classifier() is model
        evaluate(model, corpus.dep_trees)
        model.predict(corpus.dep_trees[0])
        assert "table" not in model.__dict__
        save_checkpoint(model, tmp_path / "model.ckpt")
        assert "table" in model.__dict__
        assert_trained_over(model, table, model.params.embeddings.data)

    def test_two_epochs_allocate_the_rows_read_not_the_table(self, monkeypatch):
        # the first of two epochs is kept, so `fit` snapshots the
        # embedding parameter: the rows the run reads, not the table
        import treeconv.trainer as trainer_mod

        corpus = make_overfit_corpus(n_sentences=6, classes=2, n_e=8, seed=4)
        filler = np.random.default_rng(0).random(
            (100_000 - len(corpus.table), 8))
        table = EmbeddingTable(np.vstack([corpus.table.vectors, filler]))
        accuracies = iter((0.9, 0.5))
        monkeypatch.setattr(trainer_mod, "evaluate", lambda *args, **kwargs:
                            SimpleNamespace(accuracy=next(accuracies)))
        config = small_config("d", n_e=8, max_epochs=2, train_embeddings=True)
        gc.collect()
        tracemalloc.start()
        try:
            _, report = train(corpus.dep_trees, corpus.dep_trees, corpus.vocab,
                              table, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.best_epoch == 1
        assert peak < 0.25 * table.vectors.nbytes, peak

    @staticmethod
    def _unused_words():
        """Training and validation trees, bound to a vocabulary of 20 words
        more than they use (before UNK, which no tree holds, so the trees'
        indices stay as bound), its table, the rows that only validation
        trees read and the rows no tree reads."""
        corpus = make_overfit_corpus(n_sentences=6, classes=2, n_e=8, seed=4)
        words = corpus.vocab.unk_index
        vocab = Vocabulary(index={**corpus.vocab.index,
                                  **{f"unused{i}": words + i for i in range(20)}},
                           unk_index=words + 20)
        vectors = np.vstack([corpus.table.vectors[:words],
                             np.random.default_rng(0).random((20, 8)),
                             corpus.table.vectors[words:]])
        train_trees, val_trees = corpus.dep_trees[:4], corpus.dep_trees[4:]

        def read(trees):
            return {node.embedding_index for tree in trees for node in tree.nodes}

        val_only = sorted(read(val_trees) - read(train_trees))
        unread = sorted(set(range(len(vocab))) - read(corpus.dep_trees))
        assert val_only and len(unread) > 20
        return train_trees, val_trees, vocab, vectors, val_only, unread

    def test_rows_no_training_tree_reads_keep_the_callers_bytes(self, tmp_path):
        train_trees, val_trees, vocab, vectors, val_only, unread = \
            self._unused_words()
        config = small_config("d", n_e=8, max_epochs=2, train_embeddings=True)
        before = vectors.tobytes()
        model, _ = train(train_trees, val_trees, vocab,
                         EmbeddingTable(vectors), config)
        assert vectors.tobytes() == before
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        for rows in (val_only, unread):
            for got in (model.table, load_checkpoint(path).table):
                assert got.vectors[rows].tobytes() == vectors[rows].tobytes()

        # a non-finite row that no tree reads stops no batch, as with a
        # frozen table, but no checkpoint holds it
        vectors[unread[0]] = np.nan
        before = vectors.tobytes()
        model, _ = train(train_trees, val_trees, vocab,
                         EmbeddingTable(vectors), config)
        assert vectors.tobytes() == before
        assert np.isnan(model.table.vectors[unread[0]]).all()
        with pytest.raises(ContractError, match="checkpoint array table"):
            save_checkpoint(model, tmp_path / "nan.ckpt")
        assert not (tmp_path / "nan.ckpt").exists()

    @pytest.mark.parametrize("record", [False, True])
    def test_words_the_run_did_not_train_read_the_callers_rows(
            self, tmp_path, record):
        """On trees with words no training or validation tree holds, the
        model forwards as its whole trained table does: the same losses as
        its checkpoint, loaded (which reads that table frozen), and as a
        model that trains every row those trees read from that table, and
        on a recording tape the latter's gradients, the embeddings' at the
        rows it trained (it holds no other row, so the rows of the other
        words get none)."""
        train_trees, val_trees, vocab, vectors, _, unread = self._unused_words()
        config = small_config("d", n_e=8, max_epochs=2, train_embeddings=True)
        model, _ = train(train_trees, val_trees, vocab,
                         EmbeddingTable(vectors), config)
        save_checkpoint(model, tmp_path / "model.ckpt")
        loaded = load_checkpoint(tmp_path / "model.ckpt")
        trees = copy.deepcopy(train_trees[:3])
        for tree, row in zip(trees, unread):
            tree.nodes[0].embedding_index = row
        gold = [tree.sentence_label for tree in trees]
        assert loaded.params.embeddings is None
        every_row = init_model(loaded.config, loaded.table,
                               np.random.default_rng(0),
                               inventory=loaded.inventory, trees=trees)
        every_row.params.conv = loaded.params.conv
        every_row.params.head = loaded.params.head
        results = []
        for clf in (model, loaded, every_row):
            tape = Tape(record=record)
            value = clf.loss(tape, trees, gold)
            grads = tape.backward(value.node) if record else {}
            results.append((value.per_row, clf.params, grads))
        (ours, params, grads), (frozen, _, _), (whole, whole_params,
                                                 whole_grads) = results
        assert ours.tobytes() == frozen.tobytes() == whole.tobytes()
        if record:
            for (name, p), (_, q) in zip(params.named(), whole_params.named()):
                want = grad_of(whole_grads, q)
                if p is params.embeddings:
                    dense = np.zeros_like(vectors)
                    dense[whole_params.rows] = want
                    want = dense[params.rows]
                assert grad_of(grads, p).tobytes() == want.tobytes(), name

    def test_training_from_a_trained_table_leaves_its_model_untouched(self):
        corpus = make_overfit_corpus(n_sentences=6, classes=2, n_e=8, seed=4)
        config = small_config("d", n_e=8, max_epochs=2, train_embeddings=True)
        first, _ = train(corpus.dep_trees, corpus.dep_trees, corpus.vocab,
                         corpus.table, config)
        table_before = first.table.vectors.tobytes()
        params_before = {name: a.tobytes() for name, a in _arrays(first).items()}
        second, _ = train(corpus.dep_trees, corpus.dep_trees, corpus.vocab,
                          first.table, config)
        assert second.table.vectors.tobytes() != table_before
        assert first.table.vectors.tobytes() == table_before
        assert {name: a.tobytes() for name, a in _arrays(first).items()} \
            == params_before

    def test_the_baseline_reports_its_wall_time(self):
        corpus = make_overfit_corpus(n_sentences=6, classes=2, n_e=8, seed=4)
        config = small_config("d", n_e=8, max_epochs=2, train_embeddings=True)
        _, report = train_bag_baseline(corpus.dep_trees, corpus.dep_trees,
                                       corpus.table, config)
        assert report.wall_time > 0.0

    def test_underflow_warned_once_per_epoch_with_count(self, caplog):
        # a huge rate saturates the softmax without going non-finite
        corpus = make_overfit_corpus(n_sentences=8, classes=2, n_e=8, seed=1)
        config = small_config("d", n_e=8, learning_rate=1e5, batch_size=4,
                              max_epochs=3)
        caplog.set_level(logging.WARNING, logger="treeconv.classifier_head")
        with np.errstate(all="ignore"):
            train(corpus.dep_trees, corpus.dep_trees, corpus.vocab,
                  corpus.table, config)
        pattern = re.compile(r"epoch (\d+): gold-class probability "
                             r"underflowed to 0 in (\d+) of 8 samples")
        records = [r.getMessage() for r in caplog.records
                   if "underflowed" in r.getMessage()]
        assert records
        epochs = []
        for message in records:
            match = pattern.search(message)
            assert match, message
            epochs.append(int(match.group(1)))
            assert 1 <= int(match.group(2)) <= 8
        assert len(epochs) == len(set(epochs))
        assert set(epochs) <= {1, 2, 3}

    def test_progress_log_format(self):
        corpus = make_overfit_corpus(n_sentences=6, classes=2, n_e=8, seed=5)
        config = small_config("d", n_e=8, max_epochs=2)
        lines = []
        train(corpus.dep_trees, corpus.dep_trees, corpus.vocab, corpus.table,
              config, log=lines.append)
        assert len(lines) == 2
        for e, line in enumerate(lines, start=1):
            parts = line.split()
            assert parts[0] == "epoch" and int(parts[1]) == e
            assert parts[2] == "train_loss" and float(parts[3]) >= 0.0
            assert parts[4] == "val_acc" and 0.0 <= float(parts[5]) <= 1.0

    def test_best_epoch_tracks_max_val_accuracy(self):
        corpus = make_overfit_corpus(n_sentences=12, classes=2, n_e=8, seed=6)
        config = small_config("d", n_e=8, max_epochs=6)
        _, report = train(corpus.dep_trees, corpus.dep_trees, corpus.vocab,
                          corpus.table, config)
        best = max(report.val_accuracy)
        assert report.val_accuracy[report.best_epoch - 1] == best

    @staticmethod
    def _scripted_run(monkeypatch, trainer, accuracies):
        """Run `trainer` ("train" or "train_bag_baseline") with trained
        embeddings for len(accuracies) epochs, its validation accuracies
        scripted by patching `evaluate` in the module that calls it.
        Returns the model, the report, the parameter arrays at each
        epoch's evaluation, the rate of every `sgd_epoch` call, and the
        configured rate."""
        import treeconv.baseline as baseline_mod
        import treeconv.trainer as trainer_mod

        corpus = make_overfit_corpus(n_sentences=6, classes=2, n_e=8, seed=9)
        config = small_config("d", n_e=8, max_epochs=len(accuracies),
                              train_embeddings=True)
        scripted = iter(accuracies)
        snapshots, rates = [], []

        def scripted_evaluate(model, trees, spans=None):
            snapshots.append(_arrays(model))
            return SimpleNamespace(accuracy=next(scripted))

        def recording_epoch(samples, batch_loss, named, lr, *args, **kwargs):
            rates.append(lr)
            return sgd_epoch(samples, batch_loss, named, lr, *args, **kwargs)

        monkeypatch.setattr(trainer_mod, "sgd_epoch", recording_epoch)
        if trainer == "train":
            monkeypatch.setattr(trainer_mod, "evaluate", scripted_evaluate)
            model, report = train(corpus.dep_trees, corpus.dep_trees,
                                  corpus.vocab, corpus.table, config)
        else:
            monkeypatch.setattr(baseline_mod, "evaluate", scripted_evaluate)
            model, report = baseline_mod.train_bag_baseline(
                corpus.dep_trees, corpus.dep_trees, corpus.table, config)
        return model, report, snapshots, rates, config.learning_rate

    @pytest.mark.parametrize("trainer", ["train", "train_bag_baseline"])
    @pytest.mark.parametrize("accuracies,best", [((0.5, 0.9, 0.7), 2),
                                                 ((0.5, 0.7, 0.9), 3)])
    def test_checkpoint_holds_the_best_epochs_parameters(
            self, monkeypatch, trainer, accuracies, best):
        model, report, snapshots, _, _ = self._scripted_run(
            monkeypatch, trainer, accuracies)
        assert report.best_epoch == best
        # every epoch moved the weights, so a wrong epoch would show
        first = next(iter(snapshots[0]))
        for name in (first, "embeddings"):
            assert not np.array_equal(snapshots[1][name], snapshots[2][name])
        got = _arrays(model)
        assert got.keys() == snapshots[best - 1].keys()
        for name, want in snapshots[best - 1].items():
            assert np.array_equal(got[name], want), name
        if trainer == "train":
            assert_trained_over(model, model.params.base_table,
                                snapshots[best - 1]["embeddings"])

    @pytest.mark.parametrize("trainer", ["train", "train_bag_baseline"])
    def test_flat_accuracy_halves_the_rate_and_the_lower_loss_wins(
            self, monkeypatch, trainer):
        model, report, snapshots, rates, lr = self._scripted_run(
            monkeypatch, trainer, (0.5,) * 4)
        # PLATEAU_EPOCHS = 2 epochs without a gain halve the next epoch's rate
        assert rates == [lr, lr, lr, lr / 2]
        # equal accuracies: the epoch with the lowest training loss
        best = int(np.argmin(report.train_loss)) + 1
        assert best > 1 and report.best_epoch == best
        got = _arrays(model)
        for name, want in snapshots[best - 1].items():
            assert np.array_equal(got[name], want), name

    def test_empty_split_rejected(self):
        corpus = make_overfit_corpus(n_sentences=6, classes=2, n_e=8, seed=7)
        config = small_config("d", n_e=8)
        with pytest.raises(ConfigError):
            train([], corpus.dep_trees, corpus.vocab, corpus.table, config)

    def test_variant_c_requires_rae(self):
        corpus = make_overfit_corpus(n_sentences=6, classes=2, n_e=8, seed=8)
        config = small_config("c", n_e=8)
        with pytest.raises(ConfigError):
            train(corpus.con_trees, corpus.con_trees, corpus.vocab,
                  corpus.table, config)


class TestBagBaseline:
    """The bag baseline on the embedding owner the tree model uses."""

    def test_tape_records_do_not_grow_with_the_batch(self):
        corpus = make_overfit_corpus(n_sentences=20, classes=2, n_e=8, seed=3)
        config = small_config("d", n_e=8, max_epochs=1, train_embeddings=True)
        model, _ = train_bag_baseline(corpus.dep_trees, corpus.dep_trees,
                                      corpus.table, config)
        records = []
        for size in (2, 20):
            tape = Tape()
            model.logits(tape, corpus.dep_trees[:size])
            records.append(len(tape))
        assert records[0] == records[1] > 0, records

    def test_trains_the_rows_its_trees_read_and_reads_the_rest(self):
        train_trees, val_trees, vocab, vectors, _, unread = \
            TestTrainLoop._unused_words()
        before = vectors.tobytes()
        config = small_config("d", n_e=8, max_epochs=2, train_embeddings=True)
        model, _ = train_bag_baseline(train_trees, val_trees,
                                      EmbeddingTable(vectors), config)
        params = model.params
        read = np.unique([node.embedding_index
                          for tree in train_trees + val_trees
                          for node in tree.nodes])
        assert np.array_equal(params.rows, read)
        assert params.embeddings.data.shape == (len(read), 8)
        assert vectors.tobytes() == before
        assert not np.array_equal(params.embeddings.data, vectors[read])
        tree = copy.deepcopy(train_trees[0])
        tree.nodes[0].embedding_index = unread[0]
        got = params.vectors(Tape(), params.lookup([tree])).data
        assert got[0].tobytes() == vectors[unread[0]].tobytes()
        trained = {row: i for i, row in enumerate(read)}
        for node, row in zip(tree.nodes[1:], got[1:]):
            want = params.embeddings.data[trained[node.embedding_index]]
            assert row.tobytes() == want.tobytes()

    def test_reads_the_words_of_either_tree_kind(self):
        # each constituency tree holds its dependency twin's words
        corpus = make_overfit_corpus(n_sentences=8, classes=2, n_e=8, seed=5)
        config = small_config("d", n_e=8, max_epochs=2, train_embeddings=True)
        model, _ = train_bag_baseline(corpus.con_trees, corpus.con_trees,
                                      corpus.table, config)
        con = model.logits(Tape(), corpus.con_trees).data
        dep = model.logits(Tape(), corpus.dep_trees).data
        assert np.allclose(con, dep, rtol=1e-12, atol=0.0)

    def test_trained_rows_peak_below_half_the_table(self):
        corpus = make_overfit_corpus(n_sentences=6, classes=2, n_e=8, seed=4)
        filler = np.random.default_rng(0).random(
            (100_000 - len(corpus.table), 8))
        table = EmbeddingTable(np.vstack([corpus.table.vectors, filler]))
        config = small_config("d", n_e=8, max_epochs=2, train_embeddings=True)
        gc.collect()
        tracemalloc.start()
        try:
            train_bag_baseline(corpus.dep_trees, corpus.dep_trees, table, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * table.vectors.nbytes, peak


class TestDivergence:
    @pytest.mark.parametrize("trainer,first_param", [
        ("train", "conv.W_p"), ("pretrain", "rae.W_comp"),
        ("train_bag_baseline", "head.W_h"),
    ])
    def test_non_finite_step_raises_naming_epoch_batch_parameter(
            self, trainer, first_param):
        from treeconv.rae_pretrain import PretrainConfig, pretrain

        # a rate near the float maximum, on word vectors 1000 times their
        # usual size, makes the first update overflow in every trainer
        # (an infinite rate is rejected before training starts)
        lr = 1e308
        corpus = make_overfit_corpus(n_sentences=8, classes=2, n_e=8, seed=1)
        corpus.table.vectors[:] *= 1e3
        config = small_config("d", n_e=8, learning_rate=lr, max_epochs=2)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError) as caught:
            if trainer == "train":
                train(corpus.dep_trees, corpus.dep_trees, corpus.vocab,
                      corpus.table, config)
            elif trainer == "train_bag_baseline":
                train_bag_baseline(corpus.dep_trees, corpus.dep_trees,
                                   corpus.table, config)
            else:
                pretrain(corpus.con_trees, corpus.table,
                         PretrainConfig(learning_rate=lr, batch_size=4))
        message = str(caught.value)
        assert "epoch 1, batch 1" in message
        assert f"non-finite parameters: {first_param}" in message
        assert isinstance(caught.value, ConfigError)


    def test_diverging_baseline_stops_after_warning_its_underflow(self, caplog):
        corpus = make_overfit_corpus(n_sentences=8, classes=2, n_e=8, seed=1)
        config = small_config("d", n_e=8, learning_rate=1e3, batch_size=4,
                              max_epochs=3)
        caplog.set_level(logging.WARNING, logger="treeconv.classifier_head")
        with np.errstate(all="ignore"), \
                pytest.raises(DivergenceError, match="epoch 2, batch 2"):
            train_bag_baseline(corpus.dep_trees, corpus.dep_trees,
                               corpus.table, config)
        records = [r.getMessage() for r in caplog.records
                   if "underflowed" in r.getMessage()]
        assert len(records) == 1 and records[0].startswith("epoch 1:"), records

    @staticmethod
    def _row_sum_epoch(table):
        """One sgd_epoch at lr 1e308 over a one-column table, one row per
        batch in the order of `permutation(len(table))` under seed 4,
        each row's loss its value (gradient 1, so a step subtracts
        1e308): a row at -1e308 steps to -inf, a row at 0 stays finite."""
        E = parameter(table, "embeddings")

        def batch_loss(tape, rows):
            node = tape.sum_rows(tape.take_rows(E, rows), [0] * len(rows), 1)
            return node, node.data[0].tolist(), 1

        with np.errstate(over="ignore"):
            sgd_epoch(list(range(len(table))), batch_loss, [("embeddings", E)],
                      1e308, 1, np.random.default_rng(4))

    def test_a_row_made_non_finite_in_a_later_batch_is_caught(self):
        """After the first batch only the rows a batch wrote are checked;
        a row that one of them sends to -inf still stops the run."""
        order = np.random.default_rng(4).permutation(6)
        table = np.zeros((6, 1))
        table[order[2]] = -1e308
        with pytest.raises(DivergenceError) as caught:
            self._row_sum_epoch(table)
        message = str(caught.value)
        assert "epoch 1, batch 3" in message
        assert "non-finite parameters: embeddings" in message

    def test_the_first_batch_checks_rows_it_did_not_write(self):
        order = np.random.default_rng(4).permutation(6)
        table = np.zeros((6, 1))
        table[order[3]] = np.nan  # read in batch 4 only
        with pytest.raises(DivergenceError) as caught:
            self._row_sum_epoch(table)
        assert "epoch 1, batch 1" in str(caught.value)
        assert "non-finite parameters: embeddings" in str(caught.value)


class TestBatches:
    def test_every_sample_seen_exactly_once_per_epoch(self):
        rng = np.random.default_rng(9)
        seen = []
        for batch in iter_batches(23, 5, rng):
            seen.extend(int(i) for i in batch)
        assert sorted(seen) == list(range(23))


class TestSubsentenceExpansion:
    """`train`'s samples are spans rooted at these nodes (None: the
    whole tree)."""

    def test_tagged_constituents_become_training_samples(self):
        from treeconv.corpus_io import parse_constituency
        from treeconv.trainer import _sample_roots

        tree = parse_constituency("(3 (2 I) (3 (3 loved) (2 it)))")
        config = small_config("c")
        roots = _sample_roots(tree, config)
        assert len(roots) == 5  # every tagged node, the root as None
        assert roots[0] is None  # the tagged root trains as the whole tree
        assert sorted(tree.nodes[v].label for v in roots[1:]) == [2, 2, 3, 3]
        assert tree.sentence_label == 3

    def test_root_samples_train_toward_the_label_files_class(self):
        """A label file's class, not the root's corpus tag, is the gold
        of the sentence's one whole-tree sample, for a tagged and for an
        untagged root; sub-sentences keep their tags."""
        from treeconv.corpus_io import attach_labels
        from treeconv.trainer import _read_trees, _sample_roots, _sample_spans

        (trees,), _, table = bound_con_corpus(
            ["(1 (0 a) (1 b))", "(X (0 a) (1 b))"])
        attach_labels(trees, [("0", 0), ("1", 1)])  # tree 0's root tag is 1
        config = small_config("c", n_e=4)
        model = init_model(config, table, np.random.default_rng(0))
        roots = [_sample_roots(tree, config) for tree in trees]
        assert roots == [[None, 1, 2], [1, 2, None]]
        samples, _ = _sample_spans(model, _read_trees(trees, roots, trees[:1]),
                                   trees, roots, trees[:1])
        pairs = [(tree, v) for tree, nodes in zip(trees, roots) for v in nodes]
        whole = [(tree, span) for (tree, v), span in zip(pairs, samples)
                 if v is None]
        assert [tree for tree, _ in whole] == trees
        for tree, span in whole:
            assert len(span) == len(tree)
        assert [span.label for _, span in whole] == [0, 1]
        assert [span.label for (_, v), span in zip(pairs, samples)
                if v is not None] == [0, 1, 0, 1]

    def test_expansion_can_be_disabled(self):
        from treeconv.corpus_io import parse_constituency
        from treeconv.trainer import _sample_roots

        tree = parse_constituency("(3 (2 I) (3 (3 loved) (2 it)))")
        config = small_config("c", use_subsentences=False)
        assert _sample_roots(tree, config) == [None]

    def test_dependency_corpus_is_never_expanded(self):
        corpus = make_overfit_corpus(n_sentences=4, classes=2, n_e=8, seed=12)
        from treeconv.trainer import _sample_roots
        config = small_config("d", n_e=8)
        assert [_sample_roots(tree, config) for tree in corpus.dep_trees] == \
            [[None]] * len(corpus.dep_trees)


def bound_con_corpus(*groups, n_e=4):
    """Each group of bracketed lines parsed, bound to one vocabulary."""
    from treeconv.corpus_io import (bind_vocabulary, parse_constituency,
                                    random_embeddings, vocabulary_from_corpus)
    parsed = [[parse_constituency(line) for line in lines] for lines in groups]
    vocab = vocabulary_from_corpus([t for trees in parsed for t in trees])
    for trees in parsed:
        for tree in trees:
            bind_vocabulary(tree, vocab)
    return parsed, vocab, random_embeddings(vocab, n_e, seed=0)


class TestAnnotationCache:
    """`train` annotates each tree once per call, whatever its epoch
    count, and composes each distinct node once; a trained classifier
    annotates each forwarded tree once per call, a forest per batch."""

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_train_annotates_each_distinct_tree_once(self, monkeypatch, epochs):
        (train_trees, val_trees), vocab, table = bound_con_corpus(
            ["(1 (1 (0 critics) (1 liked)) (0 (0 the) (0 film)))",
             "(S (X (1 good) (X film)) (0 bad))",  # untagged root
             "(X (X no) (X tags))",                # yields no sample
             "(0 (0 (0 (0 deep))))"],
            ["(1 (1 liked) (0 it))", "(0 (0 hated) (0 it))"])
        train_trees[1].sentence_label = 1  # the untagged root trains whole
        val_trees.append(train_trees[0])   # one tree in both splits
        calls, _ = record_annotation(monkeypatch)
        rae = init_composition(4, np.random.default_rng(3))
        config = small_config("c", n_e=4, n_c=4, n_h=4, max_epochs=epochs,
                              batch_size=3, dropout_embed=0.2)
        model, _ = train(train_trees, val_trees, vocab, table, config, rae=rae)
        sources = [train_trees[0], train_trees[1], train_trees[3]]
        distinct = {id(t): t for t in sources + val_trees}
        assert calls == [list(distinct)]  # one batch: a single node group

        calls.clear()
        classifier = model.classifier()
        classifier.predict(val_trees[0])
        classifier.predict(val_trees[0])
        evaluate(classifier, val_trees)
        assert calls == [[id(val_trees[0])]] * 2 + [[id(t) for t in val_trees]]

    @pytest.mark.parametrize("pooling", ["3slot", "global"])
    def test_each_tree_is_walked_once_per_call(self, monkeypatch, pooling):
        """The index's walk checks the pre-order, links the windows and
        orders the composition: `train` walks each distinct tree once,
        and a prediction call each tree it is given once."""
        from treeconv import corpus_io
        (train_trees, val_trees), vocab, table = bound_con_corpus(
            ["(1 (1 (0 critics) (1 liked)) (0 (0 the) (0 film)))",
             "(S (X (1 good) (X film)) (0 bad))",  # untagged root
             "(X (X no) (X tags))",                # yields no sample
             "(0 (0 (0 (0 deep))))"],
            ["(1 (1 liked) (0 it))", "(0 (0 hated) (0 it))"])
        train_trees[1].sentence_label = 1
        val_trees.append(train_trees[0])

        def separate_check(tree):
            raise AssertionError("a separate pre-order check ran")
        monkeypatch.setattr(corpus_io, "validate_tree", separate_check)
        walked = []
        walk = corpus_io.ParseTree.walk

        def counted_walk(tree, v=None):
            walked.append(id(tree))
            return walk(tree, v)
        monkeypatch.setattr(corpus_io.ParseTree, "walk", counted_walk)
        config = small_config("c", n_e=4, n_c=4, n_h=4, max_epochs=2,
                              batch_size=3, pooling=pooling)
        model, _ = train(train_trees, val_trees, vocab, table, config,
                         rae=init_composition(4, np.random.default_rng(3)))
        sources = [train_trees[0], train_trees[1], train_trees[3]]
        assert sorted(walked) == sorted({id(t) for t in sources + val_trees})

        walked.clear()
        classifier = model.classifier()
        classifier.predict(val_trees[0])
        classifier.predict(val_trees[0])
        evaluate(classifier, val_trees)
        assert sorted(walked) == sorted([id(val_trees[0])] * 2
                                        + [id(t) for t in val_trees])

    def test_tagged_chain_composes_each_node_once(self, monkeypatch):
        depth = 600
        chain = "(1 " * (depth - 1) + "(0 w)" + ")" * (depth - 1)
        (train_trees, val_trees), vocab, table = bound_con_corpus(
            [chain], ["(1 (0 w))"])
        _, composed = record_annotation(monkeypatch)
        rae = init_composition(4, np.random.default_rng(3))
        config = small_config("c", n_e=4, n_c=4, n_h=4, max_epochs=1,
                              batch_size=50)
        train(train_trees, val_trees, vocab, table, config, rae=rae)
        # 599 non-leaf chain nodes and one in the validation tree; one
        # annotation per sub-sentence would compose 599 * 600 / 2 + 1
        assert sum(composed) == depth


class TestSpans:
    """`train` reads sub-sentences in place, as spans of their trees."""

    def test_train_makes_no_subtree_copies(self, monkeypatch):
        import treeconv.corpus_io as corpus_mod
        (train_trees, val_trees), vocab, table = bound_con_corpus(
            ["(1 (X (1 good) (X (1 (X fun)))) (1 (1 (1 film))))",
             "(0 (X (0 bad) (0 (X (X plot)))) (X (0 awful)))",
             "(0 (0 (0 (0 deep))))"],
            ["(1 (1 liked) (0 it))"])

        def copy(*args):
            raise AssertionError("train copied a sub-sentence")
        monkeypatch.setattr(corpus_mod, "subtree_at", copy)
        config = small_config("c", n_e=4, n_c=4, n_h=4, max_epochs=2,
                              batch_size=3, dropout_embed=0.2)
        _, report = train(train_trees, val_trees, vocab, table, config,
                          rae=init_composition(4, np.random.default_rng(3)))
        assert len(report.train_loss) == 2

    def test_no_training_sample_is_a_config_error(self, monkeypatch):
        import treeconv.trainer as trainer_mod
        (train_trees, val_trees), vocab, table = bound_con_corpus(
            ["(X (X a) (X b))", "(X (X c) (X d))"], ["(1 (0 a) (1 c))"])

        def init(*args, **kwargs):
            raise AssertionError("train initialised a model")
        monkeypatch.setattr(trainer_mod, "init_model", init)
        config = small_config("c", n_e=4, n_c=4, n_h=4, max_epochs=1)
        with pytest.raises(ConfigError, match="no training samples"):
            train(train_trees, val_trees, vocab, table, config,
                  rae=init_composition(4, np.random.default_rng(0)))


def test_c_batches_agree_with_single_predictions():
    """`evaluate` and `predict_batch` annotate a forest per node group,
    `predict` one tree at a time; over a mixed-length corpus both give
    every tree the same class and probabilities within 1e-12 (the bench
    fails a run whose evaluate and predict correct counts differ)."""
    from treeconv.corpus_io import bind_vocabulary, parse_constituency
    from treeconv.synthetic import random_constituency_tree, toy_vocab_table
    from treeconv.tensor_core import node_groups

    rng = np.random.default_rng(12)
    words = [f"w{i}" for i in range(40)]
    vocab, table = toy_vocab_table(words, 24, seed=12)
    trees = [random_constituency_tree(rng, rng.choice(words, size=n))
             for n in rng.integers(1, 80, size=40)]
    trees += [parse_constituency("(2 " * d + "(1 w3)" + ")" * d)
              for d in (1, 7, 30)]
    for tree in trees:
        bind_vocabulary(tree, vocab)
        tree.sentence_label = int(rng.integers(5))
    config = small_config("c", n_e=24, n_c=16, n_h=8, classes=5,
                          pooling="3slot")
    classifier = init_model(config, table, rng)

    groups = list(node_groups(trees))
    assert len(groups) > 2
    batched = [pred for group in groups for pred in classifier.predict_batch(group)]
    single = [classifier.predict(tree) for tree in trees]
    for one, many in zip(single, batched):
        assert one.predicted == many.predicted
        assert np.max(np.abs(one.probabilities - many.probabilities)) <= 1e-12
    assert evaluate(classifier, trees).correct == sum(
        pred.predicted == tree.sentence_label for pred, tree in zip(single, trees))


class TestEvaluate:
    def test_perfect_predictions(self):
        corpus = make_overfit_corpus(n_sentences=8, classes=2, n_e=8, seed=10)

        class Oracle:
            def predict_batch(self, trees):
                from treeconv.classifier_head import PredictionOutput
                preds = []
                for tree in trees:
                    onehot = np.zeros(2)
                    onehot[tree.sentence_label] = 1.0
                    preds.append(PredictionOutput(
                        probabilities=onehot, predicted=tree.sentence_label))
                return preds

        report = evaluate(Oracle(), corpus.dep_trees)
        assert report.accuracy == 1.0
        for bucket in report.buckets:
            if bucket.total:
                assert bucket.accuracy == 1.0

    def test_default_buckets_are_seven_groups_of_five(self):
        assert default_length_buckets() == [5, 10, 15, 20, 25, 30]
        assert len(_labels_of(default_length_buckets())) == 7

    def test_hand_counted_accuracy_and_buckets(self):
        corpus = make_overfit_corpus(n_sentences=10, classes=2, n_e=8, seed=11)
        trees = corpus.dep_trees

        class FixedWrong:
            """Predicts class 0 always."""
            def predict_batch(self, trees):
                from treeconv.classifier_head import PredictionOutput
                return [PredictionOutput(probabilities=np.array([1.0, 0.0]),
                                         predicted=0) for _ in trees]

        report = evaluate(FixedWrong(), trees)
        want = sum(1 for t in trees if t.sentence_label == 0) / len(trees)
        assert report.accuracy == pytest.approx(want)
        # sentences are 4-7 words: everything lands in the 1-5 or 6-10 bucket
        populated = [b for b in report.buckets if b.total]
        assert {b.label for b in populated} <= {"1-5", "6-10"}
        text = format_eval_report(report)
        assert "overall accuracy" in text
        assert "no sentences" in text  # the empty buckets report absent


def _labels_of(boundaries):
    from treeconv.trainer import _bucket_labels
    return _bucket_labels(boundaries)
