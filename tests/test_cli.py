import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from treeconv import checkpoint as ckpt
from treeconv import trainer
from treeconv.baseline import train_bag_baseline
from treeconv.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from treeconv.cli import main
from treeconv.config import TrainConfig
from treeconv.corpus_io import (
    DepTypeInventory,
    parse_constituency,
    read_dependency_file,
    serialize_dependency,
)
from treeconv.network import SentenceClassifier, init_model
from treeconv.rae_pretrain import init_composition
from treeconv.synthetic import fixture_pair, make_overfit_corpus

DATA = Path(__file__).parent / "data"

TOY_D_CONFIG = """
[model]
variant = d
n_e = 8
n_c = 8
n_h = 6
classes = 2

[training]
batch_size = 4
learning_rate = 0.3
l2 = 0
max_epochs = 25
train_embeddings = true
seed = 7

[pooling]
pooling = kslot
k = 2
"""

TOY_C_CONFIG = """
[model]
variant = c
n_e = 8
n_c = 8
n_h = 6
classes = 2

[training]
batch_size = 4
learning_rate = 0.3
l2 = 0
max_epochs = 25
seed = 7

[pooling]
pooling = 3slot
alpha = 0.6
"""


@pytest.fixture
def toy_d_config(tmp_path):
    path = tmp_path / "toy_d.cfg"
    path.write_text(TOY_D_CONFIG)
    return str(path)


@pytest.fixture
def toy_c_config(tmp_path):
    path = tmp_path / "toy_c.cfg"
    path.write_text(TOY_C_CONFIG)
    return str(path)


def train_tiny(tmp_path, toy_d_config, out_name="model.ckpt"):
    out = tmp_path / out_name
    code = main([
        "train", "--config", toy_d_config,
        "--train", str(DATA / "tiny_dep.conll"),
        "--labels", str(DATA / "tiny_dep.lbl"),
        "--val", str(DATA / "tiny_dep.conll"),
        "--val-labels", str(DATA / "tiny_dep.lbl"),
        "--out", str(out),
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def d_checkpoint(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("d_checkpoint")
    config = tmp / "toy_d.cfg"
    config.write_text(TOY_D_CONFIG)
    return train_tiny(tmp, str(config))


def _drop(name):
    return lambda entries: [e for e in entries if e[0] != name]


def _reshape(name, shape):
    return lambda entries: [(n, np.zeros(shape) if n == name else a)
                            for n, a in entries]


def _drop_last_relation(entries):
    last = [n for n, _ in entries if n.startswith("conv.W_rel")][-1]
    return _drop(last)(entries)


def _break_separator(raw):
    """Overwrite the newline between the JSON header and the payload."""
    length_line = raw[len(MAGIC):].split(b"\n", 1)[0]
    at = len(MAGIC) + len(length_line) + 1 + int(length_line)
    return raw[:at] + b"x" + raw[at + 1:]


def _edit_header(edit):
    """A file edit that rewrites the JSON header through `edit(header)`."""
    def rewrite(raw):
        length_line = raw[len(MAGIC):].split(b"\n", 1)[0]
        start = len(MAGIC) + len(length_line) + 1
        end = start + int(length_line)
        header = json.loads(raw[start:end])
        edit(header)
        blob = json.dumps(header).encode("utf-8")
        return MAGIC + f"{len(blob)}\n".encode("ascii") + blob + raw[end:]
    return rewrite


HEADER_KEYS = ("has_rae", "label_names", "vocabulary", "config", "arrays",
               "inventory", "variant")


# (how, edit, fragment the error must contain): "arrays" edits the
# (name, array) list a save writes, so header and payload stay
# consistent; "bytes" edits the saved file
MALFORMED = {
    "missing_array": ("arrays", _drop("head.b_o"), "head.b_o"),
    "unknown_array": ("arrays",
                      lambda entries: entries + [("conv.W_extra", np.zeros(3))],
                      "conv.W_extra"),
    "misshaped_conv_b": ("arrays", _reshape("conv.b", (2,)), "conv.b"),
    "misshaped_head_b_h": ("arrays", _reshape("head.b_h", (1, 4)), "head.b_h"),
    "relation_matrix_short": ("arrays", _drop_last_relation, "conv.W_rel"),
    "truncated_payload": ("bytes", lambda raw: raw[:-8],
                          "truncated payload at table"),
    "trailing_bytes": ("bytes", lambda raw: raw + b"\0", "trailing bytes"),
    "missing_separator": ("bytes", _break_separator, "separator missing"),
    "malformed_header_length": ("bytes",
                                lambda raw: raw.replace(MAGIC, MAGIC + b"x", 1),
                                "malformed header length"),
    **{f"header_without_{key}": ("bytes",
                                 _edit_header(lambda h, key=key: h.pop(key)),
                                 key)
       for key in HEADER_KEYS},
    "config_n_c_zero": ("bytes", _edit_header(lambda h: h["config"].update(n_c=0)),
                        "n_c must be >= 1"),
    "config_unknown_key": ("bytes",
                           _edit_header(lambda h: h["config"].update(bogus=1)),
                           "bogus"),
    "config_n_c_string": ("bytes",
                          _edit_header(lambda h: h["config"].update(n_c="3")),
                          "'n_c'"),
    **{f"header_{name}": ("bytes", _edit_header(edit), f"'{key}'")
       for name, (key, edit) in {
           "vocabulary_list": ("vocabulary", lambda h: h.update(vocabulary=[])),
           "tokens_number": ("vocabulary",
                             lambda h: h["vocabulary"].update(tokens=5)),
           "unk_index_string": ("vocabulary",
                                lambda h: h["vocabulary"].update(unk_index="x")),
           "unk_index_out_of_range": (
               "vocabulary", lambda h: h["vocabulary"].update(unk_index=999)),
           "tokens_repeated": ("vocabulary", lambda h: h["vocabulary"].update(
               tokens=h["vocabulary"]["tokens"][:1] * 2, unk_index=2)),
           "arrays_numbers": ("arrays", lambda h: h.update(arrays=[1, 2])),
           "array_without_shape": ("arrays",
                                   lambda h: h["arrays"][0].pop("shape")),
           "array_negative_shape": ("arrays", lambda h: h["arrays"][0].update(
               shape=[-1])),
           "inventory_list": ("inventory", lambda h: h.update(inventory=[])),
           "dedicated_number": ("inventory",
                                lambda h: h["inventory"].update(dedicated=7)),
           "label_names_number": ("label_names",
                                  lambda h: h.update(label_names=3)),
           "has_rae_number": ("has_rae", lambda h: h.update(has_rae=1)),
       }.items()},
}


class TestTrain:
    def test_writes_checkpoint_and_report(self, tmp_path, toy_d_config, capsys):
        out = train_tiny(tmp_path, toy_d_config)
        assert out.exists()
        report = json.loads((tmp_path / "model.ckpt.report.json").read_text())
        assert report["best_epoch"] >= 1
        assert len(report["train_loss"]) == len(report["val_accuracy"])
        stdout = capsys.readouterr().out
        assert "epoch 1 train_loss" in stdout

    def test_missing_corpus_exits_3_naming_path(self, tmp_path, toy_d_config,
                                                capsys):
        code = main([
            "train", "--config", toy_d_config,
            "--train", str(tmp_path / "no_such_file.conll"),
            "--out", str(tmp_path / "m.ckpt"),
        ])
        assert code == 3
        assert "no_such_file.conll" in capsys.readouterr().err

    def test_non_finite_embeddings_exit_3_naming_file(self, tmp_path,
                                                      toy_d_config, capsys):
        vectors = tmp_path / "bad.vec"
        vectors.write_text("2 8\ncritics" + " 0.1" * 7 + " nan\n"
                           "liked" + " 0.2" * 8 + "\n")
        code = main([
            "train", "--config", toy_d_config,
            "--train", str(DATA / "tiny_dep.conll"),
            "--labels", str(DATA / "tiny_dep.lbl"),
            "--embeddings", str(vectors),
            "--out", str(tmp_path / "m.ckpt"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "bad.vec" in err and "not finite" in err
        assert not (tmp_path / "m.ckpt").exists()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[model]\nvariant = q\n")
        code = main([
            "train", "--config", str(bad),
            "--train", str(DATA / "tiny_dep.conll"),
            "--out", str(tmp_path / "m.ckpt"),
        ])
        assert code == 2

    def test_variant_c_without_rae_pretrains_first(self, tmp_path,
                                                   toy_c_config, capsys):
        out = tmp_path / "c_model.ckpt"
        code = main([
            "train", "--config", toy_c_config,
            "--train", str(DATA / "tiny_con.txt"),
            "--val", str(DATA / "tiny_con.txt"),
            "--out", str(out),
        ])
        assert code == 0
        assert "pretraining the composition" in capsys.readouterr().out
        model = load_checkpoint(out)
        assert model.rae is not None  # both persisted in one checkpoint

    def test_corpus_kind_mismatch_exits_2(self, tmp_path, toy_d_config, capsys):
        code = main([
            "train", "--config", toy_d_config,
            "--train", str(DATA / "tiny_con.txt"),
            "--out", str(tmp_path / "m.ckpt"),
        ])
        assert code == 2
        assert "variant" in capsys.readouterr().err

    def test_determinism_byte_identical_checkpoints(self, tmp_path,
                                                    toy_d_config):
        a = train_tiny(tmp_path, toy_d_config, "a.ckpt")
        b = train_tiny(tmp_path, toy_d_config, "b.ckpt")
        assert a.read_bytes() == b.read_bytes()


class TestEval:
    def test_overfit_then_eval_is_perfect(self, tmp_path, toy_d_config, capsys):
        out = train_tiny(tmp_path, toy_d_config)
        capsys.readouterr()
        code = main([
            "eval", "--checkpoint", str(out),
            "--input", str(DATA / "tiny_dep.conll"),
            "--labels", str(DATA / "tiny_dep.lbl"),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "overall accuracy 1.0000 (8/8)" in stdout

    def test_bucket_report_has_seven_groups(self, tmp_path, toy_d_config,
                                            capsys):
        out = train_tiny(tmp_path, toy_d_config)
        capsys.readouterr()
        code = main([
            "eval", "--checkpoint", str(out),
            "--input", str(DATA / "tiny_dep.conll"),
            "--labels", str(DATA / "tiny_dep.lbl"),
            "--buckets", "5",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        bucket_lines = [l for l in lines if l.startswith("length")]
        assert len(bucket_lines) == 7
        assert bucket_lines[0].startswith("length 1-5")
        assert bucket_lines[-1].startswith("length 31+")

    def test_binary_transfer_wiring(self, tmp_path, capsys):
        # train a 5-class model on a synthetic corpus, then transfer
        corpus = make_overfit_corpus(n_sentences=20, classes=5, n_e=8, seed=3)
        train_file = tmp_path / "five.conll"
        train_file.write_text(
            "\n\n".join(serialize_dependency(t) for t in corpus.dep_trees) + "\n")
        labels_file = tmp_path / "five.lbl"
        labels_file.write_text("".join(
            f"c{t.sentence_label}\t{i}\n"
            for i, t in enumerate(corpus.dep_trees)))
        config = tmp_path / "five.cfg"
        config.write_text(TOY_D_CONFIG.replace("classes = 2", "classes = 5"))
        out = tmp_path / "five.ckpt"
        assert main(["train", "--config", str(config),
                     "--train", str(train_file), "--labels", str(labels_file),
                     "--val", str(train_file), "--val-labels", str(labels_file),
                     "--out", str(out)]) == 0

        # binary corpus: keep only strongly-negative/strongly-positive
        binary = [t for t in corpus.dep_trees if t.sentence_label in (0, 4)]
        btrees = tmp_path / "binary.conll"
        btrees.write_text(
            "\n\n".join(serialize_dependency(t) for t in binary) + "\n")
        blabels = tmp_path / "binary.lbl"
        blabels.write_text("".join(
            f"{'neg' if t.sentence_label == 0 else 'pos'}\t{i}\n"
            for i, t in enumerate(binary)))
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(out),
                     "--input", str(btrees), "--labels", str(blabels),
                     "--binary"])
        assert code == 0
        assert "binary accuracy" in capsys.readouterr().out

    def test_binary_needs_five_class_checkpoint(self, tmp_path, toy_d_config,
                                                capsys):
        out = train_tiny(tmp_path, toy_d_config)
        code = main([
            "eval", "--checkpoint", str(out),
            "--input", str(DATA / "tiny_dep.conll"),
            "--labels", str(DATA / "tiny_dep.lbl"),
            "--binary",
        ])
        assert code == 2


class TestCheckpointRoundTrip:
    def test_save_load_bit_identical_and_same_predictions(self, tmp_path,
                                                          toy_d_config):
        out = train_tiny(tmp_path, toy_d_config)
        model = load_checkpoint(out)
        again = tmp_path / "again.ckpt"
        save_checkpoint(model, again)
        assert out.read_bytes() == again.read_bytes()

        reloaded = load_checkpoint(again)
        trees = read_dependency_file(DATA / "tiny_dep.conll")
        from treeconv.corpus_io import bind_vocabulary
        for t in trees:
            bind_vocabulary(t, model.vocab)
        c1, c2 = model.classifier(), reloaded.classifier()
        for t in trees:
            p1, p2 = c1.predict(t), c2.predict(t)
            assert np.array_equal(p1.probabilities, p2.probabilities)

    def test_loaded_trained_table_is_the_embedding_parameter(self, tmp_path):
        corpus = make_overfit_corpus(n_sentences=6, classes=2, n_e=8, seed=4)
        config = TrainConfig(variant="d", n_e=8, n_c=6, n_h=4, classes=2,
                             max_epochs=1, train_embeddings=True).validate()
        model, _ = trainer.train(corpus.dep_trees, corpus.dep_trees,
                                 corpus.vocab, corpus.table, config)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert np.shares_memory(loaded.params.embeddings.data,
                                loaded.table.vectors)
        assert loaded.table.vectors.tobytes() == model.table.vectors.tobytes()
        for tree in corpus.dep_trees:
            want = model.classifier().predict(tree).probabilities
            got = loaded.classifier().predict(tree).probabilities
            assert got.tobytes() == want.tobytes()

    def test_version_mismatch_rejected(self, tmp_path, toy_d_config):
        out = train_tiny(tmp_path, toy_d_config)
        raw = out.read_bytes()
        tampered = raw.replace(b'"format_version":1', b'"format_version":9', 1)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(tampered)
        from treeconv.errors import FormatError
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_checkpoint_exits_3_naming_file_and_array(
            self, case, d_checkpoint, tmp_path, monkeypatch, capsys):
        how, edit, fragment = MALFORMED[case]
        bad = tmp_path / "bad.ckpt"
        if how == "arrays":
            model, entries = load_checkpoint(d_checkpoint), ckpt._array_entries
            with monkeypatch.context() as m:
                m.setattr(ckpt, "_array_entries", lambda mdl: edit(entries(mdl)))
                save_checkpoint(model, bad)
        else:
            bad.write_bytes(edit(d_checkpoint.read_bytes()))
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(bad),
                     "--input", str(DATA / "tiny_dep.conll"),
                     "--labels", str(DATA / "tiny_dep.lbl")])
        err = capsys.readouterr().err
        assert code == 3, err
        assert str(bad) in err and fragment in err, err


def _without_rae(raw):
    """A c-checkpoint's bytes with `has_rae` false in the header and the
    rae.* arrays cut from header and payload."""
    length_line = raw[len(MAGIC):].split(b"\n", 1)[0]
    start = len(MAGIC) + len(length_line) + 1
    end = start + int(length_line)
    header = json.loads(raw[start:end])
    payload, at, kept = raw[end + 1:], 0, []
    for spec in header["arrays"]:
        size = 8 * int(np.prod(spec["shape"]))
        if not spec["name"].startswith("rae."):
            kept.append((spec, payload[at:at + size]))
        at += size
    header.update(has_rae=False, arrays=[spec for spec, _ in kept])
    blob = json.dumps(header).encode("utf-8")
    return (MAGIC + f"{len(blob)}\n".encode("ascii") + blob + b"\n"
            + b"".join(data for _, data in kept))


@pytest.mark.parametrize("command", ["eval", "visualize"])
def test_c_checkpoint_without_rae_exits_3_naming_file(command, tmp_path,
                                                       capsys):
    _, path = _layout_case("c", tmp_path)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_without_rae(path.read_bytes()))
    code = main([command, "--checkpoint", str(bad),
                 "--input", str(DATA / "tiny_con.txt")])
    err = capsys.readouterr().err
    assert code == 3, err
    assert str(bad) in err and "composition params" in err, err


def _stored_names(path):
    """The array names in a checkpoint's header, in payload order."""
    raw = path.read_bytes()
    length_line = raw[len(MAGIC):].split(b"\n", 1)[0]
    start = len(MAGIC) + len(length_line) + 1
    header = json.loads(raw[start:start + int(length_line)])
    return [spec["name"] for spec in header["arrays"]]


D_CONV = ["conv.W_p", "conv.W_rel0", "conv.W_rel1", "conv.W_rel2", "conv.b"]
C_CONV = ["conv.W_p", "conv.W_l", "conv.W_r", "conv.b"]
HEAD = ["head.W_h", "head.b_h", "head.W_o", "head.b_o"]
RAE = ["rae.W_comp", "rae.b_comp", "rae.W_rec", "rae.b_rec"]


def _layout_case(case, tmp_path):
    """(named() of the case's parameter containers, its checkpoint or
    None): a d-model with trained or frozen embeddings, a c-model, a
    pretrain-rae file, or the bag baseline."""
    _, dep, vocab, table = fixture_pair(n_e=4, seed=0)
    rng = np.random.default_rng(0)
    if case == "bag":
        config = TrainConfig(variant="d", n_e=4, n_c=1, n_h=3, classes=3,
                             max_epochs=1, train_embeddings=True)
        model, _ = train_bag_baseline([dep], [dep], table, config)
        return model.named(), None
    path = tmp_path / "model.ckpt"
    if case == "rae file":
        assert main(["pretrain-rae", "--train", str(DATA / "tiny_con.txt"),
                     "--n-e", "4", "--epochs", "1", "--out", str(path)]) == 0
        model = load_checkpoint(path)
        return model.params.named() + model.rae.named(), path
    inventory = rae = None
    if case == "c":
        config = TrainConfig(variant="c", n_e=4, n_c=3, n_h=3, classes=3)
        rae = init_composition(4, rng)
    else:
        inventory = DepTypeInventory(slot_ids={"nsubj": 0, "dobj": 1},
                                     shared_slot=2, dedicated=("nsubj", "dobj"))
        config = TrainConfig(variant="d", n_e=4, n_c=3, n_h=3, classes=3,
                             train_embeddings=case == "d trained")
    params = init_model(config, table, inventory, rng)
    save_checkpoint(SentenceClassifier(config, params, inventory=inventory,
                                       rae=rae, vocab=vocab),
                    path)
    return params.named() + (rae.named() if rae else []), path


class TestParameterNames:
    # (names that named() lists, names the checkpoint stores)
    LAYOUTS = {
        "d trained": (D_CONV + HEAD + ["embeddings"], D_CONV + HEAD + ["table"]),
        "d frozen": (D_CONV + HEAD, D_CONV + HEAD + ["table"]),
        "c": (C_CONV + HEAD + RAE, C_CONV + HEAD + RAE + ["table"]),
        "rae file": (C_CONV + HEAD + RAE, C_CONV + HEAD + RAE + ["table"]),
        "bag": (HEAD + ["embeddings"], None),
    }

    @pytest.mark.parametrize("case", sorted(LAYOUTS))
    def test_named_reads_tensor_names_in_checkpoint_order(self, case,
                                                          tmp_path):
        named, path = _layout_case(case, tmp_path)
        want_named, want_stored = self.LAYOUTS[case]
        assert [name for name, _ in named] == want_named
        assert all(name == t.name for name, t in named)
        if path is not None:
            assert _stored_names(path) == want_stored


class TestVisualize:
    def test_three_sentences_three_pairs(self, tmp_path, toy_d_config, capsys):
        out = train_tiny(tmp_path, toy_d_config)
        corpus3 = tmp_path / "three.conll"
        blocks = (DATA / "tiny_dep.conll").read_text().strip().split("\n\n")[:3]
        corpus3.write_text("\n\n".join(blocks) + "\n")
        prefix = tmp_path / "trace"
        code = main([
            "visualize", "--checkpoint", str(out),
            "--input", str(corpus3), "--out-prefix", str(prefix),
        ])
        assert code == 0
        for i in range(3):
            assert (tmp_path / f"trace_{i}.dot").exists()
            data = json.loads((tmp_path / f"trace_{i}.json").read_text())

            totals = []

            def walk(obj):
                totals.append(obj["fraction"])
                for c in obj["children"]:
                    walk(c)

            walk(data["root"])
            assert sum(totals) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("command,flag", [("eval", "--seed"),
                                              ("visualize", "--seed"),
                                              ("visualize", "--variant")])
    def test_flags_it_would_not_read_are_rejected(self, command, flag, capsys):
        code = main([command, "--checkpoint", "m.ckpt", "--input", "x.conll",
                     flag, "1"])
        assert code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


class TestGradcheck:
    def test_default_passes_both_variants(self, capsys):
        code = main(["gradcheck"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "gradient check PASS" in out
        assert "variant c" in out and "variant d" in out

    def test_corrupted_gradient_fails(self, capsys):
        code = main(["gradcheck", "--variant", "d", "--corrupt"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_tol_flag_tightens_gate(self, capsys):
        code = main(["gradcheck", "--variant", "d", "--tol", "1e-12"])
        assert code == 1  # float64 noise sits above 1e-12


class TestTrecPipeline:
    def test_question_classification_regime_end_to_end(self, tmp_path,
                                                       capsys):
        config = tmp_path / "qc.cfg"
        config.write_text(
            "[model]\nvariant = d\nn_e = 48\nn_c = 30\nn_h = 25\nclasses = 6\n"
            "[training]\nbatch_size = 4\nlearning_rate = 0.3\nl2 = 1e-5\n"
            "dropout_hidden = 0.05\ndropout_embed = 0.3\nmax_epochs = 15\n"
            "train_embeddings = false\nseed = 0\n"
            "[pooling]\npooling = kslot\nk = 2\n"
        )
        out = tmp_path / "qc.ckpt"
        code = main([
            "train", "--config", str(config),
            "--train", str(DATA / "trec_mini.conll"),
            "--labels", str(DATA / "trec_mini.lbl"),
            "--val", str(DATA / "trec_mini.conll"),
            "--val-labels", str(DATA / "trec_mini.lbl"),
            "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        model = load_checkpoint(out)
        assert model.label_names == ["ABBR", "DESC", "ENTY", "HUM", "LOC", "NUM"]
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(out),
                     "--input", str(DATA / "trec_mini.conll"),
                     "--labels", str(DATA / "trec_mini.lbl")])
        assert code == 0
        assert "overall accuracy" in capsys.readouterr().out


# an out-of-range number on the command line or in a config file: the
# argv, a line that replaces TOY_D_CONFIG's line of the same key in
# {cfg}, and the message that must name the number; {ckpt} is a trained
# checkpoint, {out} the output path
TRAIN_ARGV = "train --config {cfg} --train {dep} --labels {lbl} --out {out}"
OUT_OF_RANGE = {
    "train --seed -1": (TRAIN_ARGV + " --seed -1", "seed = 7",
                        "seed must be >= 0, got -1"),
    **{f"train {line} in config": (TRAIN_ARGV, line, message)
       for line, message in [
           ("seed = -1", "seed must be >= 0, got -1"),
           ("batch_size = 0", "batch_size must be >= 1, got 0"),
           ("learning_rate = 0", "learning_rate must be positive, got 0.0")]},
    **{f"pretrain-rae {flags}": (
        f"pretrain-rae --train {{con}} {flags} --out {{out}}", "seed = 7",
        message)
       for flags, message in [
           ("--seed -1", "seed must be >= 0, got -1"),
           ("--batch 0", "batch_size must be >= 1, got 0"),
           ("--batch -3", "batch_size must be >= 1, got -3"),
           ("--lr 0", "learning_rate must be positive, got 0.0"),
           ("--lr -1", "learning_rate must be positive, got -1.0"),
           ("--epochs -1", "max_epochs must be >= 1, got -1"),
           ("--n-e 0", "--n-e must be >= 1, got 0"),
           ("--n-e -2", "--n-e must be >= 1, got -2")]},
    "gradcheck --seed -1": ("gradcheck --seed -1", "seed = 7",
                            "--seed must be >= 0, got -1"),
    **{f"gradcheck --tol {tol}": (
        f"gradcheck --tol {tol}", "seed = 7",
        f"--tol must be finite and > 0, got {float(tol)}")
       for tol in ("-1", "0", "nan", "inf")},
    "eval --buckets 0": (
        "eval --checkpoint {ckpt} --input {dep} --labels {lbl} --buckets 0",
        "seed = 7", "--buckets must be >= 1, got 0"),
}


class TestFailureExitCodes:
    @pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
    def test_out_of_range_number_exits_2_naming_it(self, case, tmp_path,
                                                   d_checkpoint, capsys):
        command, line, message = OUT_OF_RANGE[case]
        config = tmp_path / "toy_d.cfg"
        key = line.split(" = ")[0]
        config.write_text(re.sub(rf"^{key} = .*$", line, TOY_D_CONFIG,
                                 flags=re.MULTILINE))
        out = tmp_path / "out"
        out.mkdir()
        argv = command.format(cfg=config, dep=DATA / "tiny_dep.conll",
                              lbl=DATA / "tiny_dep.lbl",
                              con=DATA / "tiny_con.txt", ckpt=d_checkpoint,
                              out=out / "model.ckpt").split()
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []

    def test_diverging_run_exits_2_without_writing(self, tmp_path, capsys):
        config = tmp_path / "qc.cfg"
        config.write_text(
            "[model]\nvariant = d\nn_e = 48\nn_c = 30\nn_h = 25\nclasses = 6\n"
            "[training]\nbatch_size = 4\nlearning_rate = 1e300\nl2 = 1e-5\n"
            "max_epochs = 3\nseed = 0\n"
            "[pooling]\npooling = kslot\nk = 2\n"
        )
        out = tmp_path / "qc.ckpt"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main([
                "train", "--config", str(config),
                "--train", str(DATA / "trec_mini.conll"),
                "--labels", str(DATA / "trec_mini.lbl"),
                "--out", str(out),
            ])
        assert code == 2
        err = capsys.readouterr().err
        assert "diverged in epoch 1, batch" in err
        assert "non-finite parameters: conv.W_p" in err
        assert not out.exists()
        assert not (tmp_path / "qc.ckpt.report.json").exists()

    def test_finite_blowup_exits_2_without_writing(self, tmp_path, capsys):
        # the QC regime at rate 1e8: epoch 1 logs ~1.76, then the loss
        # jumps to ~5e20 while staying finite
        text = (Path(__file__).parent.parent / "configs" / "qc_d.cfg").read_text()
        config = tmp_path / "qc.cfg"
        config.write_text(text.replace("learning_rate = 0.05",
                                       "learning_rate = 1e8")
                          .replace("max_epochs = 30", "max_epochs = 5"))
        out = tmp_path / "qc.ckpt"
        code = main([
            "train", "--config", str(config),
            "--train", str(DATA / "trec_mini.conll"),
            "--labels", str(DATA / "trec_mini.lbl"),
            "--out", str(out),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "epoch 1 train_loss" in captured.out
        assert "diverged in epoch 2, batch 1: mean loss" in captured.err
        assert not out.exists()
        assert not (tmp_path / "qc.ckpt.report.json").exists()

    def test_unexpected_exception_exits_4_with_traceback(self, monkeypatch,
                                                         capsys):
        import treeconv.cli as cli

        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_gradcheck", boom)
        code = main(["gradcheck"])
        assert code == 4
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert "internal error: RuntimeError: boom" in err


class TestPretrainRae:
    def test_standalone_pretrain_then_reuse(self, tmp_path, toy_c_config,
                                            capsys):
        rae_out = tmp_path / "rae.ckpt"
        code = main([
            "pretrain-rae", "--train", str(DATA / "tiny_con.txt"),
            "--n-e", "8", "--epochs", "5", "--out", str(rae_out),
        ])
        assert code == 0
        assert load_checkpoint(rae_out).rae is not None

        out = tmp_path / "c2.ckpt"
        code = main([
            "train", "--config", toy_c_config,
            "--train", str(DATA / "tiny_con.txt"),
            "--val", str(DATA / "tiny_con.txt"),
            "--rae", str(rae_out),
            "--out", str(out),
        ])
        assert code == 0
        assert "pretraining the composition" not in capsys.readouterr().out


class TestDeepAndWideInput:
    def test_5000_deep_and_5000_wide_lines_pretrain_and_train(self, tmp_path,
                                                              capsys):
        # interior constituents are tagged X, so sub-sentence expansion
        # adds only the two whole lines
        n = 5000
        deep = "(1 " + "(X " * (n - 1) + "(0 deep)" + ")" * (n - 1) + ")"
        wide = "(1 " + " ".join(f"(X w{i})" for i in range(n)) + ")"
        corpus = tmp_path / "deep_wide.txt"
        corpus.write_text((DATA / "tiny_con.txt").read_text().rstrip("\n")
                          + f"\n{deep}\n{wide}\n")
        rae_out = tmp_path / "rae.ckpt"
        code = main([
            "pretrain-rae", "--train", str(corpus), "--n-e", "4",
            "--epochs", "1", "--out", str(rae_out),
        ])
        assert code == 0
        assert load_checkpoint(rae_out).rae is not None

        config = tmp_path / "c.cfg"
        config.write_text(TOY_C_CONFIG.replace("n_e = 8", "n_e = 4")
                          .replace("max_epochs = 25", "max_epochs = 2"))
        out = tmp_path / "c.ckpt"
        code = main([
            "train", "--config", str(config), "--train", str(corpus),
            "--val", str(corpus), "--rae", str(rae_out), "--out", str(out),
        ])
        assert code == 0
        assert "epoch 2 train_loss" in capsys.readouterr().out
        assert load_checkpoint(out).rae is not None
        assert (tmp_path / "c.ckpt.report.json").exists()

    def test_5000_deep_line_visualizes(self, tmp_path, capsys):
        n = 5000
        deep = "(1 " + "(X " * (n - 1) + "(0 deep)" + ")" * (n - 1) + ")"
        corpus = tmp_path / "deep.txt"
        corpus.write_text((DATA / "tiny_con.txt").read_text().rstrip("\n")
                          + f"\n{deep}\n")
        rae_out = tmp_path / "rae.ckpt"
        assert main(["pretrain-rae", "--train", str(corpus), "--n-e", "4",
                     "--epochs", "1", "--out", str(rae_out)]) == 0
        config = tmp_path / "c.cfg"
        config.write_text(TOY_C_CONFIG.replace("n_e = 8", "n_e = 4")
                          .replace("max_epochs = 25", "max_epochs = 1"))
        out = tmp_path / "c.ckpt"
        assert main(["train", "--config", str(config), "--train", str(corpus),
                     "--val", str(corpus), "--rae", str(rae_out),
                     "--out", str(out)]) == 0
        prefix = tmp_path / "trace"
        code = main(["visualize", "--checkpoint", str(out),
                     "--input", str(corpus), "--out-prefix", str(prefix)])
        assert code == 0, capsys.readouterr().err
        # the chain's file is ~450 MB: read it line by line, then drop it
        trace = tmp_path / f"trace_{len(corpus.read_text().splitlines()) - 1}.json"
        fractions, leaf_indents = 0, []
        with open(trace, encoding="utf-8") as fh:
            for line in fh:
                field = line.lstrip()
                fractions += field.startswith('"fraction": ')
                if field == '"children": []\n':
                    leaf_indents.append(len(line) - len(field))
        trace.unlink()
        assert fractions == len(parse_constituency(deep))
        # one word, n levels down, its fields indented as json.dumps would
        assert leaf_indents == [2 * (2 * n + 2)]


def _abc_files(tmp_path):
    """A 3-class run: tiny_dep's sentences labelled A, B, C in turn, and
    a validation file of its first and third sentences, labelled A and
    C, so the file's own sorted names would number C as B."""
    blocks = (DATA / "tiny_dep.conll").read_text().strip().split("\n\n")
    train_labels = tmp_path / "abc.lbl"
    train_labels.write_text("".join(f"{'ABC'[i % 3]}\t{i}\n"
                                    for i in range(len(blocks))))
    val = tmp_path / "ac.conll"
    val.write_text(f"{blocks[0]}\n\n{blocks[2]}\n")
    val_labels = tmp_path / "ac.lbl"
    val_labels.write_text("A\t0\nC\t1\n")
    config = tmp_path / "abc.cfg"
    config.write_text(TOY_D_CONFIG.replace("classes = 2", "classes = 3")
                      .replace("max_epochs = 25", "max_epochs = 1"))
    return (["train", "--config", str(config),
             "--train", str(DATA / "tiny_dep.conll"),
             "--labels", str(train_labels), "--val", str(val),
             "--val-labels", str(val_labels)],
            val, val_labels)


class TestLabelFiles:
    def test_val_labels_map_through_training_names(self, tmp_path,
                                                   monkeypatch):
        train_args, _, val_labels = _abc_files(tmp_path)
        seen = {}
        real_train = trainer.train

        def spy(train_trees, val_trees, *args, **kwargs):
            seen["val"] = [t.sentence_label for t in val_trees]
            return real_train(train_trees, val_trees, *args, **kwargs)

        monkeypatch.setattr(trainer, "train", spy)
        out = tmp_path / "abc.ckpt"
        assert main(train_args + ["--out", str(out)]) == 0
        assert seen["val"] == [0, 2]
        assert load_checkpoint(out).label_names == ["A", "B", "C"]

    def test_eval_labels_map_through_checkpoint_names(self, tmp_path, capsys):
        train_args, val, val_labels = _abc_files(tmp_path)
        out = tmp_path / "abc.ckpt"
        assert main(train_args + ["--out", str(out)]) == 0
        # a head that predicts C for every sentence
        model = load_checkpoint(out)
        model.params.head.W_o.data[...] = 0.0
        model.params.head.b_o.data[...] = [0.0, 0.0, 50.0]
        save_checkpoint(model, out)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(out), "--input", str(val),
                     "--labels", str(val_labels)]) == 0
        assert "overall accuracy 0.5000 (1/2)" in capsys.readouterr().out

    def test_label_outside_training_names_exits_3(self, tmp_path, capsys):
        train_args, _, val_labels = _abc_files(tmp_path)
        val_labels.write_text("A\t0\nD\t1\n")
        out = tmp_path / "abc.ckpt"
        assert main(train_args + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert str(val_labels) in err and "'D'" in err
        assert not out.exists()


class TestOneWordSentence:
    def test_train_eval_and_visualize_under_k_slot_pooling(self, tmp_path,
                                                           toy_d_config,
                                                           capsys):
        corpus = tmp_path / "one_word.conll"
        corpus.write_text((DATA / "tiny_dep.conll").read_text().rstrip("\n")
                          + "\n\n1\tYes\t_\t_\t_\t_\t0\troot\n")
        labels = tmp_path / "one_word.lbl"
        labels.write_text((DATA / "tiny_dep.lbl").read_text() + "POS\t8\n")
        out = tmp_path / "one_word.ckpt"
        assert main(["train", "--config", toy_d_config, "--train", str(corpus),
                     "--labels", str(labels), "--val", str(corpus),
                     "--val-labels", str(labels), "--out", str(out)]) == 0, \
            capsys.readouterr().err
        assert main(["eval", "--checkpoint", str(out), "--input", str(corpus),
                     "--labels", str(labels)]) == 0
        assert main(["visualize", "--checkpoint", str(out),
                     "--input", str(corpus), "--pooling", "kslot",
                     "--out-prefix", str(tmp_path / "trace")]) == 0
        assert (tmp_path / "trace_8.json").exists()
