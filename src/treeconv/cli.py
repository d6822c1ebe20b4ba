"""Command-line entry point: train, eval, visualize, gradcheck and
pretrain-rae subcommands over config files and checkpoints.

Exit codes: 0 success, 1 check failure, 2 configuration error
(including a diverging training run), 3 data/file error, 4 internal
error (an unexpected exception; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from typing import List, Optional

import numpy as np

from . import checkpoint as ckpt
from . import trainer, viz
from .config import (
    VARIANT_C,
    VARIANT_D,
    TrainConfig,
    load_config_file,
    make_train_config,
)
from .corpus_io import (
    attach_labels,
    bind_vocabulary,
    load_embeddings,
    random_embeddings,
    read_constituency_file,
    read_dependency_file,
    read_label_file,
    tagged_constituents,
    vocabulary_from_corpus,
)
from .errors import ConfigError, ContractError, DataError, ShapeError
from .network import init_model
from .pooling import GLOBAL, K_SLOT, THREE_SLOT, assign_global, pool
from .rae_pretrain import PretrainConfig, pretrain
from .synthetic import fixture_model
from .tensor_core import Tape

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

GRADCHECK_TOLERANCE = 1e-4  # the gate on the worst relative error


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeconv",
        description="Tree-based convolution for sentence classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--config", required=True, help="sectioned key-value file")
    p.add_argument("--train", required=True, dest="train_path")
    p.add_argument("--val", default=None, help="validation corpus "
                   "(default: hold out 10%% of --train)")
    p.add_argument("--labels", default=None,
                   help="label file for the training corpus")
    p.add_argument("--val-labels", default=None,
                   help="label file for --val (defaults to tree tags)")
    p.add_argument("--embeddings", default=None,
                   help="word2vec text file (default: random vectors)")
    p.add_argument("--rae", default=None,
                   help="pretrained composition checkpoint (variant c)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--labels", default=None)
    p.add_argument("--binary", action="store_true",
                   help="5-to-2 transfer for binary gold labels")

    p = sub.add_parser("visualize",
                       help="emit DOT/JSON global-pooling provenance traces")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out-prefix", default="viz")

    sub.add_parser("gradcheck", help="finite-difference check of the gradients")

    p = sub.add_parser("pretrain-rae",
                       help="pretrain the constituency composition")
    p.add_argument("--train", required=True, dest="train_path")
    p.add_argument("--embeddings", default=None)
    p.add_argument("--n-e", type=int, default=50,
                   help="embedding width when --embeddings is absent")
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--batch", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else EXIT_OK
    try:
        return _dispatch(args)
    except (ConfigError, ContractError, ShapeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except OSError as e:
        print(f"error: cannot open {e.filename}: {e.strerror}", file=sys.stderr)
        return EXIT_DATA
    except Exception as e:
        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


def _dispatch(args) -> int:
    # the file train and pretrain-rae write, or the prefix of visualize's
    out = getattr(args, "out", None) or getattr(args, "out_prefix", None)
    if out is not None and not os.path.isdir(os.path.dirname(out) or os.curdir):
        raise DataError(f"cannot write {out}: its directory does not exist")
    if args.command == "train":
        return cmd_train(args)
    if args.command == "eval":
        return cmd_eval(args)
    if args.command == "visualize":
        return cmd_visualize(args)
    if args.command == "gradcheck":
        return cmd_gradcheck(args)
    if args.command == "pretrain-rae":
        return cmd_pretrain_rae(args)
    raise ConfigError(f"unknown command {args.command!r}")


def _with_path(path, fn):
    """Run a reader, prefixing the file name onto any data error."""
    try:
        return fn()
    except DataError as e:
        raise type(e)(f"{path}: {e}") from e


def _read_corpus(path, variant):
    if variant == VARIANT_C:
        return _with_path(path, lambda: read_constituency_file(path))
    return _with_path(path, lambda: read_dependency_file(path))


def _read_corpus_checked(path, variant):
    """Parse as the variant's kind; a file of the other kind exits 2."""
    try:
        return _read_corpus(path, variant)
    except DataError as original:
        other = VARIANT_D if variant == VARIANT_C else VARIANT_C
        try:
            _read_corpus(path, other)
        except DataError:
            raise original  # genuinely malformed for both kinds
        raise ConfigError(
            f"{path} holds {'dependency' if other == VARIANT_D else 'constituency'} "
            f"trees but the model variant is {variant!r}"
        )


def _label_trees(trees, labels_path, what, classes, names=None, tags=False):
    """Attach labels from a file, mapped through the class `names` when
    given, or fall back to the trees' own tags.  Every class the run
    reads, each sentence's and, with `tags`, each tagged constituent's,
    must be one of `classes`; a DataError names where one came from.  A
    label file's class replaces its sentence's root tag (see
    `trainer._sample_roots`), so that tag is not read or checked."""
    from_file = set()
    if labels_path is not None:
        pairs = _with_path(labels_path, lambda: read_label_file(labels_path))
        names = _with_path(labels_path,
                           lambda: attach_labels(trees, pairs, names))
        from_file = {sid for _, sid in pairs}
    missing = [i for i, t in enumerate(trees) if t.sentence_label is None]
    if missing:
        raise DataError(
            f"{what}: sentences {missing[:5]} carry no label; pass --labels "
            "or use tagged trees"
        )
    for i, tree in enumerate(trees):
        read = [(labels_path if i in from_file else what, tree.sentence_label)]
        if tags:
            read += [(what, tree.nodes[v].label) for v in tagged_constituents(tree)
                     if not (v == tree.root and i in from_file)]
        for source, label in read:
            if not 0 <= label < classes:
                raise DataError(f"{source}: sentence {i} has gold class "
                                f"{label}, outside the {classes} classes")
    return names


def _bound_embeddings(path, trees, n_e, seed):
    """The embedding file at `path`, or random n_e-dim vectors for the
    words of `trees`, as (vocabulary, table), with `trees` bound to it."""
    if path is not None:
        vocab, table = _with_path(path, lambda: load_embeddings(path))
    else:
        vocab = vocabulary_from_corpus(trees)
        table = random_embeddings(vocab, n_e, seed)
    for tree in trees:
        bind_vocabulary(tree, vocab)
    return vocab, table


def cmd_train(args) -> int:
    config = make_train_config(load_config_file(args.config))
    if args.rae is not None and config.variant != VARIANT_C:
        raise ConfigError("--rae is for variant c; this run is variant d")
    if args.val_labels is not None and args.val is None:
        raise ConfigError("--val-labels needs --val: a split held out of "
                          "--train takes its labels from --labels")

    train_trees = _read_corpus_checked(args.train_path, config.variant)
    label_names = _label_trees(
        train_trees, args.labels, args.train_path, config.classes,
        tags=config.variant == VARIANT_C and config.use_subsentences)

    if args.val is not None:
        val_trees = _read_corpus_checked(args.val, config.variant)
        label_names = _label_trees(val_trees, args.val_labels, args.val,
                                   config.classes, label_names)
    else:
        rng = np.random.default_rng(config.seed)
        order = rng.permutation(len(train_trees))
        n_val = max(1, len(train_trees) // 10)
        if n_val >= len(train_trees):
            raise ConfigError("corpus too small to hold out a validation split")
        val_trees = [train_trees[i] for i in order[:n_val]]
        train_trees = [train_trees[i] for i in order[n_val:]]

    vocab, table = _bound_embeddings(args.embeddings, train_trees + val_trees,
                                     config.n_e, config.seed)
    if table.dim != config.n_e:
        raise ConfigError(
            f"embedding file has dim {table.dim} but config n_e is "
            f"{config.n_e}"
        )

    rae = None
    if config.variant == VARIANT_C:
        if args.rae is not None:
            rae_model = ckpt.load_checkpoint(args.rae)
            if rae_model.rae is None:
                raise ConfigError(f"{args.rae} carries no composition parameters")
            rae = rae_model.rae
            if rae.n_e != config.n_e:
                raise ConfigError(
                    f"{args.rae} composes {rae.n_e}-dim vectors but config "
                    f"n_e is {config.n_e}"
                )
        else:
            print("no --rae given; pretraining the composition first")
            rae = pretrain(train_trees, table,
                           PretrainConfig(seed=config.seed))

    model, report = trainer.train(train_trees, val_trees, vocab, table,
                                  config, rae=rae, label_names=label_names,
                                  log=print)
    ckpt.save_checkpoint(model, args.out)
    with open(f"{args.out}.report.json", "w", encoding="utf-8") as fh:
        json.dump({"train_loss": report.train_loss,
                   "val_accuracy": report.val_accuracy,
                   "best_epoch": report.best_epoch,
                   "wall_time": report.wall_time}, fh, indent=2)
    print(f"checkpoint written to {args.out} "
          f"(best epoch {report.best_epoch}, "
          f"val_acc {max(report.val_accuracy):.4f})")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = ckpt.load_checkpoint(args.checkpoint)
    if args.binary and model.config.classes != 5:
        raise ConfigError("--binary needs a 5-class sentiment checkpoint")
    trees = _read_corpus_checked(args.input, model.config.variant)
    # --binary gold labels are binary, not the checkpoint's classes
    _label_trees(trees, args.labels, args.input,
                 2 if args.binary else model.config.classes,
                 None if args.binary else model.label_names)
    for tree in trees:
        bind_vocabulary(tree, model.vocab)

    report = trainer.evaluate(model, trees, transfer_binary=args.binary)
    if args.binary:
        print("5-to-2 transfer evaluation (neutral mass discarded)")
    print(trainer.format_eval_report(report))
    if args.binary:
        print(f"binary accuracy {report.accuracy:.4f} "
              f"({report.correct}/{report.total})")
    return EXIT_OK


def cmd_visualize(args) -> int:
    model = ckpt.load_checkpoint(args.checkpoint)
    trees = _read_corpus_checked(args.input, model.config.variant)
    for tree in trees:
        bind_vocabulary(tree, model.vocab)

    written = 0
    for i, tree in enumerate(trees):
        tape = Tape(record=False)
        features = model.forward_features(tape, [tree])
        _, provenance = pool(tape, features, assign_global(tree))
        fracs = viz.fractions(provenance, tree)
        with open(f"{args.out_prefix}_{i}.dot", "w", encoding="utf-8") as fh:
            fh.write(viz.emit_dot(tree, fracs))
        with open(f"{args.out_prefix}_{i}.json", "w", encoding="utf-8") as fh:
            fh.writelines(viz.json_pieces(tree, fracs))
        written += 1
    print(f"wrote {written} DOT/JSON pairs to {args.out_prefix}_*.{{dot,json}}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    worst = 0.0
    for variant in (VARIANT_C, VARIANT_D):
        poolings = [GLOBAL, THREE_SLOT if variant == VARIANT_C else K_SLOT]
        for pooling in poolings:
            for lam in (0.0, 1e-5):
                model, tree = fixture_model(variant, pooling, lam)
                report = trainer.gradient_check(model, tree, gold=1)
                print(f"variant {variant} pooling {pooling} l2 {lam:g}:")
                print("  " + report.format().replace("\n", "\n  "))
                worst = max(worst, report.max_relative_error)
    print(f"worst relative error {worst:.3e} "
          f"(tolerance {GRADCHECK_TOLERANCE:g})")
    if worst < GRADCHECK_TOLERANCE:
        print("gradient check PASS")
        return EXIT_OK
    print("gradient check FAIL")
    return EXIT_CHECK_FAILED


def cmd_pretrain_rae(args) -> int:
    if args.n_e < 1:
        raise ConfigError(f"--n-e must be >= 1, got {args.n_e}")
    config = PretrainConfig(learning_rate=args.lr, batch_size=args.batch,
                            max_epochs=args.epochs, seed=args.seed).validate()
    trees = _with_path(args.train_path,
                       lambda: read_constituency_file(args.train_path))
    vocab, table = _bound_embeddings(args.embeddings, trees, args.n_e, args.seed)
    rae = pretrain(trees, table, config)
    _save_rae(rae, vocab, table, args.out)
    print(f"composition parameters written to {args.out}")
    return EXIT_OK


def _save_rae(rae, vocab, table, path) -> None:
    """Persist composition params in the checkpoint container.

    A placeholder dependency-free model wraps them so one format serves
    both full checkpoints and standalone pretraining output.
    """
    config = TrainConfig(variant=VARIANT_C, n_e=rae.n_e, n_c=1, n_h=1,
                         classes=2, pooling=GLOBAL)
    ckpt.save_checkpoint(init_model(config, table, np.random.default_rng(0),
                                    rae=rae, vocab=vocab), path)


if __name__ == "__main__":
    sys.exit(main())
