"""Minibatch SGD training with validation-based model selection, plus the
finite-difference gradient checker and length-bucketed evaluation.

Each epoch is one :func:`~treeconv.tensor_core.sgd_epoch` pass.  A
minibatch is one forward pass over its samples and one backward pass,
so a batch's gradient sums over its samples in the tape's fixed replay
order, and two runs with the same seed produce identical checkpoints.
Evaluation runs the same batched forward, recording nothing.  The
learning rate halves after two epochs without a validation improvement.
`train` and the bag baseline both run `fit`'s epoch loop, so the control
trains, selects its epoch and stops as the tree model does.

A training sample is a span of its source tree (:class:`tree_conv.Span`):
the whole tree, or a tagged constituent's rows.  Before epoch 1 `train`
indexes each distinct training tree that yields a sample, and each
validation tree, once, and makes each sample's span with its slot map.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .classifier_head import LossValue, transfer_5_to_2, warn_underflow
from .config import VARIANT_C, VARIANT_D, TrainConfig
from .corpus_io import (
    DepTypeInventory,
    EmbeddingTable,
    ParseTree,
    Vocabulary,
    build_dep_inventory,
    tagged_constituents,
)
from .errors import ConfigError, ContractError
from .network import SentenceClassifier, init_model
from .rae_pretrain import CompositionParams
from .tensor_core import (Tape, Tensor, grad_of, iter_batches, l2_penalty,
                          node_groups, sgd_epoch)
from .tree_conv import Span

# re-exported for convenience: the config type lives in config.py
__all__ = [
    "TrainConfig", "TrainReport", "fit", "train", "evaluate", "gradient_check",
    "GradCheckReport", "EvalReport", "default_length_buckets", "iter_batches",
]

PLATEAU_EPOCHS = 2
BUCKET_GROUPS = 7  # length groups of the default evaluation buckets
# a batch whose mean cross entropy exceeds this many times ln(classes)
# has blown up (see `train`)
BLOWUP_RATIO = 1e18


@dataclass
class TrainReport:
    train_loss: List[float] = field(default_factory=list)
    val_accuracy: List[float] = field(default_factory=list)
    best_epoch: int = 0
    wall_time: float = 0.0


def _sample_roots(tree: ParseTree, config: TrainConfig) -> List[Optional[int]]:
    """The roots of `tree`'s samples in training order, None for the
    whole tree: with sub-sentences, every tagged constituent, then the
    whole tree if it has a sentence label and no root tag."""
    if config.variant != VARIANT_C or not config.use_subsentences:
        return [None]
    roots: List[Optional[int]] = list(tagged_constituents(tree))
    if tree.nodes[tree.root].label is None and tree.sentence_label is not None:
        roots.append(None)
    return roots


def _read_trees(train_trees: Sequence[ParseTree],
                roots: Sequence[List[Optional[int]]],
                val_trees: Sequence[ParseTree]) -> List[ParseTree]:
    """Each training tree with a root in `roots` (its `_sample_roots`)
    and each validation tree, once, in order."""
    distinct = {id(tree): tree for tree, nodes in zip(train_trees, roots)
                if nodes}
    distinct.update((id(tree), tree) for tree in val_trees)
    return list(distinct.values())


def _sample_spans(classifier: SentenceClassifier, trees: Sequence[ParseTree],
                  train_trees: Sequence[ParseTree],
                  roots: Sequence[List[Optional[int]]],
                  val_trees: Sequence[ParseTree]) -> Tuple[List[Span], List[Span]]:
    """A span per root in `roots` (each training tree's `_sample_roots`),
    and the validation trees' spans, of one index of `trees`, their
    `_read_trees`."""
    index = classifier.index(trees)
    at = {id(tree): t for t, tree in enumerate(trees)}  # id(tree) -> its tree number
    samples = [classifier.span(index, at[id(tree)], v)
               for tree, nodes in zip(train_trees, roots) for v in nodes]
    return samples, [classifier.span(index, at[id(tree)]) for tree in val_trees]


def fit(samples: Sequence, loss: Callable[[Tape, list], LossValue],
        named: Sequence[Tuple[str, Tensor]], decayed: Sequence[Tensor],
        accuracy: Callable[[], float], config: TrainConfig, rng,
        log: Optional[Callable[[str], None]] = None) -> TrainReport:
    """config.max_epochs epochs of `sgd_epoch` over `samples`, after which
    every parameter in `named` holds its best epoch's array.

    `loss(tape, batch)` records a batch's :class:`LossValue`; `accuracy()`
    is the validation accuracy of the parameters as they stand.  The best
    epoch has the highest accuracy, ties broken by the lower training
    loss (this matters when the validation split is too small to move).
    The rate halves after PLATEAU_EPOCHS epochs without a higher accuracy.
    The report's `wall_time` is the seconds `fit` took.

    A run that blows up stops with DivergenceError, even while its loss
    stays finite: the rule is a batch whose mean cross entropy exceeds
    BLOWUP_RATIO * ln(classes) = 1e18 * ln(classes), checked before that
    batch's update.  ln(classes) is what a uniform guess costs.  A run
    whose softmax only saturates can spike to ~3e16 times that and
    recover (the underflow test at rate 1e5 does), so the bound sits
    well above that.
    """
    started = time.perf_counter()
    report = TrainReport()
    # validation accuracy is >= 0, so epoch 1 always sets best_epoch
    best_acc = -1.0
    best_loss = float("inf")
    lr = config.learning_rate
    stale = 0
    underflows = 0

    def batch_loss(tape, batch):
        nonlocal underflows
        value = loss(tape, batch)
        underflows += int(np.count_nonzero(value.clamped))
        return value.node, value.per_row, len(batch)

    for epoch in range(1, config.max_epochs + 1):
        underflows = 0
        epoch_loss = sgd_epoch(samples, batch_loss, named, lr,
                               config.batch_size, rng, epoch=epoch,
                               decayed=decayed, lam=config.l2,
                               loss_bound=BLOWUP_RATIO * math.log(config.classes))
        warn_underflow(epoch, underflows, len(samples))
        train_loss = epoch_loss / len(samples)
        val_acc = accuracy()
        report.train_loss.append(train_loss)
        report.val_accuracy.append(val_acc)
        if log is not None:
            log(f"epoch {epoch} train_loss {train_loss:.6f} val_acc {val_acc:.4f}")

        if val_acc > best_acc or (val_acc == best_acc and train_loss < best_loss):
            report.best_epoch = epoch
            if epoch < config.max_epochs:  # the last epoch's state is live
                best_state = [p.data.copy() for _, p in named]
            best_loss = train_loss
        if val_acc > best_acc:
            best_acc = val_acc
            stale = 0
        else:
            stale += 1
            if stale >= PLATEAU_EPOCHS:
                lr *= 0.5
                stale = 0

    if report.best_epoch < config.max_epochs:
        for (_, p), data in zip(named, best_state):
            p.data = data  # nothing else holds the snapshot
    report.wall_time = time.perf_counter() - started
    return report


def train(train_trees: Sequence[ParseTree], val_trees: Sequence[ParseTree],
          vocab: Vocabulary, table: EmbeddingTable, config: TrainConfig,
          rae: Optional[CompositionParams] = None,
          inventory: Optional[DepTypeInventory] = None,
          label_names: Optional[List[str]] = None,
          log: Optional[Callable[[str], None]] = None,
          ) -> Tuple[SentenceClassifier, TrainReport]:
    """SGD on the mean batch loss; returns the model with its
    best-validation parameters, one :class:`SentenceClassifier` that
    `evaluate` reads and `save_checkpoint` writes, and the report.

    `table` is never written; `init_model` makes it the model's
    `params.base_table`.  With train_embeddings on, the embedding
    parameter holds only the rows the training and validation trees
    read, gathered from `table`: SGD cannot move any other row.  The
    returned model reads the trained rows for those words and `table`
    for every other word; its `table` is `table` with the trained rows
    in place.  So a non-finite row that no tree reads does not stop the
    run, as with frozen embeddings, but `save_checkpoint` refuses to
    write it.  Constituency node vectors
    are always frozen (they belong to the pretrained composition), so
    train_embeddings only applies to the dependency variant.  `fit` runs
    the epochs, so a run that blows up stops with DivergenceError.  The
    report's `wall_time` counts from before the model is initialised.
    """
    config.validate()
    if not train_trees or not val_trees:
        raise ConfigError("train and validation splits must both be non-empty")
    if config.variant == VARIANT_C and rae is None:
        raise ConfigError("constituency training needs pretrained composition "
                          "parameters (run the autoencoder pretraining first)")
    if config.variant == VARIANT_D and inventory is None:
        inventory = build_dep_inventory(train_trees)

    roots = [_sample_roots(tree, config) for tree in train_trees]
    if not any(roots):
        raise ConfigError("no training samples: no training tree has a tagged "
                          "constituent or a sentence label")
    if any(tree.sentence_label is None
           for tree, nodes in zip(train_trees, roots) if None in nodes):
        raise ConfigError("every training sample needs a label")
    if any(tree.sentence_label is None for tree in val_trees):
        raise ConfigError("every validation sentence needs a label")

    started = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    trees = _read_trees(train_trees, roots, val_trees)
    params = init_model(config, table, inventory, rng, trees)
    model = SentenceClassifier(config, params, inventory=inventory, rae=rae,
                               vocab=vocab, label_names=label_names)
    samples, val_spans = _sample_spans(model, trees, train_trees, roots,
                                       val_trees)
    report = fit(
        samples,
        lambda tape, batch: model.loss(
            tape, batch, [span.label for span in batch], rng=rng),
        params.named(), params.weight_matrices(),
        lambda: evaluate(model, val_trees, spans=val_spans).accuracy,
        config, rng, log=log)
    report.wall_time = time.perf_counter() - started
    return model, report


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass
class BucketAccuracy:
    label: str
    correct: int
    total: int

    @property
    def accuracy(self) -> Optional[float]:
        if self.total == 0:
            return None
        return self.correct / self.total


@dataclass
class EvalReport:
    correct: int
    total: int
    buckets: List[BucketAccuracy]

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0


def default_length_buckets(granularity: int = 5) -> List[int]:
    """Boundaries for BUCKET_GROUPS length groups of width `granularity`;
    the tails merge into the first and last group."""
    return [granularity * (i + 1) for i in range(BUCKET_GROUPS - 1)]


def _bucket_labels(boundaries: Sequence[int]) -> List[str]:
    lows = [1] + [b + 1 for b in boundaries]
    return [f"{lo}-{b}" for lo, b in zip(lows, boundaries)] + [f"{lows[-1]}+"]


def evaluate(classifier, trees: Sequence[ParseTree],
             buckets: Optional[Sequence[int]] = None,
             transfer_binary: bool = False,
             spans: Optional[Sequence[Span]] = None) -> EvalReport:
    """Root-label accuracy, overall and per sentence-length bucket.

    Only whole sentences participate; `buckets` holds upper boundaries
    (defaults to 7 groups at granularity 5).  With transfer_binary, a
    5-class sentiment model is reinterpreted for binary gold labels.
    The classifier's `predict_batch` sees each `node_groups` group of
    `trees`, or of `spans`, the trees' whole-tree spans, when the
    caller has indexed them already (`train`'s validation trees).
    """
    boundaries = list(buckets) if buckets is not None else default_length_buckets()
    labels = _bucket_labels(boundaries)
    stats = [BucketAccuracy(label=lab, correct=0, total=0) for lab in labels]
    if not trees:
        raise ContractError("evaluation corpus is empty")
    if any(tree.sentence_label is None for tree in trees):
        raise ContractError("evaluation needs root labels on every sentence")
    preds = [pred for group in node_groups(trees if spans is None else spans)
             for pred in classifier.predict_batch(group)]
    for tree, pred in zip(trees, preds):
        if transfer_binary:
            pred = transfer_5_to_2(pred.probabilities)
        length = tree.word_count()
        slot = sum(1 for b in boundaries if length > b)
        stats[slot].correct += int(pred.predicted == tree.sentence_label)
        stats[slot].total += 1
    return EvalReport(correct=sum(s.correct for s in stats), total=len(trees),
                      buckets=stats)


def format_eval_report(report: EvalReport) -> str:
    lines = [f"overall accuracy {report.accuracy:.4f} "
             f"({report.correct}/{report.total})"]
    for bucket in report.buckets:
        if bucket.total == 0:
            lines.append(f"length {bucket.label} no sentences")
        else:
            lines.append(f"length {bucket.label} accuracy "
                         f"{bucket.accuracy:.4f} ({bucket.correct}/{bucket.total})")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    group_errors: Dict[str, float]
    checked: int

    @property
    def max_relative_error(self) -> float:
        return max(self.group_errors.values()) if self.group_errors else 0.0

    def format(self) -> str:
        lines = [f"{name} max_rel_err {err:.3e}"
                 for name, err in sorted(self.group_errors.items())]
        lines.append(f"overall max_rel_err {self.max_relative_error:.3e} "
                     f"({self.checked} scalars checked)")
        return "\n".join(lines)


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


SAMPLED_CHECK_THRESHOLD = 10_000
SAMPLE_FRACTION = 0.01
SAMPLE_SEED = 0  # of the sampled scalars' draw
EPSILON = 1e-5  # the central-difference step


def gradient_check(classifier: SentenceClassifier, tree: ParseTree, gold: int,
                   corrupt: bool = False) -> GradCheckReport:
    """Central differences against analytic gradients, dropout off.

    The objective is the trained one: cross entropy plus the l2 penalty,
    whose gradient 2 * lam * W is what `sgd_epoch` adds in the update.

    Every scalar parameter is checked unless the model exceeds 10^4
    scalars, in which case a random 1% sample per parameter, drawn from
    seed SAMPLE_SEED, is used.
    `corrupt` deliberately damages one analytic gradient (a negative
    control for the CLI exit-code contract).
    """
    named = classifier.params.named()
    weights = classifier.params.weight_matrices()
    lam = classifier.config.l2

    spans = classifier.spans([tree])

    def loss_value() -> float:
        value = classifier.loss(Tape(record=False), spans, [gold])
        return value.cross_entropy + l2_penalty(weights, lam)[0]

    tape = Tape()
    value = classifier.loss(tape, spans, [gold])
    grads = tape.backward(value.node)
    decay = l2_penalty(weights, lam)[1]
    analytic = {name: grad_of(grads, p) + decay.get(p, 0.0) for name, p in named}
    if corrupt:
        first = named[0][0]
        analytic[first] = analytic[first] + 0.5

    total_scalars = sum(p.data.size for _, p in named)
    sample = total_scalars > SAMPLED_CHECK_THRESHOLD
    rng = np.random.default_rng(SAMPLE_SEED)

    report = GradCheckReport(group_errors={}, checked=0)
    for name, p in named:
        if sample:
            count = max(1, int(round(SAMPLE_FRACTION * p.data.size)))
            indices = rng.choice(p.data.size, size=count, replace=False)
        else:
            indices = range(p.data.size)
        worst = 0.0
        for index in indices:
            original = p.data.flat[index]
            p.data.flat[index] = original + EPSILON
            hi = loss_value()
            p.data.flat[index] = original - EPSILON
            lo = loss_value()
            p.data.flat[index] = original
            fd = (hi - lo) / (2.0 * EPSILON)
            worst = max(worst, relative_error(analytic[name].flat[index], fd))
            report.checked += 1
        report.group_errors[name] = worst
    return report
