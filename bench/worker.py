"""Runs one workload on already generated input files; writes a JSON result.

`run.py` starts this in a fresh interpreter per run, so peak memory is
the program's own.  Usage:

    python3 bench/worker.py --inputs FILE --seconds S --trace 0|1 --out FILE

The inputs file is the JSON that `corpus.generate` returns.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import resource
import statistics
import sys
from time import perf_counter, process_time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from treeconv import corpus_io, rae_pretrain, trainer  # noqa: E402
from treeconv.config import question_regime, sentiment_regime  # noqa: E402

import hostspeed  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 3
MIN_PREDICTIONS = 1000  # per p99 block, so that p99 has 10 calls beyond it
P99_BLOCKS = 3  # a run makes at least this many blocks of predictions
PIECE_S = 0.15  # predictions per cycle, at least this long
EVAL_SLICE = 50  # held-out sentences per timed `trainer.evaluate` call
CHUNK_S = 0.1  # predictions between two host-speed samples, at least this long
REFERENCE_SENTENCES = 20
TOLERANCE = 1e-9
MIN_CYCLES = 3
PRETRAIN = rae_pretrain.PretrainConfig(learning_rate=0.01, batch_size=20,
                                       max_epochs=2, patience=None, seed=0)


def runtime() -> dict:
    """numpy version, BLAS library and the thread count BLAS really uses."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower()
                           and line.split()[-1].startswith("/")})
        lib = ctypes.CDLL(libs[0])
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    except (OSError, IndexError):
        pass
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": threads}


# Host-speed kernel parts (see hostspeed.py) that resemble each workload's
# work: the QC regime's small arrays leave it interpreter-bound, the
# sentiment regimes spend their time in 300-wide BLAS calls and in
# streaming large gradient and parameter arrays.
HOST_PARTS = {"dep-sentiment": ("matvec", "stream"),
              "dep-question": ("interp",),
              "con-sentiment": ("matvec", "stream")}


def train_config(workload: str):
    if workload == "dep-sentiment":
        config, epochs = sentiment_regime("d"), 1
    elif workload == "dep-question":
        config, epochs = question_regime("d"), 2
    else:
        config, epochs = sentiment_regime("c"), 2
    config.max_epochs = epochs
    config.seed = 0
    return config.validate()


def training_samples(trees, config) -> int:
    """Samples one epoch of `trainer.train` sees: every tagged constituent
    (plus an untagged labelled root) with sub-sentences, else each tree."""
    if config.variant != "c" or not config.use_subsentences:
        return len(trees)
    count = 0
    for tree in trees:
        count += len(corpus_io.extract_subsentences(tree))
        if tree.nodes[tree.root].label is None and tree.sentence_label is not None:
            count += 1
    return count


class Setup:
    """Everything the program needs before training: corpora, table,
    vocabulary, inventory and (constituency) pretrained composition."""

    def __init__(self, inputs: dict):
        files = inputs["files"]
        dependency = inputs["spec"]["kind"] == "dependency"

        started = perf_counter()
        self.vocab, self.table = corpus_io.load_embeddings(files["embeddings"])
        self.splits = {}
        for split in ("train", "val", "test", "pretrain"):
            if split not in files:
                continue
            if dependency:
                trees = corpus_io.read_dependency_file(files[split])
                corpus_io.attach_labels(
                    trees, corpus_io.read_label_file(files[split + "_labels"]))
            else:
                trees = corpus_io.read_constituency_file(files[split])
            for tree in trees:
                corpus_io.bind_vocabulary(tree, self.vocab)
            self.splits[split] = trees
        self.inventory = (corpus_io.build_dep_inventory(self.splits["train"])
                          if dependency else None)
        self.rae = (None if dependency else
                    rae_pretrain.pretrain(self.splits["pretrain"], self.table,
                                          PRETRAIN))
        self.seconds = perf_counter() - started


class Checks:
    """Counts attempted operations and failed output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)

    def losses(self, report) -> None:
        for epoch, value in enumerate(report.train_loss, 1):
            self.expect(math.isfinite(value),
                        f"training loss of epoch {epoch} is {value}")

    def distribution(self, probabilities) -> None:
        p = np.asarray(probabilities)
        self.expect(bool(np.all(np.isfinite(p))) and abs(p.sum() - 1.0) <= TOLERANCE,
                    f"predicted distribution {p.tolist()} is not finite "
                    "or does not sum to 1")


class Workload:
    def __init__(self, name: str, setup: Setup, checks: Checks):
        self.setup = setup
        self.checks = checks
        self.config = train_config(name)
        self.test = setup.splits["test"]
        self.samples = training_samples(setup.splits["train"], self.config)
        self.model = None
        self.position = 0  # next held-out sentence for `predict_chunk`

    def train_round(self) -> tuple:
        """One `trainer.train` call; returns its samples and seconds."""
        s = self.setup
        started = perf_counter()
        self.model, report = trainer.train(
            s.splits["train"], s.splits["val"], s.vocab, s.table, self.config,
            rae=s.rae, inventory=s.inventory)
        seconds = perf_counter() - started
        steps = self.samples * self.config.max_epochs
        self.checks.attempted += steps
        self.checks.losses(report)
        return steps, seconds

    def evaluate_call(self, trees) -> tuple:
        """One `trainer.evaluate` call over `trees`; returns its seconds
        and correct count."""
        started = perf_counter()
        report = trainer.evaluate(self.model.classifier(), trees)
        seconds = perf_counter() - started
        self.checks.attempted += len(trees)
        return seconds, report.correct

    def predict_chunk(self, classifier, seconds: float) -> list:
        """Single-sentence predictions, one caller (closed loop), going
        round the held-out set, until `seconds` are spent; returns the
        latency of each call."""
        latencies = []
        while sum(latencies) < seconds:
            tree = self.test[self.position]
            self.position = (self.position + 1) % len(self.test)
            started = perf_counter()
            pred = classifier.predict(tree)
            latencies.append(perf_counter() - started)
            self.checks.distribution(pred.probabilities)
        self.checks.attempted += len(latencies)
        return latencies

    def predict_pass(self, classifier) -> int:
        """Single-sentence predictions over the whole held-out set;
        returns the correct count."""
        correct = 0
        for tree in self.test:
            pred = classifier.predict(tree)
            self.checks.distribution(pred.probabilities)
            correct += int(pred.predicted == tree.sentence_label)
        self.checks.attempted += len(self.test)
        return correct

    def check_reference(self) -> None:
        classifier = self.model.classifier()
        for i, tree in enumerate(self.test[:REFERENCE_SENTENCES]):
            got = classifier.predict(tree).probabilities
            want = reference.probabilities(tree, self.model)
            err = float(np.max(np.abs(got - want)))
            self.checks.expect(err <= TOLERANCE,
                               f"test sentence {i}: predict differs from the "
                               f"reference forward pass by {err:.3e}")
        self.checks.attempted += min(len(self.test), REFERENCE_SENTENCES)

    def check_counts(self, evaluate_correct: list, predict_correct: int) -> None:
        for count in evaluate_correct:
            self.checks.expect(count == predict_correct,
                               f"evaluate counted {count} correct, single "
                               f"predict counted {predict_correct}")


def _another_cycle(started: float, cycles: int, seconds: float) -> bool:
    """True until MIN_CYCLES are done and one more would overrun `seconds`."""
    elapsed = perf_counter() - started
    return cycles < MIN_CYCLES or elapsed * (cycles + 1) / cycles <= seconds


def measure(workload: Workload, host: hostspeed.HostSpeed,
            seconds: float) -> dict:
    """End-to-end metrics, with no tracing installed.

    The run is cut into cycles of one training round, one evaluate pass
    over the held-out set in calls of EVAL_SLICE sentences and at least
    PIECE_S of single-sentence predictions, in chunks of at least
    CHUNK_S.  The host-speed kernel runs between any two of these
    pieces, and each piece's timing is divided by the mean host factor
    of the samples right before and right after it.
    """
    workload.train_round()  # warm-up: first-touch page faults, lazy imports
    workload.check_reference()
    classifier = workload.model.classifier()
    # train and evaluate: one list of (items, seconds, factor) pieces per
    # round or pass; predict: (calls, seconds, factor) per chunk
    pieces = {"train": [], "evaluate": [], "predict": []}
    latencies, raw_latencies, eval_correct = [], [], []
    last = host.sample()

    def factor() -> float:
        nonlocal last
        before, last = last, host.sample()
        return (before + last) / 2

    started, cpu_started = perf_counter(), process_time()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cycles = 0
    while (_another_cycle(started, cycles, seconds)
           or len(latencies) < P99_BLOCKS * MIN_PREDICTIONS):
        steps, took = workload.train_round()
        pieces["train"].append([(steps, took, factor())])
        classifier = workload.model.classifier()
        evaluate, correct = [], 0
        for first in range(0, len(workload.test), EVAL_SLICE):
            trees = workload.test[first:first + EVAL_SLICE]
            took, hits = workload.evaluate_call(trees)
            evaluate.append((len(trees), took, factor()))
            correct += hits
        pieces["evaluate"].append(evaluate)
        eval_correct.append(correct)
        # pace the predictions so that the run fills P99_BLOCKS blocks
        target = (P99_BLOCKS * MIN_PREDICTIONS
                  * min(1.0, (perf_counter() - started) / seconds))
        spent = 0.0
        while spent < PIECE_S or len(latencies) < target:
            chunk = workload.predict_chunk(classifier, CHUNK_S)
            f = factor()
            pieces["predict"].append((len(chunk), sum(chunk), f))
            raw_latencies.extend(chunk)
            latencies.extend(t / f for t in chunk)
            spent += sum(chunk)
        cycles += 1
    predict_correct = workload.predict_pass(classifier)
    workload.check_counts(eval_correct, predict_correct)
    wall = perf_counter() - started
    cpu_share = (process_time() - cpu_started) / wall
    after = resource.getrusage(resource.RUSAGE_SELF)
    samples = {"cycles": cycles, "predictions": len(latencies),
               "cpu_seconds_per_wall_second": cpu_share,
               "system_seconds_per_wall_second":
                   (after.ru_stime - usage.ru_stime) / wall,
               "minor_faults_per_cycle": (after.ru_minflt - usage.ru_minflt) / cycles,
               "host_kernel_s": {k: statistics.median(p[k] for p in host.parts)
                                 for k in host.names},
               "pieces": pieces}
    raw = _end_to_end(pieces, raw_latencies, adjusted=False)
    samples["raw"] = {k: v for k, (v, _) in raw.items()}
    return {**_end_to_end(pieces, latencies, adjusted=True), "samples": samples}


def _end_to_end(pieces: dict, latencies: list, adjusted: bool) -> dict:
    """Rates are medians over training rounds or evaluate passes of items
    over seconds, each piece's seconds divided by its host factor when
    `adjusted`.  p50 is taken over every call; p99 per block of
    MIN_PREDICTIONS consecutive calls (the remainder joins the last
    block), then the median over blocks, so that a slow stretch sets the
    p99 of the blocks it covers only."""
    def rate(kind: str) -> float:
        return statistics.median(
            sum(n for n, _, _ in group)
            / sum(t / (f if adjusted else 1.0) for _, t, f in group)
            for group in pieces[kind])
    ms = np.asarray(latencies) * 1e3
    blocks = max(1, len(ms) // MIN_PREDICTIONS)
    ends = [MIN_PREDICTIONS * (i + 1) for i in range(blocks - 1)] + [len(ms)]
    starts = [0] + ends[:-1]
    return {
        "train_samples_per_s": (rate("train"), "samples/s"),
        "predict_sents_per_s": (rate("evaluate"), "sents/s"),
        "predict_ms_p50": (float(np.percentile(ms, 50)), "ms"),
        "predict_ms_p99": (statistics.median(
            float(np.percentile(ms[a:b], 99)) for a, b in zip(starts, ends)), "ms"),
    }


PHASE_TIMES = {
    # metric suffix -> span name; `_s` metrics are summed span time per
    # round (train) or per pass over the held-out set (predict)
    "corpus_io.subsentences_s": "corpus_io.subsentences",
    "rae_pretrain.annotate_s": "rae_pretrain.annotate",
    "network.node_vectors_s": "network.node_vectors",
    "tree_conv.convolve_s": "tree_conv.convolve",
    "pooling.assign_s": "pooling.assign",
    "pooling.pool_s": "pooling.pool",
    "classifier_head.forward_s": "classifier_head.forward",
    "classifier_head.loss_s": "classifier_head.loss",
    "tensor_core.backward_s": "tensor_core.backward",
    "trainer.evaluate_s": "trainer.evaluate",
}
PREDICT_LAYERS = ("rae_pretrain.annotate_s", "network.node_vectors_s",
                  "tree_conv.convolve_s", "pooling.assign_s", "pooling.pool_s",
                  "classifier_head.forward_s", "trainer.evaluate_s")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _phase_metrics(tracer: tracing.Tracer, first_span: int, phase: str,
                   samples: int = 0) -> dict:
    """Per-layer metrics of one traced round; `samples` is the number of
    training samples the round processed (train phase only)."""
    totals = tracer.totals(first_span, phase)
    c = tracer.counts[phase]
    out = {key: totals.get(span, 0.0) for key, span in PHASE_TIMES.items()}
    out.update({
        "rae_pretrain.annotate_calls": c["rae_pretrain.annotate_calls"],
        "rae_pretrain.annotate_useful_ratio": _ratio(
            c["rae_pretrain.annotate_distinct"], c["rae_pretrain.annotate_calls"]),
        "tree_conv.windows": c["tree_conv.windows"],
        "pooling.empty_slot_ratio": _ratio(c["pooling.empty_slots"],
                                           c["pooling.slots"]),
    })
    if phase == "train":
        out.update({
            "trainer.train_s": totals.get("trainer.train", 0.0),
            "trainer.self_s": totals.get("trainer.train.self", 0.0),
            "tensor_core.backward_calls": c["tensor_core.backward_calls"],
            "tensor_core.tape_ops_per_sample": _ratio(
                c["tensor_core.tape_ops"], samples),
            "tensor_core.grad_bytes_per_sample": _ratio(
                c["tensor_core.grad_bytes"], samples),
        })
    else:
        out = {k: v for k, v in out.items()
               if k in PREDICT_LAYERS or not k.endswith("_s")}
    return {f"{phase}.{k}": v for k, v in out.items()}


def _median_rounds(rounds: list) -> dict:
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("grad_bytes_per_sample"):
        return "B/sample"
    if name.endswith("_per_sample"):
        return "ops/sample"
    return "count"


def measure_traced(workload: Workload, tracer: tracing.Tracer,
                   seconds: float) -> dict:
    """Per-layer metrics.  Each cycle runs an untraced training round, a
    traced one and a traced pass over the held-out set, so the tracing
    overhead is measured under the same host load."""
    workload.train_round()  # warm-up
    workload.check_reference()
    plain, traced, train_rounds, predict_rounds = [], [], [], []
    started = perf_counter()
    while _another_cycle(started, len(traced), seconds):
        steps, took = workload.train_round()
        plain.append(steps / took)
        tracer.reset_counts()
        tracer.phase = "train"
        first = len(tracer.spans)
        with tracing.installed(tracer):
            steps, took = workload.train_round()
        traced.append(steps / took)
        train_rounds.append(_phase_metrics(
            tracer, first, "train",
            workload.samples * workload.config.max_epochs))

        tracer.reset_counts()
        tracer.phase = "predict"
        first = len(tracer.spans)
        with tracing.installed(tracer):
            _, evaluate_correct = workload.evaluate_call(workload.test)
            predict_correct = workload.predict_pass(workload.model.classifier())
        workload.check_counts([evaluate_correct], predict_correct)
        predict_rounds.append(_phase_metrics(tracer, first, "predict"))

    metrics = {**_median_rounds(train_rounds), **_median_rounds(predict_rounds)}
    metrics["trace.overhead_ratio"] = statistics.median(plain) / statistics.median(traced)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None,
                        help="where a traced run writes its spans (JSON lines)")
    args = parser.parse_args(argv)

    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    name = inputs["spec"]["workload"]
    checks = Checks()
    tracer = tracing.Tracer() if args.trace else None

    host = hostspeed.HostSpeed(HOST_PARTS[name])
    setup_seconds, setup_layers = [], []
    setup = None
    for _ in range(SETUP_REPEATS):
        setup = None  # free the previous corpora and table first; the
        gc.collect()  # parsed trees hold reference cycles
        host.sample()
        if tracer:
            first = len(tracer.spans)
            with tracing.installed(tracer):
                setup = Setup(inputs)
            totals = tracer.totals(first, "setup")
            setup_layers.append({
                "setup.corpus_io.read_corpus_s": totals.get("corpus_io.read_corpus", 0.0),
                "setup.corpus_io.load_embeddings_s": totals.get("corpus_io.load_embeddings", 0.0),
                "setup.rae_pretrain.pretrain_s": totals.get("rae_pretrain.pretrain", 0.0),
            })
        else:
            setup = Setup(inputs)
        setup_seconds.append(setup.seconds)
    host.sample()
    # each setup's host factor: the mean of the kernel samples around it
    setup_factors = [(a + b) / 2 for a, b in zip(host.samples, host.samples[1:])]
    workload = Workload(name, setup, checks)

    samples = {}
    if tracer:
        metrics = measure_traced(workload, tracer, args.seconds)
        metrics.update(_median_rounds(setup_layers))
        metrics = {k: (v, _unit(k)) for k, v in metrics.items()}
    else:
        metrics = measure(workload, host, args.seconds)
        samples = metrics.pop("samples")
        samples["raw"]["setup_s"] = statistics.median(setup_seconds)
        samples.update(setup_s=setup_seconds, setup_host_factor=setup_factors)
        metrics["setup_s"] = (statistics.median(
            t / f for t, f in zip(setup_seconds, setup_factors)), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    if tracer and args.spans:
        tracer.write(args.spans)

    result = {
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.messages,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
        "train_samples_per_round": workload.samples * workload.config.max_epochs,
        "held_out_sentences": len(workload.test),
        "runtime": runtime(),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
