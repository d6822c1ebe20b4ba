"""Span tracing by wrapping the package's public functions from outside.

Nothing in `src/` changes: `installed(tracer)` swaps each traced
function, in every `treeconv` module that bound it, for a wrapper that
records a span, and puts the originals back on exit.  The untraced runs
never enter it, so they execute the unmodified code.

A span is (name, phase, start, end, parent index).  Spans stay in memory
and are written out once, when the run ends.  Counters are recorded at
the same boundaries, after the span has closed, so counting does not
inflate the layer's own time.
"""

from __future__ import annotations

import json
import sys
import types
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional

from treeconv import (
    classifier_head,
    corpus_io,
    network,
    pooling,
    rae_pretrain,
    tensor_core,
    trainer,
    tree_conv,
)


def _tree_key(tree) -> tuple:
    return tuple((n.embedding_index, tuple(n.children)) for n in tree.nodes)


class Tracer:
    """In-memory spans and per-phase counters for one run."""

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.phase = "setup"
        self.counts: Dict[str, Counter] = defaultdict(Counter)
        self._annotated: Dict[str, set] = defaultdict(set)

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            index = len(self.spans)
            record = [name, self.phase, 0.0, 0.0,
                      self.stack[-1] if self.stack else -1]
            self.spans.append(record)
            self.stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                record[2] = start
                self.stack.pop()
            if count is not None:
                count(self.counts[self.phase], args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    # counters -----------------------------------------------------------

    def _count_windows(self, c, args, result):
        c["tree_conv.windows"] += len(args[1].nodes)

    def _count_slots(self, c, args, result):
        winners = result[1].winners
        c["pooling.slots"] += len(winners)
        c["pooling.empty_slots"] += sum(w is None for w in winners)

    def _count_backward(self, c, args, result):
        c["tensor_core.backward_calls"] += 1
        c["tensor_core.tape_ops"] += len(args[0])
        c["tensor_core.grad_bytes"] += sum(g.nbytes for g in result.values())

    def _count_annotate(self, c, args, result):
        c["rae_pretrain.annotate_calls"] += 1
        self._annotated[self.phase].add(_tree_key(args[0]))
        c["rae_pretrain.annotate_distinct"] = len(self._annotated[self.phase])

    def reset_counts(self) -> None:
        self.counts.clear()
        self._annotated.clear()

    # aggregation ----------------------------------------------------------

    def totals(self, first_span: int, phase: str) -> Dict[str, float]:
        """Summed span time per name, plus summed self time per name,
        over spans recorded since `first_span` in `phase`."""
        inclusive: Dict[str, float] = defaultdict(float)
        child_time: Dict[int, float] = defaultdict(float)
        spans = self.spans
        for i in range(first_span, len(spans)):
            name, ph, start, end, parent = spans[i]
            if ph != phase:
                continue
            inclusive[name] += end - start
            if parent >= 0:
                child_time[parent] += end - start
        self_time: Dict[str, float] = defaultdict(float)
        for i in range(first_span, len(spans)):
            name, ph, start, end, _ = spans[i]
            if ph == phase:
                self_time[name] += end - start - child_time[i]
        return {**inclusive, **{k + ".self": v for k, v in self_time.items()}}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, phase, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "phase": phase,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")


def _targets(tracer: Tracer):
    """(owner, attribute, span name, counter) for every traced boundary."""
    return [
        (corpus_io, "read_dependency_file", "corpus_io.read_corpus", None),
        (corpus_io, "read_constituency_file", "corpus_io.read_corpus", None),
        (corpus_io, "read_label_file", "corpus_io.read_corpus", None),
        (corpus_io, "load_embeddings", "corpus_io.load_embeddings", None),
        (corpus_io, "bind_vocabulary", "corpus_io.bind_vocabulary", None),
        (corpus_io, "build_dep_inventory", "corpus_io.build_dep_inventory", None),
        (corpus_io, "extract_subsentences", "corpus_io.subsentences", None),
        (rae_pretrain, "pretrain", "rae_pretrain.pretrain", None),
        (rae_pretrain, "annotate", "rae_pretrain.annotate",
         tracer._count_annotate),
        (network.SentenceClassifier, "node_vectors", "network.node_vectors", None),
        (tree_conv, "convolve", "tree_conv.convolve", tracer._count_windows),
        (pooling, "assign_global", "pooling.assign", None),
        (pooling, "assign_k_slot", "pooling.assign", None),
        (pooling, "assign_three_slot", "pooling.assign", None),
        (pooling, "pool", "pooling.pool", tracer._count_slots),
        (classifier_head, "forward", "classifier_head.forward", None),
        (classifier_head, "loss", "classifier_head.loss", None),
        (tensor_core.Tape, "backward", "tensor_core.backward",
         tracer._count_backward),
        (trainer, "train", "trainer.train", None),
        (trainer, "evaluate", "trainer.evaluate", None),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Route every traced function through `tracer` until exit."""
    undo = []
    try:
        for owner, attr, name, count in _targets(tracer):
            original = getattr(owner, attr)
            wrapper = tracer.wrap(name, original, count)
            holders = [owner]
            if isinstance(owner, types.ModuleType):
                # `from .module import fn` copies the binding; patch those too
                holders += [m for key, m in list(sys.modules.items())
                            if key.startswith("treeconv") and m is not owner
                            and getattr(m, attr, None) is original]
            for holder in holders:
                undo.append((holder, attr, original))
                setattr(holder, attr, wrapper)
        yield tracer
    finally:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)
