"""Seeded input generator for the benchmark.

Writes everything a workload reads as plain files: a word2vec-text
embedding table, CoNLL-X or bracketed corpora and label files.  The
program under test never sees the seed, only these files.

Words are drawn from a Zipf distribution over the table's vocabulary so
that rows repeat the way they do in real text.  Sentence lengths are a
fixed, evenly spread multiset per split that the seed only shuffles, so
every seed asks the program for the same number of nodes and windows;
the seed changes words, tree shapes, relations and labels.

All workloads share one 20k x 300 table drawn from the fixed seed
TABLE_SEED.  Formatting six million floats takes seconds, so the table
is written once per checkout and reused.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Sequence

import numpy as np

VOCAB_SIZE = 20_000
EMBED_DIM = 300
TABLE_SEED = 0
ZIPF_EXPONENT = 1.0
RELATIONS = tuple(f"rel{i:02d}" for i in range(20))
QUESTION_CLASSES = ("ABBR", "DESC", "ENTY", "HUM", "LOC", "NUM")
SENTIMENT_CLASSES = ("0", "1", "2", "3", "4")

# Split sizes are sentence counts.  `train` is what one call of the
# trainer sees, `val` its per-epoch model selection set, `test` the
# held-out set for evaluate / predict, `pretrain` the autoencoder's corpus.
SPECS: Dict[str, dict] = {
    "dep-sentiment": dict(kind="dependency", classes=SENTIMENT_CLASSES,
                          lengths=(5, 45), train=4, val=4, test=250),
    "dep-question": dict(kind="dependency", classes=QUESTION_CLASSES,
                         lengths=(4, 15), train=60, val=20, test=250),
    "con-sentiment": dict(kind="constituency", classes=SENTIMENT_CLASSES,
                          lengths=(5, 20), train=2, val=4, test=250,
                          pretrain=24),
}


def _zipf(size: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, size + 1, dtype=np.float64) ** exponent
    return weights / weights.sum()


def _lengths(count: int, lo: int, hi: int, rng) -> List[int]:
    """`count` lengths spread evenly over [lo, hi], in seeded order."""
    spread = np.rint(np.linspace(lo, hi, count)).astype(int)
    return [int(x) for x in rng.permutation(spread)]


def _dependency_block(words: Sequence[str], rng, rel_p: np.ndarray) -> str:
    """Random single-rooted tree: each word in a seeded order attaches
    to a word placed before it."""
    n = len(words)
    order = rng.permutation(n)
    head = [0] * n
    rel = ["root"] * n
    for k in range(1, n):
        v = int(order[k])
        head[v] = int(order[int(rng.integers(0, k))]) + 1
        rel[v] = RELATIONS[int(rng.choice(len(RELATIONS), p=rel_p))]
    return "".join(f"{i + 1}\t{w}\t_\t_\t_\t_\t{head[i]}\t{rel[i]}\n"
                   for i, w in enumerate(words))


def _bracketed(words: Sequence[str], rng, classes: int) -> str:
    """Random binary bracketing with a sentiment tag on every constituent.

    Split points are binomial around the middle of each span: uniform
    splits would let the seed move the summed size of all sub-sentences,
    and with it the training work, by several percent."""
    def build(lo: int, hi: int) -> str:
        tag = int(rng.integers(0, classes))
        if hi - lo == 1:
            return f"({tag} {words[lo]})"
        split = lo + 1 + int(rng.binomial(hi - lo - 2, 0.5))
        return f"({tag} {build(lo, split)} {build(split, hi)})"
    return build(0, len(words))


def embedding_table(cache_dir: str) -> str:
    """Path of the shared table, writing it first if it is not cached."""
    path = os.path.join(cache_dir, f"embeddings-{VOCAB_SIZE}x{EMBED_DIM}"
                                   f"-seed{TABLE_SEED}.txt")
    if os.path.exists(path):
        return path
    vectors = np.random.default_rng(TABLE_SEED).normal(
        0.0, 0.1, size=(VOCAB_SIZE, EMBED_DIM))
    row = " ".join(["%.6f"] * EMBED_DIM)
    partial = f"{path}.{os.getpid()}.partial"
    with open(partial, "w", encoding="utf-8") as fh:
        fh.write(f"{VOCAB_SIZE} {EMBED_DIM}\n")
        for i in range(VOCAB_SIZE):
            fh.write(f"w{i} " + row % tuple(vectors[i]) + "\n")
    os.replace(partial, path)
    return path


def generate(workload: str, seed: int, out_dir: str, cache_dir: str) -> dict:
    """Write the workload's corpora under `out_dir`; return the spec, the
    absolute path of every input file and a digest of the spec and of
    every input byte, table included."""
    spec = SPECS[workload]
    rng = np.random.default_rng([seed, sorted(SPECS).index(workload)])
    word_p = _zipf(VOCAB_SIZE, ZIPF_EXPONENT)
    rel_p = _zipf(len(RELATIONS), 1.0)
    classes = spec["classes"]
    os.makedirs(out_dir, exist_ok=True)
    files = {"embeddings": embedding_table(cache_dir)}

    def write(key: str, name: str, text: str) -> None:
        files[key] = os.path.join(out_dir, name)
        with open(files[key], "w", encoding="utf-8") as fh:
            fh.write(text)

    for split in ("train", "val", "test", "pretrain"):
        if split not in spec:
            continue
        lengths = _lengths(spec[split], *spec["lengths"], rng)
        labels = rng.permutation([classes[i % len(classes)]
                                  for i in range(len(lengths))])
        sentences = [[f"w{i}" for i in rng.choice(VOCAB_SIZE, size=n, p=word_p)]
                     for n in lengths]
        if spec["kind"] == "dependency":
            write(split, f"{split}.conll",
                  "\n".join(_dependency_block(words, rng, rel_p)
                            for words in sentences))
            write(split + "_labels", f"{split}.lbl",
                  "".join(f"{lab}\t{i}\n" for i, lab in enumerate(labels)))
        else:
            write(split, f"{split}.txt",
                  "".join(_bracketed(words, rng, len(classes)) + "\n"
                          for words in sentences))

    described = {
        "workload": workload,
        "vocab_size": VOCAB_SIZE,
        "embed_dim": EMBED_DIM,
        "table_seed": TABLE_SEED,
        "zipf_exponent": ZIPF_EXPONENT,
        "relations": len(RELATIONS) if spec["kind"] == "dependency" else 0,
        **{k: (list(v) if isinstance(v, tuple) else v) for k, v in spec.items()},
    }
    digest = hashlib.sha256(json.dumps(described, sort_keys=True).encode())
    for key in sorted(files):
        digest.update(key.encode())
        with open(files[key], "rb") as fh:
            digest.update(fh.read())
    return {"spec": described, "files": files, "digest": digest.hexdigest()}
