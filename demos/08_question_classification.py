#!/usr/bin/env python3
"""Question classification through the command line, end to end.

Runs the published question-classification regime (30 convolution
units, 25 hidden, 30% embedding / 5% hidden dropout, frozen embeddings)
on the bundled 24-question TREC-format miniature.  The full-scale recipe
is identical, just with real inputs:

  1. parse the TREC corpus to CoNLL with any dependency parser,
  2. export pretrained embeddings to word2vec text format,
  3. point --train / --labels / --embeddings at them.

The full-scale reference accuracy for this architecture is 96.0%; the
miniature uses random frozen embeddings, so its number is only a
pipeline check.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).parent
DATA = HERE.parent / "tests" / "data"

CONFIG = """
[model]
variant = d
n_e = 300
n_c = 30
n_h = 25
classes = 6

[training]
batch_size = 4
learning_rate = 0.3
l2 = 1e-5
dropout_hidden = 0.05
dropout_embed = 0.3
max_epochs = 30
train_embeddings = false
seed = 0

[pooling]
pooling = kslot
k = 2
"""


def run(args):
    print("$", " ".join(args))
    proc = subprocess.run(args, text=True, capture_output=True)
    print(proc.stdout, end="")
    if proc.returncode != 0:
        print(proc.stderr, end="", file=sys.stderr)
        sys.exit(proc.returncode)


with tempfile.TemporaryDirectory() as tmp:
    cfg = Path(tmp) / "qc_mini.cfg"
    cfg.write_text(CONFIG)
    ckpt = Path(tmp) / "qc.ckpt"

    run([sys.executable, "-m", "treeconv", "train",
         "--config", str(cfg),
         "--train", str(DATA / "trec_mini.conll"),
         "--labels", str(DATA / "trec_mini.lbl"),
         "--val", str(DATA / "trec_mini.conll"),
         "--val-labels", str(DATA / "trec_mini.lbl"),
         "--out", str(ckpt)])

    print()
    run([sys.executable, "-m", "treeconv", "eval",
         "--checkpoint", str(ckpt),
         "--input", str(DATA / "trec_mini.conll"),
         "--labels", str(DATA / "trec_mini.lbl")])
