"""Compare the checkpoints, and the gradient check's printed output, that
two checkouts write for a fixed set of small seeded runs.

    python tools/compare_checkpoints.py OTHER_CHECKOUT

Each run trains on a corpus under tests/data of this checkout, in a
subprocess with PYTHONPATH=<checkout>/src: once with this checkout's
package, once with OTHER_CHECKOUT's, and once more with this checkout's
to check that one seed gives one checkpoint.  The runs are CLI `train`
on tiny_dep (trained embeddings, dropout, an earlier epoch restored), on
trec_mini (frozen embeddings, dropout) and on tiny_con (pretraining in
the run, with and without dropout), `pretrain-rae` on tiny_con, the
bag-of-embeddings baseline (trained embeddings), whose head arrays and
class probabilities on every tiny_dep tree a short program writes in the
checkpoint layout (the same record whatever shape a checkout gives its
embedding parameter), and CLI `train` (with dropout, under 3-slot
pooling and, from a copy of that config with `pooling = global`, under
global pooling) on a corpus this script writes, whose unary chains and
untagged (X) interior constituents tiny_con lacks: nodes with no right
child, and trees only partly tagged.  A ninth run is CLI `train` (one
epoch) on 64 random bracketings this script writes, validated on the
same file: its training and validation trees index about 3000 rows,
more than EVAL_NODES (1024), so the frozen annotation runs in three
node groups, and a change in how the groups share their matrix products
changes the checkpoint.  A tenth run trains the baseline again, validated on two
trees: their accuracy stalls at 0.5 for five epochs, so the rate halves
twice before epoch 6 reaches 1.0 and is kept, and a change to the
baseline's rate halving or epoch selection changes the checkpoint.  An
eleventh run is CLI `train` with trained embeddings read from
tests/data/tiny_embeddings.txt, on six tiny_dep sentences, validated on
four sentences this script writes: the embedding file holds words that
no sentence reads, and the validation sentences hold a word of the file
that training lacks and two words outside it (the UNK row).  Its epoch
4 of 6 is kept, so the embedding rows the run trains are snapshotted
and restored, and a change to which rows a run trains, or to how the
saved table joins them with the rows it does not read, changes the
checkpoint.  A twelfth run is `gradcheck`, whose printed
output (every parameter's worst relative error, for both variants, four
configurations each) is compared in place of a checkpoint.

For every run it prints the sha256 of both checkouts' files and
"identical" or "differ"; a difference also gives, for a checkpoint whose
stored arrays are all byte-equal, "arrays identical" and the header keys
whose values differ, for any other checkpoint the largest
|a - b| / max|a| over the stored arrays and the array it is in, and for
printed output the first line that differs.  A last line gives
the line count of src/treeconv/*.py in both checkouts, as `wc -l`
counts them.  Exits 0 when every run is identical in both comparisons,
1 otherwise.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent.parent
DATA = HERE / "tests" / "data"
MAGIC = b"treeconv-checkpoint\n"

_D_TRAINED = """
[model]
variant = d
n_e = 8
n_c = 8
n_h = 6
classes = 2
[training]
batch_size = 4
learning_rate = 1.5
l2 = 1e-4
dropout_hidden = 0.2
dropout_embed = 0.2
max_epochs = 6
train_embeddings = true
seed = 7
[pooling]
pooling = kslot
k = 2
"""

_D_FROZEN = """
[model]
variant = d
n_e = 8
n_c = 6
n_h = 5
classes = 6
[training]
batch_size = 5
learning_rate = 0.5
l2 = 1e-4
dropout_hidden = 0.05
dropout_embed = 0.3
max_epochs = 6
train_embeddings = false
seed = 3
[pooling]
pooling = kslot
k = 2
"""

_C = """
[model]
variant = c
n_e = 8
n_c = 8
n_h = 6
classes = 2
[training]
batch_size = 4
learning_rate = 0.3
l2 = 1e-4
dropout_hidden = {dropout}
dropout_embed = {dropout}
max_epochs = {epochs}
seed = 7
[pooling]
pooling = 3slot
alpha = 0.6
"""

# unary chains, some fully tagged; untagged (X) interior constituents
_CHAINS = """\
(1 (X (1 good) (X (1 (X fun)))) (1 (1 (1 film))))
(0 (X (0 bad) (0 (X (X plot)))) (X (0 awful)))
(1 (1 (X (X (1 great))) (X cast)) (X (1 fun)))
(0 (X (X (0 dull) (X (X plot)))) (0 (0 film)))
(1 (X great) (1 (X (1 good) (X film))))
(0 (0 (X awful) (0 (0 (0 bad)))) (X cast))
(1 (1 (1 (1 (1 good)))))
(0 (X (X (X (0 dull)))))
(1 (X (X fun) (X (X film))) (1 great))
(0 (X plot) (0 (X (0 (0 awful)))))
(1 (1 (X cast) (1 good)) (X (X (X film))))
(0 (0 dull) (X (X (X (X plot)))))
"""


def _svo(words: str) -> str:
    """A four-word "subject verb the object" sentence in CoNLL."""
    heads = [(2, "nsubj"), (0, "root"), (4, "det"), (2, "dobj")]
    return "".join(f"{i}\t{word}\t_\t_\t_\t_\t{head}\t{rel}\n"
                   for i, (word, (head, rel)) in enumerate(
                       zip(words.split(), heads), start=1))


# "music" is in tiny_embeddings.txt but in none of the training sentences;
# "adored" and "fans" are in neither
_UNSEEN_VAL = ["critics liked the music", "critics hated the music",
               "critics adored the music", "fans hated the show"]


def _labels(count: int) -> str:
    """Alternating POS and NEG labels for `count` sentences."""
    return "".join(f"{('POS', 'NEG')[i % 2]}\t{i}\n" for i in range(count))


def _wide_corpus() -> str:
    """64 random binary bracketings of 12 words each: interior tags 0, 1
    or X (untagged), the root's alternating 0 and 1.  The first and last
    lines branch right over 24 words: read as training and as validation
    trees, their tallest heights hold one or two nodes per annotation
    group and four in all."""
    lines, words = 64, 12
    rng = random.Random(9)
    vocab = ["good", "bad", "film", "plot", "cast", "fun", "dull", "great"]
    out = []
    for line in range(lines):
        tall = line in (0, lines - 1)
        items = [f"({rng.choice('01X')} {rng.choice(vocab)})"
                 for _ in range(2 * words if tall else words)]
        while len(items) > 2:
            i = len(items) - 2 if tall else rng.randrange(len(items) - 1)
            items[i:i + 2] = [f"({rng.choice('01X')} {items[i]} {items[i + 1]})"]
        out.append(f"({line % 2} {items[0]} {items[1]})\n")
    return "".join(out)


# trains the baseline under a seed, validated on the first n_val trees,
# and writes its head arrays and the class probabilities it gives every
# tiny_dep tree as MAGIC, the header length, a JSON header with the
# arrays' names and shapes, a newline and the little-endian float64
# payload
_BAG = """
import json, sys
import numpy as np
from treeconv.baseline import train_bag_baseline
from treeconv.config import TrainConfig
from treeconv.corpus_io import (attach_labels, bind_vocabulary,
    random_embeddings, read_dependency_file, read_label_file,
    vocabulary_from_corpus)
data, seed, n_val, out = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
trees = read_dependency_file(data + "/tiny_dep.conll")
attach_labels(trees, read_label_file(data + "/tiny_dep.lbl"))
vocab = vocabulary_from_corpus(trees)
for tree in trees:
    bind_vocabulary(tree, vocab)
config = TrainConfig(variant="d", n_e=8, n_c=1, n_h=6, classes=2,
                     batch_size=3, learning_rate=0.3, l2=1e-4,
                     max_epochs=6, train_embeddings=True, seed=seed)
model, _ = train_bag_baseline(trees, trees[:n_val],
                              random_embeddings(vocab, 8, seed), config)
arrays = [(n, p.data) for n, p in model.named() if n.startswith("head.")]
arrays.append(("probabilities", np.array(
    [pred.probabilities for pred in model.predict_batch(trees)])))
blob = json.dumps({"arrays": [{"name": n, "shape": list(a.shape)}
                              for n, a in arrays]}).encode()
with open(out, "wb") as fh:
    fh.write(b"treeconv-checkpoint\\n" + b"%d\\n" % len(blob) + blob + b"\\n")
    for _, a in arrays:
        fh.write(a.astype("<f8").tobytes())
"""


# where a run's arguments name its output file; a run without it has its
# standard output compared
OUT = "{out}"


def _runs(work: Path) -> Dict[str, List[str]]:
    """Run name -> arguments after `python`."""
    configs = {"d_trained.cfg": _D_TRAINED, "d_frozen.cfg": _D_FROZEN,
               "c_dropout.cfg": _C.format(dropout=0.2, epochs=5),
               "c_global.cfg": _C.format(dropout=0.2, epochs=5).replace(
                   "pooling = 3slot", "pooling = global"),
               "c_plain.cfg": _C.format(dropout=0.0, epochs=5),
               "c_wide.cfg": _C.format(dropout=0.2, epochs=1)}
    for name, text in configs.items():
        (work / name).write_text(text)
    (work / "chains_con.txt").write_text(_CHAINS)
    (work / "wide_con.txt").write_text(_wide_corpus())
    six = (DATA / "tiny_dep.conll").read_text().strip().split("\n\n")[:6]
    (work / "six_dep.conll").write_text("\n\n".join(six) + "\n")
    (work / "six_dep.lbl").write_text(_labels(6))
    (work / "unseen_dep.conll").write_text("\n".join(map(_svo, _UNSEEN_VAL)))
    (work / "unseen_dep.lbl").write_text(_labels(len(_UNSEEN_VAL)))
    cli = ["-m", "treeconv"]
    train = cli + ["train", "--out", OUT]
    dep = ["--train", str(DATA / "tiny_dep.conll"),
           "--labels", str(DATA / "tiny_dep.lbl"),
           "--val", str(DATA / "tiny_dep.conll"),
           "--val-labels", str(DATA / "tiny_dep.lbl")]
    con = ["--train", str(DATA / "tiny_con.txt")]
    return {
        "train tiny_dep, trained, dropout":
            train + ["--config", str(work / "d_trained.cfg")] + dep,
        "train trec_mini, frozen, dropout":
            train + ["--config", str(work / "d_frozen.cfg"),
                   "--train", str(DATA / "trec_mini.conll"),
                   "--labels", str(DATA / "trec_mini.lbl")],
        "train tiny_con, dropout":
            train + ["--config", str(work / "c_dropout.cfg")] + con,
        "train tiny_con, no dropout":
            train + ["--config", str(work / "c_plain.cfg")] + con,
        "pretrain-rae tiny_con":
            cli + ["pretrain-rae", "--out", OUT, "--n-e", "8", "--epochs",
                   "5", "--batch", "3", "--seed", "2"] + con,
        "bag baseline, trained":
            ["-c", _BAG, str(DATA), "5", "4", OUT],
        "train chains_con, dropout":
            train + ["--config", str(work / "c_dropout.cfg"),
                   "--train", str(work / "chains_con.txt")],
        "train chains_con, dropout, global pooling":
            train + ["--config", str(work / "c_global.cfg"),
                   "--train", str(work / "chains_con.txt")],
        "train wide_con, more than one annotation group":
            train + ["--config", str(work / "c_wide.cfg"),
                   "--train", str(work / "wide_con.txt"),
                   "--val", str(work / "wide_con.txt")],
        "bag baseline, trained, rate halved":
            ["-c", _BAG, str(DATA), "6", "2", OUT],
        "train six tiny_dep, trained, embedding file, unseen validation words":
            train + ["--config", str(work / "d_trained.cfg"),
                   "--train", str(work / "six_dep.conll"),
                   "--labels", str(work / "six_dep.lbl"),
                   "--val", str(work / "unseen_dep.conll"),
                   "--val-labels", str(work / "unseen_dep.lbl"),
                   "--embeddings", str(DATA / "tiny_embeddings.txt")],
        "gradcheck":
            cli + ["gradcheck"],
    }


def _run(checkout: Path, args: List[str], out: Path) -> Optional[str]:
    """Write `out` with `checkout`'s package, as the file OUT stands for
    or else as the standard output; None, or the error."""
    argv = [sys.executable] + [str(out) if a == OUT else a for a in args]
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    done = subprocess.run(argv, env=env, cwd=out.parent, capture_output=True,
                          text=True)
    if done.returncode != 0:
        return f"exit {done.returncode}: {done.stderr.strip()[-300:]}"
    if OUT not in args:
        out.write_text(done.stdout)
    return None


def read_checkpoint(path: Path) -> Tuple[dict, List[Tuple[str, np.ndarray]]]:
    """The JSON header and the stored (name, array) pairs of a file in
    the checkpoint layout."""
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise ValueError(f"{path} is not in the checkpoint layout")
        header = json.loads(fh.read(int(fh.readline())))
        fh.read(1)
        out = []
        for spec in header["arrays"]:
            shape = tuple(spec["shape"])
            raw = fh.read(8 * int(np.prod(shape)))
            out.append((spec["name"],
                        np.frombuffer(raw, dtype="<f8").reshape(shape)))
    return header, out


def largest_difference(a: Path, b: Path) -> str:
    """How two files in the checkpoint layout differ: when every stored
    array is byte-equal, the header keys whose values differ (or, when
    none does, that only the header's key order or spacing differs);
    otherwise the largest |a - b| / max|a| over the stored arrays, and
    where."""
    (ours_header, ours), (theirs_header, theirs) = (read_checkpoint(a),
                                                     read_checkpoint(b))
    if [(n, x.shape) for n, x in ours] != [(n, x.shape) for n, x in theirs]:
        return "the stored arrays' names or shapes differ"
    if all(x.tobytes() == y.tobytes() for (_, x), (_, y) in zip(ours, theirs)):
        keys = sorted(key for key in ours_header.keys() | theirs_header.keys()
                      if key not in ours_header or key not in theirs_header
                      or ours_header[key] != theirs_header[key])
        if not keys:
            return ("arrays identical; header values equal, "
                    "header bytes differ in layout only")
        return f"arrays identical; header keys differ: {keys}"
    worst, where = 0.0, None
    for (name, x), (_, y) in zip(ours, theirs):
        scale = float(np.max(np.abs(x), initial=0.0)) or 1.0
        rel = float(np.max(np.abs(x - y), initial=0.0)) / scale
        if where is None or rel > worst:
            worst, where = rel, name
    return f"largest |d|/max|x| {worst:.3g} in {where}"


def first_difference(a: Path, b: Path) -> str:
    """The first line where two printed outputs differ."""
    ours, theirs = a.read_text().splitlines(), b.read_text().splitlines()
    for number, (x, y) in enumerate(zip(ours, theirs), start=1):
        if x != y:
            return f"line {number}: {x!r} against {y!r}"
    return f"one output ends at line {min(len(ours), len(theirs))}"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def package_lines(checkout: Path) -> int:
    """Newlines in the checkout's src/treeconv/*.py, as `wc -l` counts."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src" / "treeconv").glob("*.py"))


def compare(other: Path) -> bool:
    """Print one block per run; True when all runs are identical."""
    same = True
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for number, (name, args) in enumerate(_runs(work).items()):
            files = {}
            errors = []
            for tag, checkout in (("this", HERE), ("other", other),
                                  ("repeat", HERE)):
                files[tag] = work / f"{number}_{tag}.out"
                error = _run(checkout, args, files[tag])
                if error:
                    errors.append(f"{tag} checkout failed: {error}")
            print(name)
            if errors:
                same = False
                print("  " + "\n  ".join(errors))
                continue
            digest = {tag: _sha256(path) for tag, path in files.items()}
            explain = largest_difference if OUT in args else first_difference
            print(f"  this   {digest['this']}")
            print(f"  other  {digest['other']}")
            for label, tag in (("other checkout", "other"),
                               ("second run", "repeat")):
                if digest[tag] == digest["this"]:
                    print(f"  {label}: identical")
                else:
                    same = False
                    print(f"  {label}: differ, "
                          f"{explain(files['this'], files[tag])}")
    print(f"lines of src/treeconv/*.py: this {package_lines(HERE)}, "
          f"other {package_lines(other)}")
    return same


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    if not (other / "src" / "treeconv").is_dir():
        print(f"error: {other} has no src/treeconv", file=sys.stderr)
        return 2
    return 0 if compare(other) else 1


if __name__ == "__main__":
    sys.exit(main())
