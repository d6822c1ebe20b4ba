"""Self-describing model checkpoints.

Layout: an ASCII magic line, the byte length of a JSON header, the
header itself (names, shapes, config, vocabulary, relation inventory),
then one contiguous little-endian float64 payload per array in header
order.  Loading needs no external configuration: it builds the model the
stored config describes through `network.init_model`, so the init
functions are the only owner of the parameter layout, and checks every
stored array's name and shape against it.  Identical models save to
identical bytes.
"""

from __future__ import annotations

import json
from typing import List, Tuple

import numpy as np

from .config import VARIANT_C, VARIANT_D, config_from_dict, config_to_dict
from .corpus_io import DepTypeInventory, EmbeddingTable, Vocabulary
from .errors import ConfigError, FormatError
from .network import SentenceClassifier, init_model
from .rae_pretrain import init_composition
from .tensor_core import assert_finite

MAGIC = b"treeconv-checkpoint\n"
FORMAT_VERSION = 1
_HEADER_KEYS = ("variant", "config", "label_names", "vocabulary", "inventory",
                "has_rae", "arrays")


def _array_entries(model: SentenceClassifier) -> List[Tuple[str, np.ndarray]]:
    entries = [(name, t.data) for name, t in model.params.named()
               if t is not model.params.embeddings]
    if model.rae is not None:
        entries.extend((name, t.data) for name, t in model.rae.named())
    entries.append(("table", model.table.vectors))
    return entries


def save_checkpoint(model: SentenceClassifier, path) -> None:
    entries = _array_entries(model)
    for name, arr in entries:
        assert_finite(arr, f"checkpoint array {name}")
    header = {
        "format_version": FORMAT_VERSION,
        "variant": model.config.variant,
        "config": config_to_dict(model.config),
        "label_names": model.label_names,
        "vocabulary": {
            "tokens": model.vocab.tokens_in_order(),
            "unk_index": model.vocab.unk_index,
        },
        "inventory": None if model.inventory is None else {
            "dedicated": list(model.inventory.dedicated),
        },
        "has_rae": model.rae is not None,
        "train_embeddings_stored": model.params.embeddings is not None,
        "arrays": [{"name": name, "shape": list(arr.shape)}
                   for name, arr in entries],
    }
    blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(f"{len(blob)}\n".encode("ascii"))
        fh.write(blob)
        fh.write(b"\n")
        for _, arr in entries:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> SentenceClassifier:
    """Build the model the stored config describes, one
    :class:`SentenceClassifier` as `trainer.train` returns, then fill its
    arrays from the payload.  The stored arrays must carry that model's
    names, in order, and its shapes; any mismatch is a FormatError
    naming the file and the array.  A model that trains its embeddings
    stores them once, as its whole table; loaded, its embedding
    parameter holds every row, so `init_model` makes its `base_table`,
    and so its `table`, that parameter's array."""
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise FormatError(f"{path} is not a treeconv checkpoint")
        length_line = fh.readline()
        try:
            header_len = int(length_line.strip())
        except ValueError:
            raise FormatError(f"{path}: malformed header length")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            header = None
        if not isinstance(header, dict):
            raise FormatError(f"{path}: malformed checkpoint header")
        if fh.read(1) != b"\n":
            raise FormatError(f"{path}: header/payload separator missing")

        version = header.get("format_version")
        if version != FORMAT_VERSION:
            raise FormatError(
                f"{path}: checkpoint format version {version} is not "
                f"supported (expected {FORMAT_VERSION})"
            )

        model = _model_for_header(header, path)
        entries = _array_entries(model)
        stored = [spec["name"] for spec in header["arrays"]]
        expected = [name for name, _ in entries]
        if stored != expected:
            missing = [n for n in expected if n not in stored]
            unknown = [n for n in stored if n not in expected]
            raise FormatError(
                f"{path}: stored arrays do not match the "
                f"{model.config.variant}-model layout "
                f"(missing {missing}, unknown {unknown})"
            )
        for spec, (name, target) in zip(header["arrays"], entries):
            shape = tuple(spec["shape"])
            if shape != target.shape:
                raise FormatError(f"{path}: array {name} is stored as {shape}, "
                                  f"the stored config needs {target.shape}")
            raw = fh.read(target.nbytes)
            if len(raw) != target.nbytes:
                raise FormatError(f"{path}: truncated payload at {name}")
            target[...] = np.frombuffer(raw, dtype="<f8").reshape(shape)
        if fh.read(1) != b"":
            raise FormatError(f"{path}: trailing bytes after payload")
    return model


def _strings(v) -> bool:
    return isinstance(v, list) and all(isinstance(s, str) for s in v)


# what `save_checkpoint` writes under each header key the loader reads
_HEADER_VALUES = {
    "vocabulary": lambda v: (isinstance(v, dict) and _strings(v.get("tokens"))
                             and len(set(v["tokens"])) == len(v["tokens"])
                             and type(v.get("unk_index")) is int
                             and v["unk_index"] == len(v["tokens"])),
    "inventory": lambda v: v is None or (isinstance(v, dict)
                                         and _strings(v.get("dedicated"))),
    "label_names": lambda v: v is None or _strings(v),
    "has_rae": lambda v: type(v) is bool,
    "arrays": lambda v: isinstance(v, list) and all(
        isinstance(a, dict) and isinstance(a.get("name"), str)
        and isinstance(a.get("shape"), list)
        and all(type(d) is int and d >= 0 for d in a["shape"]) for a in v),
}


def _model_for_header(header, path) -> SentenceClassifier:
    """A freshly initialised model of the stored layout, its arrays to be
    overwritten by the payload."""
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise FormatError(f"{path}: checkpoint header lacks {missing}")
    bad = [key for key, ok in _HEADER_VALUES.items() if not ok(header[key])]
    if bad:
        raise FormatError(f"{path}: malformed header value {bad[0]!r}")
    try:
        config = config_from_dict(header["config"])
    except ConfigError as e:
        raise FormatError(f"{path}: stored config is invalid: {e}")
    if header["variant"] != config.variant:
        raise FormatError(f"{path}: variant tag disagrees with config")
    if config.variant == VARIANT_C and not header["has_rae"]:
        raise FormatError(f"{path}: constituency checkpoint lacks "
                          f"composition params")

    vocab = Vocabulary(
        index={tok: i for i, tok in enumerate(header["vocabulary"]["tokens"])},
        unk_index=header["vocabulary"]["unk_index"],
    )
    inventory = None
    if header["inventory"] is not None:
        dedicated = tuple(header["inventory"]["dedicated"])
        inventory = DepTypeInventory(
            slot_ids={rel: i for i, rel in enumerate(dedicated)},
            shared_slot=len(dedicated),
            dedicated=dedicated,
        )
    elif config.variant == VARIANT_D:
        raise FormatError(f"{path}: dependency checkpoint lacks inventory")

    rng = np.random.default_rng(0)
    table = EmbeddingTable(np.zeros((len(vocab), config.n_e)))
    params = init_model(config, table, inventory, rng)
    rae = init_composition(config.n_e, rng) if header["has_rae"] else None
    return SentenceClassifier(config, params, inventory=inventory, rae=rae,
                              vocab=vocab, label_names=header["label_names"])
