"""Training configuration: the dataclass, the two published regimes, and
the sectioned key-value config-file reader used by the CLI."""

from __future__ import annotations

import configparser
from dataclasses import MISSING, dataclass, fields
from typing import Dict, Optional

from .errors import ConfigError
from .pooling import DEFAULT_ALPHA, GLOBAL, K_SLOT, THREE_SLOT

VARIANT_C = "c"
VARIANT_D = "d"


@dataclass
class TrainConfig:
    variant: str
    n_e: int
    n_c: int
    n_h: int
    classes: int
    batch_size: int = 200
    learning_rate: float = 0.01
    l2: float = 1e-5
    dropout_hidden: float = 0.0
    dropout_embed: float = 0.0
    max_epochs: int = 30
    pooling: Optional[str] = None  # None picks the variant default
    k: int = 2
    alpha: float = DEFAULT_ALPHA
    train_embeddings: bool = False
    use_subsentences: bool = True
    seed: int = 0

    def resolved_pooling(self) -> str:
        if self.pooling is not None:
            return self.pooling
        return THREE_SLOT if self.variant == VARIANT_C else K_SLOT

    def validate(self) -> "TrainConfig":
        if self.variant not in (VARIANT_C, VARIANT_D):
            raise ConfigError(f"variant must be 'c' or 'd', got {self.variant!r}")
        for name in ("n_e", "n_c", "n_h", "classes", "batch_size", "max_epochs"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        for name in ("dropout_hidden", "dropout_embed"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {rate}")
        if self.l2 < 0.0:
            raise ConfigError(f"l2 must be >= 0, got {self.l2}")
        if self.learning_rate <= 0.0:
            raise ConfigError(
                f"learning_rate must be positive, got {self.learning_rate}")
        pooling = self.resolved_pooling()
        if pooling not in (GLOBAL, THREE_SLOT, K_SLOT):
            raise ConfigError(f"unknown pooling strategy {pooling!r}")
        if pooling == THREE_SLOT and self.variant != VARIANT_C:
            raise ConfigError("3-slot pooling needs the constituency variant")
        if pooling == K_SLOT and self.variant != VARIANT_D:
            raise ConfigError("k-slot pooling needs the dependency variant")
        if pooling == K_SLOT and self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        return self


def sentiment_regime(variant: str, classes: int = 5, n_e: int = 300) -> TrainConfig:
    """Fine-grained sentiment settings: 300 convolution units, 200 hidden,
    batch 200, l2 1e-5, 50% hidden / 40% embedding dropout; 2-slot pooling
    for the dependency variant, 3-slot for constituency."""
    return TrainConfig(
        variant=variant, n_e=n_e, n_c=300, n_h=200, classes=classes,
        batch_size=200, l2=1e-5, dropout_hidden=0.5, dropout_embed=0.4,
        k=2, train_embeddings=(variant == VARIANT_D),
    ).validate()


def question_regime(variant: str, classes: int = 6, n_e: int = 300) -> TrainConfig:
    """Question-classification settings: 30 convolution units, 25 hidden,
    30% embedding / 5% hidden dropout, embeddings frozen."""
    return TrainConfig(
        variant=variant, n_e=n_e, n_c=30, n_h=25, classes=classes,
        dropout_hidden=0.05, dropout_embed=0.3, k=2,
        train_embeddings=False,
    ).validate()


_SECTION_FIELDS = {
    "model": ("variant", "n_e", "n_c", "n_h", "classes"),
    "training": ("batch_size", "learning_rate", "l2", "dropout_hidden",
                 "dropout_embed", "max_epochs", "train_embeddings",
                 "use_subsentences", "seed"),
    "pooling": ("pooling", "k", "alpha"),
}

# the annotations are strings, as `from __future__ import annotations` keeps them
_TYPES = {f.name: f.type for f in fields(TrainConfig)}
_REQUIRED = tuple(f.name for f in fields(TrainConfig) if f.default is MISSING)
# the value types a checkpoint may store for each annotation; any other
# field holds text or None (`validate` rejects a None variant)
_STORED = {"bool": (bool,), "int": (int,), "float": (int, float)}


def load_config_file(path) -> Dict[str, object]:
    """Read a sectioned key-value file into TrainConfig field values.

    Sections are [model], [training] and [pooling]; unknown sections or
    keys raise ConfigError so typos never silently fall back to
    defaults.
    """
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}")
    except configparser.Error as e:
        raise ConfigError(f"malformed config file {path}: {e}")

    values: Dict[str, object] = {}
    for section in parser.sections():
        if section not in _SECTION_FIELDS:
            raise ConfigError(f"unknown config section [{section}] in {path}")
        for key in parser[section]:
            if key not in _SECTION_FIELDS[section]:
                raise ConfigError(
                    f"unknown key {key!r} in section [{section}] of {path}"
                )
            raw = parser[section][key]
            try:
                if _TYPES[key] == "bool":
                    values[key] = parser[section].getboolean(key)
                else:
                    read = {"int": int, "float": float}.get(_TYPES[key], str)
                    values[key] = read(raw)
            except ValueError:
                raise ConfigError(f"bad value for {key!r} in {path}: {raw!r}")
    return values


def make_train_config(file_values: Dict[str, object],
                      overrides: Optional[Dict[str, object]] = None) -> TrainConfig:
    """Combine config-file values with CLI overrides (overrides win)."""
    merged = dict(file_values)
    if overrides:
        merged.update({k: v for k, v in overrides.items() if v is not None})
    missing = [name for name in _REQUIRED if name not in merged]
    if missing:
        raise ConfigError(f"config is missing required fields: {missing}")
    unknown = set(merged) - set(_TYPES)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return TrainConfig(**merged).validate()


def config_to_dict(config: TrainConfig) -> Dict[str, object]:
    return {f.name: getattr(config, f.name) for f in fields(TrainConfig)}


def config_from_dict(values: Dict[str, object]) -> TrainConfig:
    """The inverse of `config_to_dict`; every field must have the type
    that it writes."""
    if not isinstance(values, dict):
        raise ConfigError("checkpoint config is not a mapping")
    unknown = set(values) - set(_TYPES)
    if unknown:
        raise ConfigError(f"checkpoint config has unknown fields: {sorted(unknown)}")
    missing = [name for name in _REQUIRED if name not in values]
    if missing:
        raise ConfigError(f"checkpoint config is missing fields: {missing}")
    for name, value in values.items():
        if type(value) not in _STORED.get(_TYPES[name], (str, type(None))):
            raise ConfigError(f"checkpoint config field {name!r} has a value "
                              f"of the wrong type: {value!r}")
    return TrainConfig(**values).validate()
