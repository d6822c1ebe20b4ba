"""Fully connected hidden layer plus softmax output over pooled slots,
with the cross-entropy training loss and the 5-way-to-binary transfer.
A minibatch goes through as one matrix, one row per sample.  The l2
penalty is applied in the update (see tensor_core.sgd_epoch)."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor_core import (
    Tape,
    Tensor,
    by_name,
    parameter,
    softmax_probs,
    uniform_init,
)

log = logging.getLogger(__name__)

@dataclass
class HeadParams:
    W_h: Tensor  # (n_h, slot_count * n_c)
    b_h: Tensor  # (n_h,)
    W_o: Tensor  # (classes, n_h)
    b_o: Tensor  # (classes,)

    def named(self) -> List[Tuple[str, Tensor]]:
        return by_name(self.W_h, self.b_h, self.W_o, self.b_o)


def init_head(n_h: int, in_width: int, classes: int, rng) -> HeadParams:
    return HeadParams(
        W_h=parameter(uniform_init(rng, (n_h, in_width)), "head.W_h"),
        b_h=parameter(np.zeros(n_h), "head.b_h"),
        W_o=parameter(uniform_init(rng, (classes, n_h)), "head.W_o"),
        b_o=parameter(np.zeros(classes), "head.b_o"),
    )


@dataclass
class PredictionOutput:
    probabilities: np.ndarray
    predicted: int
    note: Optional[str] = None


@dataclass
class LossValue:
    """Cross entropy of a batch: the sum, and per row the value and
    whether the gold-class probability underflowed to 0."""

    cross_entropy: float
    per_row: np.ndarray
    clamped: np.ndarray
    node: Optional[Tensor] = None  # tape scalar of the sum, for backward


def forward(tape: Tape, x: Tensor, params: HeadParams,
            hidden_mask: Optional[np.ndarray] = None) -> Tensor:
    """Logits of every row of `x`: h = ReLU(x.W_h^T + b_h) and
    logits = h.W_o^T + b_o, two row GEMMs for the whole batch.

    Row b of the (B, slot_count * n_c) matrix `x` is sample b's pooled
    slots flattened slot by slot.  `hidden_mask` is a (B, n_h)
    inverted-dropout mask when training; pass None when evaluating.
    """
    if x.data.ndim != 2 or params.W_h.data.shape[1] != x.data.shape[1]:
        raise ShapeError(
            f"head expects input rows of width {params.W_h.data.shape[1]}, "
            f"got pooled slots of shape {x.data.shape}"
        )
    h = tape.relu(tape.edge_matmul(x, params.W_h, params.b_h))
    if hidden_mask is not None:
        h = tape.mul(h, Tensor(hidden_mask))
    return tape.edge_matmul(h, params.W_o, params.b_o)


def predictions(logits: np.ndarray) -> List[PredictionOutput]:
    """One prediction per logit row; softmax with max subtraction, ties
    to the lowest class."""
    probs = softmax_probs(logits)
    return [PredictionOutput(probabilities=p, predicted=c)
            for p, c in zip(probs, probs.argmax(axis=1).tolist())]


def loss(tape: Tape, logits: Tensor, gold: Sequence[int]) -> LossValue:
    """Cross entropy of each row's gold class, recorded on `tape` as one
    summed node.

    It is evaluated in log space, so even a fully saturated softmax stays
    finite; a gold probability that underflowed to zero is flagged per
    row (the trainers count the flags, see :func:`warn_underflow`).
    """
    total, per_row, clamped = tape.cross_entropy(logits, gold)
    return LossValue(cross_entropy=total.item(), per_row=per_row,
                     clamped=clamped, node=total)


def warn_underflow(epoch: int, clamped: int, total: int) -> None:
    """One warning for an epoch in which `clamped` of `total` samples had
    their gold-class probability underflow to 0; silent when none did."""
    if clamped:
        log.warning("epoch %d: gold-class probability underflowed to 0 in "
                    "%d of %d samples; cross entropy kept finite via "
                    "log-space evaluation", epoch, clamped, total)


def transfer_5_to_2(probabilities: np.ndarray) -> PredictionOutput:
    """Reinterpret a 5-way sentiment distribution as binary.

    Class order is (strongly negative, negative, neutral, positive,
    strongly positive); neutral mass is discarded, the rest renormalized.
    Ties predict negative (lowest index).
    """
    p = np.asarray(probabilities, dtype=np.float64)
    if p.shape != (5,):
        raise ShapeError(f"transfer expects a 5-class distribution, got {p.shape}")
    negative = p[0] + p[1]
    positive = p[3] + p[4]
    mass = negative + positive
    note = None
    if mass == 0.0:
        pair = np.array([0.5, 0.5])
        note = "all non-neutral mass is zero; tie broken to negative"
        log.warning(note)
    else:
        pair = np.array([negative / mass, positive / mass])
    return PredictionOutput(probabilities=pair,
                            predicted=int(np.argmax(pair)),
                            note=note)


def dropout_mask(draws: np.ndarray, rate: float) -> np.ndarray:
    """Inverted-dropout mask for training from uniform [0, 1) `draws`:
    0 with probability `rate`, else 1/(1-rate), so no rescaling is ever
    needed at prediction time (evaluation draws no mask)."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    return (draws >= rate) * (1.0 / (1.0 - rate))
