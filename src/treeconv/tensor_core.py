"""Dense float64 tensors with taped reverse-mode differentiation.

A value is a :class:`Tensor` of any rank, and a trainable leaf the
named Tensor that :func:`parameter` makes.  Every network in this
package builds its forward pass by recording primitive operations on a
:class:`Tape` and then calling :meth:`Tape.backward` once on the scalar
loss.  Gradients come back as a map keyed by the leaf tensors that were
created with ``requires_grad=True``; leaves the loss never touched are
simply absent from the map (and read as exactly zero through
:func:`grad_of`).  A map value is a dense ndarray, or a
:class:`RowGradient` for a matrix reached only through row lookups (an
embedding table), which holds one row per row the lookups touched;
:func:`grad_of` reads either as a dense array.  During the pass each
lookup hands every matrix it read one block of rows, repeats included,
and every sum runs in replay order.

The tape records whole-array operations, so one layer of a minibatch of
sentences is one record over the stacked n x d matrix of all their
nodes: `take_rows` (embedding lookup; rows of several matrices read as
if stacked), `edge_matmul` (X @ W.T plus a bias row: an affine layer,
and with edge products summed into destination rows the tree
convolution), `sum_rows` (a segment sum of rows), `segment_max`
(per-slot column maximum with winning rows, the pooling), `reshape`
and the row-wise `cross_entropy` (with each row's gold-class underflow
flag); elementwise `add`, `sub`, `mul`, `scale`, `relu`, `tanh` and
`sumsq` complete the set.  A tape made with ``record=False`` evaluates
the same operations and records nothing, which is how prediction runs.

All data is float64 and all operations are plain numpy, so identical
inputs produce bit-identical outputs.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ContractError, DivergenceError, ShapeError

GradientMap = Dict["Tensor", Union[np.ndarray, "RowGradient"]]


class Tensor:
    """A float64 array participating in a taped computation.

    Leaf tensors created with ``requires_grad=True`` act as trainable
    parameters; operation outputs inherit ``requires_grad`` from their
    inputs.  Tensors compare and hash by identity.
    """

    __slots__ = ("data", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: Optional[str] = None):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags.c_contiguous:  # 0-d arrays always are
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.name = name

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"{self._label()} is not a scalar")
        return float(self.data.reshape(()))

    def _label(self) -> str:
        return self.name if self.name else f"tensor{self.data.shape}"

    def __repr__(self) -> str:
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(name={self.name!r}, shape={self.data.shape}{grad})"


def parameter(data, name: str) -> Tensor:
    """A named trainable leaf."""
    return Tensor(data, requires_grad=True, name=name)


def by_name(*tensors: Optional[Tensor]) -> List[Tuple[str, Tensor]]:
    """(name, tensor) pairs in argument order, None skipped: a parameter
    container lists its tensors under the names `parameter` gave them."""
    return [(t.name, t) for t in tensors if t is not None]


def uniform_init(rng, shape) -> np.ndarray:
    """Uniform +-sqrt(6/(fan_in+fan_out)) draws for a weight matrix."""
    bound = np.sqrt(6.0 / (shape[0] + shape[1]))
    # the draws of rng.uniform(-bound, bound), scaled in place: 1.3x
    # faster on a 300 x 300 matrix
    draws = rng.random(shape)
    draws *= 2.0 * bound
    draws -= bound
    return draws


# entries (rows x width) up to which `_scatter_add` makes numpy's 2-D
# `np.add.at` call: below about 500 entries it costs less than the flat
# call and its index (at width 30, 240 entries: 3.5 against 4.7 us; 750
# entries: 7.9 against 6.0 us; at width 300, 1500 entries: 14.8 against
# 7.8 us; numpy 2.4, best of 15 timeit repeats on a 2-core Xeon)
FLAT_SCATTER = 512


def _scatter_add(out: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """out[rows] += values, where `rows` is an index array, `values` holds
    one row per index and a repeated row sums its values in order.

    Every row scatter on the tape runs here.  Above FLAT_SCATTER entries
    a C-contiguous `out` takes one 1-D `np.add.at` over its flat entries
    (row r, column j at r * width + j), which numpy runs several times
    faster than the 2-D call; both add entry by entry in index order, so
    the sums are the same bytes.
    """
    if values.size <= FLAT_SCATTER or out.ndim < 2 or not out.flags.c_contiguous:
        np.add.at(out, rows, values)
    else:
        width = out[0].size
        at = np.asarray(rows, dtype=np.intp)[:, None] * width + np.arange(width)
        np.add.at(out.reshape(-1), at.reshape(-1), values.reshape(-1))


@dataclass(eq=False)
class RowGradient:
    """Gradient of a matrix that is zero outside a few rows: row
    `indices[i]` of the dense gradient sums `rows[i]`, a repeated index
    its rows in order (:meth:`summed` makes the indices distinct)."""

    shape: Tuple[int, int]
    indices: np.ndarray
    rows: np.ndarray

    @staticmethod
    def joined(blocks: List["RowGradient"]) -> "RowGradient":
        """Blocks of one matrix as one block, in order."""
        return RowGradient(blocks[0].shape, np.concatenate([b.indices for b in blocks]),
                           np.concatenate([b.rows for b in blocks]))

    @property
    def nbytes(self) -> int:
        return self.indices.nbytes + self.rows.nbytes

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        _scatter_add(out, self.indices, self.rows)
        return out

    def summed(self) -> "RowGradient":
        """The same gradient with one row per distinct index."""
        indices, at = np.unique(self.indices, return_inverse=True)
        rows = np.zeros((len(indices),) + self.rows.shape[1:])
        _scatter_add(rows, at, self.rows)
        return RowGradient(self.shape, indices, rows)


def _add_grad(cur, g):
    """Sum `g`, a dense array or a :class:`RowGradient` block, into the
    running gradient `cur` (None, a dense array, or the blocks so far in a
    list, joined once when read) and return it.  Terms add in call order:
    a block joins the list or adds into a dense sum, and a dense term
    turns the list dense.  A first dense term is stored as `g + 0.0`."""
    if isinstance(g, RowGradient):
        if cur is None:
            return [g]
        if isinstance(cur, list):
            cur.append(g)
        else:
            _scatter_add(cur, g.indices, g.rows)
        return cur
    if cur is None:
        return g + 0.0
    if isinstance(cur, list):
        cur = RowGradient.joined(cur).dense()
    cur += g
    return cur


# rows per GEMM call in `edge_matmul`: OpenBLAS packs the rows of a call
# into buffers that stay resident, so one call over a 600-row QC-regime
# batch (n_e 300, n_c 30) left 2.35 MB of them, blocks of 128 rows
# 0.84 MB, at about the same speed (OpenBLAS 0.3.31, 2 threads, on a
# 2-core Xeon)
GEMM_ROWS = 128


def _row_blocks(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B, GEMM_ROWS rows of A at a time."""
    if len(A) <= GEMM_ROWS:
        return A @ B
    out = np.empty((len(A), B.shape[1]))
    for i in range(0, len(A), GEMM_ROWS):
        np.matmul(A[i:i + GEMM_ROWS], B, out=out[i:i + GEMM_ROWS])
    return out


def _summed_blocks(G: np.ndarray, X: np.ndarray) -> np.ndarray:
    """G.T @ X, summed over blocks of GEMM_ROWS rows."""
    out = G[:GEMM_ROWS].T @ X[:GEMM_ROWS]
    for i in range(GEMM_ROWS, len(G), GEMM_ROWS):
        out += G[i:i + GEMM_ROWS].T @ X[i:i + GEMM_ROWS]
    return out


def grad_of(grads: GradientMap, param: Tensor) -> np.ndarray:
    """Gradient of `param` from a backward pass as a dense array; exact
    zeros if unused."""
    g = grads.get(param)
    if g is None:
        return np.zeros_like(param.data)
    if isinstance(g, RowGradient):
        return g.dense()
    return g


def all_finite(arr: np.ndarray) -> bool:
    """Whether every entry of `arr` is finite, read off its min and max
    (NaN propagates through both), so no boolean copy of `arr` is made."""
    return arr.size == 0 or (math.isfinite(arr.min())
                             and math.isfinite(arr.max()))


def assert_finite(arr: np.ndarray, what: str = "array") -> None:
    if not all_finite(arr):
        raise ContractError(f"{what} contains non-finite entries")


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Stabilized softmax over the last axis (max subtraction): of a
    logit vector, or of every row of a logit matrix."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


# entries per slot above which `segment_max` reduces slot by slot (the
# two forms cost the same near 2000 on a 40-tree batch)
WIDE_SLOT = 2000


class Tape:
    """Ordered record of primitive operations for one forward pass.

    Operations are recorded only when an input requires gradients, so
    constant subgraphs cost nothing on the backward pass and parameters
    that never reach the loss receive no gradient entry at all.  With
    ``record=False`` nothing is recorded and no output requires
    gradients: a forward pass for prediction.
    """

    def __init__(self, record: bool = True):
        self.record = record
        self._records: List[Tuple[Tensor, Callable]] = []

    def __len__(self) -> int:
        return len(self._records)

    def _tracks(self, *inputs: Tensor) -> bool:
        """Whether an output of `inputs` requires gradients here."""
        return self.record and any(t.requires_grad for t in inputs)

    def _push(self, out: Tensor, backward: Callable) -> None:
        self._records.append((out, backward))

    # ------------------------------------------------------------------
    # primitive operations
    # ------------------------------------------------------------------

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.data.shape != b.data.shape:
            raise ShapeError(
                f"add: {a._label()} {a.data.shape} vs {b._label()} {b.data.shape}"
            )
        out = Tensor(a.data + b.data, requires_grad=self._tracks(a, b))
        if out.requires_grad:
            def backward(g, accum, a=a, b=b):
                if a.requires_grad:
                    accum(a, g)
                if b.requires_grad:
                    accum(b, g)
            self._push(out, backward)
        return out

    def sub(self, a: Tensor, b: Tensor) -> Tensor:
        if a.data.shape != b.data.shape:
            raise ShapeError(
                f"sub: {a._label()} {a.data.shape} vs {b._label()} {b.data.shape}"
            )
        out = Tensor(a.data - b.data, requires_grad=self._tracks(a, b))
        if out.requires_grad:
            def backward(g, accum, a=a, b=b):
                if a.requires_grad:
                    accum(a, g)
                if b.requires_grad:
                    accum(b, -g)
            self._push(out, backward)
        return out

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        """Elementwise product (used for dropout masks)."""
        if a.data.shape != b.data.shape:
            raise ShapeError(
                f"mul: {a._label()} {a.data.shape} vs {b._label()} {b.data.shape}"
            )
        out = Tensor(a.data * b.data, requires_grad=self._tracks(a, b))
        if out.requires_grad:
            def backward(g, accum, a=a, b=b):
                if a.requires_grad:
                    accum(a, g * b.data)
                if b.requires_grad:
                    accum(b, g * a.data)
            self._push(out, backward)
        return out

    def scale(self, x: Tensor, c: Union[float, np.ndarray]) -> Tensor:
        """x times a number, or times a column (one factor per row)."""
        out = Tensor(x.data * c, requires_grad=self._tracks(x))
        if out.requires_grad:
            def backward(g, accum, x=x, c=c):
                accum(x, g * c)
            self._push(out, backward)
        return out

    def relu(self, x: Tensor) -> Tensor:
        """max(0, x); the subgradient at exactly 0 is 0."""
        out = Tensor(np.maximum(x.data, 0.0), requires_grad=self._tracks(x))
        if out.requires_grad:
            def backward(g, accum, x=x):
                accum(x, g * (x.data > 0.0))
            self._push(out, backward)
        return out

    def tanh(self, x: Tensor) -> Tensor:
        out = Tensor(np.tanh(x.data), requires_grad=self._tracks(x))
        if out.requires_grad:
            y = out.data
            def backward(g, accum, x=x, y=y):
                accum(x, g * (1.0 - y * y))
            self._push(out, backward)
        return out

    def reshape(self, x: Tensor, shape) -> Tensor:
        """The same entries in a new shape (flatten with shape -1)."""
        out = Tensor(x.data.reshape(shape), requires_grad=self._tracks(x))
        if out.requires_grad:
            def backward(g, accum, x=x):
                accum(x, g.reshape(x.data.shape))
            self._push(out, backward)
        return out

    def take_rows(self, M: Union[Tensor, Sequence[Tensor]],
                  indices: Sequence[int]) -> Tensor:
        """Rows `indices` of a matrix, stacked (embedding lookup), or of
        a list of equal-width matrices read as if stacked in order.

        Indices that all fall in one matrix are one fancy index of it;
        otherwise every row is read from the last matrix any index
        falls in, clipped into it, and the other matrices' rows are
        written over theirs.  Each matrix read gets its rows' gradient
        as one :class:`RowGradient` block, so a matrix reached only
        through lookups keeps a row gradient.
        """
        mats = [M] if isinstance(M, Tensor) else list(M)
        width = mats[0].data.shape[1:]
        bounds = [0]  # matrix k holds the stacked rows bounds[k]:bounds[k + 1]
        for m in mats:
            if m.data.ndim != 2 or m.data.shape[1:] != width:
                raise ShapeError(f"take_rows: {m._label()} is not a matrix "
                                 f"of width {width}")
            bounds.append(bounds[-1] + len(m.data))
        idx = np.asarray(indices, dtype=np.intp)
        if idx.ndim != 1:
            raise ShapeError("take_rows: indices must be 1-D")
        first = last = 0  # the matrices of the least and the largest index
        if idx.size:
            lo, hi = int(idx.min()), int(idx.max())
            if not (0 <= lo and hi < bounds[-1]):
                raise ContractError(f"take_rows: row out of range for "
                                    f"{', '.join(m._label() for m in mats)}")
            first, last = bisect_right(bounds, lo) - 1, bisect_right(bounds, hi) - 1
        track = self._tracks(*mats)
        rows = idx - bounds[last] if bounds[last] else idx
        if first == last:  # one fancy index
            data, groups = mats[last].data[rows], [(mats[last], slice(None), rows)]
        else:
            data, groups = mats[last].data[np.maximum(rows, 0)], []
            for k in range(first, last + 1 if track else last):
                # no index lies below matrix `first` or past matrix `last`
                if k == first:
                    at = np.flatnonzero(idx < bounds[k + 1])
                elif k == last:
                    at = np.flatnonzero(idx >= bounds[k])
                else:
                    at = np.flatnonzero((idx >= bounds[k]) & (idx < bounds[k + 1]))
                rows = idx[at] - bounds[k] if bounds[k] else idx[at]
                if k < last:
                    data[at] = mats[k].data[rows]
                groups.append((mats[k], at, rows))
        out = Tensor(data, requires_grad=track)
        if out.requires_grad:
            def backward(g, accum, groups=groups):
                for m, at, rows in groups:
                    if m.requires_grad and rows.size:
                        accum(m, RowGradient(m.data.shape, rows, g[at]))
            self._push(out, backward)
        return out

    def edge_matmul(self, X: Tensor, W: Tensor, bias: Tensor,
                    edges: Sequence[Tuple[Tensor, np.ndarray, np.ndarray]] = ()
                    ) -> Tensor:
        """X @ W.T, plus the vector `bias` on every row, plus
        X[src] @ W_e.T added into rows `dst` for every edge term
        (W_e, src, dst).

        `src` and `dst` are equal-length index arrays; a repeated `dst`
        row sums its products.  Products run GEMM_ROWS rows at a time.
        The edge products (the convolution's child sum), and on the
        backward pass their rows of the gradient of `X`, add into place
        through `_scatter_add`.
        """
        if X.data.ndim != 2:
            raise ShapeError(f"edge_matmul: {X._label()} is not a matrix")
        width = W.data.shape[0]
        shape = (width, X.data.shape[1])
        for M in (W, *(W_e for W_e, _, _ in edges)):
            if M.data.shape != shape:
                raise ShapeError(
                    f"edge_matmul: {M._label()} {M.data.shape} does not map "
                    f"{X._label()} {X.data.shape} to width {width}"
                )
        if bias.data.shape != (width,):
            raise ShapeError(f"edge_matmul: bias {bias._label()} "
                             f"{bias.data.shape} does not fit width {width}")
        data = _row_blocks(X.data, W.data.T)
        for W_e, src, dst in edges:
            _scatter_add(data, dst, _row_blocks(X.data[src], W_e.data.T))
        data += bias.data
        out = Tensor(data, requires_grad=self.record and self._tracks(
            X, W, bias, *(W_e for W_e, _, _ in edges)))
        if out.requires_grad:
            def backward(g, accum, X=X, W=W, bias=bias, edges=tuple(edges)):
                if bias.requires_grad:
                    accum(bias, g.sum(axis=0))
                if W.requires_grad:
                    accum(W, _summed_blocks(g, X.data))
                dX = _row_blocks(g, W.data) if X.requires_grad else None
                for W_e, src, dst in edges:
                    g_dst = g[dst]
                    if W_e.requires_grad:
                        accum(W_e, _summed_blocks(g_dst, X.data[src]))
                    if dX is not None:
                        _scatter_add(dX, src, _row_blocks(g_dst, W_e.data))
                if dX is not None:
                    accum(X, dX)
            self._push(out, backward)
        return out

    def sum_rows(self, X: Tensor, into: Sequence[int], count: int) -> Tensor:
        """The (count, width) matrix whose row r sums, in order, the rows
        i of the matrix X with into[i] == r (zero where no i names r)."""
        into = np.asarray(into, dtype=np.intp)
        if X.data.ndim != 2 or into.shape != X.data.shape[:1]:
            raise ShapeError(f"sum_rows: {X._label()} needs one target per row")
        if into.size and not (0 <= into.min() and into.max() < count):
            raise ContractError("sum_rows: target row out of range")
        data = np.zeros((count, X.data.shape[1]))
        _scatter_add(data, into, X.data)
        out = Tensor(data, requires_grad=self._tracks(X))
        if out.requires_grad:
            def backward(g, accum, X=X, into=into):
                accum(X, g[into])
            self._push(out, backward)
        return out

    def segment_max(self, X: Tensor, slot_of: Sequence[int],
                    count: int) -> Tuple[Tensor, List[Optional[np.ndarray]]]:
        """Per-column maximum over the rows of each slot.

        Row `v` of `X` belongs to slot `slot_of[v]`.  Returns the
        (count, columns) pooled matrix and, per slot, the winning row of
        every column (ties resolve to the lowest row).  An empty slot
        pools to zeros and has winners None.  Gradient flows only to the
        winning entries.

        The rows are ordered by slot (a stable sort, skipped when
        `slot_of` is already non-decreasing), so each slot is one run of
        rows.  Narrow runs, of at most WIDE_SLOT entries per slot on
        average, all reduce together: one `reduceat` gives the column
        maxima and a second the lowest row not below them.  Wider runs
        take one `argmax` each, which keeps them in cache and costs less.
        """
        if X.data.ndim != 2:
            raise ShapeError(f"segment_max: {X._label()} is not a matrix")
        slots = np.asarray(slot_of, dtype=np.intp)
        if slots.shape != X.data.shape[:1]:
            raise ShapeError("segment_max: slot_of does not cover the rows")
        n, columns = X.data.shape
        cols = np.arange(columns)
        data = np.zeros((count, columns))
        winners: List[Optional[np.ndarray]] = [None] * count
        present = slots[:0]  # the non-empty slots, and their winning rows
        won = np.zeros((0, columns), dtype=np.intp)
        if n:
            order, ordered, by_slot = None, slots, X.data
            if (slots[1:] < slots[:-1]).any():
                order = slots.argsort(kind="stable")
                ordered, by_slot = slots[order], X.data[order]
            change = ordered[1:] != ordered[:-1]
            starts = np.zeros(change.sum() + 1, dtype=np.intp)
            starts[1:] = change.nonzero()[0] + 1
            present = ordered[starts]
            if X.data.size <= WIDE_SLOT * count:
                data[present] = np.maximum.reduceat(by_slot, starts, axis=0)
                # a run's first row not below its peak
                first = np.minimum.reduceat(
                    np.where(by_slot < data[ordered], n, np.arange(n)[:, None]),
                    starts, axis=0)
            else:
                ends = starts[1:].tolist() + [n]
                first = np.array([a + by_slot[a:b].argmax(axis=0)
                                  for a, b in zip(starts.tolist(), ends)])
                data[present] = by_slot[first, cols]
            won = first if order is None else order[first]  # (slots, columns)
            for slot, rows in zip(present.tolist(), won):
                winners[slot] = rows
        out = Tensor(data, requires_grad=self._tracks(X))
        if out.requires_grad:
            def backward(g, accum, X=X, present=present, won=won):
                dX = np.zeros_like(X.data)
                dX[won, cols] = g[present]
                accum(X, dX)
            self._push(out, backward)
        return out, winners

    def sumsq(self, x: Tensor) -> Tensor:
        """Sum of squared entries, as a scalar."""
        out = Tensor(np.sum(x.data * x.data), requires_grad=self._tracks(x))
        if out.requires_grad:
            def backward(g, accum, x=x):
                accum(x, 2.0 * float(g) * x.data)
            self._push(out, backward)
        return out

    def cross_entropy(self, logits: Tensor, gold: Sequence[int]
                      ) -> Tuple[Tensor, np.ndarray, np.ndarray]:
        """-log softmax(row)[gold] of every row of a (rows, classes)
        logit matrix, computed in stabilized log space.

        Returns the summed loss as a scalar tensor, the per-row values,
        and per row whether the gold class's softmax probability (the
        quotient `softmax_probs` computes) underflowed to 0.
        """
        if logits.data.ndim != 2:
            raise ShapeError(f"cross_entropy: {logits._label()} is not a matrix")
        z = logits.data
        rows = np.arange(z.shape[0])
        gold = np.asarray(gold, dtype=np.intp)
        if gold.shape != rows.shape:
            raise ShapeError(f"cross_entropy: {gold.size} gold classes for "
                             f"{rows.size} rows of {logits._label()}")
        bad = (gold < 0) | (gold >= z.shape[1])
        if bad.any():
            raise ContractError(
                f"cross_entropy: gold class {gold[bad][0]} out of range "
                f"[0, {z.shape[1]})"
            )
        m = z.max(axis=1, keepdims=True)
        e = np.exp(z - m)
        total = e.sum(axis=1, keepdims=True)
        probs = e / total
        values = (np.log(total) + m)[:, 0] - z[rows, gold]
        out = Tensor(values.sum(), requires_grad=self._tracks(logits))
        if out.requires_grad:
            def backward(g, accum, logits=logits, probs=probs):
                d = probs.copy()
                d[rows, gold] -= 1.0
                accum(logits, float(g) * d)
            self._push(out, backward)
        return out, values, probs[rows, gold] == 0.0

    # ------------------------------------------------------------------
    # reverse pass
    # ------------------------------------------------------------------

    def backward(self, loss: Tensor) -> GradientMap:
        """Accumulate d(loss)/d(leaf) for every trainable leaf reached.

        Replays the recorded operations in reverse exactly once.  The map
        is keyed by leaf Tensor.  A leaf reached only through `take_rows`
        gets a :class:`RowGradient`, one row per touched index summed in
        replay order; any other leaf gets a dense ndarray.  Leaves the
        loss does not depend on are absent.  Read through :func:`grad_of`.
        """
        if not isinstance(loss, Tensor) or loss.data.size != 1:
            raise ContractError("backward: loss must be a scalar tensor")
        grads: Dict[Tensor, object] = {loss: np.ones_like(loss.data)}

        def accum(t: Tensor, g) -> None:
            grads[t] = _add_grad(grads.get(t), g)

        for out, backward_fn in reversed(self._records):
            g = grads.pop(out, None)
            if g is None:
                continue
            if isinstance(g, list):
                g = RowGradient.joined(g).dense()
            backward_fn(g, accum)

        return {t: RowGradient.joined(g).summed() if isinstance(g, list) else g
                for t, g in grads.items() if t.requires_grad}


def iter_batches(n: int, batch_size: int, rng) -> Iterator[np.ndarray]:
    """Seeded per-epoch shuffle cut into batches; covers each index once."""
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


# nodes per `node_groups` group (a larger item goes alone): this bounds
# the memory of a scoring pass, and larger groups run no faster
EVAL_NODES = 1024


def node_groups(items: Sequence) -> Iterator[list]:
    """Consecutive items of up to EVAL_NODES nodes (`len`) in all."""
    group, nodes = [], 0
    for item in items:
        if group and nodes + len(item) > EVAL_NODES:
            yield group
            group, nodes = [], 0
        group.append(item)
        nodes += len(item)
    if group:
        yield group


def _l2_value(matrices: Sequence[Tensor], lam: float) -> float:
    return lam * sum(float(np.sum(W.data * W.data)) for W in matrices)


def l2_penalty(matrices: Sequence[Tensor],
               lam: float) -> Tuple[float, GradientMap]:
    """lam * sum of squared entries of `matrices`, and its gradient
    2 * lam * W per matrix (an empty map when lam is 0)."""
    if lam == 0.0:
        return 0.0, {}
    return _l2_value(matrices, lam), {W: 2.0 * lam * W.data for W in matrices}


def sgd_epoch(samples: Sequence, batch_loss: Callable,
              params: Sequence[Tuple[str, Tensor]], lr: float,
              batch_size: int, rng, epoch: int = 1,
              decayed: Sequence[Tensor] = (), lam: float = 0.0,
              loss_bound: float = math.inf) -> float:
    """One seeded pass of minibatch SGD over `samples`; returns the
    summed loss, with the l2 penalty counted once per sample.

    `batch_loss(tape, batch)` records the loss of a list of samples on
    one fresh tape and returns (loss node or None, loss values that sum
    to the batch's loss, weight count).  A batch steps each parameter by
    `lr` times the gradient of that node over the weight count (a batch
    without a node or counting 0 is skipped), plus 2 * lam * W of the
    pre-step weights for the matrices in `decayed`, one matrix at a
    time.  A parameter whose gradient is a row gradient and that is not
    decayed only has its touched rows written.  Raises DivergenceError
    at the first batch whose mean sample loss exceeds `loss_bound`,
    before its update, and after the first batch that leaves the loss or
    a parameter non-finite (the loss is finite until then, so the
    running sum shows it).  The first update checks every parameter in
    full; later ones check a row-written parameter on the rows they
    wrote, as its other rows have not changed since they were checked.
    """
    decay = set(decayed) if lam != 0.0 else set()
    checked = False  # whether every parameter was checked in full
    total = 0.0
    for number, batch in enumerate(iter_batches(len(samples), batch_size,
                                                rng), start=1):
        tape = Tape()
        node, values, count = batch_loss(tape, [samples[int(i)] for i in batch])
        batch_sum = 0.0
        for value in values:
            total += value
            batch_sum += value
        if batch_sum > loss_bound * len(batch):
            raise DivergenceError(
                f"training diverged in epoch {epoch}, batch {number}: mean "
                f"loss {batch_sum / len(batch):g} exceeds {loss_bound:g}")
        if node is None or count == 0:
            continue
        grads = tape.backward(node)
        tape = node = None  # free the batch's records before the update
        if decay:
            total += len(batch) * _l2_value(decayed, lam)
        written = {}  # row-written parameter -> the rows written
        for _, p in params:
            step = grads.pop(p, None)
            if isinstance(step, RowGradient):
                if p not in decay:
                    step.rows *= lr / count
                    p.data[step.indices] -= step.rows
                    written[p] = step.indices
                    continue
                step = step.dense()
            elif step is None:
                step = np.zeros_like(p.data)
            step *= lr / count
            if p in decay:  # lr * (2 * lam * W), in place
                shrink = np.multiply(p.data, 2.0 * lam)
                shrink *= lr
                step += shrink
            p.data -= step
        bad = [name for name, p in params if not all_finite(
            p.data[written[p]] if checked and p in written else p.data)]
        checked = True
        if bad or not math.isfinite(total):
            raise DivergenceError(
                f"training diverged in epoch {epoch}, batch {number}: loss "
                f"{total:g}, non-finite parameters: {', '.join(bad) or 'none'}")
    return total
