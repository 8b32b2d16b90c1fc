"""Bag-level aggregation of per-instance class probabilities.

Three aggregators turn one task's InstanceGrid into a bag prediction: Mean
(masked mean), Max (masked per-class maximum, renormalized) and Quantile
(quantile-function pooling with a learned softmax head per task). Each is
one object behind the interface of Aggregator: the pooling task_grids runs
for it, forward and an exact backward, the heads and parameter group it
trains, and what a checkpoint records of it. make_aggregator maps a
config's kind string to its object. The backward passes of Max and
Quantile route each class's gradient to the instances that achieved the
pooled values, so background instances never receive gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .layers import ParamGroup, channel_slices, instance_softmax, instance_softmax_backward

AGGREGATOR_KINDS = ("max", "mean", "quantile")  # a kind's index is its checkpoint code


@dataclass
class InstanceGrid:
    """Flat per-instance class distributions with a foreground mask.

    probs has shape (N, C); mask has shape (N,) with at least one foreground
    entry; grid_shape records the (h, w) spatial layout with h*w == N.
    fg_idx holds the flat indices of the foreground instances. pooled is
    set on the grids of task_grids with quantile pooling, which Quantile
    reads: this grid's columns of the bag's one quantile_pool.
    """

    probs: np.ndarray
    mask: np.ndarray
    grid_shape: tuple
    fg_idx: np.ndarray
    pooled: tuple | None = None  # (values, achievers), each (Q, C)

    @property
    def num_classes(self) -> int:
        return self.probs.shape[1]


def task_grids(probs_hwc: np.ndarray, mask_hw: np.ndarray, class_counts,
               num_quantiles: int | None) -> list:
    """Split one bag's instance distributions into one InstanceGrid per task.

    probs_hwc holds every task's channels in the order of class_counts. The
    grids are column views of it sharing one boolean mask and one foreground
    index array. Every task's rows must be finite, not negative and sum to
    1 within 1e-4; this is checked once for all tasks. Given num_quantiles
    (an aggregator's, None for none), one quantile_pool over every task's
    columns fills each grid's pooled.
    """
    h, w, c = probs_hwc.shape
    if mask_hw.shape != (h, w):
        raise ValueError(f"mask shape {mask_hw.shape} does not match grid {(h, w)}")
    probs = probs_hwc.reshape(h * w, c)
    mask = mask_hw.reshape(h * w).astype(bool)
    fg_idx = mask.nonzero()[0]  # np.flatnonzero without its wrapper
    if fg_idx.size == 0:
        raise ValueError("instance grid has no foreground instances")
    # The extremes are read at argmin and argmax, plain C methods where
    # ndarray.min and ndarray.max are ufunc reductions of ~2 us on a crop's
    # few values. Both index the first nan when there is one, and a nan
    # fails either comparison. +inf is rejected here too: in the sum
    # product below inf * 0 is nan, which numpy reports as a warning.
    if not (probs.item(probs.argmin()) >= 0 and probs.item(probs.argmax()) < np.inf):
        raise ValueError("instance probabilities must be finite and not negative")
    class_counts = tuple(class_counts)
    # one matrix product sums every task's channels; a last-axis sum of a
    # few channels costs a call per instance
    error = probs @ _task_of_channel(class_counts, probs.dtype)
    error -= 1.0
    np.abs(error, out=error)
    if not error.item(error.argmax()) <= 1e-4:
        raise ValueError("instance distributions must sum to 1")
    grid_shape = (h, w)
    if num_quantiles is None:
        return [InstanceGrid(probs[:, sl], mask, grid_shape, fg_idx)
                for sl in _channel_slices(class_counts)]
    values, achievers = quantile_pool(InstanceGrid(probs, mask, grid_shape, fg_idx),
                                      num_quantiles)
    return [
        InstanceGrid(probs[:, sl], mask, grid_shape, fg_idx, (values[:, sl], achievers[:, sl]))
        for sl in _channel_slices(class_counts)
    ]


@lru_cache(maxsize=32)
def _channel_slices(class_counts: tuple) -> tuple:
    return tuple(channel_slices(class_counts))


@lru_cache(maxsize=32)
def _task_of_channel(class_counts: tuple, dtype) -> np.ndarray:
    """Read-only (channels, tasks) 0/1 matrix: column t is 1 on task t's channels."""
    matrix = np.zeros((sum(class_counts), len(class_counts)), dtype=dtype)
    for t, sl in enumerate(channel_slices(class_counts)):
        matrix[sl, t] = 1
    matrix.flags.writeable = False
    return matrix


@lru_cache(maxsize=32)
def _window_band(grid: int, side: int, r: int, d: int) -> np.ndarray:
    """Read-only (grid, side) float32 0/1 matrix: row i is 1 on [i*d, i*d + r)."""
    start = d * np.arange(grid)[:, None]
    pixel = np.arange(side)
    band = ((pixel >= start) & (pixel < start + r)).astype(np.float32)
    band.flags.writeable = False
    return band


def downscale_mask(full_mask: np.ndarray, model) -> np.ndarray:
    """Downscale a pixel mask to the model's instance grid.

    A grid cell is foreground iff at least half of the pixels in its
    receptive field are foreground; if that leaves no foreground cell, the
    cell with the largest foreground fraction is set instead.

    Cell (i, j) sees pixels [i*d, i*d + r) x [j*d, j*d + r), so the window
    counts are band_h @ mask @ band_w.T with one 0/1 band matrix per axis.
    The float32 product is exact: for a 0/1 mask every partial sum is an
    integer of at most r * r (81 for the default trunk), far below 2**24,
    so no sum is rounded whatever order BLAS adds in.
    """
    H, W = full_mask.shape
    r = model.receptive_field
    d = model.downsample
    band_h = _window_band(model.grid_side(H), H, r, d)
    band_w = _window_band(model.grid_side(W), W, r, d)
    counts = np.dot(np.dot(band_h, full_mask.astype(np.float32)), band_w.T)
    # 2 * count >= r * r on exact integer counts, as a uint8 view of the bool
    half = r * r / 2
    grid = np.greater_equal(counts, half).view(np.uint8)
    peak = counts.argmax()  # the first cell of largest count
    if counts.item(peak) < half:  # no cell is foreground
        grid.flat[peak] = 1
    return grid


# --- quantile pooling -----------------------------------------------------


def quantile_ranks(num_foreground: int, num_quantiles: int) -> np.ndarray:
    """1-based sorted ranks ceil(N*(q-0.5)/Q) for q = 1..Q, in exact integers."""
    q = np.arange(1, num_quantiles + 1, dtype=np.int64)
    return (num_foreground * (2 * q - 1) + 2 * num_quantiles - 1) // (2 * num_quantiles)


@lru_cache(maxsize=256)
def _rank_index(num_foreground: int, num_quantiles: int) -> np.ndarray:
    """Read-only 0-based quantile_ranks, the sorted positions pooling samples.

    They depend only on (N, Q), and computing them takes several small
    array operations, more than pooling a crop's few instances.
    """
    index = quantile_ranks(num_foreground, num_quantiles) - 1
    index.flags.writeable = False
    return index


@lru_cache(maxsize=32)
def _columns(count: int) -> np.ndarray:
    """Read-only np.arange(count): the column index of a per-class gather or scatter."""
    index = np.arange(count)
    index.flags.writeable = False
    return index


# Below this many foreground instances pooling orders the classes with one
# stable argsort, from it on with one sort of int64 keys: on 4 classes the
# argsort took 5-15 us up to 144 instances against 13-18 us for the keys,
# and 20 against 18 us at 196 (2-core x86-64, numpy 2.4).
KEYED_SORT_MIN_INSTANCES = 160


def quantile_pool(grid: InstanceGrid, num_quantiles: int):
    """Extract per-class quantile values from the foreground instances.

    For each class the foreground values are ordered ascending, ties broken
    by flat instance index as a stable sort breaks them, and sampled at the
    quantile ranks. Returns (values, achievers) of shape (Q, C). The values
    must be finite and not negative, as task_grids checks.

    A few instances, as in a training crop, and values of any dtype but
    float32 are ordered by one stable argsort of every class's values. From
    KEYED_SORT_MIN_INSTANCES on, float32 classes are ordered by one sort of
    int64 keys, one per class and foreground instance: the value's bits in
    the high 32 bits, which order like the value when it is finite and not
    negative and -0.0 is made +0.0, and the instance's position in the
    foreground in the low 32 bits. The keys are unique, so a plain sort
    orders them exactly as a stable argsort of the values would, ties
    broken by flat index.

    The sorted positions sampled depend only on (N, Q) and are read from a
    cache (_rank_index).
    """
    if num_quantiles < 1:
        raise ValueError("need at least one quantile")
    probs = grid.probs
    fg_idx = grid.fg_idx
    n = fg_idx.size
    # take gathers whole rows, ~10x faster than probs[fg_idx] at 256 px
    cols = probs.take(fg_idx, axis=0).T  # (C, n)
    if n < KEYED_SORT_MIN_INSTANCES or cols.dtype != np.float32:
        rows = cols.argsort(axis=1, kind="stable")[:, _rank_index(n, num_quantiles)]
    else:
        image = (cols + np.float32(0.0)).view(np.uint32)  # -0.0 + 0.0 is +0.0
        keys = image.astype(np.int64, order="C")
        keys <<= 32
        keys |= np.arange(n)
        keys.sort(axis=1)
        rows = keys[:, _rank_index(n, num_quantiles)] & 0xFFFFFFFF  # (C, Q)
    achievers = fg_idx[rows.T]
    values = probs[achievers, _columns(probs.shape[1])]
    return values, achievers


# --- aggregators -----------------------------------------------------------


class Aggregator:
    """The one interface of Mean, Max and Quantile.

    num_quantiles is what task_grids pools for forward, or None. forward(grid,
    head) returns (bag, cache); backward(grid, cache, grad_bag, out) writes
    the gradient w.r.t. grid.probs into out, a zeroed array of its shape
    (possibly a column view), and returns (out, head_grads), head_grads
    being the head's gradient arrays, which it filled. init_heads
    returns one head per task and the ParamGroups, laid out by head_layout,
    that train them at lr_scale times the trunk's rate. This base class is
    the part of an aggregator without heads: its heads are None, it trains
    no group and its head_grads are empty.
    """

    kind = ""
    num_quantiles = None

    @property
    def meta(self) -> list:
        """The checkpoint header's aggregator meta: [index of kind in AGGREGATOR_KINDS, Q or 0]."""
        return [AGGREGATOR_KINDS.index(self.kind), self.num_quantiles or 0]

    def head_layout(self, task_class_counts) -> list:
        return []

    def init_heads(self, task_class_counts, lr_scale: float = 1.0, dtype=np.float32):
        return [None] * len(task_class_counts), []


class Mean(Aggregator):
    """Masked arithmetic mean of instance distributions per class."""

    kind = "mean"

    def forward(self, grid: InstanceGrid, head):
        denom = grid.fg_idx.size
        if denom == 0:
            raise ValueError("mean aggregation needs at least one foreground instance")
        return np.take(grid.probs, grid.fg_idx, axis=0).sum(axis=0) / denom, None

    def backward(self, grid: InstanceGrid, cache, grad_bag: np.ndarray, out: np.ndarray):
        out[grid.fg_idx] = grad_bag / grid.fg_idx.size
        return out, ()


class Max(Aggregator):
    """Per-class maximum over the foreground, renormalized to a distribution.

    Ties are broken toward the smallest flat instance index. The cache is
    (bag, class maxima, achieving instances).
    """

    kind = "max"

    def forward(self, grid: InstanceGrid, head):
        fg_idx = grid.fg_idx
        values = np.take(grid.probs, fg_idx, axis=0)
        local = values.argmax(axis=0)
        maxima = values[local, np.arange(grid.num_classes)]
        bag = maxima / maxima.sum()
        return bag, (bag, maxima, fg_idx[local])

    def backward(self, grid: InstanceGrid, cache, grad_bag: np.ndarray, out: np.ndarray):
        bag, maxima, achievers = cache
        inner = float(grad_bag @ bag)
        grad_maxima = (grad_bag - inner) / maxima.sum()
        out[achievers, np.arange(grid.num_classes)] = grad_maxima
        return out, ()


@dataclass(frozen=True)
class QuantileHead:
    """Learned softmax head over the concatenated per-class quantile vectors.

    Quantile.backward writes the head's gradients into grad_weights and
    grad_bias. Frozen: the arrays are views of the head group's params and
    grad (Quantile.init_heads), so they are updated in place and never
    rebound.
    """

    weights: np.ndarray  # (C, Q*C)
    bias: np.ndarray  # (C,)
    grad_weights: np.ndarray  # weights' shape and dtype
    grad_bias: np.ndarray  # bias' shape and dtype


class Quantile(Aggregator):
    """Quantile-function pooling with a learned softmax head per task.

    The bag prediction is the softmax of the head applied to the grid's
    pooled quantile values (grid.pooled, which task_grids fills with
    quantile_pool), concatenated class by class.
    The backward pass gives each pooled value's gradient entirely to the
    instance that achieved it (selection acts as an identity on the
    achiever); an instance achieving several quantiles accumulates their
    gradients. One np.add.at over the (achiever, class) pairs in (Q, C)
    order adds each instance's gradients in quantile order, as a per-class
    loop would. The cache is (head, achievers, pooled vector, bag).
    """

    kind = "quantile"

    def __init__(self, num_quantiles: int):
        self.num_quantiles = num_quantiles

    def forward(self, grid: InstanceGrid, head: QuantileHead):
        values, achievers = grid.pooled
        if values.shape[0] != self.num_quantiles:
            raise ValueError(
                f"grid pooled {values.shape[0]} quantiles, expected {self.num_quantiles}"
            )
        vec = values.T.reshape(-1)
        bag = instance_softmax(head.weights @ vec + head.bias)
        return bag, (head, achievers, vec, bag)

    def backward(self, grid: InstanceGrid, cache, grad_bag: np.ndarray, out: np.ndarray):
        head, achievers, vec, bag = cache
        # the bias gradient is the logit gradient
        grad_logits = instance_softmax_backward(bag, grad_bag, out=head.grad_bias)
        # np.outer's product, without its wrapper
        np.multiply(grad_logits[:, None], vec, out=head.grad_weights)
        grad_vec = head.weights.T @ grad_logits
        grad_values = grad_vec.reshape(grid.num_classes, self.num_quantiles).T
        np.add.at(out, (achievers, _columns(grid.num_classes)), grad_values)
        return out, (head.grad_weights, head.grad_bias)

    def head_layout(self, task_class_counts) -> list:
        q = self.num_quantiles
        return [shape for c in task_class_counts for shape in ((c, q * c), (c,))]

    def init_heads(self, task_class_counts, lr_scale: float = 1.0, dtype=np.float32):
        """Zero heads, weights then bias per task, viewing the one group that trains them."""
        group = ParamGroup("heads", self.head_layout(task_class_counts), lr_scale, dtype)
        v, g = group.views, group.grad_views
        heads = [QuantileHead(v[i], v[i + 1], g[i], g[i + 1]) for i in range(0, len(v), 2)]
        return heads, [group]


def make_aggregator(kind: str, num_quantiles: int) -> Aggregator:
    """The aggregator object of a kind string, the one place such a string is read.

    num_quantiles configures Quantile; the other kinds ignore it.
    """
    if kind == "quantile":
        return Quantile(num_quantiles)
    if kind == "mean":
        return Mean()
    if kind == "max":
        return Max()
    raise ValueError(f"unknown aggregator {kind!r}")


def aggregator_from_meta(meta) -> Aggregator:
    """The aggregator whose meta is meta; ValueError when no aggregator's is.

    Q must be 0 exactly for the kinds without heads.
    """
    code, quantiles = meta
    if code < len(AGGREGATOR_KINDS):
        aggregator = make_aggregator(AGGREGATOR_KINDS[code], quantiles)
        if aggregator.meta == [code, quantiles] and aggregator.num_quantiles != 0:
            return aggregator
    raise ValueError(f"checkpoint aggregator meta {list(meta)} records no aggregator")


# perfbench/tracer.py times every aggregator call by wrapping these two module
# attributes where trainer looks them up, so the trainer reaches the objects
# through them.


def aggregate_forward(grid: InstanceGrid, aggregator: Aggregator, head):
    return aggregator.forward(grid, head)


def aggregate_backward(grid: InstanceGrid, aggregator: Aggregator, cache,
                       grad_bag: np.ndarray, out: np.ndarray):
    return aggregator.backward(grid, cache, grad_bag, out)
