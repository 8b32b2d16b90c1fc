"""Bag-level aggregation of per-instance class probabilities.

Three aggregators turn an instance probability grid into a bag prediction:
masked mean, masked max (renormalized), and quantile-function pooling with a
learned softmax head. All have exact backward passes; the quantile backward
routes each quantile's gradient to the single instance that achieved it, so
background instances never receive gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .layers import channel_slices, flat_views, instance_softmax, instance_softmax_backward

AGGREGATOR_KINDS = ("max", "mean", "quantile")
DEFAULT_NUM_QUANTILES = 15


@dataclass
class InstanceGrid:
    """Flat per-instance class distributions with a foreground mask.

    probs has shape (N, C); mask has shape (N,) with at least one foreground
    entry; grid_shape records the (h, w) spatial layout with h*w == N.
    fg_idx holds the flat indices of the foreground instances, found from
    the mask when not given. pooled is set on the grids of task_grids with
    quantile pooling: this grid's columns of the bag's one quantile_pool.
    """

    probs: np.ndarray
    mask: np.ndarray
    grid_shape: tuple
    fg_idx: np.ndarray | None = None
    pooled: tuple | None = None  # (values, achievers), each (Q, C)

    def __post_init__(self):
        if self.fg_idx is None:
            self.fg_idx = np.flatnonzero(self.mask)

    @classmethod
    def from_spatial(cls, probs_hwc: np.ndarray, mask_hw: np.ndarray) -> "InstanceGrid":
        """One grid over all of probs_hwc's channels, checked as in task_grids."""
        return task_grids(probs_hwc, mask_hw, [probs_hwc.shape[-1]])[0]

    @property
    def num_classes(self) -> int:
        return self.probs.shape[1]


def task_grids(probs_hwc: np.ndarray, mask_hw: np.ndarray, class_counts,
               num_quantiles: int | None = None) -> list:
    """Split one bag's instance distributions into one InstanceGrid per task.

    probs_hwc holds every task's channels in the order of class_counts. The
    grids are column views of it sharing one boolean mask and one foreground
    index array. Every task's rows must be finite, not negative and sum to
    1 within 1e-4; this is checked once for all tasks. With num_quantiles,
    one quantile_pool over every task's columns fills each grid's pooled.
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
    # fails either comparison.
    if not probs.item(probs.argmin()) >= 0:
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


# --- mean aggregation ----------------------------------------------------


def mean_agg_forward(grid: InstanceGrid) -> np.ndarray:
    """Masked arithmetic mean of instance distributions per class."""
    denom = grid.fg_idx.size
    if denom == 0:
        raise ValueError("mean aggregation needs at least one foreground instance")
    return np.take(grid.probs, grid.fg_idx, axis=0).sum(axis=0) / denom


def mean_agg_backward(grid: InstanceGrid, grad_bag: np.ndarray, out=None) -> np.ndarray:
    grad = np.zeros_like(grid.probs) if out is None else out
    grad[grid.fg_idx] = grad_bag / grid.fg_idx.size
    return grad


# --- max aggregation -----------------------------------------------------


@dataclass
class MaxAggState:
    bag_probs: np.ndarray
    class_maxima: np.ndarray
    argmax_instances: np.ndarray


def max_agg_forward(grid: InstanceGrid) -> MaxAggState:
    """Per-class maximum over foreground, renormalized to a distribution.

    Ties are broken toward the smallest flat instance index; the achieving
    instances are recorded for the backward pass.
    """
    fg_idx = grid.fg_idx
    values = np.take(grid.probs, fg_idx, axis=0)
    local = values.argmax(axis=0)
    maxima = values[local, np.arange(grid.num_classes)]
    bag = maxima / maxima.sum()
    return MaxAggState(bag, maxima, fg_idx[local])


def max_agg_backward(state: MaxAggState, grid: InstanceGrid, grad_bag: np.ndarray,
                     out=None) -> np.ndarray:
    total = state.class_maxima.sum()
    inner = float(grad_bag @ state.bag_probs)
    grad_maxima = (grad_bag - inner) / total
    grad = np.zeros_like(grid.probs) if out is None else out
    grad[state.argmax_instances, np.arange(grid.num_classes)] = grad_maxima
    return grad


# --- quantile aggregation ------------------------------------------------


@dataclass(frozen=True)
class QuantileHead:
    """Learned softmax head over the concatenated per-class quantile vectors.

    Frozen: trained heads are views into one flat buffer (quantile_heads),
    so their arrays are updated in place and never rebound.
    """

    weights: np.ndarray  # (C, Q*C)
    bias: np.ndarray  # (C,)

    @property
    def num_quantiles(self) -> int:
        return self.weights.shape[1] // self.weights.shape[0]


def quantile_heads(task_class_counts, num_quantiles: int, dtype=np.float32):
    """Zero heads for every task, all views into one flat buffer.

    The buffer holds weights then bias per task. Returns (buffer, heads).
    """
    shapes = [
        shape for c in task_class_counts for shape in ((c, num_quantiles * c), (c,))
    ]
    flat, views = flat_views(shapes, dtype)
    heads = [QuantileHead(views[2 * t], views[2 * t + 1]) for t in range(len(task_class_counts))]
    return flat, heads


@dataclass
class QuantileState:
    """Pooled quantile values plus the bookkeeping the backward pass needs."""

    num_quantiles: int
    values: np.ndarray  # (Q, C), columns nondecreasing
    achievers: np.ndarray  # (Q, C) flat instance indices
    head: QuantileHead


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

    A few instances, as in a training crop, are ordered by one stable
    argsort of every class's values. From KEYED_SORT_MIN_INSTANCES on,
    every class is ordered by one sort of int64 keys, one per class and
    foreground instance: an order-preserving integer image of the value in
    the high 32 bits, the instance's position in the foreground in the low
    32 bits. The keys are unique, so a plain sort orders them exactly as a
    stable argsort of the values would, ties broken by flat index. A float32
    value is imaged by its bits, which order like the value when it is
    finite and not negative and -0.0 is made +0.0. Other dtypes are imaged
    by their rank in a sort of all pooled values.

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
    if n < KEYED_SORT_MIN_INSTANCES:
        rows = cols.argsort(axis=1, kind="stable")[:, _rank_index(n, num_quantiles)]
    else:
        if cols.dtype == np.float32:
            image = (cols + np.float32(0.0)).view(np.uint32)  # -0.0 + 0.0 is +0.0
        else:
            image = np.searchsorted(np.sort(cols, axis=None), cols)
        keys = image.astype(np.int64, order="C")
        keys <<= 32
        keys |= np.arange(n)
        keys.sort(axis=1)
        rows = keys[:, _rank_index(n, num_quantiles)] & 0xFFFFFFFF  # (C, Q)
    achievers = fg_idx[rows.T]
    values = probs[achievers, _columns(probs.shape[1])]
    return values, achievers


def quantile_agg_forward(state: QuantileState):
    """Bag prediction: softmax of the head applied to the concatenated quantiles."""
    vec = state.values.T.reshape(-1)
    logits = state.head.weights @ vec + state.head.bias
    bag = instance_softmax(logits)
    return bag, (vec, bag)


def quantile_agg_backward(state: QuantileState, grid: InstanceGrid, grad_bag: np.ndarray, cache,
                          out=None):
    """Gradients for instance probabilities and the head parameters.

    The gradient on each pooled value goes entirely to the instance that
    achieved it (selection acts as an identity on the achiever); an instance
    achieving several quantiles accumulates their gradients. One np.add.at
    over the (achiever, class) pairs in (Q, C) order adds each instance's
    gradients in quantile order, as a per-class loop would.
    """
    vec, bag = cache
    grad_logits = instance_softmax_backward(bag, grad_bag)
    grad_weights = grad_logits[:, None] * vec  # np.outer's product, without its wrapper
    grad_bias = grad_logits
    grad_vec = state.head.weights.T @ grad_logits
    grad_values = grad_vec.reshape(grid.num_classes, state.num_quantiles).T
    grad_probs = np.zeros_like(grid.probs) if out is None else out
    np.add.at(grad_probs, (state.achievers, _columns(grid.num_classes)), grad_values)
    return grad_probs, grad_weights, grad_bias


# --- unified dispatch used by the trainer --------------------------------


def aggregate_forward(grid: InstanceGrid, kind: str, head: QuantileHead | None = None,
                      num_quantiles: int = DEFAULT_NUM_QUANTILES):
    """Run one aggregator forward; returns (bag_probs, cache for backward)."""
    if kind == "mean":
        return mean_agg_forward(grid), None
    if kind == "max":
        state = max_agg_forward(grid)
        return state.bag_probs, state
    if kind == "quantile":
        if head is None:
            raise ValueError("quantile aggregation needs a head")
        if grid.pooled is None:
            values, achievers = quantile_pool(grid, num_quantiles)
        else:
            values, achievers = grid.pooled
            if values.shape[0] != num_quantiles:
                raise ValueError(
                    f"grid pooled {values.shape[0]} quantiles, expected {num_quantiles}"
                )
        state = QuantileState(num_quantiles, values, achievers, head)
        bag, cache = quantile_agg_forward(state)
        return bag, (state, cache)
    raise ValueError(f"unknown aggregator {kind!r}")


def aggregate_backward(grid: InstanceGrid, kind: str, cache, grad_bag: np.ndarray, out=None):
    """Backward matching aggregate_forward; returns (grad_probs, head grads or None).

    out, when given, is a zeroed array shaped like grid.probs (it may be a
    column view) that receives the gradient and is returned as grad_probs.
    """
    if kind == "mean":
        return mean_agg_backward(grid, grad_bag, out), None
    if kind == "max":
        return max_agg_backward(cache, grid, grad_bag, out), None
    if kind == "quantile":
        state, fwd_cache = cache
        grad_probs, grad_w, grad_b = quantile_agg_backward(state, grid, grad_bag, fwd_cache, out)
        return grad_probs, (grad_w, grad_b)
    raise ValueError(f"unknown aggregator {kind!r}")
