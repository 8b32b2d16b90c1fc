"""Bag-level aggregation of per-instance class probabilities.

Three aggregators turn an instance probability grid into a bag prediction:
masked mean, masked max (renormalized), and quantile-function pooling with a
learned softmax head. All have exact backward passes; the quantile backward
routes each quantile's gradient to the single instance that achieved it, so
background instances never receive gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .augment import integral_image
from .layers import flat_views, instance_softmax, instance_softmax_backward

AGGREGATOR_KINDS = ("max", "mean", "quantile")
DEFAULT_NUM_QUANTILES = 15


@dataclass
class InstanceGrid:
    """Flat per-instance class distributions with a foreground mask.

    probs has shape (N, C); mask has shape (N,) with at least one foreground
    entry; grid_shape records the (h, w) spatial layout with h*w == N.
    """

    probs: np.ndarray
    mask: np.ndarray
    grid_shape: tuple

    @classmethod
    def from_spatial(cls, probs_hwc: np.ndarray, mask_hw: np.ndarray) -> "InstanceGrid":
        h, w, c = probs_hwc.shape
        if mask_hw.shape != (h, w):
            raise ValueError(f"mask shape {mask_hw.shape} does not match grid {(h, w)}")
        probs = probs_hwc.reshape(h * w, c)
        mask = mask_hw.reshape(h * w).astype(bool)
        if not mask.any():
            raise ValueError("instance grid has no foreground instances")
        sums = probs.sum(axis=1)
        if np.abs(sums - 1.0).max() > 1e-4:
            raise ValueError("instance distributions must sum to 1")
        return cls(probs, mask, (h, w))

    @property
    def num_classes(self) -> int:
        return self.probs.shape[1]

    def foreground_indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)


def downscale_mask(full_mask: np.ndarray, model) -> np.ndarray:
    """Downscale a pixel mask to the model's instance grid.

    A grid cell is foreground iff at least half of the pixels in its
    receptive field are foreground; if that leaves no foreground cell, the
    cell with the largest foreground fraction is set instead.
    """
    H, W = full_mask.shape
    r = model.receptive_field
    d = model.downsample
    gh = model.grid_side(H)
    gw = model.grid_side(W)
    padded = integral_image(full_mask)
    # cell (i, j) sees pixels [i*d, i*d + r) x [j*d, j*d + r); eh and ew span
    # the top-left corners, so each strided slice holds one corner per cell
    eh = d * (gh - 1) + 1
    ew = d * (gw - 1) + 1
    counts = (
        padded[r : r + eh : d, r : r + ew : d]
        - padded[:eh:d, r : r + ew : d]
        - padded[r : r + eh : d, :ew:d]
        + padded[:eh:d, :ew:d]
    )
    grid = (2 * counts >= r * r).astype(np.uint8)
    if not grid.any():
        grid.flat[int(np.argmax(counts))] = 1
    return grid


# --- mean aggregation ----------------------------------------------------


def mean_agg_forward(grid: InstanceGrid) -> np.ndarray:
    """Masked arithmetic mean of instance distributions per class."""
    fg = grid.mask
    denom = int(fg.sum())
    if denom == 0:
        raise ValueError("mean aggregation needs at least one foreground instance")
    return grid.probs[fg].sum(axis=0) / denom


def mean_agg_backward(grid: InstanceGrid, grad_bag: np.ndarray) -> np.ndarray:
    fg = grid.mask
    denom = int(fg.sum())
    grad = np.zeros_like(grid.probs)
    grad[fg] = grad_bag / denom
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
    fg_idx = grid.foreground_indices()
    values = grid.probs[fg_idx]
    local = values.argmax(axis=0)
    maxima = values[local, np.arange(grid.num_classes)]
    bag = maxima / maxima.sum()
    return MaxAggState(bag, maxima, fg_idx[local])


def max_agg_backward(state: MaxAggState, grid: InstanceGrid, grad_bag: np.ndarray) -> np.ndarray:
    total = state.class_maxima.sum()
    inner = float(grad_bag @ state.bag_probs)
    grad_maxima = (grad_bag - inner) / total
    grad = np.zeros_like(grid.probs)
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


def quantile_pool(grid: InstanceGrid, num_quantiles: int):
    """Extract per-class quantile values from the foreground instances.

    For each class the foreground values are stable-sorted ascending (ties
    broken by flat instance index) and sampled at the quantile ranks.
    Returns (values, achievers) of shape (Q, C).
    """
    if num_quantiles < 1:
        raise ValueError("need at least one quantile")
    fg_idx = grid.foreground_indices()
    n = fg_idx.size
    ranks = quantile_ranks(n, num_quantiles) - 1
    C = grid.num_classes
    values = np.empty((num_quantiles, C), dtype=grid.probs.dtype)
    achievers = np.empty((num_quantiles, C), dtype=np.int64)
    for c in range(C):
        col = grid.probs[fg_idx, c]
        order = np.argsort(col, kind="stable")
        chosen = order[ranks]
        values[:, c] = col[chosen]
        achievers[:, c] = fg_idx[chosen]
    return values, achievers


def quantile_agg_forward(state: QuantileState):
    """Bag prediction: softmax of the head applied to the concatenated quantiles."""
    vec = state.values.T.reshape(-1)
    logits = state.head.weights @ vec + state.head.bias
    bag = instance_softmax(logits)
    return bag, (vec, bag)


def quantile_agg_backward(state: QuantileState, grid: InstanceGrid, grad_bag: np.ndarray, cache):
    """Gradients for instance probabilities and the head parameters.

    The gradient on each pooled value goes entirely to the instance that
    achieved it (selection acts as an identity on the achiever); an instance
    achieving several quantiles accumulates their gradients.
    """
    vec, bag = cache
    grad_logits = instance_softmax_backward(bag, grad_bag)
    grad_weights = np.outer(grad_logits, vec)
    grad_bias = grad_logits.copy()
    grad_vec = state.head.weights.T @ grad_logits
    grad_values = grad_vec.reshape(grid.num_classes, state.num_quantiles).T
    grad_probs = np.zeros_like(grid.probs)
    for c in range(grid.num_classes):
        np.add.at(grad_probs[:, c], state.achievers[:, c], grad_values[:, c])
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
        values, achievers = quantile_pool(grid, num_quantiles)
        state = QuantileState(num_quantiles, values, achievers, head)
        bag, cache = quantile_agg_forward(state)
        return bag, (state, cache)
    raise ValueError(f"unknown aggregator {kind!r}")


def aggregate_backward(grid: InstanceGrid, kind: str, cache, grad_bag: np.ndarray):
    """Backward matching aggregate_forward; returns (grad_probs, head grads or None)."""
    if kind == "mean":
        return mean_agg_backward(grid, grad_bag), None
    if kind == "max":
        return max_agg_backward(cache, grid, grad_bag), None
    if kind == "quantile":
        state, fwd_cache = cache
        grad_probs, grad_w, grad_b = quantile_agg_backward(state, grid, grad_bag, fwd_cache)
        return grad_probs, (grad_w, grad_b)
    raise ValueError(f"unknown aggregator {kind!r}")
