"""Bag-level aggregation of per-instance class probabilities.

Three aggregators turn an InstanceGrid into bag predictions: Mean (masked
mean), Max (masked per-class maximum, renormalized per task) and Quantile
(quantile-function pooling with a learned softmax head per task). Each is
one object behind the interface of Aggregator: forward, which derives
from the grid's instances, and the plan of them that plans builds ahead
of the weights, all it pools, and an exact backward, the heads and
parameter group it trains, and what a checkpoint records of it.
make_aggregator maps a config's kind string to its object. The backward
passes of Max and Quantile route each class's gradient to the instances
that achieved the pooled values, so background instances never receive
gradient.

A grid holds every task's columns side by side, split into tasks by its
layers.TaskLayout, so one forward and one backward pool every task of a
step. It stacks the instances of a batch of B crops (a training step) or
of a chunk of B whole images (evaluation). Every crop is pooled as its
own bag over its own foreground, so forward returns a (B, C) prediction
over all C classes of all tasks, and the batch's arithmetic per crop and
column is that of the crop alone, as a batch of one, over one task.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .layers import (
    ParamGroup,
    TaskLayout,
    group_sum,
    instance_softmax,
    instance_softmax_backward,
)

AGGREGATOR_KINDS = ("max", "mean", "quantile")  # a kind's index is its checkpoint code

# window_sums, and the epoch's cut of crops (augment.crop_instance_masks),
# read this many mask pixels at a time, so that no temporary spans an
# epoch's masks: 16 masks of 64 px. Against 2**15, the masks of an epoch of
# 400 whole 64 px images took 4.3 against 6.0 ms and the window counts at
# crop 16 on 100 of them 1.18 against 1.11 ms (2-core x86-64, one BLAS
# thread)
CHUNK_PIXELS = 1 << 16


@dataclass
class InstanceGrid:
    """Flat per-instance class distributions of a batch of bags, with a foreground mask.

    probs has shape (N, C) and mask (N,); grid_shape records the (B, h, w)
    layout of the stacked instances, B bags of h*w each, with B*h*w == N.
    The TaskLayout tasks splits the C columns into consecutive tasks.
    fg_idx holds the flat indices of the foreground instances in increasing
    order, and fg_bounds (B + 1 offsets into fg_idx) where each bag's run
    starts and ends, never empty: bag b's foreground is
    fg_idx[fg_bounds[b] : fg_bounds[b + 1]]. foreground builds the two. A
    grid holds its instances and, optionally, the aggregator's plan of
    their foreground (Aggregator.plans), which depends on nothing else;
    each aggregator derives what it pools from them.
    """

    probs: np.ndarray
    mask: np.ndarray
    grid_shape: tuple
    fg_idx: np.ndarray
    fg_bounds: np.ndarray
    tasks: TaskLayout
    plan: QuantilePlan | None = None

    @property
    def num_classes(self) -> int:
        return self.probs.shape[1]

    def per_task(self) -> list:
        """One grid per task, without a plan: column views of probs sharing the mask and
        foreground."""
        return [InstanceGrid(self.probs[:, sl], self.mask, self.grid_shape, self.fg_idx,
                             self.fg_bounds, TaskLayout((count,)))
                for sl, count in zip(self.tasks.slices, self.tasks.counts)]

    def bag(self, b: int) -> InstanceGrid:
        """Bag b's grid alone, a batch of one, in arrays of its own and without a plan."""
        _, h, w = self.grid_shape
        rows = slice(b * h * w, (b + 1) * h * w)
        low, high = self.fg_bounds[b : b + 2].tolist()
        return InstanceGrid(self.probs[rows].copy(), self.mask[rows].copy(), (1, h, w),
                            self.fg_idx[low:high] - b * h * w, self.fg_bounds[b : b + 2] - low,
                            self.tasks)


def foreground(mask: np.ndarray, num_bags: int):
    """(fg_idx, fg_bounds) of an (N,) boolean mask over num_bags bags of
    N // num_bags instances each, as InstanceGrid holds them: the one record
    of each bag's foreground run. ValueError naming the first bag with no
    foreground instance."""
    fg_idx = mask.nonzero()[0]  # np.flatnonzero without its wrapper
    fg_bounds = fg_idx.searchsorted(np.arange(num_bags + 1) * (mask.size // num_bags))
    fg_counts = fg_bounds[1:] - fg_bounds[:-1]
    first_empty = fg_counts.argmin()
    if fg_counts.item(first_empty) == 0:
        raise ValueError(f"instance grid of bag {first_empty} has no foreground instances")
    return fg_idx, fg_bounds


def task_grids(probs: np.ndarray, instances, tasks: TaskLayout) -> InstanceGrid:
    """The one InstanceGrid of a batch's instance distributions over every task.

    probs is (B, h, w, channels), its channels split into tasks by the
    TaskLayout tasks, and instances the batch's (mask, fg_idx, fg_bounds,
    plan): its (B, h, w) boolean instance masks, their foreground runs, as
    foreground gives them, and the aggregator's plan of them, or None. The
    grid's probs are the stacked (B*h*w, channels) probabilities. Every
    task's rows must be finite, not negative and sum to 1 within 1e-4; this
    is checked once for all tasks.
    """
    B, h, w, c = probs.shape
    masks, fg_idx, fg_bounds, plan = instances
    if masks.shape != (B, h, w):
        raise ValueError(f"mask shape {masks.shape} does not match grid {(B, h, w)}")
    probs = probs.reshape(B * h * w, c)
    # The extremes are read at argmin and argmax, plain C methods where
    # ndarray.min and ndarray.max are ufunc reductions of ~2 us on a crop's
    # few values. Both index the first nan when there is one, and a nan
    # fails either comparison. +inf is rejected here too: in the sum
    # product below inf * 0 is nan, which numpy reports as a warning.
    if not (probs.item(probs.argmin()) >= 0 and probs.item(probs.argmax()) < np.inf):
        raise ValueError("instance probabilities must be finite and not negative")
    # one matrix product sums every task's channels; a last-axis sum of a
    # few channels costs a call per instance
    sums = probs @ tasks.indicator
    if not (sums.item(sums.argmin()) >= 1 - 1e-4 and sums.item(sums.argmax()) <= 1 + 1e-4):
        raise ValueError("instance distributions must sum to 1")
    return InstanceGrid(probs, masks.reshape(B * h * w), (B, h, w), fg_idx, fg_bounds, tasks,
                        plan)


@lru_cache(maxsize=32)
def _window_band(grid: int, side: int, r: int, d: int) -> np.ndarray:
    """Read-only (grid, side) float32 0/1 matrix: row i is 1 on [i*d, i*d + r)."""
    start = d * np.arange(grid)[:, None]
    pixel = np.arange(side)
    band = ((pixel >= start) & (pixel < start + r)).astype(np.float32)
    band.flags.writeable = False
    return band


def window_sums(masks, r: int, d: int) -> np.ndarray:
    """Foreground counts of every r x r window at stride d of a sequence of 0/1 masks.

    masks holds B masks of one (H, W) shape, such as a (B, H, W) array or
    a list of views, and the result is their (B, gh, gw) exact counts in
    the least unsigned type that holds r * r. Window (i, j) covers pixels
    [i*d, i*d + r) x [j*d, j*d + r), g = (side - r) // d + 1 windows along
    an axis, so the counts are band_h @ mask @ band_w.T with one 0/1 band
    matrix per axis: per chunk of masks, one 2-D product of the stacked
    rows by band_w.T, then one stacked product by band_h. A chunk holds at
    most CHUNK_PIXELS mask pixels (at least one mask), the only ones in
    float32 at a time. The float32 products are exact: every partial sum
    is an integer of at most r * r, below 2**24 for any window up to 4096
    px, so no sum is rounded whatever order BLAS adds in. ValueError if a
    side is below r.
    """
    H, W = masks[0].shape
    if min(H, W) < r:
        raise ValueError(f"masks of {H}x{W} px are too small for {r} px windows")
    band_h = _window_band((H - r) // d + 1, H, r, d)
    band_w = _window_band((W - r) // d + 1, W, r, d)
    gh, gw = len(band_h), len(band_w)
    counts = np.empty((len(masks), gh, gw), np.min_scalar_type(r * r))
    chunk = max(1, CHUNK_PIXELS // (H * W))
    for lo in range(0, len(masks), chunk):
        rows = np.array(masks[lo : lo + chunk], dtype=np.float32).reshape(-1, W)
        counts[lo : lo + chunk] = np.matmul(band_h, np.dot(rows, band_w.T).reshape(-1, H, gw))
    return counts


def downscale_mask(masks, model) -> np.ndarray:
    """Downscale a batch of B (H, W) pixel masks to the model's instance grids.

    masks is a sequence of masks of one shape, such as a (B, H, W) array or
    a list of views: the whole images of evaluation, or the flipped crops
    of an epoch (augment.crop_instance_masks).

    A grid cell is foreground iff at least half of the pixels in its
    receptive field, [i*d, i*d + r) x [j*d, j*d + r) for cell (i, j), are
    foreground (window_sums at the model's receptive field r and
    downsample d); if that leaves a mask no foreground cell, its first cell
    with the largest foreground fraction is set instead. Returns the (B, h,
    w) uint8 grids.
    """
    r = model.receptive_field
    counts = window_sums(masks, r, model.downsample)
    # 2 * count >= r * r on integer counts, as a uint8 view of the bool; each
    # grid's first cell of largest count is set, already foreground when any
    # cell is, the fallback when none is
    grid = np.greater_equal(counts, (r * r + 1) // 2).view(np.uint8)
    B = len(masks)
    grid.reshape(B, -1)[_columns(B), counts.reshape(B, -1).argmax(axis=1)] = 1
    return grid


# --- quantile pooling -----------------------------------------------------


def quantile_ranks(num_foreground, num_quantiles: int) -> np.ndarray:
    """1-based sorted ranks ceil(N*(q-0.5)/Q) for q = 1..Q, in exact integers.

    num_foreground is a count or an array of counts; the ranks of each
    count run along a new last axis of length Q.
    """
    odd = np.arange(1, 2 * num_quantiles, 2, dtype=np.int64)  # 2q - 1
    n = np.asarray(num_foreground, dtype=np.int64)[..., None]
    return (n * odd + (2 * num_quantiles - 1)) // (2 * num_quantiles)


@lru_cache(maxsize=32)
def _columns(count: int) -> np.ndarray:
    """Read-only np.arange(count): the column index of a per-class gather or scatter."""
    index = np.arange(count)
    index.flags.writeable = False
    return index


class QuantilePlan(NamedTuple):
    """What quantile_pool derives from a step's foreground runs alone, whatever the weights.

    For the step's n foreground instances, in fg_idx order, low_keys holds
    each instance's sort-key bits below its value: its bag within the step
    shifted above index_bits + 31 value bits, OR-ed with the flat index
    into the step's (N, C) probs of its class-0 value, fg_idx * C. ranks is
    the (B, Q) 0-based sorted ranks of every bag, offset by its run's start
    in the step's foreground. index_bits is the flat indices' bit width,
    the same for every step of an epoch, and num_classes the C of the
    indices. quantile_plans builds them.
    """

    low_keys: np.ndarray  # (n,) int64
    ranks: np.ndarray  # (B, Q) int64
    index_bits: int
    num_classes: int


def quantile_plans(fg_idx, fg_bounds, batch: int, cells: int, num_classes: int,
                   num_quantiles: int) -> list:
    """The QuantilePlan of every step of S bags pooled batch consecutive bags at a time.

    Every bag has cells instances, and (fg_idx, fg_bounds) are the S bags'
    foreground runs, as foreground gives them, with each index taken
    within its step (modulo batch * cells), as the step's grid holds it;
    the last step may hold fewer bags. The index bits are the bit length
    of the largest flat index of a full step, batch * cells * num_classes
    - 1. The trainer builds an epoch's plans before its first step, and
    quantile_pool builds a grid's own when it holds none. ValueError when
    the bag, value and index fields of a key would not fit in 63 bits, or
    for Q below 1.
    """
    if num_quantiles < 1:
        raise ValueError("need at least one quantile")
    index_bits = (batch * cells * num_classes - 1).bit_length()
    bag_bits = (batch - 1).bit_length()
    if bag_bits + 31 + index_bits > 63:
        raise ValueError(f"a step of {batch} bags of {cells} instances over {num_classes} "
                         f"classes needs {bag_bits} bag, 31 value and {index_bits} index "
                         "bits, more than the 63 of a sort key")
    num_bags = fg_bounds.size - 1
    starts = range(0, num_bags, batch)
    # every step's run in the foreground, and where each bag's step starts in it
    edges = fg_bounds[[*starts, num_bags]].tolist()
    step_start = fg_bounds[:-1:batch].repeat(batch)[:num_bags]
    low_keys = fg_idx // cells << (31 + index_bits) | fg_idx * num_classes
    counts = fg_bounds[1:] - fg_bounds[:-1]
    ranks = quantile_ranks(counts, num_quantiles) + (fg_bounds[:-1] - step_start - 1)[:, None]
    return [QuantilePlan(low_keys[low:high], ranks[start : start + batch], index_bits,
                         num_classes)
            for start, low, high in zip(starts, edges, edges[1:])]


def quantile_pool(grid: InstanceGrid, num_quantiles: int):
    """Extract every bag's per-class quantile values from its foreground instances.

    For each bag and class the bag's foreground values are ordered
    ascending, ties broken by flat instance index as a stable sort breaks
    them, and sampled at the quantile ranks of the bag's foreground count.
    Returns the (B, C, Q) values, bag by bag, class by class, in quantile
    order, and the achievers' flat index into probs as one flat array in
    that order: the values are a flat gather at it, and Quantile.backward
    scatters at it. The values must be finite and not negative, as
    task_grids checks.

    The work that depends on the foreground runs alone is the grid's plan,
    a QuantilePlan of num_quantiles ranks over the grid's classes (else
    ValueError) that the trainer slices from its epoch's; a grid without
    one, such as a chunk of evaluation, pools with quantile_plans' for the
    grid alone. Every class column of the foreground rows is ordered in
    one sort, by the instance's bag, then its value, then its index, so
    each bag's run is ordered exactly as a stable argsort of its values
    would order it, and bag b's ranks read its run. float32 values are
    ordered by one sort of int64 keys holding the three, the index as the
    instance's flat index fg_idx * C: a value's bits order like the value
    when it is finite and not negative and -0.0 is made +0.0. Other dtypes,
    which only tests pool, are ordered by one stable lexsort on (bag,
    value).
    """
    probs, fg_idx, plan = grid.probs, grid.fg_idx, grid.plan
    num_classes = probs.shape[1]
    if plan is None:
        num_bags = grid.grid_shape[0]
        (plan,) = quantile_plans(fg_idx, grid.fg_bounds, num_bags, probs.shape[0] // num_bags,
                                 num_classes, num_quantiles)
    elif plan.ranks.shape[1] != num_quantiles or plan.num_classes != num_classes:
        raise ValueError(f"a plan of {plan.ranks.shape[1]} quantiles over {plan.num_classes} "
                         f"classes pools {num_quantiles} over {num_classes}")
    # take gathers whole rows, ~10x faster than probs[fg_idx] at 256 px
    values = probs.take(fg_idx, axis=0)  # (n, C)
    if values.dtype != np.float32:
        bag = np.broadcast_to(plan.low_keys >> (31 + plan.index_bits), values.T.shape)
        rows = plan.low_keys.take(np.lexsort((values.T, bag), axis=-1))
    else:
        values += 0.0  # -0.0 + 0.0 is +0.0
        rows = np.left_shift(values.view(np.uint32).T, plan.index_bits, dtype=np.int64,
                             out=np.empty((num_classes, fg_idx.size), np.int64))
        rows |= plan.low_keys
        rows.sort(axis=1)
    rows = rows.take(plan.ranks, axis=1)  # (C, B, Q)
    rows &= (1 << plan.index_bits) - 1
    # fg_idx * C plus the class, bag by bag, class by class
    index = np.empty((len(plan.ranks), num_classes, num_quantiles), np.int64)
    np.add(rows.transpose(1, 0, 2), _columns(num_classes)[:, None], out=index)
    flat = index.reshape(-1)  # a flat take is ~2x faster than one at a 3-D index
    return probs.reshape(-1).take(flat).reshape(index.shape), flat


# --- aggregators -----------------------------------------------------------


class Aggregator:
    """The one interface of Mean, Max and Quantile.

    num_quantiles is Quantile's Q, None for the others. forward(grid, heads)
    pools every task of the grid at once, deriving what it pools from the
    grid's instances and plan in its own pass, and returns (bag, cache), bag
    being the (B, C) prediction over every task's classes; heads holds one
    head per task. backward(grid, cache, grad_bag, out) takes the (B, C)
    gradient w.r.t. bag, writes the gradient w.r.t. grid.probs into out, a
    zeroed C-contiguous array of its shape, and every head's gradient into
    the head's grad views, and returns None. init_heads returns one head per
    task and the ParamGroups, laid out by head_layout, that train them at
    lr_scale times the trunk's rate. plans returns the plan of every step of
    a run of bags, which forward reads from its grid (see InstanceGrid).
    This base class is the part of an aggregator without heads or plans: its
    heads and plans are None and it trains no group.
    """

    kind = ""
    num_quantiles = None

    @property
    def meta(self) -> list:
        """The checkpoint header's aggregator meta: [index of kind in AGGREGATOR_KINDS, Q or 0]."""
        return [AGGREGATOR_KINDS.index(self.kind), self.num_quantiles or 0]

    def head_layout(self, task_class_counts) -> list:
        return []

    def plans(self, fg_idx, fg_bounds, batch: int, cells: int, num_classes: int) -> list:
        """One pooling plan per step of batch bags of cells instances, as quantile_plans
        takes its arguments."""
        return [None] * -(-(fg_bounds.size - 1) // batch)

    def init_heads(self, task_class_counts, lr_scale: float = 1.0, dtype=np.float32):
        return [None] * len(task_class_counts), []


class Mean(Aggregator):
    """Masked arithmetic mean of each bag's instance distributions per class.

    Every bag's foreground rows are summed by one reduction over the
    stacked (B, h*w, C) rows with the mask as its where, which adds a bag's
    foreground rows one after another, as a sum over them alone does. The
    cache is the (B,) foreground counts.
    """

    kind = "mean"

    def forward(self, grid: InstanceGrid, heads):
        B, C = grid.grid_shape[0], grid.num_classes
        bounds = grid.fg_bounds
        counts = bounds[1:] - bounds[:-1]
        # ndarray.sum without its wrapper
        sums = np.add.reduce(grid.probs.reshape(B, -1, C), axis=1,
                             where=grid.mask.reshape(B, -1, 1))
        # the counts are exact in the values' dtype (below 2**24)
        return np.divide(sums, counts[:, None], out=sums, dtype=sums.dtype), counts

    def backward(self, grid: InstanceGrid, cache, grad_bag: np.ndarray, out: np.ndarray):
        # divided in float64 and rounded into out: a quotient of two values
        # exact in float32 rounds the same as one divided in float32
        B, C = grid.grid_shape[0], grid.num_classes
        np.copyto(out.reshape(B, -1, C), (grad_bag / cache[:, None])[:, None],
                  where=grid.mask.reshape(B, -1, 1))


class Max(Aggregator):
    """Per-class maximum over each bag's foreground, renormalized to a distribution per task.

    Ties are broken toward the smallest flat instance index. The bags'
    background rows are set to -1, below every probability, so one argmax
    finds every bag's maxima. Each task's maxima are divided by their
    group_sum, forward through the grid's TaskLayout group views, and the
    backward divides by the same sum. The cache is (bags, class maxima,
    achieving instances), each (B, C).
    """

    kind = "max"

    def forward(self, grid: InstanceGrid, heads):
        B, C = grid.grid_shape[0], grid.num_classes
        values = np.where(grid.mask.reshape(B, -1, 1), grid.probs.reshape(B, -1, C), -1)
        local = values.argmax(axis=1)  # the first largest of each bag's rows
        maxima = np.maximum.reduce(values, axis=1)  # ndarray.max without its wrapper
        bag = np.empty(maxima.shape, maxima.dtype)  # C-contiguous: written through views
        tasks = grid.tasks
        for m, out in zip(tasks.groups(maxima), tasks.groups(bag)):
            np.divide(m, group_sum(m), out=out)
        return bag, (bag, maxima, local + _columns(B)[:, None] * values.shape[1])

    def backward(self, grid: InstanceGrid, cache, grad_bag: np.ndarray, out: np.ndarray):
        bag, maxima, achievers = cache
        columns = _columns(grid.num_classes)
        for sl in grid.tasks.slices:
            # grad_bag @ bag per bag, over the task's classes
            inner = np.matmul(grad_bag[:, None, sl], bag[:, sl, None])[:, 0]
            out[achievers[:, sl], columns[sl]] = (
                (grad_bag[:, sl] - inner) / group_sum(maxima[:, sl].T)[:, None])


@dataclass(frozen=True)
class QuantileHead:
    """Learned softmax head over the concatenated per-class quantile vectors of one task.

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

    A bag's prediction for a task is the softmax of the task's head
    applied to its pooled quantile values, concatenated class by class.
    forward pools every task's columns with one quantile_pool call into (B,
    C, Q) values, so a task's pooled vectors are a (B, c*Q) view of them.
    Each bag's head logits are a one-row product, so a batch predicts every
    bag bit for bit as the bag alone, and one grouped instance_softmax call
    normalizes every task. The heads' gradients are sums over the batch.
    The backward pass gives each pooled value's gradient entirely to the
    instance that achieved it (selection acts as an identity on the
    achiever); an instance achieving several quantiles accumulates their
    gradients in quantile order, as a per-class loop would, and a cell of
    probs receives only its own class's gradients. One flat scatter-add
    at the achievers' flat index does it. The cache is (heads, pooled
    vectors per task, bags, the pooled values' shape, the achievers' flat
    index).
    """

    kind = "quantile"

    def __init__(self, num_quantiles: int):
        self.num_quantiles = num_quantiles

    def forward(self, grid: InstanceGrid, heads):
        values, index = quantile_pool(grid, self.num_quantiles)
        B = values.shape[0]
        logits = np.empty((B, grid.num_classes), values.dtype)
        vecs = []
        for sl, head in zip(grid.tasks.slices, heads, strict=True):
            vec = values[:, sl].reshape(B, -1)  # (B, c*Q), a view
            # a one-row product per bag, as a batch of one computes it
            np.add(np.matmul(vec[:, None], head.weights.T)[:, 0], head.bias, out=logits[:, sl])
            vecs.append(vec)
        bag = instance_softmax(logits, grid.tasks)
        return bag, (heads, vecs, bag, values.shape, index)

    def backward(self, grid: InstanceGrid, cache, grad_bag: np.ndarray, out: np.ndarray):
        heads, vecs, bag, shape, index = cache
        if not out.flags.c_contiguous:
            raise ValueError("the quantile gradient is scattered into a C-contiguous array")
        B = shape[0]
        grad_logits = instance_softmax_backward(bag, grad_bag, grid.tasks)  # (B, C)
        grad_values = np.empty(shape, np.result_type(grad_logits, heads[0].weights))
        for sl, head, vec in zip(grid.tasks.slices, heads, vecs, strict=True):
            grad = grad_logits[:, sl]
            # the bias gradient is the logit gradient, the weights' its outer
            # product with the pooled vector, each summed over the bags
            np.add.reduce(grad, axis=0, out=head.grad_bias)
            np.matmul(grad.T, vec, out=head.grad_weights)
            np.matmul(grad, head.weights, out=grad_values[:, sl].reshape(B, -1))
        # flat index and values: ufunc.at adds in C order either way, and a
        # multi-dimensional index takes a path ~4x slower
        np.add.at(out.reshape(-1), index, grad_values.reshape(-1))

    def head_layout(self, task_class_counts) -> list:
        q = self.num_quantiles
        return [shape for c in task_class_counts for shape in ((c, q * c), (c,))]

    def plans(self, fg_idx, fg_bounds, batch: int, cells: int, num_classes: int) -> list:
        return quantile_plans(fg_idx, fg_bounds, batch, cells, num_classes, self.num_quantiles)

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


def aggregate_forward(grid: InstanceGrid, aggregator: Aggregator, heads):
    return aggregator.forward(grid, heads)


def aggregate_backward(grid: InstanceGrid, aggregator: Aggregator, cache,
                       grad_bag: np.ndarray, out: np.ndarray):
    aggregator.backward(grid, cache, grad_bag, out)
    # the tracer's count_reach reads the probability gradient as element 0
    return out, ()
