"""End-to-end training and evaluation.

Training composes MI augmentation, the convolutional instance classifier,
bag aggregation, the masked multi-task loss, hand-derived backward passes
and SGD. Per crop the bag label is applied unchanged. Each SGD step runs a
batch of B = max(1, floor(W^2 / c^2)) crops (W the bags' side, c the crop
size), so a step never holds more pixels than one whole image. Every crop
is pooled as its own bag, and the step's gradient is the sum of its crops'
gradients divided by sqrt(B), B being the crops the step holds (the last
step of an epoch may hold fewer). lr and momentum apply to that gradient
unchanged. A batch of one, at the whole image or any crop above
W / sqrt(2), is plain per-crop SGD. An epoch draws its shuffle, every
flip, then every crop's offset, and builds every crop's instance mask
and foreground runs and the loss's label tables (loss_tables), all
before its first step, so a step draws nothing and does only the work
that depends on the weights (see augment). The epoch also cuts every
crop's flipped pixels before its first step, and a step's uint8 batch is
a slice of that cut, which the model scales in one pass; the step pools
every task in one aggregator pass and takes its loss in a fixed number
of array calls, whatever B. Evaluation processes whole images in chunks
of consecutive bags of one shape: each bag runs through the trunk alone,
as a batch of one, and the chunk's bags pool in one pass. It averages
bag predictions within each group before taking the argmax.
"""

from __future__ import annotations

import csv
import math
import struct
import threading
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import pool
from .aggregate import (
    Aggregator,
    aggregate_backward,
    aggregate_forward,
    aggregator_from_meta,
    downscale_mask,
    foreground,
    make_aggregator,
    task_grids,
)
from .augment import (
    crop_count,
    crop_instance_masks,
    crops_per_step,
    extract_crop,
    sample_crops,
    window_counts,
)
from .layers import (
    INPUT_SHIFT,
    MISSING,
    FcnModel,
    Workspace,
    channel_slices,
    check_labels,
    conv_layout,
    init_params,
    instance_softmax,
    instance_softmax_backward,
    loss_tables,
    masked_cross_entropy,
    sgd_step,
)
from .tensor import read_block, read_tensor, write_header, write_tensor

_TRAIN_STREAM_TAG = 0x7E41
LOSS_DIVERGENCE_LIMIT = 1e3
# evaluate pools consecutive bags of one shape in chunks of at most this
# many pixels, 16 bags of 64 px, and pays a pooling pass's fixed costs once
# per chunk: 64 px quantile bags took 174 us each against 315 us one at a
# time, and 163 us in chunks of 64 (2-core x86-64, one BLAS thread)
EVAL_CHUNK_PIXELS = 256 * 256


class DivergenceError(RuntimeError):
    """Raised when the training loss becomes non-finite or explodes."""


@dataclass
class TrainConfig:
    """Training settings, checked when built.

    Each SGD step trains on a batch of max(1, floor(W^2 / crop_size^2))
    crops of the W px bags, and its gradient is the sum of the crops'
    gradients divided by the square root of their number; lr and momentum
    apply to it as they are. A batch of one crop (crop_size above
    W / sqrt(2), or the whole image) is per-crop SGD. An epoch draws its
    shuffle, every flip, then every crop's offset in one sample_crops call,
    and builds every crop's instance mask and label tables, before its
    first step (see augment); a label out of its task's range raises
    ValueError then. The epoch cuts every crop's flipped pixels once,
    before its first step, and a step's uint8 batch is a slice of the cut.
    """

    crop_size: int = 48
    epochs: int = 16
    lr: float = 0.015
    lr_decay: float = 0.85  # per-epoch multiplicative decay
    momentum: float = 0.9
    seed: int = 0
    aggregator: str = "quantile"
    num_quantiles: int = 15
    # The quantile head's gradient scales with the squared norm of the
    # pooled vector (up to Q*C), so its stable step size is smaller than
    # the trunk's; the head trains at lr * head_lr_scale.
    head_lr_scale: float = 0.04
    task_weights: tuple = ()  # empty = equal weights
    mirror: bool = True
    rotate90: bool = True
    max_resample_attempts: int = 100  # candidate offsets one crop may test

    def __post_init__(self):
        for name in ("lr", "lr_decay", "head_lr_scale"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:  # also false for nan
                raise ValueError(f"{name} must be finite and not negative, got {value}")
        if not all(0 <= w < math.inf for w in self.task_weights):
            raise ValueError(
                f"task_weights must be finite and not negative, got {self.task_weights}"
            )
        if self.epochs < 0:
            raise ValueError(f"epochs must not be negative, got {self.epochs}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.num_quantiles < 1:
            raise ValueError("num_quantiles must be at least 1")
        make_aggregator(self.aggregator, self.num_quantiles)  # checks the kind
        for name in ("crop_size", "max_resample_attempts"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")

    def weights_for(self, num_tasks: int):
        if not self.task_weights:
            return [1.0] * num_tasks
        if len(self.task_weights) != num_tasks:
            raise ValueError(
                f"{len(self.task_weights)} task weights for {num_tasks} tasks"
            )
        return list(self.task_weights)


@dataclass
class TrainState:
    """Model, aggregator, its heads (one per task, None without heads) and optimizer state.

    groups holds the model's ParamGroup and then the aggregator's, if any:
    every array the state trains. An evaluation-only state, as
    load_checkpoint returns, has no rng.
    """

    model: FcnModel
    aggregator: Aggregator
    heads: list
    groups: list = field(default_factory=list)
    epoch: int = 0
    rng: np.random.Generator | None = None
    loss_history: list = field(default_factory=list)


def init_state(task_class_counts, cfg: TrainConfig) -> TrainState:
    cfg.weights_for(len(task_class_counts))  # checks the task-weight count
    model = init_params(FcnModel(task_class_counts), cfg.seed)
    aggregator = make_aggregator(cfg.aggregator, cfg.num_quantiles)
    heads, head_groups = aggregator.init_heads(task_class_counts, cfg.head_lr_scale)
    return TrainState(
        model=model,
        aggregator=aggregator,
        heads=heads,
        groups=[model.params, *head_groups],
        rng=np.random.default_rng([cfg.seed, _TRAIN_STREAM_TAG]),
    )


def forward_bag(model: FcnModel, aggregator: Aggregator, heads, images, instances,
                workspace: Workspace):
    """Run a batch of images -> instance grid -> bag predictions over every task.

    images is a (B, H, W, 3) uint8 array (see FcnModel.forward) and
    instances its (mask, fg_idx, fg_bounds): the (B, h, w) boolean
    instance masks of the model's grids and their foreground runs, as
    downscaled_instances gives them. Each image is pooled as its own bag.
    Returns (bag_probs, a (B, C) array over every task's classes, and
    cache) with everything the backward pass needs retained in the cache.
    workspace is the Workspace, planned for images' shape, that the convs
    run in (see FcnModel.forward). The cache holds it, so the next
    forward_bag in the same workspace invalidates the cache for
    backward_bag; the bag predictions and the cache's instance grid are
    fresh arrays that a caller may keep.
    """
    bag_probs, cache = pool_logits(model, aggregator, heads, model.forward(images, workspace),
                                   instances)
    return bag_probs, (workspace, *cache)


def pool_logits(model: FcnModel, aggregator: Aggregator, heads, logits, instances):
    """forward_bag after the trunk: (B, h, w, channels) logits -> bag predictions.

    Returns (bag_probs, (probs, grid, aggregator cache)). evaluate pools a
    chunk of bags with it, each bag's logits from a trunk pass of its own.
    """
    counts = model.task_class_counts
    probs = instance_softmax(logits, counts)
    grid = task_grids(probs, instances, counts)
    bag_probs, agg_cache = aggregate_forward(grid, aggregator, heads)
    return bag_probs, (probs, grid, agg_cache)


def backward_bag(model: FcnModel, aggregator: Aggregator, cache, grad_bag) -> None:
    """Propagate the bag-probability gradient back to all parameters.

    grad_bag is the (B, C) gradient w.r.t. forward_bag's bag_probs. The
    gradients, summed over the bags, are written into the parameter
    groups' grad: the trunk's into model.params (see FcnModel.backward)
    and every head's into its group (see Aggregator).
    """
    workspace, probs, grid, agg_cache = cache
    # the aggregator writes every task's columns of one probability gradient,
    # and one grouped softmax backward turns it into the logit gradient
    grad_probs = np.zeros(grid.probs.shape, dtype=probs.dtype)
    aggregate_backward(grid, aggregator, agg_cache, grad_bag, out=grad_probs)
    grad_logits = instance_softmax_backward(probs, grad_probs.reshape(probs.shape),
                                            model.task_class_counts)
    model.backward(workspace, grad_logits)


def downscaled_instances(masks, model: FcnModel):
    """forward_bag's instances of a batch of B (H, W) pixel masks: downscale_mask's grids
    as booleans, and their foreground runs (fg_idx, fg_bounds) as foreground gives them."""
    grids = downscale_mask(masks, model).view(bool)  # 0/1 bytes
    return grids, *foreground(grids.reshape(-1), len(grids))


def _check_aggregator(state: TrainState, cfg: TrainConfig) -> None:
    """The state pools with its own aggregator; a config naming another is an error.

    So is a config whose num_quantiles differs from the Q of a quantile state.
    """
    aggregator = state.aggregator
    if aggregator.kind != cfg.aggregator:
        raise ValueError(f"the model pools with the {aggregator.kind} aggregator, "
                         f"but the config asks for aggregator {cfg.aggregator}")
    if aggregator.num_quantiles not in (None, cfg.num_quantiles):
        raise ValueError(f"the model pools {aggregator.num_quantiles} quantiles, "
                         f"but the config asks for num_quantiles {cfg.num_quantiles}")


def _bag_side(bags, crop_size: int) -> int:
    """The side every bag's square image shares.

    ValueError if the bags differ in side, or if crop_size does not fit it.
    """
    side = bags[0].image.shape[0]
    sides = {bag.image.shape[:2] for bag in bags}
    if sides != {(side, side)}:
        raise ValueError(f"training bags must share one square side, got sides {sorted(sides)}")
    crop_count(crop_size, side)  # checks that the crop fits
    return side


def _step(state: TrainState, step: int, members) -> str:
    """Where a DivergenceError arose: the epoch, the step and the step's bags."""
    return f"epoch {state.epoch}, step {step}, bags {members}"


def train_epoch(state: TrainState, bags, cfg: TrainConfig) -> float:
    """One pass over the training bags; returns and records the mean loss per crop.

    The bags must share one side W and hold uint8 images. Each bag
    contributes crop_count crops, and runs of crops_per_step consecutive
    crops of the shuffled schedule form the SGD steps (see TrainConfig).
    """
    if not bags:
        raise ValueError("training set is empty")
    _check_aggregator(state, cfg)
    crop_size = cfg.crop_size
    side = _bag_side(bags, crop_size)
    weights = cfg.weights_for(len(state.model.task_class_counts))
    lr = cfg.lr * cfg.lr_decay**state.epoch
    # each bag contributes crop_count crops per epoch; the (bag, crop) slots
    # are shuffled so a bag's crops do not form consecutive aligned momentum
    # steps, which destabilizes SGD at small crop sizes
    schedule = np.repeat(np.arange(len(bags)), crop_count(crop_size, side))
    schedule = schedule[state.rng.permutation(schedule.size)]
    # every crop's (mirror, quarter turns) in one draw: a disabled flip's high
    # of 1 draws nothing, and crop after crop the values and the stream are
    # those of bool(rng.integers(0, 2)), then int(rng.integers(0, 4))
    flips = state.rng.integers(0, (1 + cfg.mirror, 1 + 3 * cfg.rotate90),
                               size=(schedule.size, 2))
    masks = [bag.mask for bag in bags]
    model = state.model
    # every crop's offset in one draw over the windows' foreground counts,
    # whose table goes when the call returns (the whole image draws none),
    # then every crop's instance mask and flipped pixels in one cut, a
    # step's batch being its slice
    if crop_size < side:
        rows, cols, _ = sample_crops(window_counts(masks, crop_size), schedule, crop_size,
                                     cfg.max_resample_attempts, state.rng)
    else:
        rows = cols = [0] * schedule.size
    grids, crops = crop_instance_masks(masks, schedule, rows, cols, flips, crop_size, model,
                                       [bag.image for bag in bags])
    # every crop's run in the epoch's foreground index, which holds each
    # instance's index within its step; a step slices its crops' runs
    grids = grids.view(bool)
    cells = grids[0].size
    batch = crops_per_step(crop_size, side)
    fg_idx, fg_bounds = foreground(grids.reshape(-1), schedule.size)
    fg_idx %= batch * cells
    bounds = fg_bounds.tolist()
    # every crop's label positions in its step's bag predictions and their
    # weights, whose build checks every label
    positions, loss_weights = loss_tables(np.array([bag.labels for bag in bags])[schedule],
                                          model.task_class_counts, weights, batch)
    schedule = schedule.tolist()
    # a step runs in about a millisecond at small crops, so everything
    # that does not change between steps is looked up once
    aggregator, heads, counts = state.aggregator, state.heads, model.task_class_counts
    groups, momentum = state.groups, cfg.momentum
    group_lrs = [lr * group.lr_scale for group in groups]
    workspaces = {}  # the convs' workspace by crop count: a full batch, the shorter last one
    losses = []
    for step, start in enumerate(range(0, len(schedule), batch)):
        stop = start + batch
        members = schedule[start:stop]
        size = len(members)
        images = extract_crop(crops, start, stop)
        workspace = workspaces.get(size)
        if workspace is None:
            workspace = workspaces[size] = Workspace(model, images.shape)
        low = bounds[start]
        instances = (grids[start:stop], fg_idx[low : bounds[start + size]],
                     fg_bounds[start : start + size + 1] - low)
        try:
            bag_probs, cache = forward_bag(model, aggregator, heads, images, instances,
                                           workspace)
            step_losses, grad_bag = masked_cross_entropy(
                bag_probs, positions[start:stop], loss_weights[start:stop], counts)
        except FloatingPointError as exc:
            raise DivergenceError(f"non-finite forward at {_step(state, step, members)}: "
                                  f"{exc}") from exc
        worst = step_losses[step_losses.argmax()]  # the first nan, else the largest
        if not worst <= LOSS_DIVERGENCE_LIMIT:  # false for nan too
            raise DivergenceError(f"loss {worst} at {_step(state, step, members)}")
        grad_bag *= 1 / math.sqrt(size)  # 1.0 for a batch of one, which scales exactly
        backward_bag(model, aggregator, cache, grad_bag)  # fills every group's grad
        for group, group_lr in zip(groups, group_lrs):
            sgd_step(group.params, group.grad, group_lr, momentum, group.velocity)
        for group in groups:
            # counting is cheaper than ndarray.all, a ufunc reduction
            if np.count_nonzero(np.isfinite(group.params)) != group.params.size:
                raise DivergenceError(f"non-finite parameters ({group.name}) at "
                                      f"{_step(state, step, members)}")
        losses.append(step_losses)
    state.epoch += 1
    mean_loss = float(np.mean(np.concatenate(losses)))
    state.loss_history.append(mean_loss)
    return mean_loss


def train(state: TrainState, train_bags, cfg: TrainConfig, log=None):
    """Run cfg.epochs training epochs, logging each epoch's mean loss."""
    for _ in range(cfg.epochs):
        loss = train_epoch(state, train_bags, cfg)
        if log is not None:
            log(f"epoch {state.epoch}: loss {loss:.4f}")
    return state


@dataclass
class EvalResult:
    task_accuracies: list
    bag_probs: list  # per bag, per task
    grids: list | None  # per bag, per task InstanceGrid; None unless asked for
    group_ids: list  # sorted unique group ids
    group_preds: np.ndarray  # (groups, tasks) argmax of group-mean probs
    group_labels: np.ndarray  # (groups, tasks), MISSING where absent


def evaluate(state: TrainState, bags, cfg: TrainConfig, keep_grids: bool = False) -> EvalResult:
    """Whole-image evaluation with per-group mean predictions.

    Bags pool with the state's aggregator, and cfg must name its kind.
    Runs of consecutive bags of one image and mask shape form chunks of
    at most EVAL_CHUNK_PIXELS pixels (at least one bag); a bag whose mask
    is not its image's shape is a chunk of its own. Each bag runs through
    the trunk alone, as a batch of one, and each chunk pools its bags in
    one pool_logits pass, so every bag's prediction is bit for bit that of
    the bag alone. Group means add their bags' predictions in bag order
    and divide in the predictions' dtype. There must be bags, every bag of
    a group must carry the same labels, and every known label must be one
    of its task's classes: no bags, a group whose members disagree, or a
    label out of range (the first in bag order, as check_labels names it)
    raise ValueError. A failing bag raises the error a bag-at-a-time pass
    would raise first.
    With keep_grids the result holds every bag's per-task InstanceGrid, of
    a batch of one bag in arrays of its own, as column views of the bag's
    one grid (see InstanceGrid.tasks); otherwise its grids is None.

    When every bag has at least pool.PARALLEL_MIN_PIXELS pixels, chunks
    run through pool.ordered_map on usable CPUs divided by the BLAS
    threads, so the pool engages only with BLAS pinned (for example
    OPENBLAS_NUM_THREADS=1). The results are bit-identical to a sequential
    pass and in bag order.
    """
    if not bags:
        raise ValueError("evaluation set is empty")
    _check_aggregator(state, cfg)
    by_group: dict[int, list[int]] = {}
    for i, bag in enumerate(bags):
        by_group.setdefault(bag.group_id, []).append(i)
    for gid, members in by_group.items():
        first = tuple(bags[members[0]].labels)
        for i in members[1:]:
            if tuple(bags[i].labels) != first:
                raise ValueError(
                    f"group {gid} has disagreeing labels: {first} and {tuple(bags[i].labels)}"
                )
    model = state.model
    counts = model.task_class_counts
    check_labels(np.array([bag.labels[:len(counts)] for bag in bags]), counts, "bag")
    chunks, key = [], None
    for i, bag in enumerate(bags):
        shapes = bag.image.shape, bag.mask.shape
        if shapes == key and (len(chunks[-1]) + 1) * bag.mask.size <= EVAL_CHUNK_PIXELS:
            chunks[-1].append(i)
        else:
            chunks.append([i])
            key = shapes if bag.mask.shape == bag.image.shape[:2] else None
    # each thread runs its bags in its own workspaces, one per image shape
    # planned on first use, which go when this call returns
    local = threading.local()

    def run(chunk):
        shape = bags[chunk[0]].image.shape
        workspaces = local.__dict__.setdefault("workspaces", {})
        workspace = workspaces.get(shape)
        if workspace is None:
            workspace = workspaces[shape] = Workspace(model, (1, *shape))
        logits = np.empty((len(chunk), *workspace.convs[-1].out.shape[1:]), model.dtype)
        for row, i in zip(logits, chunk):
            row[...] = model.forward(bags[i].image[None], workspace)[0]
        instances = downscaled_instances([bags[i].mask for i in chunk], model)
        bag_probs, (_, grid, _) = pool_logits(model, state.aggregator, state.heads, logits,
                                              instances)
        return bag_probs, [grid.bag(b).tasks() for b in range(len(chunk))] if keep_grids else []

    outputs = pool.ordered_map(run, chunks, min(bag.mask.size for bag in bags))
    all_probs = np.concatenate([probs for probs, _ in outputs])  # (bags, C)
    slices = channel_slices(tuple(counts))
    ids, first, group_of, sizes = np.unique([bag.group_id for bag in bags], return_index=True,
                                            return_inverse=True, return_counts=True)
    sums = np.zeros((len(ids), all_probs.shape[1]), all_probs.dtype)
    np.add.at(sums, group_of, all_probs)  # each group's bags in bag order
    means = sums / sizes[:, None].astype(sums.dtype)
    group_preds = np.stack([means[:, sl].argmax(axis=1) for sl in slices], axis=1)
    group_labels = np.array([bags[i].labels[:len(slices)] for i in first], dtype=np.int64)
    known = group_labels != MISSING
    correct = np.count_nonzero(known & (group_preds == group_labels), axis=0).tolist()
    totals = np.count_nonzero(known, axis=0).tolist()
    accuracies = [c / n if n else float("nan") for c, n in zip(correct, totals)]
    return EvalResult(accuracies, [[row[sl] for sl in slices] for row in all_probs],
                      [grids for _, out in outputs for grids in out] if keep_grids else None,
                      ids.tolist(), group_preds, group_labels)


# --- experiments ------------------------------------------------------------
#
# The paper's two studies are sweeps of one TrainConfig field over the same
# bags, each value over several seeds: the crop size and the aggregator.


def run_sweep(train_bags, test_bags, field: str, values, cfg: TrainConfig,
              task_class_counts, num_seeds: int, log):
    """Train and evaluate a fresh model per value of cfg's field and per seed.

    The models of a value train on cfg with field set to it, at seeds
    cfg.seed to cfg.seed + num_seeds - 1. Returns {value: (mean accuracy
    per task, standard error per task)} in the order of values; with one
    seed the standard error is 0. log receives one line per value. An empty
    train or test list, no values or a repeated value, num_seeds below 1,
    and a cell config that TrainConfig rejects or whose crop size does not
    fit the training bags, raise ValueError before any model trains.
    """
    if not values or len(set(values)) < len(values):
        raise ValueError(f"a sweep of {field} needs at least one value and no value twice, "
                         f"got {list(values)}")
    if not (train_bags and test_bags):
        raise ValueError(f"a sweep needs bags to train and test on, got {len(train_bags)} "
                         f"train and {len(test_bags)} test bags")
    if num_seeds < 1:
        raise ValueError(f"num_seeds must be at least 1, got {num_seeds}")
    for value in values:
        _bag_side(train_bags, replace(cfg, **{field: value}).crop_size)
    results = {}
    for value in values:
        accs = []
        for offset in range(num_seeds):
            cell_cfg = replace(cfg, **{field: value}, seed=cfg.seed + offset)
            state = init_state(task_class_counts, cell_cfg)
            train(state, train_bags, cell_cfg)
            result = evaluate(state, test_bags, cell_cfg)
            accs.append(result.task_accuracies)
        arr = np.asarray(accs)
        mean = arr.mean(axis=0)
        stderr = (
            arr.std(axis=0, ddof=1) / np.sqrt(num_seeds)
            if num_seeds > 1
            else np.zeros_like(mean)
        )
        results[value] = (mean, stderr)
        cells = ", ".join(
            f"{m:.3f} ({s:.3f})" for m, s in zip(mean, stderr)
        )
        log(f"{field} {value}: {cells}")
    return results


def write_metrics_csv(path, rows) -> None:
    """Write experiment metrics rows (cell id, task, accuracy, stderr, seeds)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell", "task", "accuracy", "stderr", "seeds"])
        for cell, task, acc, stderr, seeds in rows:
            writer.writerow([cell, task, f"{acc:.6f}", f"{stderr:.6f}", seeds])


# --- checkpoints: the "checkpoint" layout in the tensor module docstring ---


def save_checkpoint(path, state: TrainState) -> None:
    """Write the header that describes the model, then every parameter group's params."""
    model = state.model
    counts, trunk = model.task_class_counts, model.trunk
    with open(path, "wb") as fh:
        write_header(fh, "checkpoint")
        fh.write(struct.pack(f"<3I{len(counts)}I", *state.aggregator.meta, len(counts), *counts))
        fh.write(struct.pack(f"<I{4 * len(trunk)}I", len(trunk), *(v for s in trunk for v in s)))
        fh.write(struct.pack("<f", INPUT_SHIFT))
        for group in state.groups:
            write_tensor(fh, group.params)


def load_checkpoint(path) -> TrainState:
    """Rebuild an evaluation-only TrainState from a checkpoint file.

    Raises ValueError, naming the header field or the group, on a bad magic
    or version, a truncated field or record, an aggregator meta that
    aggregator_from_meta rejects, no tasks, a class count below 2, no
    trunk layers, a trunk layer with a 0 among its kernel side, stride and
    channels, a layer whose c_in is not the previous layer's c_out, an
    input shift other than INPUT_SHIFT, the centering the model applies to
    images, a record whose shape is not that of its group's flat params,
    and trailing bytes. Every record is checked before anything of a size
    taken from the header is allocated; then the groups are filled.
    """
    block = read_block(path, "checkpoint")
    aggregator = aggregator_from_meta(block.unpack("<2I", "aggregator meta"))
    (num_tasks,) = block.unpack("<I", "task count")
    counts = list(block.unpack(f"<{num_tasks}I", "class counts"))
    if not counts or min(counts) < 2:
        raise ValueError(f"checkpoint class counts {counts} must list at least one task, "
                         "each of at least 2 classes")
    (num_layers,) = block.unpack("<I", "trunk layer count")
    flat = block.unpack(f"<{4 * num_layers}I", "trunk layers")
    trunk = [flat[i:i + 4] for i in range(0, len(flat), 4)]
    if not trunk:
        raise ValueError("checkpoint trunk layer count is 0")
    for i, layer in enumerate(trunk):
        if 0 in layer:
            raise ValueError(f"checkpoint trunk layer {i} (kernel side, stride, c_in, c_out) "
                             f"{layer} holds a 0")
        if i and layer[2] != trunk[i - 1][3]:
            raise ValueError(f"checkpoint trunk layer {i} has c_in {layer[2]}, not layer "
                             f"{i - 1}'s c_out {trunk[i - 1][3]}")
    (shift,) = block.unpack("<f", "input shift")
    if shift != INPUT_SHIFT:
        raise ValueError(f"checkpoint input shift is {shift}, but the model centers its "
                         f"input by {INPUT_SHIFT}")
    records = []
    for name, layout in (("trunk", conv_layout(counts, trunk)),
                         ("heads", aggregator.head_layout(counts))):
        size = sum(math.prod(shape) for shape in layout)  # python ints: no overflow
        if size:
            record = read_tensor(block)
            if record.shape != (size,):
                raise ValueError(f"checkpoint record of group {name!r} has shape "
                                 f"{record.shape}, expected ({size},)")
            records.append(record)
    if block.left:
        raise ValueError(f"trailing bytes at byte {block.offset}: the header declares "
                         f"{len(records)} parameter groups")
    model = FcnModel(counts, trunk=trunk)
    heads, head_groups = aggregator.init_heads(counts)
    groups = [model.params, *head_groups]
    for group, record in zip(groups, records, strict=True):
        group.params[...] = record
    return TrainState(model, aggregator, heads, groups)


def save_loss_history(path, history) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss"])
        for i, loss in enumerate(history, start=1):
            writer.writerow([i, f"{loss:.9g}"])


# --- flat key=value config files ---------------------------------------------

_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False}


def _parse_bool(value: str) -> bool:
    try:
        return _BOOL_VALUES[value.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {value!r}") from None


def _list_of(parse):
    """A parser of comma-separated items, each read by parse; blank items are skipped."""
    return lambda value: tuple(parse(v) for v in value.split(",") if v.strip())


# One flat schema shared by every CLI command; unknown keys are errors.
CONFIG_SCHEMA = {
    # training
    "crop_size": int,
    "epochs": int,
    "lr": float,
    "lr_decay": float,
    "momentum": float,
    "seed": int,
    "aggregator": str,
    "num_quantiles": int,
    "head_lr_scale": float,
    "task_weights": _list_of(float),
    # augmentation
    "mirror": _parse_bool,
    "rotate90": _parse_bool,
    "max_resample_attempts": int,
    # dataset generation
    "dataset_kind": str,
    "num_groups": int,
    "image_size": int,
    "num_textures": int,
    "group_size": int,
    "tile_size": int,
    "threshold": float,
    "missing_prob": float,
    "noise_jitter": _list_of(float),
    # experiments
    "crop_sizes": _list_of(int),
    "aggregators": _list_of(str.strip),
    "num_seeds": int,
}


def parse_config(text: str) -> dict:
    """Parse flat key=value lines; blank lines and #-comments are skipped."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_SCHEMA:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate config key {key!r}")
        values[key] = CONFIG_SCHEMA[key](value.strip())
    return values


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def train_config_from(values: dict) -> TrainConfig:
    """The TrainConfig of the values that name its fields; other keys are ignored."""
    return TrainConfig(**{f.name: values[f.name] for f in fields(TrainConfig) if f.name in values})
