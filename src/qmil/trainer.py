"""End-to-end training and evaluation.

Training composes MI augmentation, the convolutional instance classifier,
bag aggregation, the masked multi-task loss, hand-derived backward passes
and SGD. Per crop the bag label is applied unchanged. Evaluation always
processes whole images and averages bag predictions within each group
before taking the argmax.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .aggregate import (
    Aggregator,
    aggregate_backward,
    aggregate_forward,
    aggregator_from_meta,
    downscale_mask,
    make_aggregator,
    task_grids,
)
from .augment import AugmentConfig, CropSpec, apply_dihedral, crop_count, extract_crop, sample_crop
from .layers import (
    MISSING,
    FcnModel,
    ParamGroup,
    init_params,
    instance_softmax,
    instance_softmax_backward,
    masked_cross_entropy,
    sgd_step,
)
from .tensor import load_named_tensors, save_named_tensors

_TRAIN_STREAM_TAG = 0x7E41
LOSS_DIVERGENCE_LIMIT = 1e3
# evaluate runs bags on several threads only when each has at least this
# many pixels; smaller bags hand off to the pool more often than a second
# core saves (measured from 96 to 256 px sides, 2-core x86-64)
PARALLEL_MIN_PIXELS = 160 * 160


class DivergenceError(RuntimeError):
    """Raised when the training loss becomes non-finite or explodes."""


@dataclass
class TrainConfig:
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
    max_resample_attempts: int = 100

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
        make_aggregator(self.aggregator)  # checks the kind
        self.augment_config()  # checks crop_size and max_resample_attempts

    def augment_config(self) -> AugmentConfig:
        return AugmentConfig(
            crop_size=self.crop_size,
            mirror=self.mirror,
            rotate90=self.rotate90,
            max_resample_attempts=self.max_resample_attempts,
        )

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

    groups holds the trunk's ParamGroup and then the aggregator's, if any;
    an evaluation-only state, as load_checkpoint returns, has no groups and
    no rng.
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
    shapes = [a.shape for layer in model.layers for a in (layer.kernel, layer.bias)]
    aggregator = make_aggregator(cfg.aggregator, cfg.num_quantiles)
    heads, head_groups = aggregator.init_heads(task_class_counts, cfg.head_lr_scale)
    return TrainState(
        model=model,
        aggregator=aggregator,
        heads=heads,
        groups=[ParamGroup("trunk", model.flat, shapes), *head_groups],
        rng=np.random.default_rng([cfg.seed, _TRAIN_STREAM_TAG]),
    )


def forward_bag(model: FcnModel, aggregator: Aggregator, heads, image, full_mask):
    """Run image -> instance grids -> per-task bag predictions.

    Returns (bag_probs per task, cache) with everything the backward pass
    needs retained in the cache.
    """
    logits, conv_cache = model.forward(image)
    grid_mask = downscale_mask(full_mask, model)
    counts = model.task_class_counts
    probs = instance_softmax(logits, counts)
    grids = task_grids(probs, grid_mask, counts, aggregator.num_quantiles)
    bag_probs, agg_caches = [], []
    for grid, head in zip(grids, heads):
        bag, agg_cache = aggregate_forward(grid, aggregator, head)
        bag_probs.append(bag)
        agg_caches.append(agg_cache)
    return bag_probs, (conv_cache, probs, grids, agg_caches)


def backward_bag(model: FcnModel, aggregator: Aggregator, cache, loss_grads):
    """Propagate per-task bag-probability gradients back to all parameters.

    Returns [trunk gradients in the layout of model.flat, head gradients
    (weights and bias per task)]; without heads the second list is empty.
    """
    conv_cache, probs, grids, agg_caches = cache
    # every task's aggregator writes its columns of one probability gradient,
    # and one grouped softmax backward turns it into the logit gradient
    grad_probs = np.zeros(grids[0].mask.shape + probs.shape[-1:], dtype=probs.dtype)
    head_grads = []
    for t, sl in enumerate(model.task_slices()):
        _, hg = aggregate_backward(grids[t], aggregator, agg_caches[t], loss_grads[t],
                                   out=grad_probs[:, sl])
        head_grads.extend(hg)
    grad_logits = instance_softmax_backward(probs, grad_probs.reshape(probs.shape),
                                            model.task_class_counts)
    return [model.backward(conv_cache, grad_logits), head_grads]


def _check_aggregator(state: TrainState, cfg: TrainConfig) -> None:
    """The state pools with its own aggregator; a config naming another is an error."""
    if state.aggregator.kind != cfg.aggregator:
        raise ValueError(f"the model pools with the {state.aggregator.kind} aggregator, "
                         f"but the config asks for aggregator {cfg.aggregator}")


def train_epoch(state: TrainState, bags, cfg: TrainConfig) -> float:
    """One pass over the training bags; returns and records the mean loss."""
    if not bags:
        raise ValueError("training set is empty")
    _check_aggregator(state, cfg)
    aug = cfg.augment_config()
    weights = cfg.weights_for(len(state.model.task_class_counts))
    lr = cfg.lr * cfg.lr_decay**state.epoch
    # each bag contributes crop_count crops per epoch; the (bag, crop) slots
    # are shuffled so a bag's crops do not form consecutive aligned momentum
    # steps, which destabilizes SGD at small crop sizes
    schedule = np.repeat(
        np.arange(len(bags)),
        [crop_count(cfg.crop_size, bag.image.shape[0]) for bag in bags],
    )
    schedule = schedule[state.rng.permutation(schedule.size)]
    # a step runs in well under a millisecond at small crops, so everything
    # that does not change between steps is looked up once
    rng, model, aggregator, heads = state.rng, state.model, state.aggregator, state.heads
    groups, momentum = state.groups, cfg.momentum
    group_lrs = [lr * group.lr_scale for group in groups]
    crop_size, mirror_on, rotate_on = cfg.crop_size, cfg.mirror, cfg.rotate90
    whole = CropSpec(0, 0, crop_size)  # whole image, MI augmentation disabled
    losses = []
    for b in schedule.tolist():
        bag = bags[b]
        if crop_size == bag.image.shape[0]:
            spec = whole
        else:
            spec = sample_crop(bag.mask, aug, rng)
        image, mask = extract_crop(bag.image, bag.mask, spec)
        mirror = mirror_on and bool(rng.integers(0, 2))
        turns = int(rng.integers(0, 4)) if rotate_on else 0
        image, mask = apply_dihedral(image, mask, mirror, turns)
        try:
            bag_probs, cache = forward_bag(model, aggregator, heads, image, mask)
            loss, loss_grads = masked_cross_entropy(bag_probs, bag.labels, weights)
        except FloatingPointError as exc:
            raise DivergenceError(
                f"non-finite forward at epoch {state.epoch}, bag {b}: {exc}"
            ) from exc
        if not math.isfinite(loss) or loss > LOSS_DIVERGENCE_LIMIT:
            raise DivergenceError(f"loss {loss} at epoch {state.epoch}, bag {b}")
        grads = backward_bag(model, aggregator, cache, loss_grads)
        # without heads there is no head group, and the head gradients are empty
        for group, group_lr, group_grads in zip(groups, group_lrs, grads):
            group.set_grad(group_grads)
            sgd_step(group.params, group.grad, group_lr, momentum, group.velocity)
        for group in groups:
            # counting is cheaper than ndarray.all, a ufunc reduction
            if np.count_nonzero(np.isfinite(group.params)) != group.params.size:
                raise DivergenceError(
                    f"non-finite parameters ({group.name}) at epoch {state.epoch}, bag {b}"
                )
        losses.append(loss)
    state.epoch += 1
    mean_loss = float(np.mean(losses))
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


def _eval_workers() -> int:
    """Threads that can run bags at once without oversubscribing the cores.

    Usable CPUs divided by the BLAS threads the environment sets
    (OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS). With neither set, BLAS
    already runs on every core, so one.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            blas_threads = int(os.environ[var])
        except (KeyError, ValueError):
            continue
        if blas_threads >= 1:
            if hasattr(os, "sched_getaffinity"):
                cpus = len(os.sched_getaffinity(0))
            else:  # no affinity call outside Linux
                cpus = os.cpu_count() or 1
            return max(1, cpus // blas_threads)
    return 1


def evaluate(state: TrainState, bags, cfg: TrainConfig, keep_grids: bool = False) -> EvalResult:
    """Whole-image evaluation with per-group mean predictions.

    Bags pool with the state's aggregator, and cfg must name its kind.
    Every bag of a group must carry the same labels; a group whose members
    disagree raises ValueError naming the group id. With keep_grids the
    result holds every bag's per-task InstanceGrid; otherwise its grids
    is None.

    When every bag has at least PARALLEL_MIN_PIXELS pixels, bags run on a
    pool of threads: usable CPUs divided by the BLAS threads, so the pool
    engages only with BLAS pinned (for example OPENBLAS_NUM_THREADS=1).
    The numpy work of a bag releases the interpreter lock. The results are
    bit-identical to a sequential pass and in bag order, and a failing bag
    raises the error a sequential pass would raise first.
    """
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
    group_ids = sorted(by_group)

    def run(bag):
        bag_probs, cache = forward_bag(state.model, state.aggregator, state.heads,
                                       bag.image, bag.mask)
        return bag_probs, cache[2] if keep_grids else None

    workers = 1
    if all(bag.mask.size >= PARALLEL_MIN_PIXELS for bag in bags):
        workers = min(_eval_workers(), len(bags))
    if workers > 1:
        with ThreadPoolExecutor(workers) as pool:
            # map yields in bag order and cancels what is queued once a bag fails
            outputs = list(pool.map(run, bags))
    else:
        outputs = [run(bag) for bag in bags]
    all_probs = [probs for probs, _ in outputs]
    all_grids = [grids for _, grids in outputs] if keep_grids else None

    num_tasks = len(state.model.task_class_counts)
    group_preds = np.full((len(group_ids), num_tasks), MISSING, dtype=np.int64)
    group_labels = np.full((len(group_ids), num_tasks), MISSING, dtype=np.int64)
    accuracies = []
    for t in range(num_tasks):
        correct = total = 0
        for g, gid in enumerate(group_ids):
            members = by_group[gid]
            mean_probs = np.mean([all_probs[i][t] for i in members], axis=0)
            pred = int(np.argmax(mean_probs))
            label = bags[members[0]].labels[t]
            group_preds[g, t] = pred
            group_labels[g, t] = label
            if label == MISSING:
                continue
            total += 1
            correct += pred == label
        accuracies.append(correct / total if total else float("nan"))
    return EvalResult(accuracies, all_probs, all_grids, group_ids, group_preds, group_labels)


# --- experiments ------------------------------------------------------------


def run_crop_size_experiment(train_bags, test_bags, sizes, cfg: TrainConfig,
                             task_class_counts, log=None):
    """Train a fresh model per crop size with identical seed and pixel budget.

    Returns {crop_size: [per-task accuracy]}.
    """
    results = {}
    for size in sizes:
        cell_cfg = replace(cfg, crop_size=size)
        state = init_state(task_class_counts, cell_cfg)
        train(state, train_bags, cell_cfg)
        result = evaluate(state, test_bags, cell_cfg)
        results[size] = result.task_accuracies
        if log is not None:
            accs = ", ".join(f"{a:.3f}" for a in result.task_accuracies)
            log(f"crop size {size}: accuracy {accs}")
    return results


def run_aggregator_experiment(train_bags, test_bags, kinds, cfg: TrainConfig,
                              task_class_counts, num_seeds: int = 4, log=None):
    """Identical training per aggregator kind, averaged over num_seeds seeds.

    Returns {kind: (mean accuracy per task, standard error per task)}.
    """
    results = {}
    for kind in kinds:
        accs = []
        for offset in range(num_seeds):
            cell_cfg = replace(cfg, aggregator=kind, seed=cfg.seed + offset)
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
        results[kind] = (mean, stderr)
        if log is not None:
            cells = ", ".join(
                f"{m:.3f} ({s:.3f})" for m, s in zip(mean, stderr)
            )
            log(f"{kind}: {cells}")
    return results


def write_metrics_csv(path, rows) -> None:
    """Write experiment metrics rows (cell id, task, accuracy, stderr, seeds)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell", "task", "accuracy", "stderr", "seeds"])
        for cell, task, acc, stderr, seeds in rows:
            writer.writerow([cell, task, f"{acc:.6f}", f"{stderr:.6f}", seeds])


# --- checkpoints -------------------------------------------------------------


def save_checkpoint(path, state: TrainState) -> None:
    """Write the model, the aggregator's tensors (see Aggregator) and the metadata."""
    named = []
    for i, layer in enumerate(state.model.layers):
        named.append((f"conv{i}.kernel", layer.kernel))
        named.append((f"conv{i}.bias", layer.bias))
    named += state.aggregator.checkpoint_tensors(state.heads)
    named.append(("meta.task_class_counts",
                  np.asarray(state.model.task_class_counts, dtype=np.float32)))
    named.append(("meta.strides",
                  np.asarray([l.stride for l in state.model.layers], dtype=np.float32)))
    save_named_tensors(path, named)


def load_checkpoint(path) -> TrainState:
    """Rebuild an evaluation-only TrainState from a checkpoint file.

    The metadata must hold integers: at least two classes per task, strides
    of at least 1 ending in the 1x1 layer's stride of 1, and an aggregator
    (aggregator_from_meta). Every tensor they call for must be present with
    exactly the shape the model gives it, the trunk kernels square and
    chained channel to channel, and no other tensor may be present. Every
    shape is checked before anything of a size taken from the metadata is
    allocated. Anything else raises ValueError naming the tensor, where an
    assignment would broadcast a (1,) bias over every channel.
    """
    named = load_named_tensors(path)
    used = set()

    def read(name, shape=None):
        if name not in named:
            raise ValueError(f"checkpoint has no tensor {name!r}")
        used.add(name)
        arr = named[name]
        if shape is not None and arr.shape != shape:
            raise ValueError(
                f"checkpoint tensor {name!r} has shape {arr.shape}, expected {shape}"
            )
        return arr

    def integers(name, low, shape=None):
        values = read(name, shape)
        if values.ndim != 1 or values.size == 0 or not all(
            float(v).is_integer() and v >= low for v in values
        ):
            raise ValueError(
                f"checkpoint tensor {name!r} must hold integers of at least {low}, "
                f"got {values.tolist()}"
            )
        return [int(v) for v in values]

    task_class_counts = integers("meta.task_class_counts", 2)
    strides = integers("meta.strides", 1)
    aggregator = aggregator_from_meta(integers("meta.aggregator", 0, shape=(2,)))
    if len(strides) < 2 or strides[-1] != 1:
        raise ValueError(
            f"checkpoint tensor 'meta.strides' must list a trunk and the 1x1 layer's "
            f"stride 1, got {strides}"
        )
    trunk = []
    for i, stride in enumerate(strides[:-1]):
        name = f"conv{i}.kernel"
        shape = read(name).shape
        c_in = trunk[-1][3] if trunk else None
        if len(shape) != 4 or shape[0] != shape[1] or c_in not in (None, shape[2]):
            raise ValueError(
                f"checkpoint tensor {name!r} has shape {shape}, expected a square kernel"
                + (f" over {c_in} channels" if c_in is not None else "")
            )
        trunk.append((shape[0], stride, shape[2], shape[3]))
    # the 1x1 layer is the one sized by the class counts
    read(f"conv{len(trunk)}.kernel", (1, 1, trunk[-1][3], sum(task_class_counts)))
    heads = aggregator.read_heads(read, task_class_counts)
    model = FcnModel(task_class_counts, trunk=trunk)
    for i, layer in enumerate(model.layers):
        layer.kernel[...] = read(f"conv{i}.kernel", layer.kernel.shape)
        layer.bias[...] = read(f"conv{i}.bias", layer.bias.shape)
    unused = [name for name in named if name not in used]
    if unused:
        raise ValueError(f"checkpoint has unexpected tensor {unused[0]!r}")
    return TrainState(model, aggregator, heads)


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


def _parse_int_list(value: str):
    return tuple(int(v) for v in value.split(",") if v.strip())


def _parse_float_list(value: str):
    return tuple(float(v) for v in value.split(",") if v.strip())


def _parse_str_list(value: str):
    return tuple(v.strip() for v in value.split(",") if v.strip())


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
    "task_weights": _parse_float_list,
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
    "noise_jitter": _parse_float_list,
    # experiments
    "crop_sizes": _parse_int_list,
    "aggregators": _parse_str_list,
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
