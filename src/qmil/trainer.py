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
from dataclasses import dataclass, field, replace

import numpy as np

from .aggregate import (
    InstanceGrid,
    aggregate_backward,
    aggregate_forward,
    downscale_mask,
    quantile_heads,
)
from .augment import AugmentConfig, CropSpec, apply_dihedral, crop_count, extract_crop, sample_crop
from .layers import (
    MISSING,
    FcnModel,
    init_params,
    instance_softmax,
    instance_softmax_backward,
    masked_cross_entropy,
    sgd_step,
)
from .tensor import load_named_tensors, save_named_tensors

_TRAIN_STREAM_TAG = 0x7E41
LOSS_DIVERGENCE_LIMIT = 1e3


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
    eval_every: int = 0
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
        if self.aggregator not in ("max", "mean", "quantile"):
            raise ValueError(f"unknown aggregator {self.aggregator!r}")
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
class ParamGroup:
    """Parameters that one sgd_step call updates, in one flat buffer.

    params is the buffer that the model's or the heads' arrays are views
    into; velocity and grad share its layout, and every step refills grad.
    """

    name: str
    params: np.ndarray
    velocity: np.ndarray = field(init=False)
    grad: np.ndarray = field(init=False)

    def __post_init__(self):
        self.velocity = np.zeros_like(self.params)
        self.grad = np.empty_like(self.params)


@dataclass
class TrainState:
    """Model, quantile heads (None for mean and max) and optimizer state.

    groups holds the trunk's ParamGroup and then, with heads, the heads'
    group; an evaluation-only state may leave it empty.
    """

    model: FcnModel
    heads: list | None
    groups: list
    epoch: int
    rng: np.random.Generator
    loss_history: list = field(default_factory=list)


def init_state(task_class_counts, cfg: TrainConfig) -> TrainState:
    cfg.weights_for(len(task_class_counts))  # checks the task-weight count
    model = init_params(FcnModel(task_class_counts), cfg.seed)
    groups = [ParamGroup("trunk", model.flat)]
    heads = None
    if cfg.aggregator == "quantile":
        head_params, heads = quantile_heads(task_class_counts, cfg.num_quantiles)
        groups.append(ParamGroup("heads", head_params))
    return TrainState(
        model=model,
        heads=heads,
        groups=groups,
        epoch=0,
        rng=np.random.default_rng([cfg.seed, _TRAIN_STREAM_TAG]),
    )


def forward_bag(model: FcnModel, heads, image, full_mask, aggregator: str,
                num_quantiles: int):
    """Run image -> instance grids -> per-task bag predictions.

    Returns (bag_probs per task, cache) with everything the backward pass
    needs retained in the cache.
    """
    logits, conv_cache = model.forward(image)
    grid_mask = downscale_mask(full_mask, model)
    bag_probs, grids, agg_caches = [], [], []
    for t, sl in enumerate(model.task_slices()):
        probs = instance_softmax(logits[..., sl])
        grid = InstanceGrid.from_spatial(probs, grid_mask)
        head = heads[t] if heads is not None else None
        bag, agg_cache = aggregate_forward(grid, aggregator, head, num_quantiles)
        bag_probs.append(bag)
        grids.append(grid)
        agg_caches.append(agg_cache)
    return bag_probs, (conv_cache, logits.shape, grids, agg_caches)


def backward_bag(model: FcnModel, heads, cache, aggregator: str, loss_grads):
    """Propagate per-task bag-probability gradients back to all parameters.

    Returns one gradient list per parameter group: the trunk's, in the
    layout of model.flat, then with heads the heads' (weights and bias per
    task).
    """
    conv_cache, logits_shape, grids, agg_caches = cache
    gh, gw, _ = logits_shape
    grad_logits = np.zeros(logits_shape, dtype=grids[0].probs.dtype)
    head_grads = []
    for t, sl in enumerate(model.task_slices()):
        grid = grids[t]
        grad_probs, hg = aggregate_backward(grid, aggregator, agg_caches[t], loss_grads[t])
        spatial_probs = grid.probs.reshape(gh, gw, -1)
        spatial_grad = grad_probs.reshape(gh, gw, -1)
        grad_logits[..., sl] = instance_softmax_backward(spatial_probs, spatial_grad)
        if hg is not None:
            head_grads.extend(hg)
    param_grads = model.backward(conv_cache, grad_logits)
    if heads is None:
        return [param_grads]
    return [param_grads, head_grads]


def train_epoch(state: TrainState, bags, cfg: TrainConfig) -> float:
    """One pass over the training bags; returns and records the mean loss."""
    if not bags:
        raise ValueError("training set is empty")
    aug = cfg.augment_config()
    weights = cfg.weights_for(len(state.model.task_class_counts))
    lr = cfg.lr * cfg.lr_decay**state.epoch
    group_lrs = (lr, lr * cfg.head_lr_scale)  # trunk, heads
    # each bag contributes crop_count crops per epoch; the (bag, crop) slots
    # are shuffled so a bag's crops do not form consecutive aligned momentum
    # steps, which destabilizes SGD at small crop sizes
    schedule = np.repeat(
        np.arange(len(bags)),
        [crop_count(cfg.crop_size, bag.image.shape[0]) for bag in bags],
    )
    schedule = schedule[state.rng.permutation(schedule.size)]
    losses = []
    for b in schedule:
        bag = bags[b]
        full = bag.image.shape[0]
        if cfg.crop_size == full:
            spec = CropSpec(0, 0, full)  # whole image, MI augmentation disabled
        else:
            spec = sample_crop(bag.mask, aug, state.rng)
        image, mask = extract_crop(bag.image, bag.mask, spec)
        mirror = cfg.mirror and bool(state.rng.integers(0, 2))
        turns = int(state.rng.integers(0, 4)) if cfg.rotate90 else 0
        image, mask = apply_dihedral(image, mask, mirror, turns)
        try:
            bag_probs, cache = forward_bag(
                state.model, state.heads, image, mask, cfg.aggregator, cfg.num_quantiles
            )
            loss, loss_grads = masked_cross_entropy(bag_probs, bag.labels, weights)
        except FloatingPointError as exc:
            raise DivergenceError(
                f"non-finite forward at epoch {state.epoch}, bag {b}: {exc}"
            ) from exc
        if not np.isfinite(loss) or loss > LOSS_DIVERGENCE_LIMIT:
            raise DivergenceError(f"loss {loss} at epoch {state.epoch}, bag {b}")
        grads = backward_bag(state.model, state.heads, cache, cfg.aggregator, loss_grads)
        for g, (group, group_grads) in enumerate(zip(state.groups, grads, strict=True)):
            np.concatenate(group_grads, axis=None, out=group.grad)
            sgd_step(group.params, group.grad, group_lrs[g], cfg.momentum, group.velocity)
        for group in state.groups:
            if not np.isfinite(group.params).all():
                raise DivergenceError(
                    f"non-finite parameters ({group.name}) at epoch {state.epoch}, bag {b}"
                )
        losses.append(loss)
    state.epoch += 1
    mean_loss = float(np.mean(losses))
    state.loss_history.append(mean_loss)
    return mean_loss


def train(state: TrainState, train_bags, cfg: TrainConfig, test_bags=None, log=None):
    """Run cfg.epochs training epochs, optionally evaluating periodically."""
    for _ in range(cfg.epochs):
        loss = train_epoch(state, train_bags, cfg)
        if log is not None:
            log(f"epoch {state.epoch}: loss {loss:.4f}")
        if cfg.eval_every and test_bags and state.epoch % cfg.eval_every == 0:
            result = evaluate(state, test_bags, cfg)
            if log is not None:
                accs = ", ".join(f"{a:.3f}" for a in result.task_accuracies)
                log(f"epoch {state.epoch}: accuracy {accs}")
    return state


@dataclass
class EvalResult:
    task_accuracies: list
    bag_probs: list  # per bag, per task
    grids: list  # per bag, per task InstanceGrid
    group_ids: list  # sorted unique group ids
    group_preds: np.ndarray  # (groups, tasks) argmax of group-mean probs
    group_labels: np.ndarray  # (groups, tasks), MISSING where absent


def evaluate(state: TrainState, bags, cfg: TrainConfig) -> EvalResult:
    """Whole-image evaluation with per-group mean predictions.

    Every bag of a group must carry the same labels; a group whose members
    disagree raises ValueError naming the group id.
    """
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

    all_probs, all_grids = [], []
    for bag in bags:
        bag_probs, cache = forward_bag(
            state.model, state.heads, bag.image, bag.mask, cfg.aggregator, cfg.num_quantiles
        )
        all_probs.append(bag_probs)
        all_grids.append(cache[2])

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
    named = []
    for i, layer in enumerate(state.model.layers):
        named.append((f"conv{i}.kernel", layer.kernel))
        named.append((f"conv{i}.bias", layer.bias))
    if state.heads is not None:
        for t, head in enumerate(state.heads):
            named.append((f"task{t}.head.weights", head.weights))
            named.append((f"task{t}.head.bias", head.bias))
    named.append(("meta.task_class_counts",
                  np.asarray(state.model.task_class_counts, dtype=np.float32)))
    named.append(("meta.strides",
                  np.asarray([l.stride for l in state.model.layers], dtype=np.float32)))
    quantiles = state.heads[0].num_quantiles if state.heads else 0
    named.append(("meta.num_quantiles", np.asarray([quantiles], dtype=np.float32)))
    save_named_tensors(path, named)


def load_checkpoint(path):
    """Rebuild (model, heads) from a checkpoint file."""
    named = load_named_tensors(path)
    task_class_counts = [int(c) for c in named["meta.task_class_counts"]]
    strides = [int(s) for s in named["meta.strides"]]
    num_convs = len(strides)
    trunk = []
    for i in range(num_convs - 1):
        kh, _, c_in, c_out = named[f"conv{i}.kernel"].shape
        trunk.append((kh, strides[i], c_in, c_out))
    model = FcnModel(task_class_counts, trunk=trunk)
    for i, layer in enumerate(model.layers):
        kernel = named[f"conv{i}.kernel"]
        if kernel.shape != layer.kernel.shape:
            raise ValueError(f"checkpoint layer {i} shape {kernel.shape} unexpected")
        layer.kernel[...] = kernel
        layer.bias[...] = named[f"conv{i}.bias"]
    heads = None
    quantiles = int(named["meta.num_quantiles"][0])
    if quantiles:
        _, heads = quantile_heads(task_class_counts, quantiles)
        for t, head in enumerate(heads):
            head.weights[...] = named[f"task{t}.head.weights"]
            head.bias[...] = named[f"task{t}.head.bias"]
    return model, heads


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
    "eval_every": int,
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

_TRAIN_KEYS = (
    "crop_size", "epochs", "lr", "lr_decay", "momentum", "seed", "aggregator",
    "num_quantiles", "head_lr_scale", "task_weights", "eval_every",
    "mirror", "rotate90", "max_resample_attempts",
)


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
    kwargs = {k: values[k] for k in _TRAIN_KEYS if k in values}
    return TrainConfig(**kwargs)
