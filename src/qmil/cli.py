"""Command-line interface: generate, train, eval, experiment, visualize, mcnemar."""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: unpinned, the small products of
# one bag can stall ~100x, and the pool of threads that generates and
# evaluates large images stays off. A value the environment already sets wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

from . import pool, synthgen, trainer
from .aggregate import AGGREGATOR_KINDS
from .evalviz import (
    emit_accuracy_plot_data,
    heterogeneity_proportions,
    mcnemar,
    render_heatmap,
    write_heterogeneity_csv,
    write_ppm,
)
from .trainer import (
    evaluate,
    init_state,
    load_checkpoint,
    load_config,
    run_sweep,
    save_checkpoint,
    save_loss_history,
    train,
    train_config_from,
    write_metrics_csv,
)


def _common_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="flat key=value config file")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--out", type=Path, default=Path("."), help="output directory")
    return common


def _load_values(args) -> dict:
    values = load_config(args.config) if args.config else {}
    if args.seed is not None:
        values["seed"] = args.seed
    return values


def _build_dataset(values: dict):
    # the recipe family settings, passed on only when a config sets them
    settings = {key: values[key] for key in trainer.RECIPE_SETTINGS if key in values}
    recipes = synthgen.recipe_family(values.get("dataset_kind", "heterogeneous"),
                                     values.get("num_groups", 800), **settings)
    return synthgen.generate_dataset(recipes, values.get("seed", 0))


def cmd_generate(args) -> int:
    values = _load_values(args)
    train_bags, test_bags, task_class_counts = _build_dataset(values)
    if not (train_bags and test_bags):
        raise ValueError(f"refusing to write a split with no bags: {len(train_bags)} train / "
                         f"{len(test_bags)} test; a dataset needs at least two groups")
    args.out.mkdir(parents=True, exist_ok=True)
    synthgen.save_bags(args.out / "train.bags", train_bags, task_class_counts)
    synthgen.save_bags(args.out / "test.bags", test_bags, task_class_counts)
    print(f"wrote {len(train_bags)} train / {len(test_bags)} test bags to {args.out}")
    return 0


def cmd_train(args) -> int:
    values = _load_values(args)
    cfg = train_config_from(values)
    bags, task_class_counts = synthgen.load_bags(args.data)
    state = init_state(task_class_counts, cfg)
    train(state, bags, cfg, log=print)
    args.out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(args.out / "checkpoint.mit", state)
    save_loss_history(args.out / "history.csv", state.loss_history)
    print(f"wrote checkpoint and loss history to {args.out}")
    return 0


def _check_class_counts(path, task_class_counts, expected, source: str) -> None:
    """Refuse the dataset at path when its tasks' class counts are not expected, the
    counts that source names (a file and a verb, such as "<checkpoint> predicts")."""
    if task_class_counts != expected:
        raise ValueError(f"{path} has tasks of {task_class_counts} classes, but {source} "
                         f"{expected}")


# the header row of predictions.csv, which eval writes and mcnemar reads
_PREDICTIONS_HEADER = ("group_id", "task", "pred", "label")


def _eval_config(values: dict, state) -> trainer.TrainConfig:
    """The TrainConfig that eval and visualize check a checkpoint against.

    The checkpoint's aggregator and Q stand in for those the config leaves
    out, so evaluate refuses only a config that names others.
    """
    aggregator = state.aggregator
    recorded = {"aggregator": aggregator.kind}
    if aggregator.num_quantiles is not None:
        recorded["num_quantiles"] = aggregator.num_quantiles
    return train_config_from({**recorded, **values})


def cmd_eval(args) -> int:
    values = _load_values(args)
    bags, task_class_counts = synthgen.load_bags(args.data)
    state = load_checkpoint(args.checkpoint)
    _check_class_counts(args.data, task_class_counts, list(state.model.tasks.counts),
                        f"{args.checkpoint} predicts")
    result = evaluate(state, bags, _eval_config(values, state))
    args.out.mkdir(parents=True, exist_ok=True)
    rows = [
        ("eval", t, acc, 0.0, 1)
        for t, acc in enumerate(result.task_accuracies)
    ]
    write_metrics_csv(args.out / "metrics.csv", rows)
    with open(args.out / "predictions.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_PREDICTIONS_HEADER)
        for g, gid in enumerate(result.group_ids):
            for t in range(result.group_preds.shape[1]):
                writer.writerow(
                    [gid, t, result.group_preds[g, t], result.group_labels[g, t]]
                )
    for t, acc in enumerate(result.task_accuracies):
        print(f"task {t}: accuracy {acc:.4f}")
    return 0


# per experiment: the TrainConfig field it sweeps, the config key of the
# values to sweep and their default, and the cell label of a value in its CSV
_SWEEPS = {
    "crop-size": ("crop_size", "crop_sizes", (11, 32, 64), "w={}"),
    "aggregator": ("aggregator", "aggregators", AGGREGATOR_KINDS, "{}"),
}


def cmd_experiment(args) -> int:
    values = _load_values(args)
    cfg = train_config_from(values)
    field, key, default, label = _SWEEPS[args.experiment]
    # the crop-size study lists the sizes in order
    crop_study = field == "crop_size"
    num_seeds = values.get("num_seeds", 4)
    train_bags, task_class_counts = synthgen.load_bags(args.train)
    test_bags, test_class_counts = synthgen.load_bags(args.test)
    _check_class_counts(args.test, test_class_counts, task_class_counts, f"{args.train} has")
    table = run_sweep(train_bags, test_bags, field, values.get(key, default), cfg,
                      task_class_counts, num_seeds, log=print)
    args.out.mkdir(parents=True, exist_ok=True)
    rows = [
        (label.format(value), t, mean, stderr, num_seeds)
        for value in (sorted(table) if crop_study else table)
        for t, (mean, stderr) in enumerate(zip(*table[value]))
    ]
    write_metrics_csv(args.out / f"{field}_metrics.csv", rows)
    if crop_study:
        emit_accuracy_plot_data(args.out / "crop_size_plot.csv",
                                {size: mean for size, (mean, _) in table.items()})
    return 0


def cmd_visualize(args) -> int:
    if args.limit < 0:
        raise ValueError(f"--limit must not be negative, got {args.limit}")
    values = _load_values(args)
    bags, task_class_counts = synthgen.load_bags(args.data)
    if args.limit:
        # copies, so the block of the whole file is freed
        bags = [replace(bag, image=bag.image.copy(), mask=bag.mask.copy(),
                        true_mixture=bag.true_mixture.copy()) for bag in bags[: args.limit]]
    state = load_checkpoint(args.checkpoint)
    _check_class_counts(args.data, task_class_counts, list(state.model.tasks.counts),
                        f"{args.checkpoint} predicts")
    result = evaluate(state, bags, _eval_config(values, state), keep_grids=True)
    args.out.mkdir(parents=True, exist_ok=True)
    d = state.model.downsample
    r = state.model.receptive_field
    num_tasks = len(state.model.tasks.counts)
    for i, bag in enumerate(bags):
        for t in range(num_tasks):
            raster = render_heatmap(bag.image, result.grids[i][t], d, r)
            write_ppm(args.out / f"bag{i:04d}_task{t}.ppm", raster)
    for t in range(num_tasks):
        grids = [result.grids[i][t] for i in range(len(bags))]
        proportions = heterogeneity_proportions(grids)
        labels = [bag.labels[t] for bag in bags]
        mixtures = None
        if state.model.tasks.counts[t] == bags[0].true_mixture.shape[0]:
            mixtures = [bag.true_mixture for bag in bags]
        write_heterogeneity_csv(
            args.out / f"heterogeneity_task{t}.csv", proportions, labels, mixtures
        )
    print(f"wrote {len(bags) * num_tasks} heatmaps to {args.out}")
    return 0


def _read_predictions(path, task: int):
    """({group: prediction}, {group: label}) of one task's rows in a predictions file.

    ValueError if the file's first row is not the header group_id,task,
    pred,label (so a headerless file loses no prediction), holds a row that
    is not four integers (naming its line), holds no row of the task, or
    holds two rows of one group and the task.
    """
    preds, labels = {}, {}
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path} is empty: it has no header row")
        if header != list(_PREDICTIONS_HEADER):
            raise ValueError(f"{path} line 1: expected the header "
                             f"{','.join(_PREDICTIONS_HEADER)}, got {header}")
        for row in reader:
            try:
                group_id, t, pred, label = map(int, row)
            except ValueError:
                raise ValueError(f"{path} line {reader.line_num}: expected four integers "
                                 f"group_id,task,pred,label, got {row}") from None
            if t == task:
                if group_id in preds:
                    raise ValueError(f"{path} holds more than one prediction for group "
                                     f"{group_id}, task {task}")
                preds[group_id] = pred
                labels[group_id] = label
    if not preds:
        raise ValueError(f"{path} holds no predictions for task {task}")
    return preds, labels


def cmd_mcnemar(args) -> int:
    preds_a, labels_a = _read_predictions(args.a, args.task)
    preds_b, labels_b = _read_predictions(args.b, args.task)
    if sorted(preds_a) != sorted(preds_b):
        raise ValueError("prediction files cover different groups")
    gids = sorted(preds_a)
    if any(labels_a[g] != labels_b[g] for g in gids):
        raise ValueError("prediction files disagree on labels")
    a = [preds_a[g] for g in gids]
    b = [preds_b[g] for g in gids]
    labels = [labels_a[g] for g in gids]
    statistic, p_value = mcnemar(a, b, labels, exact=args.exact)
    print(f"statistic {statistic:.6f}, p-value {p_value:.6g}")
    return 0


_PARALLEL_NOTE = (
    f"When every image has at least {pool.PARALLEL_MIN_PIXELS} pixels, the work (the "
    "groups generate renders, the chunks of bags eval and visualize pool) runs on a "
    "pool of (usable CPUs // BLAS threads) threads. qmil pins BLAS to one thread "
    "(OPENBLAS_NUM_THREADS and OMP_NUM_THREADS default to 1; a value set in the "
    "environment wins), so the pool uses every usable CPU unless the environment "
    "gives BLAS more threads. The output is bit-identical to a sequential pass, in "
    "the same order."
)
_EVAL_NOTE = (
    "Consecutive bags of one size are pooled in chunks of at most "
    f"{trainer.EVAL_CHUNK_PIXELS} pixels and, when they run on the pool below, of at "
    "most ceil(bags / threads) bags, so that every thread gets a chunk; each bag's "
    "convolutions run alone. "
    + _PARALLEL_NOTE
)


def main(argv=None) -> int:
    common = _common_parser()
    parser = argparse.ArgumentParser(prog="qmil", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common], help="generate a synthetic dataset",
                       description="Generate a synthetic dataset and split it 50/50 by "
                       "group. " + _PARALLEL_NOTE)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", parents=[common], help="train on a dataset file")
    p.add_argument("--data", type=Path, required=True, help="train.bags file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common], help="evaluate a checkpoint",
                       description="Evaluate a checkpoint on whole images. " + _EVAL_NOTE)
    p.add_argument("--data", type=Path, required=True, help="test.bags file")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.set_defaults(func=cmd_eval)

    exp = sub.add_parser("experiment", help="run a trend experiment")
    exp_sub = exp.add_subparsers(dest="experiment", required=True)
    for name in _SWEEPS:
        p = exp_sub.add_parser(name, parents=[common])
        p.add_argument("--train", type=Path, required=True)
        p.add_argument("--test", type=Path, required=True)
        p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("visualize", parents=[common], help="render instance heatmaps",
                       description="Render instance heatmaps of whole images. "
                       + _EVAL_NOTE)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--limit", type=int, default=0, help="only the first N bags")
    p.set_defaults(func=cmd_visualize)

    p = sub.add_parser("mcnemar", help="compare two prediction files")
    p.add_argument("--a", type=Path, required=True)
    p.add_argument("--b", type=Path, required=True)
    p.add_argument("--task", type=int, default=0)
    p.add_argument("--exact", action="store_true", help="exact binomial variant")
    p.set_defaults(func=cmd_mcnemar)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
