"""Command-line interface: generate, train, eval, experiment, visualize, mcnemar."""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from . import synthgen, trainer
from .aggregate import AGGREGATOR_KINDS
from .evalviz import (
    emit_accuracy_plot_data,
    mcnemar,
    render_heatmap,
    write_heterogeneity_csv,
    heterogeneity_proportions,
    write_ppm,
)
from .trainer import (
    evaluate,
    init_state,
    load_checkpoint,
    load_config,
    run_aggregator_experiment,
    run_crop_size_experiment,
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
    kind = values.get("dataset_kind", "heterogeneous")
    kwargs = dict(
        image_size=values.get("image_size", 64),
        num_textures=values.get("num_textures", 2),
        threshold=values.get("threshold", 0.3),
        group_size=values.get("group_size", 1),
        missing_prob=values.get("missing_prob", 0.0),
        tile_size=values.get("tile_size", 8),
    )
    if "noise_jitter" in values:
        kwargs["noise_jitter"] = values["noise_jitter"]
    num_groups = values.get("num_groups", 800)
    if kind == "heterogeneous":
        recipes = synthgen.heterogeneous_recipes(num_groups, **kwargs)
    elif kind == "homogeneous":
        recipes = synthgen.homogeneous_recipes(num_groups, **kwargs)
    else:
        raise ValueError(f"unknown dataset_kind {kind!r}")
    return synthgen.generate_dataset(recipes, values.get("seed", 0))


def cmd_generate(args) -> int:
    values = _load_values(args)
    train_bags, test_bags, task_class_counts = _build_dataset(values)
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


def cmd_eval(args) -> int:
    values = _load_values(args)
    cfg = train_config_from(values)
    bags, _ = synthgen.load_bags(args.data)
    state = load_checkpoint(args.checkpoint)
    result = evaluate(state, bags, cfg)
    args.out.mkdir(parents=True, exist_ok=True)
    rows = [
        (f"eval", t, acc, 0.0, 1)
        for t, acc in enumerate(result.task_accuracies)
    ]
    write_metrics_csv(args.out / "metrics.csv", rows)
    with open(args.out / "predictions.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group_id", "task", "pred", "label"])
        for g, gid in enumerate(result.group_ids):
            for t in range(result.group_preds.shape[1]):
                writer.writerow(
                    [gid, t, result.group_preds[g, t], result.group_labels[g, t]]
                )
    for t, acc in enumerate(result.task_accuracies):
        print(f"task {t}: accuracy {acc:.4f}")
    return 0


def cmd_experiment_crop_size(args) -> int:
    values = _load_values(args)
    cfg = train_config_from(values)
    sizes = values.get("crop_sizes", (11, 32, 64))
    train_bags, task_class_counts = synthgen.load_bags(args.train)
    test_bags, _ = synthgen.load_bags(args.test)
    table = run_crop_size_experiment(
        train_bags, test_bags, sizes, cfg, task_class_counts, log=print
    )
    args.out.mkdir(parents=True, exist_ok=True)
    rows = [
        (f"w={size}", t, acc, 0.0, 1)
        for size in sorted(table)
        for t, acc in enumerate(table[size])
    ]
    write_metrics_csv(args.out / "crop_size_metrics.csv", rows)
    emit_accuracy_plot_data(args.out / "crop_size_plot.csv", table)
    return 0


def cmd_experiment_aggregator(args) -> int:
    values = _load_values(args)
    cfg = train_config_from(values)
    kinds = values.get("aggregators", AGGREGATOR_KINDS)
    num_seeds = values.get("num_seeds", 4)
    train_bags, task_class_counts = synthgen.load_bags(args.train)
    test_bags, _ = synthgen.load_bags(args.test)
    table = run_aggregator_experiment(
        train_bags, test_bags, kinds, cfg, task_class_counts,
        num_seeds=num_seeds, log=print,
    )
    args.out.mkdir(parents=True, exist_ok=True)
    rows = [
        (kind, t, mean[t], stderr[t], num_seeds)
        for kind, (mean, stderr) in table.items()
        for t in range(len(mean))
    ]
    write_metrics_csv(args.out / "aggregator_metrics.csv", rows)
    return 0


def cmd_visualize(args) -> int:
    values = _load_values(args)
    cfg = train_config_from(values)
    bags, _ = synthgen.load_bags(args.data)
    if args.limit:
        bags = bags[: args.limit]
    state = load_checkpoint(args.checkpoint)
    result = evaluate(state, bags, cfg, keep_grids=True)
    args.out.mkdir(parents=True, exist_ok=True)
    d = state.model.downsample
    r = state.model.receptive_field
    num_tasks = len(state.model.task_class_counts)
    for i, bag in enumerate(bags):
        for t in range(num_tasks):
            raster = render_heatmap(bag.image, result.grids[i][t], d, r)
            write_ppm(args.out / f"bag{i:04d}_task{t}.ppm", raster)
    for t in range(num_tasks):
        grids = [result.grids[i][t] for i in range(len(bags))]
        proportions = heterogeneity_proportions(grids)
        labels = [bag.labels[t] for bag in bags]
        mixtures = None
        if state.model.task_class_counts[t] == bags[0].true_mixture.shape[0]:
            mixtures = [bag.true_mixture for bag in bags]
        write_heterogeneity_csv(
            args.out / f"heterogeneity_task{t}.csv", proportions, labels, mixtures
        )
    print(f"wrote {len(bags) * num_tasks} heatmaps to {args.out}")
    return 0


def _read_predictions(path, task: int):
    preds, labels = {}, {}
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for group_id, t, pred, label in reader:
            if int(t) == task:
                preds[int(group_id)] = int(pred)
                labels[int(group_id)] = int(label)
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
    f"When every bag has at least {trainer.PARALLEL_MIN_PIXELS} pixels, bags run on "
    "a pool of (usable CPUs // BLAS threads) threads, so the pool engages only "
    "with BLAS pinned (OPENBLAS_NUM_THREADS=1); unpinned, evaluation stays "
    "sequential. The output is bit-identical to a sequential pass, in bag order."
)


def main(argv=None) -> int:
    common = _common_parser()
    parser = argparse.ArgumentParser(prog="qmil", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common], help="generate a synthetic dataset")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", parents=[common], help="train on a dataset file")
    p.add_argument("--data", type=Path, required=True, help="train.bags file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common], help="evaluate a checkpoint",
                       description="Evaluate a checkpoint on whole images. " + _PARALLEL_NOTE)
    p.add_argument("--data", type=Path, required=True, help="test.bags file")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.set_defaults(func=cmd_eval)

    exp = sub.add_parser("experiment", help="run a trend experiment")
    exp_sub = exp.add_subparsers(dest="experiment", required=True)
    p = exp_sub.add_parser("crop-size", parents=[common])
    p.add_argument("--train", type=Path, required=True)
    p.add_argument("--test", type=Path, required=True)
    p.set_defaults(func=cmd_experiment_crop_size)
    p = exp_sub.add_parser("aggregator", parents=[common])
    p.add_argument("--train", type=Path, required=True)
    p.add_argument("--test", type=Path, required=True)
    p.set_defaults(func=cmd_experiment_aggregator)

    p = sub.add_parser("visualize", parents=[common], help="render instance heatmaps",
                       description="Render instance heatmaps of whole images. "
                       + _PARALLEL_NOTE)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--limit", type=int, default=0, help="only the first N bags")
    p.set_defaults(func=cmd_visualize)

    p = sub.add_parser("mcnemar", parents=[common], help="compare two prediction files")
    p.add_argument("--a", type=Path, required=True)
    p.add_argument("--b", type=Path, required=True)
    p.add_argument("--task", type=int, default=0)
    p.add_argument("--exact", action="store_true", help="exact binomial variant")
    p.set_defaults(func=cmd_mcnemar)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
