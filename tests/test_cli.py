import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from qmil import cli
from qmil.cli import main
from qmil.synthgen import load_bags
from qmil.trainer import TrainConfig, init_state, save_checkpoint

TINY_CONFIG = """
# tiny end-to-end settings
num_groups = 12
image_size = 32
crop_size = 16
epochs = 2
lr = 0.02
lr_decay = 1.0
seed = 3
aggregator = quantile
crop_sizes = 16, 32
aggregators = mean, quantile
num_seeds = 2
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "config"
    cfg.write_text(TINY_CONFIG)
    data = root / "data"
    assert main(["generate", "--config", str(cfg), "--out", str(data)]) == 0
    return root, cfg, data


def test_generate_writes_dataset(workspace):
    _, _, data = workspace
    train, counts = load_bags(data / "train.bags")
    test, _ = load_bags(data / "test.bags")
    assert counts == [2, 2]
    assert len(train) == 6 and len(test) == 6


def test_generate_homogeneous_dataset(tmp_path):
    cfg = tmp_path / "config"
    cfg.write_text(TINY_CONFIG + "dataset_kind = homogeneous\nnum_textures = 3\n")
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
    train, counts = load_bags(tmp_path / "data" / "train.bags")
    test, _ = load_bags(tmp_path / "data" / "test.bags")
    assert counts == [3, 2]
    assert len(train) == 6 and len(test) == 6
    mixtures = sorted(tuple(bag.true_mixture.tolist()) for bag in train + test)
    assert mixtures == [(0.0, 0.0, 1.0)] * 4 + [(0.0, 1.0, 0.0)] * 4 + [(1.0, 0.0, 0.0)] * 4


def test_generate_rejects_an_unknown_dataset_kind(tmp_path):
    cfg = tmp_path / "config"
    cfg.write_text(TINY_CONFIG + "dataset_kind = mosaic\n")
    with pytest.raises(ValueError, match="^unknown dataset_kind 'mosaic'$"):
        main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")])
    assert not (tmp_path / "data").exists()


def test_generate_rejects_zero_groups(tmp_path):
    cfg = tmp_path / "config"
    cfg.write_text(TINY_CONFIG.replace("num_groups = 12", "num_groups = 0"))
    with pytest.raises(ValueError, match="^a dataset needs at least one group, got 0$"):
        main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")])
    assert not (tmp_path / "data").exists()


def test_generate_refuses_a_split_with_no_bags(tmp_path):
    # one group goes to the train split and leaves the test split empty
    cfg = tmp_path / "config"
    cfg.write_text(TINY_CONFIG.replace("num_groups = 12", "num_groups = 1"))
    with pytest.raises(ValueError, match="^refusing to write a split with no bags: 1 train / 0 test"):
        main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")])
    assert not (tmp_path / "data").exists()


def test_train_eval_visualize_mcnemar(workspace, capsys):
    root, cfg, data = workspace
    run = root / "run"
    rc = main(["train", "--config", str(cfg), "--data", str(data / "train.bags"),
               "--out", str(run)])
    assert rc == 0
    assert (run / "checkpoint.mit").exists()
    history = (run / "history.csv").read_text().strip().splitlines()
    assert history[0] == "epoch,loss"
    assert len(history) == 3

    rc = main(["eval", "--config", str(cfg), "--data", str(data / "test.bags"),
               "--checkpoint", str(run / "checkpoint.mit"), "--out", str(run)])
    assert rc == 0
    assert (run / "metrics.csv").exists()
    predictions = (run / "predictions.csv").read_text().strip().splitlines()
    assert predictions[0] == "group_id,task,pred,label"
    assert len(predictions) == 1 + 6 * 2

    rc = main(["visualize", "--config", str(cfg), "--data", str(data / "test.bags"),
               "--checkpoint", str(run / "checkpoint.mit"), "--out", str(run / "viz"),
               "--limit", "2"])
    assert rc == 0
    ppms = sorted((run / "viz").glob("*.ppm"))
    assert len(ppms) == 4  # 2 bags x 2 tasks
    assert ppms[0].read_bytes().startswith(b"P6\n32 32\n255\n")
    assert (run / "viz" / "heterogeneity_task0.csv").exists()

    rc = main(["mcnemar", "--a", str(run / "predictions.csv"),
               "--b", str(run / "predictions.csv"), "--task", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "p-value 1" in out


@pytest.mark.parametrize("command", ["eval", "visualize"])
def test_eval_and_visualize_refuse_a_dataset_of_other_class_counts(workspace, tmp_path,
                                                                    command):
    _, cfg, data = workspace
    # the dataset's tasks have [2, 2] classes, the checkpoint's [3, 2]
    checkpoint = tmp_path / "checkpoint.mit"
    save_checkpoint(checkpoint, init_state([3, 2], TrainConfig(crop_size=16)))
    with pytest.raises(ValueError, match=r"has tasks of \[2, 2\] classes, but .* "
                                         r"predicts \[3, 2\]$"):
        main([command, "--config", str(cfg), "--data", str(data / "test.bags"),
              "--checkpoint", str(checkpoint), "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("task", [5, 1])
def test_mcnemar_rejects_a_task_without_predictions(tmp_path, task):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("group_id,task,pred,label\n0,0,1,1\n1,0,0,1\n1,1,0,0\n")
    b.write_text("group_id,task,pred,label\n0,0,1,1\n1,0,1,1\n")
    missing = a if task == 5 else b  # task 1 is only in a
    with pytest.raises(ValueError, match=f"{missing} holds no predictions for task {task}"):
        main(["mcnemar", "--a", str(a), "--b", str(b), "--task", str(task)])


def test_mcnemar_rejects_two_predictions_of_one_group_and_task(tmp_path):
    # keeping either row would pair a prediction with another file's at random
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("group_id,task,pred,label\n0,0,1,1\n1,0,0,1\n1,1,0,0\n")
    b.write_text("group_id,task,pred,label\n0,0,1,1\n1,0,1,1\n0,1,1,0\n0,0,0,1\n")
    with pytest.raises(ValueError,
                       match=f"^{b} holds more than one prediction for group 0, task 0$"):
        main(["mcnemar", "--a", str(a), "--b", str(b), "--task", "0"])
    # a group may appear once per task
    assert main(["mcnemar", "--a", str(a), "--b", str(a), "--task", "0"]) == 0


@pytest.mark.parametrize("row", ["1,0,0", "1,0,x,1", "1,0,0,1,1", ""])
def test_mcnemar_rejects_a_row_that_is_not_four_integers(tmp_path, row):
    # whatever is wrong with the row, the error names the file and the line
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("group_id,task,pred,label\n0,0,1,1\n1,0,0,1\n")
    b.write_text(f"group_id,task,pred,label\n0,0,1,1\n{row}\n2,1,0,0\n")
    with pytest.raises(ValueError, match=f"^{b} line 3: expected four integers"):
        main(["mcnemar", "--a", str(a), "--b", str(b), "--task", "0"])


@pytest.mark.parametrize("empty", ["a", "b"])
def test_mcnemar_rejects_an_empty_predictions_file(tmp_path, empty):
    files = {"a": tmp_path / "a.csv", "b": tmp_path / "b.csv"}
    for path in files.values():
        path.write_text("group_id,task,pred,label\n0,0,1,1\n" if path.stem != empty else "")
    with pytest.raises(ValueError, match=f"{files[empty]} is empty: it has no header row"):
        main(["mcnemar", "--a", str(files["a"]), "--b", str(files["b"]), "--task", "0"])


@pytest.mark.parametrize("header", ["", "0,0,1,1\n", "group,task,pred,label\n"])
def test_mcnemar_rejects_a_file_without_the_header(tmp_path, header):
    # read as the header, a headerless file's first row would be one group
    # fewer for the test, silently
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("group_id,task,pred,label\n1,0,1,1\n2,0,0,1\n3,0,1,0\n")
    b.write_text(f"{header}1,0,1,1\n2,0,1,1\n3,0,0,0\n")
    with pytest.raises(ValueError, match=f"^{b} line 1: expected the header "
                                         "group_id,task,pred,label, got "):
        main(["mcnemar", "--a", str(a), "--b", str(b), "--task", "0"])


def test_visualize_rejects_a_negative_limit(workspace, tmp_path):
    _, cfg, data = workspace
    with pytest.raises(ValueError, match="--limit must not be negative, got -2"):
        main(["visualize", "--config", str(cfg), "--data", str(data / "test.bags"),
              "--checkpoint", str(tmp_path / "unread.mit"), "--out", str(tmp_path),
              "--limit", "-2"])


def test_visualize_limit_evaluates_copies_of_the_kept_bags(workspace, tmp_path, monkeypatch):
    # copies let the block of the whole file go before evaluation
    _, cfg, data = workspace
    loaded, evaluated = [], []

    def load_bags(path):
        bags, counts = load_bags.real(path)
        loaded.extend(bags)
        return bags, counts

    def evaluate(state, bags, *args, **kwargs):
        evaluated.extend(bags)
        return evaluate.real(state, bags, *args, **kwargs)

    load_bags.real, evaluate.real = cli.synthgen.load_bags, cli.evaluate
    monkeypatch.setattr(cli.synthgen, "load_bags", load_bags)
    monkeypatch.setattr(cli, "evaluate", evaluate)
    checkpoint = tmp_path / "checkpoint.mit"
    save_checkpoint(checkpoint, init_state(load_bags.real(data / "test.bags")[1],
                                           TrainConfig(aggregator="quantile")))
    assert main(["visualize", "--config", str(cfg), "--data", str(data / "test.bags"),
                 "--checkpoint", str(checkpoint), "--out", str(tmp_path / "viz"),
                 "--limit", "2"]) == 0
    assert len(evaluated) == 2 and len(loaded) > 2
    fields = ("image", "mask", "true_mixture")
    for kept, bag in zip(evaluated, loaded):
        for name in fields:
            assert np.array_equal(getattr(kept, name), getattr(bag, name))
    assert not any(np.shares_memory(getattr(kept, a), getattr(bag, b))
                   for kept in evaluated for bag in loaded for a in fields for b in fields)


def test_experiments(workspace, tmp_path):
    # crop-size cells are listed by size, aggregator cells in config order
    _, _, data = workspace
    cfg = tmp_path / "config"
    cfg.write_text(TINY_CONFIG.replace("crop_sizes = 16, 32", "crop_sizes = 32, 16")
                   .replace("aggregators = mean, quantile", "aggregators = quantile, mean"))
    for name in ("crop-size", "aggregator"):
        assert main(["experiment", name, "--config", str(cfg), "--train",
                     str(data / "train.bags"), "--test", str(data / "test.bags"),
                     "--out", str(tmp_path)]) == 0

    header, *lines = (tmp_path / "crop_size_metrics.csv").read_text().strip().splitlines()
    assert header == "cell,task,accuracy,stderr,seeds"
    rows = [line.split(",") for line in lines]
    assert [(cell, task) for cell, task, *_ in rows] == [
        ("w=16", "0"), ("w=16", "1"), ("w=32", "0"), ("w=32", "1")]
    assert all(seeds == "2" for *_, seeds in rows)  # num_seeds, as the aggregator study
    plot = (tmp_path / "crop_size_plot.csv").read_text().strip().splitlines()
    assert plot == ["crop_size,task,accuracy"] + [
        f"{cell[2:]},{task},{acc}" for cell, task, acc, *_ in rows]

    _, *lines = (tmp_path / "aggregator_metrics.csv").read_text().strip().splitlines()
    rows = [line.split(",") for line in lines]
    assert [(cell, task) for cell, task, *_ in rows] == [
        ("quantile", "0"), ("quantile", "1"), ("mean", "0"), ("mean", "1")]
    assert all(seeds == "2" for *_, seeds in rows)  # num_seeds


@pytest.mark.parametrize("name", ["crop-size", "aggregator"])
def test_experiment_rejects_zero_seeds_before_training(workspace, tmp_path, monkeypatch, name):
    _, _, data = workspace
    cfg = tmp_path / "config"
    cfg.write_text(TINY_CONFIG.replace("num_seeds = 2", "num_seeds = 0"))
    monkeypatch.setattr(cli.trainer, "train", lambda *args: pytest.fail("a model trained"))
    with pytest.raises(ValueError, match="^num_seeds must be at least 1, got 0$"):
        main(["experiment", name, "--config", str(cfg), "--train", str(data / "train.bags"),
              "--test", str(data / "test.bags"), "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, key, listed, edited", [
    ("crop-size", "crop_size", "crop_sizes = 16, 32", "crop_sizes ="),
    ("aggregator", "aggregator", "aggregators = mean, quantile", "aggregators = mean, mean"),
])
def test_experiment_rejects_no_value_or_a_repeated_one_before_training(
        workspace, tmp_path, monkeypatch, name, key, listed, edited):
    # a table of no cells, or of one cell trained twice, is refused up front
    _, _, data = workspace
    cfg = tmp_path / "config"
    cfg.write_text(TINY_CONFIG.replace(listed, edited))
    monkeypatch.setattr(cli.trainer, "train", lambda *args: pytest.fail("a model trained"))
    with pytest.raises(ValueError, match=f"^a sweep of {key} needs at least one value"):
        main(["experiment", name, "--config", str(cfg), "--train", str(data / "train.bags"),
              "--test", str(data / "test.bags"), "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_seed_flag_overrides_config(workspace, tmp_path):
    root, cfg, data = workspace
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out, seed in ((a, "5"), (b, "6")):
        rc = main(["train", "--config", str(cfg), "--seed", seed,
                   "--data", str(data / "train.bags"), "--out", str(out)])
        assert rc == 0
    assert (a / "checkpoint.mit").read_bytes() != (b / "checkpoint.mit").read_bytes()


def _eval_checkpoint_trained_with(workspace, tmp_path, trained, configured,
                                  trained_q=15, configured_q=15, command="eval"):
    """Run eval (or visualize) on an untrained checkpoint of one aggregator and Q
    under a config of another."""
    _, cfg, data = workspace
    counts = load_bags(data / "test.bags")[1]
    checkpoint = tmp_path / "checkpoint.mit"
    save_checkpoint(checkpoint, init_state(counts, TrainConfig(aggregator=trained,
                                                               num_quantiles=trained_q)))
    eval_cfg = tmp_path / "config"
    eval_cfg.write_text(TINY_CONFIG.replace("aggregator = quantile", f"aggregator = {configured}")
                        + f"num_quantiles = {configured_q}\n")
    return main([command, "--config", str(eval_cfg), "--data", str(data / "test.bags"),
                 "--checkpoint", str(checkpoint), "--out", str(tmp_path / "out")])


KINDS = ["max", "mean", "quantile"]


@pytest.mark.parametrize("trained", KINDS)
@pytest.mark.parametrize("configured", KINDS)
def test_eval_runs_only_under_the_checkpoints_aggregator(workspace, tmp_path, trained,
                                                         configured):
    if trained == configured:
        assert _eval_checkpoint_trained_with(workspace, tmp_path, trained, configured) == 0
    else:
        with pytest.raises(ValueError, match=f"the {trained} aggregator.*aggregator {configured}"):
            _eval_checkpoint_trained_with(workspace, tmp_path, trained, configured)


@pytest.mark.parametrize("command", ["eval", "visualize"])
@pytest.mark.parametrize("trained_q, configured_q", [(15, 3), (3, 15), (7, 7), (1, 2)])
def test_eval_runs_only_under_the_checkpoints_quantile_count(workspace, tmp_path, command,
                                                             trained_q, configured_q):
    def run():
        return _eval_checkpoint_trained_with(workspace, tmp_path, "quantile", "quantile",
                                             trained_q, configured_q, command)

    if trained_q == configured_q:
        assert run() == 0
    else:
        with pytest.raises(ValueError, match=f"the model pools {trained_q} quantiles, "
                                             f"but the config asks for num_quantiles "
                                             f"{configured_q}"):
            run()


@pytest.mark.parametrize("kind", ["mean", "max"])
def test_headless_checkpoint_ignores_the_configs_quantile_count(workspace, tmp_path, kind):
    # num_quantiles configures only the quantile aggregator
    assert _eval_checkpoint_trained_with(workspace, tmp_path, kind, kind,
                                         configured_q=3) == 0


_PINNING_PROBE = """
import os, sys

class Probe:
    # prints the BLAS variables at the moment numpy is first imported
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            sys.meta_path.remove(self)
            print(os.environ.get("OPENBLAS_NUM_THREADS"), os.environ.get("OMP_NUM_THREADS"))
        return None

sys.meta_path.insert(0, Probe())
import qmil.cli
"""


@pytest.mark.parametrize("preset, expected", [({}, "1 1"),
                                              ({"OPENBLAS_NUM_THREADS": "2"}, "2 1"),
                                              ({"OMP_NUM_THREADS": "3"}, "1 3")],
                         ids=["unset", "openblas-set", "omp-set"])
def test_the_cli_pins_blas_before_numpy_loads_unless_the_user_did(preset, expected):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    src = str(pathlib.Path(__file__).parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    out = subprocess.run([sys.executable, "-c", _PINNING_PROBE], env={**env, **preset},
                         capture_output=True, text=True, check=True).stdout
    assert out.split("\n")[0] == expected

