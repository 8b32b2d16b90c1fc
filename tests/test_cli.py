import pytest

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


def test_experiments(workspace):
    root, cfg, data = workspace
    out = root / "exp"
    rc = main(["experiment", "crop-size", "--config", str(cfg),
               "--train", str(data / "train.bags"), "--test", str(data / "test.bags"),
               "--out", str(out)])
    assert rc == 0
    table = (out / "crop_size_metrics.csv").read_text().strip().splitlines()
    assert table[0] == "cell,task,accuracy,stderr,seeds"
    assert len(table) == 1 + 2 * 2  # two sizes x two tasks
    assert (out / "crop_size_plot.csv").exists()

    rc = main(["experiment", "aggregator", "--config", str(cfg),
               "--train", str(data / "train.bags"), "--test", str(data / "test.bags"),
               "--out", str(out)])
    assert rc == 0
    table = (out / "aggregator_metrics.csv").read_text().strip().splitlines()
    assert len(table) == 1 + 2 * 2  # two kinds x two tasks


def test_seed_flag_overrides_config(workspace, tmp_path):
    root, cfg, data = workspace
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out, seed in ((a, "5"), (b, "6")):
        rc = main(["train", "--config", str(cfg), "--seed", seed,
                   "--data", str(data / "train.bags"), "--out", str(out)])
        assert rc == 0
    assert (a / "checkpoint.mit").read_bytes() != (b / "checkpoint.mit").read_bytes()


def _eval_checkpoint_trained_with(workspace, tmp_path, trained, configured):
    """Run eval on an untrained checkpoint of one aggregator under a config of another."""
    _, cfg, data = workspace
    counts = load_bags(data / "test.bags")[1]
    checkpoint = tmp_path / "checkpoint.mit"
    save_checkpoint(checkpoint, init_state(counts, TrainConfig(aggregator=trained)))
    eval_cfg = tmp_path / "config"
    eval_cfg.write_text(TINY_CONFIG.replace("aggregator = quantile", f"aggregator = {configured}"))
    return main(["eval", "--config", str(eval_cfg), "--data", str(data / "test.bags"),
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
