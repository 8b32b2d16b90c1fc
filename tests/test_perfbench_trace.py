"""The benchmark's per-layer tracer still finds every layer of a training step.

perfbench/tracer.py wraps qmil functions at the module attributes their
callers look up. A refactor that renames one of them, or calls it from
somewhere else, would silently drop it from the per-layer trace; this test
traces one tiny crop-16 epoch and fails instead.
"""

import importlib.util
import pathlib

import pytest

from qmil import pool, trainer
from qmil.augment import crop_count, crops_per_step
from qmil.layers import FcnModel
from qmil.synthgen import generate_dataset, heterogeneous_recipes

TRACER_PATH = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_step_span_per_sgd_step(tracing):
    recipes = heterogeneous_recipes(4, image_size=32, group_size=1)
    bags, _, counts = generate_dataset(recipes, seed=2)
    cfg = trainer.TrainConfig(crop_size=16, epochs=1, aggregator="quantile", seed=2)
    state = trainer.init_state(counts, cfg)
    side = bags[0].image.shape[0]
    crops = len(bags) * crop_count(cfg.crop_size, side)
    batch = crops_per_step(cfg.crop_size, side)
    assert batch > 1  # steps of several crops
    steps = -(-crops // batch)

    tracer = tracing.Tracer()
    conv_index = {layer.kernel.shape: i for i, layer in enumerate(FcnModel([2, 2]).layers)}
    tracing.install(tracer, conv_index)
    try:
        trainer.train_epoch(state, bags, cfg)  # the wrapped attribute
    finally:
        tracer.uninstall()

    # the tracer still looks for the one-crop sampler, which sample_crops
    # replaced, so its metrics read 0
    assert tracer.absent == ["qmil.trainer.sample_crop"]
    names = [span[0] for span in tracer.spans]
    assert names.count(tracing.STEP) == steps
    assert names.count(tracing.EPOCH) == 1
    # every span the tracer wraps for a training step, at its count per step;
    # flipping runs once per crop; one aggregator pass pools every task
    per_crop = {"augment.apply_dihedral": 1}
    per_step = {
        "augment.extract_crop": 1, "trainer.forward_bag": 1, "trainer.backward_bag": 1,
        "layers.sgd_step": 2,
        "aggregate.aggregate_forward": 1, "aggregate.aggregate_backward": 1,
        **{f"layers.{kind}.L{i}": 1
           for kind in ("conv2d_forward", "conv2d_backward") for i in range(3)},
        "layers.instance_softmax": 1, "layers.masked_cross_entropy": 1,
        "aggregate.quantile_pool": 1,
    }
    # the epoch builds every crop's instance mask before its first step,
    # without downscale_mask
    per_epoch = {"aggregate.downscale_mask": 0}
    for name, count in per_step.items():
        assert names.count(name) == count * steps, name
    for name, count in per_crop.items():
        assert names.count(name) == count * crops, name
    for name, count in per_epoch.items():
        assert names.count(name) == count, name
    # and nothing else: no span outside the tables, and no conv of unknown layer
    assert set(names) == {*per_step, *per_crop, tracing.STEP, tracing.EPOCH}
    metrics = tracing.per_layer_metrics(tracer, 0.0)
    assert metrics["trainer.step.calls"] == steps
    assert metrics["trainer.step.self_p50_us"] > 0
    assert metrics["aggregate.grad_reach"] > 0


def test_evaluation_pools_inside_the_aggregator_pass(tracing):
    # whole 64 px bags are below the pool's threshold, so one thread runs
    # them and the tracer's one span stack holds; 20 bags fill one chunk
    # and part of a second
    recipes = heterogeneous_recipes(40, image_size=64, group_size=1)
    bags, _, counts = generate_dataset(recipes, seed=3)
    assert bags and all(bag.mask.size < pool.PARALLEL_MIN_PIXELS for bag in bags)
    chunks = -(-len(bags) // (trainer.EVAL_CHUNK_PIXELS // bags[0].mask.size))
    assert chunks == 2
    cfg = trainer.TrainConfig(aggregator="quantile", seed=3)
    state = trainer.init_state(counts, cfg)

    tracer = tracing.Tracer()
    conv_index = {layer.kernel.shape: i for i, layer in enumerate(FcnModel([2, 2]).layers)}
    tracing.install(tracer, conv_index)
    try:
        trainer.evaluate(state, bags, cfg)
    finally:
        tracer.uninstall()

    assert tracer.absent == ["qmil.trainer.sample_crop"]
    names = [span[0] for span in tracer.spans]
    # one mask downscale, one aggregator pass and one pooling per chunk
    for name in ("aggregate.downscale_mask", "aggregate.aggregate_forward",
                 "aggregate.quantile_pool"):
        assert names.count(name) == chunks, name
    assert "aggregate.aggregate_backward" not in names
    # the aggregator pools in its own pass
    parents = [tracer.spans[parent][0] for name, _, _, parent in tracer.spans
               if name == "aggregate.quantile_pool"]
    assert parents == ["aggregate.aggregate_forward"] * chunks
