"""Bit-identity gate: training and evaluation reproduce recorded values exactly.

A change that claims to keep SGD semantics (skipping a gradient nobody uses,
cheaper integer bookkeeping) must leave every loss and bag probability
unchanged to the last bit. The reference values in
``data/bit_identity.json`` were recorded before such changes, as hex floats.

The values depend on the floating-point kernels of the numpy/BLAS build
(recorded with numpy 2.4 and OpenBLAS on x86-64). Regenerate them, at a
commit whose arithmetic is known good:

    PYTHONPATH=src python tests/test_bit_identity.py

The script records only the cases the file does not hold yet and never
rewrites a recorded one. A change that alters the arithmetic on purpose
deletes the entries it invalidates first, then records them again.
"""

import json
import pathlib

import pytest

from qmil.synthgen import generate_dataset, heterogeneous_recipes
from qmil.trainer import TrainConfig, evaluate, init_state, train

FIXTURE = pathlib.Path(__file__).parent / "data" / "bit_identity.json"
IMAGE_SIZE = 32
CASES = [
    (aggregator, crop, 2)
    for aggregator in ("mean", "max", "quantile")
    for crop in (16, IMAGE_SIZE)  # sampled crops, then the whole image
] + [
    # three textures: task classes [3, 2], so a task with more than two classes
    ("quantile", crop, 3)
    for crop in (16, IMAGE_SIZE)
] + [
    # whole-image evaluation of 256 px bags, large enough for evaluate to
    # run bags in parallel when BLAS is pinned to one thread
    (aggregator, 64, 2, 256)
    for aggregator in ("mean", "quantile")
] + [
    # crop 11 leaves a 1x1 instance grid: one foreground instance, the
    # smallest input of every per-crop array path
    ("quantile", 11, 2),
] + [
    # SGD steps on whole 64 px images, the conv shapes of the bench's
    # whole-image training workload
    ("mean", 64, 2, 64),
] + [
    # task classes [3, 2] through the pooling of the aggregators without heads
    (aggregator, 16, 3)
    for aggregator in ("max", "mean")
] + [
    # missing labels (train bags with one and with both tasks missing) under
    # unequal task weights: the loss's MISSING path and its weights
    ("quantile", 16, 2, IMAGE_SIZE, 0.3, (1.0, 0.5)),
    # one crop per step below the whole image, the default config's step
    # shape (crop 48 on 64 px)
    ("quantile", 24, 2),
    # whole 64 px images under quantile pooling with 40 test bags, enough
    # for evaluate to split them into several chunks, the last one short
    ("quantile", 64, 2, 64, 0.0, (), 40),
    # 16 crops a step on 64 px bags, the step shape of the bench's crop-16
    # quantile workload
    ("quantile", 16, 2, 64),
]


def _case_id(aggregator, crop, num_textures, image_size=IMAGE_SIZE, missing_prob=0.0,
             task_weights=(), num_groups=None):
    suffix = "" if num_textures == 2 else f"-tex{num_textures}"
    if image_size != IMAGE_SIZE:
        suffix += f"-img{image_size}"
    if missing_prob:
        suffix += f"-missing{missing_prob}"
    if task_weights:
        suffix += "-weights" + ",".join(map(str, task_weights))
    if num_groups:
        suffix += f"-groups{num_groups}"
    return f"{aggregator}-crop{crop}{suffix}"


def _run(aggregator, crop, num_textures, image_size=IMAGE_SIZE, missing_prob=0.0,
         task_weights=(), num_groups=None):
    """Train 2 epochs on a tiny heterogeneous set; return hex-encoded results."""
    num_groups = num_groups or (8 if image_size == IMAGE_SIZE else 4)
    recipes = heterogeneous_recipes(num_groups, image_size=image_size, group_size=2,
                                    num_textures=num_textures, missing_prob=missing_prob)
    train_bags, test_bags, counts = generate_dataset(recipes, seed=3)
    cfg = TrainConfig(crop_size=crop, epochs=2, lr=0.02, lr_decay=0.9, seed=5,
                      aggregator=aggregator, task_weights=task_weights)
    state = init_state(counts, cfg)
    train(state, train_bags, cfg)
    result = evaluate(state, test_bags, cfg)
    return {
        "loss_history": [float(v).hex() for v in state.loss_history],
        "bag_probs": [
            [[float(v).hex() for v in task_probs] for task_probs in bag_probs]
            for bag_probs in result.bag_probs
        ],
    }


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", CASES, ids=[_case_id(*c) for c in CASES])
def test_matches_recorded_values(recorded, case):
    expected = recorded[_case_id(*case)]
    got = _run(*case)
    assert got["loss_history"] == expected["loss_history"]
    assert got["bag_probs"] == expected["bag_probs"]


if __name__ == "__main__":
    values = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    missing = [case for case in CASES if _case_id(*case) not in values]
    for case in missing:
        values[_case_id(*case)] = _run(*case)
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(values, indent=1) + "\n")
    print(f"recorded {len(missing)} new cases in {FIXTURE}, kept {len(values) - len(missing)}")
