"""Bit-identity gate: training and evaluation reproduce recorded values exactly.

A change that claims to keep SGD semantics (skipping a gradient nobody uses,
cheaper integer bookkeeping) must leave every loss and bag probability
unchanged to the last bit. The reference values in
``data/bit_identity.json`` were recorded before such changes, as hex floats.

The values depend on the floating-point kernels of the numpy/BLAS build
(recorded with numpy 2.4 and OpenBLAS on x86-64). Regenerate them, at a
commit whose arithmetic is known good, only when a change alters the
arithmetic on purpose:

    PYTHONPATH=src python tests/test_bit_identity.py
"""

import json
import pathlib

import pytest

from qmil.synthgen import generate_dataset, heterogeneous_recipes
from qmil.trainer import TrainConfig, evaluate, init_state, train

FIXTURE = pathlib.Path(__file__).parent / "data" / "bit_identity.json"
IMAGE_SIZE = 32
CASES = [
    (aggregator, crop)
    for aggregator in ("mean", "max", "quantile")
    for crop in (16, IMAGE_SIZE)  # sampled crops, then the whole image
]


def _case_id(aggregator, crop):
    return f"{aggregator}-crop{crop}"


def _run(aggregator, crop):
    """Train 2 epochs on a tiny heterogeneous set; return hex-encoded results."""
    recipes = heterogeneous_recipes(8, image_size=IMAGE_SIZE, group_size=2)
    train_bags, test_bags, counts = generate_dataset(recipes, seed=3)
    cfg = TrainConfig(crop_size=crop, epochs=2, lr=0.02, lr_decay=0.9, seed=5,
                      aggregator=aggregator)
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


@pytest.mark.parametrize("aggregator,crop", CASES, ids=[_case_id(*c) for c in CASES])
def test_matches_recorded_values(recorded, aggregator, crop):
    expected = recorded[_case_id(aggregator, crop)]
    got = _run(aggregator, crop)
    assert got["loss_history"] == expected["loss_history"]
    assert got["bag_probs"] == expected["bag_probs"]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    values = {_case_id(*case): _run(*case) for case in CASES}
    FIXTURE.write_text(json.dumps(values, indent=1) + "\n")
    print(f"wrote {len(values)} cases to {FIXTURE}")
