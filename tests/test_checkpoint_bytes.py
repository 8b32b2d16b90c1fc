"""Byte-identity gate for the checkpoint format.

A change to how ``save_checkpoint`` lays out a model and its heads (the
header that describes the model, or the order, shapes or dtypes of the
parameter groups' records) must leave every checkpoint file unchanged to
the byte. This file pins the sha256 of the ``save_checkpoint`` output for
a state of each aggregator over tasks of 3, 2 and 2 classes, with 7
quantiles. The states come from ``init_state`` with every parameter group
filled from a seeded generator, with no training and no generated data,
so the bytes depend only on the format and numpy's ``Generator`` streams
(recorded with numpy 2.4 on x86-64). Each file must also load back to the
arrays it was written from.

Regenerate the digests, at a commit whose checkpoint format is known good,
only when a change alters the format on purpose:

    PYTHONPATH=src python tests/test_checkpoint_bytes.py
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from qmil.trainer import TrainConfig, init_state, load_checkpoint, save_checkpoint

FIXTURE = pathlib.Path(__file__).parent / "data" / "checkpoint_bytes.json"
COUNTS = [3, 2, 2]
KINDS = ("mean", "max", "quantile")


def _state(kind):
    state = init_state(COUNTS, TrainConfig(aggregator=kind, num_quantiles=7))
    rng = np.random.default_rng([13, KINDS.index(kind)])
    for group in state.groups:
        group.params[...] = rng.normal(size=group.params.shape)
    return state


def _digest(tmp_dir, kind):
    path = pathlib.Path(tmp_dir) / f"{kind}.ckpt"
    save_checkpoint(path, _state(kind))
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("kind", KINDS)
def test_checkpoint_bytes_match_recorded(recorded, tmp_path, kind):
    assert _digest(tmp_path, kind) == recorded[kind]


@pytest.mark.parametrize("kind", KINDS)
def test_checkpoint_loads_back_to_equal_arrays(tmp_path, kind):
    state = _state(kind)
    path = tmp_path / f"{kind}.ckpt"
    save_checkpoint(path, state)
    loaded = load_checkpoint(path)
    assert loaded.aggregator.meta == state.aggregator.meta
    assert loaded.model.task_class_counts == COUNTS
    for a, b in zip(loaded.model.layers, state.model.layers, strict=True):
        assert a.stride == b.stride
        assert np.array_equal(a.kernel, b.kernel) and np.array_equal(a.bias, b.bias)
    for a, b in zip(loaded.heads, state.heads, strict=True):
        if b is None:
            assert a is None
        else:
            assert np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        values = {kind: _digest(tmp, kind) for kind in KINDS}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(values, indent=1) + "\n")
    print(f"wrote {len(values)} checkpoints to {FIXTURE}")
