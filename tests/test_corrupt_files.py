"""Fuzz the file readers with corrupted copies of valid files.

Every corruption of a tensor record, a checkpoint or a dataset file must
either load or raise ValueError;
any other exception (struct.error, MemoryError, IndexError, a
RuntimeWarning turned error by the suite's filter) is a reader bug.
"""

import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmil import tensor
from qmil.synthgen import (
    DEFAULT_TEXTURES,
    BagRecipe,
    default_tasks,
    generate_dataset,
    load_bags,
    save_bags,
)
from qmil.trainer import TrainConfig, init_state, load_checkpoint, save_checkpoint

FUZZ = settings(max_examples=120, deadline=None)

# u32 values that a corrupted length, rank, count or label field is likely
# to take: small, off by one, sign bit and all bits set
LENGTHS = st.sampled_from([0, 1, 2, 3, 4, 5, 16, 255, 2**16 - 1, 2**31 - 1, 2**31, 2**32 - 1])


def _tensor_bytes(dtype=np.float32):
    buf = io.BytesIO()
    tensor.write_tensor(buf, np.arange(12).reshape(2, 3, 2), dtype)
    return buf.getvalue()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def dataset_bytes(scratch):
    recipe = BagRecipe(image_size=8, textures=DEFAULT_TEXTURES[:2], mixture=(0.5, 0.5),
                       tasks=default_tasks(0.3), missing_prob=(0.5, 0.5), tile_size=4)
    train, _, counts = generate_dataset([(recipe, 4)], seed=0)
    path = scratch / "valid.bags"
    save_bags(path, train, counts)
    data = path.read_bytes()
    assert data[-MASK_RECORD:][:4] == b"MIU1"
    return data


@st.composite
def corrupted(draw, data: bytes, start: int = 0, stop: int | None = None):
    """data with one to three truncations, bit flips or u32 overwrites.

    Each one starts in data[start:stop], all of data by default.
    """
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        if len(out) <= start:
            break
        kind = draw(st.sampled_from(["truncate", "flip", "length"]))
        at = draw(st.integers(start, min(len(out), stop or len(out)) - 1))
        if kind == "truncate":
            del out[at:]
        elif kind == "flip":
            out[at] ^= 1 << draw(st.integers(0, 7))
        else:
            out[at:at + 4] = struct.pack("<I", draw(LENGTHS))
    return bytes(out)


def _loads_or_value_error(read):
    try:
        read()
    except ValueError:
        pass


@FUZZ
@given(data=corrupted(_tensor_bytes()))
def test_read_tensor_loads_or_raises_value_error(data):
    _loads_or_value_error(lambda: tensor.read_tensor(tensor.Block(data)))


@FUZZ
@given(data=corrupted(_tensor_bytes(np.uint8)))
def test_read_uint8_tensor_loads_or_raises_value_error(data):
    _loads_or_value_error(lambda: tensor.read_tensor(tensor.Block(data), np.uint8))


@pytest.fixture(scope="module")
def quantile_checkpoint_bytes(scratch):
    path = scratch / "quantile.mit"
    save_checkpoint(path, init_state([3, 2], TrainConfig(aggregator="quantile", num_quantiles=4)))
    return path.read_bytes()


# magic and version, then the model header: aggregator meta, task count,
# two class counts, trunk layer count, two trunk layers and the input shift
CHECKPOINT_HEADER_END = 8 + 4
MODEL_HEADER_END = CHECKPOINT_HEADER_END + 4 * (2 + 1 + 2 + 1 + 2 * 4) + 4


@FUZZ
@given(data=st.data(), region=st.sampled_from(["anywhere", "header", "model"]))
def test_load_checkpoint_loads_or_raises_value_error(scratch, quantile_checkpoint_bytes, data,
                                                     region):
    start, stop = {"anywhere": (0, None), "header": (0, CHECKPOINT_HEADER_END),
                   "model": (CHECKPOINT_HEADER_END, MODEL_HEADER_END)}[region]
    path = scratch / "fuzz_state.mit"
    path.write_bytes(data.draw(corrupted(quantile_checkpoint_bytes, start, stop)))
    _loads_or_value_error(lambda: load_checkpoint(path))


# the dataset header (magic, version, counts) and the last bag's uint8 mask
# record: 8 x 8 mask bytes after a 4-byte magic, a rank and 2 dims
HEADER_END = 8 + 4 + 8 + 4 * 2
MASK_RECORD = 4 + 4 + 4 * 2 + 8 * 8


@FUZZ
@given(data=st.data(), region=st.sampled_from(["anywhere", "header", "mask"]))
def test_load_bags_loads_or_raises_value_error(scratch, dataset_bytes, data, region):
    start, stop = {"anywhere": (0, None), "header": (0, HEADER_END),
                   "mask": (len(dataset_bytes) - MASK_RECORD, None)}[region]
    path = scratch / "fuzz.bags"
    path.write_bytes(data.draw(corrupted(dataset_bytes, start, stop)))
    try:
        bags, counts = load_bags(path)
    except ValueError:
        return
    for bag in bags:  # what loads is a dataset the trainer can use
        assert bag.mask.dtype == np.uint8 and set(np.unique(bag.mask)) <= {0, 1}
        assert bag.image.ndim == 3 and bag.mask.shape == bag.image.shape[:2]
        assert all(label == -1 or 0 <= label < c for label, c in zip(bag.labels, counts))
