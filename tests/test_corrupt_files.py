"""Fuzz the three file readers with corrupted copies of valid files.

Every corruption of a tensor record, a checkpoint or a dataset file must
either load or raise ValueError; any other exception (struct.error,
MemoryError, IndexError, a RuntimeWarning turned error by the suite's
filter) is a reader bug.
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

FUZZ = settings(max_examples=120, deadline=None)

# u32 values that a corrupted length, rank, count or label field is likely
# to take: small, off by one, sign bit and all bits set
LENGTHS = st.sampled_from([0, 1, 2, 3, 4, 5, 16, 255, 2**16 - 1, 2**31 - 1, 2**31, 2**32 - 1])


def _tensor_bytes():
    buf = io.BytesIO()
    tensor.write_tensor(buf, np.arange(12, dtype=np.float32).reshape(2, 3, 2))
    return buf.getvalue()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def checkpoint_bytes(scratch):
    path = scratch / "valid.mit"
    tensor.save_named_tensors(path, [("kernel", np.ones((2, 3), dtype=np.float32)),
                                     ("bias", np.zeros(3, dtype=np.float32))])
    return path.read_bytes()


@pytest.fixture(scope="module")
def dataset_bytes(scratch):
    recipe = BagRecipe(image_size=8, textures=DEFAULT_TEXTURES[:2], mixture=(0.5, 0.5),
                       tasks=default_tasks(), missing_prob=(0.5, 0.5), tile_size=4)
    train, _, counts = generate_dataset([(recipe, 4)], seed=0)
    path = scratch / "valid.bags"
    save_bags(path, train, counts)
    return path.read_bytes()


@st.composite
def corrupted(draw, data: bytes):
    """data with one to three truncations, bit flips or u32 overwrites."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        if not out:
            break
        kind = draw(st.sampled_from(["truncate", "flip", "length"]))
        at = draw(st.integers(0, len(out) - 1))
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
    _loads_or_value_error(lambda: tensor.read_tensor(io.BytesIO(data)))


@FUZZ
@given(data=st.data())
def test_load_named_tensors_loads_or_raises_value_error(scratch, checkpoint_bytes, data):
    path = scratch / "fuzz.mit"
    path.write_bytes(data.draw(corrupted(checkpoint_bytes)))
    _loads_or_value_error(lambda: tensor.load_named_tensors(path))


@FUZZ
@given(data=st.data())
def test_load_bags_loads_or_raises_value_error(scratch, dataset_bytes, data):
    path = scratch / "fuzz.bags"
    path.write_bytes(data.draw(corrupted(dataset_bytes)))
    try:
        bags, counts = load_bags(path)
    except ValueError:
        return
    for bag in bags:  # what loads is a dataset the trainer can use
        assert bag.mask.dtype == np.uint8 and set(np.unique(bag.mask)) <= {0, 1}
        assert bag.image.ndim == 3 and bag.mask.shape == bag.image.shape[:2]
        assert all(label == -1 or 0 <= label < c for label, c in zip(bag.labels, counts))
