import io
import struct

import numpy as np
import pytest

from qmil import tensor
from qmil.trainer import TrainConfig, init_state, load_checkpoint, save_checkpoint


class TestTensorFile:
    def test_round_trip_all_ranks(self):
        rng = np.random.default_rng(4)
        for shape in [(5,), (3, 4), (2, 3, 4), (2, 2, 3, 2)]:
            arr = rng.normal(size=shape).astype(np.float32)
            buf = io.BytesIO()
            tensor.write_tensor(buf, arr)
            block = tensor.Block(buf.getvalue())
            np.testing.assert_array_equal(tensor.read_tensor(block), arr)
            assert block.left == 0

    def test_byte_layout_matches_format(self):
        arr = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        buf = io.BytesIO()
        tensor.write_tensor(buf, arr)
        expected = (
            b"MIT1"
            + struct.pack("<I", 2)
            + struct.pack("<II", 2, 2)
            + arr.astype("<f4").tobytes()
        )
        assert buf.getvalue() == expected

    def test_uint8_record_layout_and_round_trip(self):
        arr = np.array([[0, 1, 255], [7, 0, 1]], dtype=np.uint8)
        buf = io.BytesIO()
        tensor.write_tensor(buf, arr, np.uint8)
        assert buf.getvalue() == b"MIU1" + struct.pack("<3I", 2, 2, 3) + arr.tobytes()
        got = tensor.read_tensor(tensor.Block(buf.getvalue()), np.uint8)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, arr)

    def test_float32_record_after_an_odd_uint8_record_reads_as_an_unaligned_view(self):
        # records carry no padding: a 3-byte payload leaves the next at byte 27
        arr = np.array([0.25, -1.5, 3.0], dtype=np.float32)
        buf = io.BytesIO()
        tensor.write_tensor(buf, np.arange(3), np.uint8)
        tensor.write_tensor(buf, arr)
        block = tensor.Block(buf.getvalue())
        tensor.read_tensor(block, np.uint8)
        got = tensor.read_tensor(block)
        assert not got.flags.aligned
        np.testing.assert_array_equal(got, arr)
        assert (got * 2).tolist() == [0.5, -3.0, 6.0]

    @pytest.mark.parametrize("dtype", [np.float32, np.uint8])
    def test_read_arrays_are_writable_views_into_the_block(self, dtype):
        buf = io.BytesIO()
        tensor.write_tensor(buf, np.ones((3, 4)), dtype)
        block = tensor.Block(bytearray(buf.getvalue()))
        got = tensor.read_tensor(block, dtype)
        assert got.flags.writeable and got.flags.c_contiguous
        assert np.shares_memory(got, block.data)
        got[0, 0] = 2

    @pytest.mark.parametrize("written,read,found", [
        (np.uint8, np.float32, "MIU1"),
        (np.float32, np.uint8, "MIT1"),
    ])
    def test_record_of_another_dtype_rejected(self, written, read, found):
        buf = io.BytesIO()
        tensor.write_tensor(buf, np.ones(4), written)
        with pytest.raises(ValueError, match=f"bad tensor magic b'{found}'"):
            tensor.read_tensor(tensor.Block(buf.getvalue()), read)

    def test_bad_magic_rejected(self):
        block = tensor.Block(b"XXXX" + struct.pack("<I", 1))
        with pytest.raises(ValueError, match="magic"):
            tensor.read_tensor(block)

    def test_truncated_payload_rejected(self):
        buf = io.BytesIO()
        tensor.write_tensor(buf, np.ones(4, dtype=np.float32))
        data = buf.getvalue()[:-4]
        with pytest.raises(ValueError, match="truncated"):
            tensor.read_tensor(tensor.Block(data))

    def test_dims_beyond_file_size_rejected_before_reading(self, tmp_path):
        # 40 bytes whose dims claim ~3.4 PB: a size check, not a MemoryError
        path = tmp_path / "t.mit"
        path.write_bytes(
            b"MIT1" + struct.pack("<5I", 4, 65535, 65535, 65535, 3) + bytes(16)
        )
        with pytest.raises(
            ValueError, match="truncated tensor payload at byte 24: .* 16 left"
        ):
            tensor.read_tensor(tensor.Block(path.read_bytes()))

    def test_payload_size_computed_without_overflow(self):
        dims = (2**32 - 1,) * 4
        block = tensor.Block(b"MIT1" + struct.pack("<5I", 4, *dims))
        size = 4 * (2**32 - 1) ** 4
        with pytest.raises(ValueError, match=f"tensor payload at byte 24: expected {size} bytes, 0 left"):
            tensor.read_tensor(block)

    @pytest.mark.parametrize("start,message", [
        # a checkpoint saved before the header starts with its first name
        (struct.pack("<H", 2) + b"ab",
         r"found b'\\x02\\x00ab.*' where the magic b'QMILCKPT' belongs; checkpoints saved "
         "before format version 2 must be re-saved"),
        (b"QMILBAGS", "not a checkpoint file: found b'QMILBAGS'"),
        (b"QMILCKPT" + struct.pack("<I", 3),
         "checkpoint format version 3 is not the version 2 this reader reads$"),
    ])
    def test_unknown_magic_or_version_names_what_was_found(self, tmp_path, start, message):
        path = tmp_path / "ckpt.mit"
        path.write_bytes(start.ljust(16, b"\0"))
        with pytest.raises(ValueError, match=message):
            tensor.read_block(path, "checkpoint")


# checkpoint of a mean model of two tasks on the default trunk: 12 bytes of
# magic and version, then the header fields and the trunk record
@pytest.mark.parametrize("cut,field,offset", [
    (15, "aggregator meta", 12),
    (22, "task count", 20),
    (30, "class counts", 24),
    (33, "trunk layer count", 32),
    (60, "trunk layers", 36),
    (70, "input shift", 68),
    (74, "tensor magic", 72),
    (78, "tensor rank", 76),
    (82, "tensor dims", 80),
    (90, "tensor payload", 84),
])
def test_truncated_checkpoint_names_field_and_offset(tmp_path, cut, field, offset):
    path = tmp_path / "ckpt.mit"
    save_checkpoint(path, init_state([2, 2], TrainConfig(aggregator="mean")))
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(ValueError, match=f"truncated {field} at byte {offset}:"):
        load_checkpoint(path)
