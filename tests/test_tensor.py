import io
import struct

import numpy as np
import pytest

from qmil import tensor


class TestTensorFile:
    def test_round_trip_all_ranks(self):
        rng = np.random.default_rng(4)
        for shape in [(5,), (3, 4), (2, 3, 4), (2, 2, 3, 2)]:
            arr = rng.normal(size=shape).astype(np.float32)
            buf = io.BytesIO()
            tensor.write_tensor(buf, arr)
            buf.seek(0)
            np.testing.assert_array_equal(tensor.read_tensor(buf), arr)
            assert buf.read() == b""

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

    def test_bad_magic_rejected(self):
        buf = io.BytesIO(b"XXXX" + struct.pack("<I", 1))
        with pytest.raises(ValueError, match="magic"):
            tensor.read_tensor(buf)

    def test_truncated_payload_rejected(self):
        buf = io.BytesIO()
        tensor.write_tensor(buf, np.ones(4, dtype=np.float32))
        data = buf.getvalue()[:-4]
        with pytest.raises(ValueError, match="truncated"):
            tensor.read_tensor(io.BytesIO(data))

    def test_dims_beyond_file_size_rejected_before_reading(self, tmp_path):
        # 40 bytes whose dims claim ~3.4 PB: a size check, not a MemoryError
        path = tmp_path / "t.mit"
        path.write_bytes(
            b"MIT1" + struct.pack("<5I", 4, 65535, 65535, 65535, 3) + bytes(16)
        )
        with open(path, "rb") as fh, pytest.raises(
            ValueError, match="truncated tensor payload at byte 24: .* 16 left"
        ):
            tensor.read_tensor(fh)

    def test_payload_size_computed_without_overflow(self):
        dims = (2**32 - 1,) * 4
        buf = io.BytesIO(b"MIT1" + struct.pack("<5I", 4, *dims))
        size = 4 * (2**32 - 1) ** 4
        with pytest.raises(ValueError, match=f"tensor payload at byte 24: expected {size} bytes, 0 left"):
            tensor.read_tensor(buf)

    def test_non_utf8_name_names_field_and_offset(self, tmp_path):
        path = tmp_path / "ckpt.mit"
        tensor.save_named_tensors(path, [("ab", np.ones(2, dtype=np.float32))])
        data = bytearray(path.read_bytes())
        data[3] = 0xFF  # second name byte, at byte 3
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="tensor name at byte 2 is not UTF-8: .* at byte 3"):
            tensor.load_named_tensors(path)

    def test_named_tensors_round_trip_preserves_order(self, tmp_path):
        rng = np.random.default_rng(5)
        named = [
            ("alpha.kernel", rng.normal(size=(2, 3)).astype(np.float32)),
            ("alpha.bias", rng.normal(size=3).astype(np.float32)),
            ("beta", rng.normal(size=(4,)).astype(np.float32)),
        ]
        path = tmp_path / "ckpt.mit"
        tensor.save_named_tensors(path, named)
        loaded = tensor.load_named_tensors(path)
        assert list(loaded) == [name for name, _ in named]
        for name, arr in named:
            np.testing.assert_array_equal(loaded[name], arr)


# checkpoint with one rank-2 tensor named "ab": name length at 0, name at 2,
# magic at 4, rank at 8, dims at 12, payload at 20
@pytest.mark.parametrize("cut,field,offset", [
    (1, "tensor name length", 0),
    (3, "tensor name", 2),
    (6, "tensor magic", 4),
    (10, "tensor rank", 8),
    (16, "tensor dims", 12),
    (25, "tensor payload", 20),
])
def test_truncated_checkpoint_names_field_and_offset(tmp_path, cut, field, offset):
    path = tmp_path / "ckpt.mit"
    tensor.save_named_tensors(path, [("ab", np.ones((2, 3), dtype=np.float32))])
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(ValueError, match=f"truncated {field} at byte {offset}:"):
        tensor.load_named_tensors(path)
