"""Finite-value checks and the binary file formats: tensor records, datasets, checkpoints.

check_finite raises FloatingPointError when an array holds NaN or Inf.

Every integer is little-endian. A tensor record is a magic ("MIT1" for
float32, "MIU1" for uint8), a u32 rank in 1..4, rank u32 dims and the raw
payload. A file starts with an 8-byte magic and a u32 format version:

- dataset (``synthgen.save_bags``): "QMILBAGS", version 3; u32 bag count,
  u32 task count, one u32 class count per task; then per bag a u32 group
  id, one i32 label per task (-1 = missing), the true mixture as a float32
  record, and the (W, W, 3) image and the (W, W) mask as uint8 records.
  An image byte v stands for the intensity v / 255. Version 2 stored the
  image as float32 in [0, 1]; version 1 also had no magic and version and
  stored float32 masks.
- checkpoint (``trainer.save_checkpoint``): "QMILCKPT", version 2; then
  a header that describes the model, all u32 but the last field: the
  aggregator's kind code (its index in AGGREGATOR_KINDS) and Q (0 for a
  kind without heads); the task count T and T class counts; the trunk
  layer count L and per trunk layer its kernel side, stride, c_in and
  c_out (the closing 1x1 layer, one channel per class, is implied); the
  input shift as f32. Then one float32 rank-1 record per parameter group
  with its flat params in layout order: the model's, then the heads', if
  the aggregator has heads. Version 1 held named tensors, and checkpoints
  before it had no magic and version.

A reader reads its file in one call into a Block and slices the fields
and records out of it: tensors are views into the block. It rejects a
corrupt or truncated file with a ValueError that names the field and its
byte offset.
"""

from __future__ import annotations

import math
import struct
from typing import BinaryIO

import numpy as np

# record magic of each payload dtype
RECORD_MAGIC = {np.dtype("<f4"): b"MIT1", np.dtype("u1"): b"MIU1"}
MAX_RANK = 4
# per file kind: magic, format version and what to do with a file of an older format
FORMATS = {
    "dataset": (b"QMILBAGS", 3, "files of format version 1 or 2 must be regenerated"),
    "checkpoint": (b"QMILCKPT", 2, "checkpoints saved before format version 2 must be re-saved"),
}


def check_finite(arr: np.ndarray, context: str = "") -> np.ndarray:
    """Raise if arr contains NaN or Inf; finite values are a contract here.

    The finite values are counted: on the few values of a training step's
    arrays np.count_nonzero costs ~0.7 us where np.all or ndarray.all, a
    ufunc reduction, costs ~1.6-4 us (2-core x86-64, numpy 2.4).
    """
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        where = f" in {context}" if context else ""
        raise FloatingPointError(f"non-finite values{where}")
    return arr


class Block:
    """A file's bytes, handed out front to back as views checked against the bytes left."""

    def __init__(self, data):
        self.data = np.frombuffer(data, np.uint8)
        self.offset = 0

    @property
    def left(self) -> int:
        return self.data.size - self.offset

    def take(self, size: int, field: str) -> np.ndarray:
        """The next size bytes as a uint8 view."""
        if size > self.left:
            raise ValueError(f"truncated {field} at byte {self.offset}: "
                             f"expected {size} bytes, {self.left} left")
        self.offset += size
        return self.data[self.offset - size:self.offset]

    def unpack(self, fmt: str, field: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), field))


def write_header(fh: BinaryIO, kind: str) -> None:
    magic, version, _ = FORMATS[kind]
    fh.write(magic + struct.pack("<I", version))


def read_block(path, kind: str) -> Block:
    """Read a file of kind in one call and check its header; the block's views are writable."""
    block = Block(np.fromfile(path, np.uint8))
    magic, version, older = FORMATS[kind]
    found = block.take(len(magic), f"{kind} magic").tobytes()
    if found != magic:
        raise ValueError(f"not a {kind} file: found {found!r} where the magic {magic!r} "
                         f"belongs; {older}")
    (got,) = block.unpack("<I", f"{kind} format version")
    if got != version:
        raise ValueError(f"{kind} format version {got} is not the version {version} "
                         "this reader reads" + (f"; {older}" if got < version else ""))
    return block


def write_tensor(fh: BinaryIO, arr, dtype=np.float32) -> None:
    """Write arr, cast to dtype (float32 or uint8), as one tensor record."""
    dtype = np.dtype(dtype).newbyteorder("<")
    arr = np.ascontiguousarray(arr, dtype=dtype)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if not 1 <= arr.ndim <= MAX_RANK:
        raise ValueError(f"cannot serialize rank-{arr.ndim} tensor")
    fh.write(RECORD_MAGIC[dtype])
    fh.write(struct.pack("<I", arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(arr)


def read_tensor(block: Block, dtype=np.float32) -> np.ndarray:
    """The next tensor record of dtype in block, as a view into it.

    A record of another dtype is rejected by its magic. The view may be
    unaligned: records follow one another with no padding.
    """
    dtype = np.dtype(dtype).newbyteorder("<")
    magic = block.take(4, "tensor magic").tobytes()
    if magic != RECORD_MAGIC[dtype]:
        raise ValueError(f"bad tensor magic {magic!r}, expected {RECORD_MAGIC[dtype]!r}")
    (rank,) = block.unpack("<I", "tensor rank")
    if not 1 <= rank <= MAX_RANK:
        raise ValueError(f"bad tensor rank {rank}")
    shape = block.unpack(f"<{rank}I", "tensor dims")
    size = dtype.itemsize * math.prod(shape)  # python ints: no overflow
    return block.take(size, "tensor payload").view(dtype).reshape(shape)
