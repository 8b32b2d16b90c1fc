"""Dense tensor primitives and the binary tensor file format.

Tensors are C-contiguous numpy arrays of rank 1..4, float32 by default with
a float64 mode for gradient checking. There is no implicit broadcasting:
binary elementwise ops require an exact shape match or a python scalar, so
shape bugs surface at the call site.
"""

from __future__ import annotations

import io
import math
import struct
from typing import BinaryIO

import numpy as np

MAGIC = b"MIT1"
MAX_RANK = 4
LOG_EPS = 1e-12

_UNARY_OPS = ("relu", "exp", "log")
_BINARY_OPS = ("add", "sub", "mul", "scale")


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


def elementwise(op: str, a, b=None) -> np.ndarray:
    """Apply an elementwise operation.

    Unary ops (relu, exp, log) take no second operand; add/sub/mul accept a
    tensor of identical shape or a scalar; scale accepts a scalar only.
    log clamps its input at LOG_EPS before taking the logarithm.
    """
    a = np.asarray(a)
    if op in _UNARY_OPS:
        if b is not None:
            raise ValueError(f"{op} is unary, got a second operand")
        if op == "relu":
            out = np.maximum(a, 0)
        elif op == "exp":
            with np.errstate(over="ignore"):  # check_finite raises instead
                out = np.exp(a)
        else:
            out = np.log(np.maximum(a, LOG_EPS))
    elif op in _BINARY_OPS:
        rhs = b
        if isinstance(b, np.ndarray) and b.ndim > 0:
            if op == "scale":
                raise ValueError(f"scale expects a scalar, got shape {b.shape}")
            if b.shape != a.shape:
                raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
        elif not np.isscalar(rhs) and not isinstance(rhs, np.ndarray):
            raise ValueError(f"{op} expects a tensor or scalar operand")
        if op == "add":
            out = a + rhs
        elif op == "sub":
            out = a - rhs
        else:  # mul, scale
            out = a * rhs
    else:
        raise ValueError(f"unknown elementwise op {op!r}")
    return check_finite(np.asarray(out, dtype=a.dtype), op)


def add(a, b):
    return elementwise("add", a, b)


def sub(a, b):
    return elementwise("sub", a, b)


def mul(a, b):
    return elementwise("mul", a, b)


def scale(a, s):
    return elementwise("scale", a, s)


def relu(a):
    return elementwise("relu", a)


def matmul(a, b) -> np.ndarray:
    """Matrix product of two rank-2 tensors."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul needs rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape} x {b.shape}")
    return check_finite(a @ b, "matmul")


# --- binary tensor file format ------------------------------------------
#
# Record layout: magic "MIT1", u32 little-endian rank, rank u32 dims,
# raw little-endian f32 payload. A checkpoint is a sequence of such
# records, each preceded by a u16 name length and the UTF-8 name bytes.


def write_tensor(fh: BinaryIO, arr) -> None:
    arr = np.ascontiguousarray(arr, dtype=np.float32)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if not 1 <= arr.ndim <= MAX_RANK:
        raise ValueError(f"cannot serialize rank-{arr.ndim} tensor")
    fh.write(MAGIC)
    fh.write(struct.pack("<I", arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(arr.astype("<f4").tobytes())


def read_exact(fh: BinaryIO, size: int, field: str) -> bytes:
    """Read exactly size bytes; a short read names the field and its offset.

    On a seekable file, a size beyond the bytes left is rejected before
    reading, so a corrupt length field cannot make the read allocate more
    than the file holds. Reads within one buffer allocate no more than the
    buffer and skip the check.
    """
    if size > io.DEFAULT_BUFFER_SIZE and fh.seekable():
        offset = fh.tell()
        left = fh.seek(0, io.SEEK_END) - offset
        fh.seek(offset)
        if size > left:
            raise ValueError(
                f"truncated {field} at byte {offset}: expected {size} bytes, {left} left"
            )
    data = fh.read(size)
    if len(data) != size:
        raise ValueError(
            f"truncated {field} at byte {fh.tell() - len(data)}: "
            f"expected {size} bytes, got {len(data)}"
        )
    return data


def read_tensor(fh: BinaryIO) -> np.ndarray:
    magic = read_exact(fh, 4, "tensor magic")
    if magic != MAGIC:
        raise ValueError(f"bad tensor magic {magic!r}, expected {MAGIC!r}")
    (rank,) = struct.unpack("<I", read_exact(fh, 4, "tensor rank"))
    if not 1 <= rank <= MAX_RANK:
        raise ValueError(f"bad tensor rank {rank}")
    shape = struct.unpack(f"<{rank}I", read_exact(fh, 4 * rank, "tensor dims"))
    size = 4 * math.prod(shape)  # python ints: no overflow
    payload = read_exact(fh, size, "tensor payload")
    return np.frombuffer(payload, dtype="<f4").reshape(shape).astype(np.float32)


def save_named_tensors(path, named) -> None:
    """Write an ordered mapping of name -> tensor as a checkpoint file."""
    items = named.items() if hasattr(named, "items") else named
    with open(path, "wb") as fh:
        for name, arr in items:
            data = name.encode("utf-8")
            if len(data) > 0xFFFF:
                raise ValueError(f"tensor name too long: {name[:32]}...")
            fh.write(struct.pack("<H", len(data)))
            fh.write(data)
            write_tensor(fh, arr)


def load_named_tensors(path) -> dict:
    """Read a checkpoint file back into an ordered name -> tensor dict."""
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        while True:
            head = fh.read(2)
            if not head:
                break
            if len(head) < 2:
                raise ValueError(
                    f"truncated tensor name length at byte {fh.tell() - 1}: "
                    "expected 2 bytes, got 1"
                )
            (n,) = struct.unpack("<H", head)
            offset = fh.tell()
            raw = read_exact(fh, n, "tensor name")
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(
                    f"tensor name at byte {offset} is not UTF-8: {exc.reason} "
                    f"at byte {offset + exc.start}"
                ) from None
            out[name] = read_tensor(fh)
    return out
