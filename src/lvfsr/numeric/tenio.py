"""`.ten` tensor files: magic "LVT1", u32 LE rank, u32 LE extents, f32 LE payload.

Writes are atomic (temp file in the target directory, then rename) so a
crashed writer never leaves a partially written file under the final name.
"""

from __future__ import annotations

import os
import struct
import tempfile
from typing import Tuple

import numpy as np

from ..errors import FormatError

MAGIC = b"LVT1"
_MAX_RANK = 8


def tensor_bytes(arr: np.ndarray) -> bytes:
    """Serialize an array to the `.ten` wire format (row-major float32)."""
    a = np.asarray(arr, dtype="<f4")
    if a.ndim > _MAX_RANK:
        raise FormatError(f"rank {a.ndim} exceeds the format maximum {_MAX_RANK}")
    header = MAGIC + struct.pack("<I", a.ndim)
    header += struct.pack(f"<{a.ndim}I", *a.shape)
    # ascontiguousarray would promote rank 0 to rank 1, so order via tobytes
    return header + a.tobytes(order="C")


def tensor_extents(buf, context: str = "<bytes>") -> Tuple[int, ...]:
    """Check a `.ten` payload's framing and return its extents."""
    if len(buf) < 8:
        raise FormatError(f"{context}: truncated header ({len(buf)} bytes)")
    if buf[:4] != MAGIC:
        raise FormatError(f"{context}: bad magic {bytes(buf[:4])!r}, expected {MAGIC!r}")
    (rank,) = struct.unpack_from("<I", buf, 4)
    if rank > _MAX_RANK:
        raise FormatError(f"{context}: rank {rank} exceeds the format maximum {_MAX_RANK}")
    need = 8 + 4 * rank
    if len(buf) < need:
        raise FormatError(f"{context}: truncated extent list")
    shape = struct.unpack_from(f"<{rank}I", buf, 8)
    count = 1
    for e in shape:
        count *= e
    if len(buf) != need + 4 * count:
        raise FormatError(f"{context}: payload is {len(buf) - need} bytes, "
                          f"extents {shape} require {4 * count}")
    return shape


def tensor_view(buf, context: str = "<bytes>") -> np.ndarray:
    """Check a `.ten` payload and return its floats as an array over `buf`.

    Nothing is copied: the array keeps `buf` alive, and is read-only when
    `buf` is (as `bytes` and views of it are).
    """
    shape = tensor_extents(buf, context)
    return np.frombuffer(buf, dtype="<f4", offset=8 + 4 * len(shape)).reshape(shape)


def tensor_from_bytes(buf, context: str = "<bytes>") -> np.ndarray:
    """Parse a `.ten` payload from any bytes-like buffer into a fresh array."""
    return tensor_view(buf, context).copy()


def write_ten(path, arr: np.ndarray) -> None:
    atomic_write(path, tensor_bytes(arr))


def read_ten(path) -> np.ndarray:
    with open(path, "rb") as fh:
        buf = fh.read()
    return tensor_from_bytes(buf, context=str(path))


def atomic_write(path, payload: bytes) -> None:
    """Write bytes to `path` via a same-directory temp file and rename."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
