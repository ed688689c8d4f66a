"""Tensor file format.

A tensor file is the little-endian byte string
``b"LRT1" | u32 rank | u32 extents[rank] | f32 payload (row-major)``.
Saved scenarios use it for their batches and test split.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import TensorFormatError

MAGIC = b"LRT1"
_MAX_RANK = 32


def tensor_bytes(arr) -> bytes:
    arr = np.ascontiguousarray(arr, dtype=np.float32)
    header = MAGIC + struct.pack("<I", arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return header + arr.astype("<f4").tobytes()


def tensor_from_bytes(raw: bytes) -> np.ndarray:
    if len(raw) < 8 or raw[:4] != MAGIC:
        raise TensorFormatError("bad magic; not a LRT1 tensor file")
    (rank,) = struct.unpack_from("<I", raw, 4)
    if rank > _MAX_RANK:
        raise TensorFormatError(f"implausible rank {rank}")
    off = 8
    if len(raw) < off + 4 * rank:
        raise TensorFormatError("truncated header")
    shape = struct.unpack_from(f"<{rank}I", raw, off)
    off += 4 * rank
    count = int(np.prod(shape)) if rank else 1
    if len(raw) != off + 4 * count:
        raise TensorFormatError(
            f"payload size mismatch: expected {4 * count} bytes, got {len(raw) - off}"
        )
    data = np.frombuffer(raw, dtype="<f4", offset=off, count=count)
    return data.reshape(shape).astype(np.float32)


def save_tensor(path, arr) -> None:
    with open(path, "wb") as fh:
        fh.write(tensor_bytes(arr))


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return tensor_from_bytes(fh.read())
