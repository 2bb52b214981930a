"""Dense tensor value type and the RAMMTEN1 on-disk format.

A Tensor is a shape plus a flat row-major buffer at 32- or 64-bit precision.
Training runs at 32-bit; gradient-check paths use 64-bit throughout because
central differences are unreliable in single precision.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import FormatError, RammError, ShapeError, TruncatedFileError

MAGIC = b"RAMMTEN1"

_DTYPES = {4: np.float32, 8: np.float64}


class Tensor:
    """Immutable-by-convention dense array: shape + flat row-major data."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        arr = np.ascontiguousarray(array)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if any(dim <= 0 for dim in arr.shape):
            raise ShapeError(f"all dimensions must be positive, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise RammError("tensor contains non-finite values")
        self.array = arr

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    @property
    def dtype(self):
        return self.array.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype})"


def save_tensor(t: Tensor | np.ndarray, path: str | Path) -> None:
    """Write RAMMTEN1: magic, precision tag, rank, u64 LE dims, LE payload."""
    arr = t.array if isinstance(t, Tensor) else np.ascontiguousarray(t)
    itemsize = arr.dtype.itemsize
    if itemsize not in _DTYPES:
        raise FormatError(f"unsupported dtype {arr.dtype}")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<BB", itemsize, arr.ndim))
        for dim in arr.shape:
            f.write(struct.pack("<Q", dim))
        f.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())


def load_tensor(path: str | Path) -> Tensor:
    """Read a RAMMTEN1 file written by save_tensor."""
    raw = Path(path).read_bytes()
    if len(raw) < 10:
        raise TruncatedFileError(f"{path}: file shorter than header")
    if raw[:8] != MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:8]!r}")
    prec, rank = struct.unpack("<BB", raw[8:10])
    if prec not in _DTYPES:
        raise FormatError(f"{path}: bad precision tag {prec}")
    need = 10 + 8 * rank
    if len(raw) < need:
        raise TruncatedFileError(f"{path}: truncated dimension table")
    dims = struct.unpack(f"<{rank}Q", raw[10:need])
    count = int(np.prod(dims)) if dims else 1
    payload = raw[need:]
    if len(payload) < count * prec:
        raise TruncatedFileError(
            f"{path}: payload has {len(payload)} bytes, need {count * prec}"
        )
    dtype = np.dtype(_DTYPES[prec]).newbyteorder("<")
    arr = np.frombuffer(payload[: count * prec], dtype=dtype).reshape(dims)
    return Tensor(arr.astype(_DTYPES[prec]))


def finite_difference_gradient(
    f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of a scalar function, at 64-bit precision."""
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(x))
        flat[i] = orig - h
        fm = float(f(x))
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise RammError("objective returned non-finite value during probing")
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray, eps: float = 1e-12) -> float:
    """Scale-free disagreement between two gradients."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), eps)
    return float(np.linalg.norm(a - b) / denom)
