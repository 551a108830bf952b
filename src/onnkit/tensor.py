"""The package's boundary value type.

A Tensor is an immutable, C-contiguous array of 64-bit floats. It is what
the package hands out and takes in: dataset pairs, parameter values, the
untaped network output and the gradients backward returns. Inside the
autodiff engine values are plain read-only ndarrays; Tensor(...) is how an
outside value enters it (a float64, C-contiguous, read-only copy).
"""
from __future__ import annotations

import numpy as np

Shape = tuple[int, ...]


class Tensor:
    """Immutable dense array of float64 values in row-major order."""

    __slots__ = ("_data",)

    def __init__(self, data):
        if isinstance(data, Tensor):
            data = data._data
        arr = np.array(data, dtype=np.float64, order="C")
        arr.flags.writeable = False
        self._data = arr

    def __array__(self, dtype=None, copy=None):
        if dtype is not None and dtype != self._data.dtype:
            return self._data.astype(dtype)
        if copy:
            return self._data.copy()
        return self._data

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        """Adopt a freshly computed array without copying it."""
        out = object.__new__(cls)
        arr = np.asarray(arr, dtype=np.float64)
        if not arr.flags.c_contiguous:
            # ascontiguousarray would also promote 0-d arrays to 1-d;
            # 0-d arrays are always contiguous so this branch keeps rank
            arr = np.ascontiguousarray(arr)
        if arr.flags.writeable:
            arr.flags.writeable = False
        out._data = arr
        return out

    @property
    def data(self) -> np.ndarray:
        """The backing array. It is marked read-only."""
        return self._data

    @property
    def shape(self) -> Shape:
        return self._data.shape

    @property
    def ndim(self) -> int:
        return self._data.ndim

    @property
    def size(self) -> int:
        return self._data.size

    def tolist(self):
        return self._data.tolist()

    def __repr__(self) -> str:
        return f"Tensor({self._data.tolist()!r})"

