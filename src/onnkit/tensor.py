"""The package's boundary value type, and the raw reductions.

A Tensor is an immutable, C-contiguous array of 64-bit floats. It is what
the package hands out and takes in: dataset pairs, parameter values, the
untaped network output and the gradients backward returns. Inside the
autodiff engine values are plain read-only ndarrays; Tensor(...) is how an
outside value enters it (a float64, C-contiguous, read-only copy).
Reductions are deterministic: the same operands always produce bitwise
identical results.
"""
from __future__ import annotations

import numpy as np

from .errors import EmptyAxis, ShapeMismatch

Shape = tuple[int, ...]

REDUCE_KINDS = ("sum", "max", "median")


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


def _normalize_axis(axis: int, ndim: int) -> int:
    if not -ndim <= axis < ndim:
        raise ShapeMismatch(f"axis {axis} out of range for rank {ndim}")
    return axis % ndim


def _median_pick(arr: np.ndarray, axis: int):
    """(values, winner-indices) of the element a stable sort would place
    at position k = floor(extent/2) along the axis.

    Only the k-th value v of each row is sorted out; the winner is then
    recovered exactly as the (number of entries equal to v among the
    first k sorted ones)-th entry equal to v in index order. "Equal"
    follows sort order: -0.0 ties with 0.0 and NaNs, sorted last, tie
    with each other.
    """
    n = arr.shape[axis]
    k = n // 2
    rows = np.moveaxis(arr, axis, -1)
    lead = rows.shape[:-1]
    flat = rows.reshape(-1, n)
    ordered = np.sort(flat, axis=1)
    v = ordered[:, k:k + 1]
    hits = flat == v
    before = ordered[:, :k] == v
    if np.isnan(v).any():
        hits |= np.isnan(flat) & np.isnan(v)
        before |= np.isnan(ordered[:, :k]) & np.isnan(v)
    counts = hits.sum(axis=1)
    starts = np.cumsum(counts) - counts
    pos = np.flatnonzero(hits)[starts + before.sum(axis=1)]
    values = flat.ravel()[pos].reshape(lead)
    arg = (pos - np.arange(0, pos.size * n, n)).reshape(lead)
    return values, arg


def _reduce_raw(kind: str, arr: np.ndarray, axis: int):
    """Reduce one axis of a raw array. Returns (values, winner-indices|None).

    median picks the element at sorted position floor(extent/2) of a
    stable sort, so the winner index is always a valid position in the
    original array and equal values resolve to the earliest one. No sort
    permutation is built: see _median_pick. max resolves ties to the
    lowest index.
    """
    if kind not in REDUCE_KINDS:
        raise ValueError(f"unknown reduction {kind!r}")
    axis = _normalize_axis(axis, arr.ndim)
    if arr.shape[axis] == 0:
        raise EmptyAxis(f"cannot reduce axis {axis} with extent 0")
    if kind == "sum":
        return arr.sum(axis=axis), None
    if kind == "median":
        return _median_pick(arr, axis)
    arg = np.argmax(arr, axis=axis)
    values = np.take_along_axis(arr, np.expand_dims(arg, axis), axis=axis)
    return np.squeeze(values, axis=axis), arg
