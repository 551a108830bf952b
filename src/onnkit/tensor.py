"""Dense float64 tensors: broadcasting, reductions, reshape.

A Tensor is an immutable, C-contiguous array of 64-bit floats. It is the
value type everything else in the package is built on. Operations are
deterministic: the same operands always produce bitwise identical results.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import EmptyAxis, ShapeMismatch, SizeMismatch

Shape = tuple[int, ...]

REDUCE_KINDS = ("sum", "max", "median")


@dataclass(frozen=True)
class BroadcastSpec:
    """Alignment of two shapes under trailing-dimension broadcasting.

    Shapes are right-aligned; missing leading dimensions count as extent 1.
    A pair of extents is compatible when they are equal or one of them is 1.
    """

    left: Shape
    right: Shape
    result: Shape

    @classmethod
    def align(cls, left: Shape, right: Shape) -> "BroadcastSpec":
        rank = max(len(left), len(right))
        lpad = (1,) * (rank - len(left)) + tuple(left)
        rpad = (1,) * (rank - len(right)) + tuple(right)
        result = []
        for le, re in zip(lpad, rpad):
            if le == re or re == 1:
                result.append(le)
            elif le == 1:
                result.append(re)
            else:
                raise ShapeMismatch(
                    f"cannot broadcast {tuple(left)} with {tuple(right)}: "
                    f"extents {le} and {re} are incompatible"
                )
        return cls(tuple(left), tuple(right), tuple(result))


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

    def item(self) -> float:
        if self._data.size != 1:
            raise SizeMismatch(f"item() needs exactly one element, have {self._data.size}")
        return float(self._data.reshape(()))

    def tolist(self):
        return self._data.tolist()

    def __repr__(self) -> str:
        return f"Tensor({self._data.tolist()!r})"

    # Convenience arithmetic. These go through broadcast_binary so the
    # shape rules are identical to the functional API.
    def __add__(self, other):
        return broadcast_binary(np.add, self, _coerce(other))

    def __radd__(self, other):
        return broadcast_binary(np.add, _coerce(other), self)

    def __sub__(self, other):
        return broadcast_binary(np.subtract, self, _coerce(other))

    def __rsub__(self, other):
        return broadcast_binary(np.subtract, _coerce(other), self)

    def __mul__(self, other):
        return broadcast_binary(np.multiply, self, _coerce(other))

    def __rmul__(self, other):
        return broadcast_binary(np.multiply, _coerce(other), self)

    def __truediv__(self, other):
        return broadcast_binary(np.divide, self, _coerce(other))

    def __neg__(self):
        return Tensor._wrap(-self._data)


def _coerce(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def zeros(shape: Sequence[int]) -> Tensor:
    return Tensor._wrap(np.zeros(tuple(shape), dtype=np.float64))


def full(shape: Sequence[int], value: float) -> Tensor:
    return Tensor._wrap(np.full(tuple(shape), value, dtype=np.float64))


def broadcast_binary(op: Callable[[np.ndarray, np.ndarray], np.ndarray],
                     a: Tensor, b: Tensor) -> Tensor:
    """Apply an elementwise binary op under trailing-dimension broadcasting."""
    spec = BroadcastSpec.align(a.shape, b.shape)
    out = op(a.data, b.data)
    if tuple(out.shape) != spec.result:
        raise ShapeMismatch(
            f"operation produced shape {tuple(out.shape)}, expected {spec.result}"
        )
    return Tensor._wrap(out)


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


def reduce(kind: str, a: Tensor, axis: int) -> tuple[Tensor, Tensor | None]:
    """Reduce one axis. Returns (values, winner-indices) for max/median,
    (values, None) for sum. Winner indices are returned as a float tensor;
    the stored values are exact integers."""
    values, arg = _reduce_raw(kind, a.data, axis)
    arg_t = None if arg is None else Tensor._wrap(arg.astype(np.float64))
    return Tensor._wrap(values), arg_t


def reshape(a: Tensor, new_shape: Sequence[int]) -> Tensor:
    new_shape = tuple(int(s) for s in new_shape)
    new_size = 1
    for s in new_shape:
        if s < 0:
            raise ShapeMismatch(f"negative extent in shape {new_shape}")
        new_size *= s
    if new_size != a.size:
        raise SizeMismatch(
            f"cannot reshape {a.shape} ({a.size} elements) to {new_shape} ({new_size} elements)"
        )
    return Tensor._wrap(np.reshape(a.data, new_shape))
