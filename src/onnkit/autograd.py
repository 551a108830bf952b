"""Tape-based reverse-mode automatic differentiation.

Values on the tape are plain read-only float64 ndarrays: an outside value
enters through Tensor(...) (in Tape.leaf and as_variable), and record marks
every op's output read-only, so no recorded value can be mutated later.
Every tracked computation appends a node to a Tape. Nodes are recorded in
evaluation order, so a node's parents always precede it; the backward pass
is a single reverse sweep that accumulates gradients additively at fan-out
points. Gradients returned for a node always have exactly that node's shape.
mul's backward forms each tracked operand's gradient as one np.einsum
contraction of the upstream gradient with the other operand over the axes
along which that operand was broadcast: the broadcast product is never
formed. An operand that was not broadcast gets the plain product.
reduce_sum gives the bits np.sum gives on C-order values whatever the
layout: a strided trailing axis, such as the patch axis of a patch matrix
that swapped_layout stored patch-major, is added slice by slice in
numpy's pairwise order. No op calls BLAS, so the bits do not depend on
its thread count.

A tape lives for one backward: backward returns every leaf's gradient and
releases the tape, after which using it raises DetachedRoot. Ops on
untracked inputs record nothing, and grad closures hold no Variables.

Selection-style operations (clamp, and select, which picks the max or
median winners along a constant array's trailing axis for gather to
take, as the selection pools and the max downsample do) hand their
winners, and a thunk for how close those sit to a tie (the margin), to
the selection log that only gradcheck installs; tapes hold only what
backward needs. gradcheck computes the margins of its nominal pass and
runs its probes on constants: a probe that picks other winners than the
nominal pass sits on a kink, and counts as a tie rather than a failure.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DetachedRoot,
    EmptyAxis,
    NonFiniteValue,
    NonScalarRoot,
    ShapeMismatch,
    SizeMismatch,
)
from .tensor import Shape, Tensor

Array = np.ndarray
GradFn = Callable[[Array], Sequence[Array | None]]

# (winners, tie-margin thunk) of every selection op evaluated inside
# gradcheck, whether or not its inputs are tracked; None everywhere else
_selections: ContextVar[list | None] = ContextVar("selections", default=None)


class Parameter:
    """Named mutable slot holding a tensor that training updates in place."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: Tensor):
        self.name = name
        self.value = value

    def assign(self, value: Tensor) -> None:
        if value.shape != self.value.shape:
            raise ShapeMismatch(
                f"parameter {self.name!r} has shape {self.value.shape}, "
                f"cannot assign {value.shape}"
            )
        self.value = value

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.value.shape})"


@dataclass
class Node:
    """One recorded operation. grad_fn is None for leaves."""

    parents: tuple[int | None, ...]
    shape: Shape
    grad_fn: GradFn | None


class Tape:
    """Append-only record of one forward computation."""

    def __init__(self):
        self.nodes: list[Node] = []
        self._watched: dict[int, Variable] = {}
        self._released = False

    def _append(self, node: Node) -> int:
        if self._released:
            raise DetachedRoot("this tape was released by backward; use a new one")
        self.nodes.append(node)
        return len(self.nodes) - 1

    def leaf(self, value) -> "Variable":
        arr = _engine_array(value)
        return Variable(arr, self, self._append(Node((), arr.shape, None)))

    def watch(self, param: Parameter) -> "Variable":
        """Register a parameter as a tracked leaf.

        Watching the same parameter again returns the same variable, so
        every use in the forward pass contributes to one gradient slot.
        """
        var = self._watched.get(id(param))
        if var is None:
            var = self.leaf(param.value)
            self._watched[id(param)] = var
        return var

    def release(self) -> None:
        """Drop the nodes and the watched variables (which hold the tape);
        recording on a released tape raises DetachedRoot."""
        self._released = True
        self.nodes.clear()
        self._watched.clear()


class Variable:
    """A read-only array paired with its position on a tape.

    Variables with node None are constants: they participate in the math
    but receive no gradient.
    """

    __slots__ = ("value", "tape", "node")

    def __init__(self, value: Array, tape: Tape | None, node: int | None):
        self.value = value
        self.tape = tape
        self.node = node

    @property
    def shape(self) -> Shape:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Variable(shape={self.value.shape}, node={self.node})"

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, exponent):
        return pow_const(self, exponent)


def _engine_array(value) -> Array:
    """A Tensor's own array, or a Tensor copy of any other value."""
    return (value if isinstance(value, Tensor) else Tensor(value)).data


def as_variable(value) -> Variable:
    if isinstance(value, Variable):
        return value
    return Variable(_engine_array(value), None, None)


def broadcast_shape(a: Shape, b: Shape) -> Shape:
    """numpy's broadcast of two shapes; ShapeMismatch if incompatible."""
    try:
        return np.broadcast_shapes(a, b)
    except ValueError:
        raise ShapeMismatch(f"cannot broadcast {a} with {b}") from None


def record(inputs: Sequence[Variable], out_value: Array, grad_fn: GradFn) -> Variable:
    """Append one operation node, its output array marked read-only;
    constant inputs contribute no node id."""
    out_value = np.asarray(out_value)
    out_value.flags.writeable = False
    tapes = {v.tape for v in inputs if v.tape is not None}
    if len(tapes) > 1:
        raise RuntimeError("inputs belong to different tapes")
    if not tapes:
        return Variable(out_value, None, None)
    tape = tapes.pop()
    parents = tuple(v.node if v.tape is tape else None for v in inputs)
    nid = tape._append(Node(parents, out_value.shape, grad_fn))
    return Variable(out_value, tape, nid)


def _log_selection(winners: Array, tie_margin: Callable[[], float]) -> None:
    """Hand a selection op's winners and tie-margin thunk to gradcheck's
    selection log, when one is installed."""
    log = _selections.get()
    if log is not None:
        log.append((winners, tie_margin))


@contextmanager
def unlogged():
    """Selections made inside go to no selection log: for a computation
    whose selections were already logged over a larger operand."""
    token = _selections.set(None)
    try:
        yield
    finally:
        _selections.reset(token)


def _unbroadcast(grad: Array, shape: Shape) -> Array:
    """Sum a gradient over the dimensions broadcasting expanded."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _mul_grad(g: Array, other: Array, shape: Shape) -> Array:
    """_unbroadcast(g * other, shape) as one einsum over the axes broadcasting
    expanded, never forming the product; the plain product if none was."""
    lead = g.ndim - len(shape)
    keep = [lead + i for i, s in enumerate(shape) if s == g.shape[lead + i]]
    if len(keep) == g.ndim:
        return g * other
    # other's axes, right-aligned with g's; a broadcast size-1 axis is dropped
    off = g.ndim - other.ndim
    axes = [off + i for i, s in enumerate(other.shape) if s == g.shape[off + i]]
    other = other.reshape([g.shape[i] for i in axes])
    return np.einsum(g, list(range(g.ndim)), other, axes, keep).reshape(shape)


def _selection_margin(arr: Array, arg: Array) -> float:
    """Smallest nonzero distance between winners and other entries.

    Entries exactly equal to the winner are skipped: a flat plateau does
    not move the selected value, and genuine ambiguity among them is
    caught separately by comparing winner indices between evaluations.
    """
    if arr.shape[-1] <= 1:
        return math.inf
    sel = np.take_along_axis(arr, np.expand_dims(arg, -1), axis=-1)
    diff = np.abs(arr - sel)
    diff = np.where(diff == 0.0, np.inf, diff)
    return float(diff.min())


# --- elementwise primitives ---

def add(a, b) -> Variable:
    a, b = as_variable(a), as_variable(b)
    broadcast_shape(a.shape, b.shape)
    out = a.value + b.value
    sa, sb = a.shape, b.shape

    def grad_fn(g: Array):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return record((a, b), out, grad_fn)


def sub(a, b) -> Variable:
    a, b = as_variable(a), as_variable(b)
    broadcast_shape(a.shape, b.shape)
    out = a.value - b.value
    sa, sb = a.shape, b.shape

    def grad_fn(g: Array):
        return _unbroadcast(g, sa), _unbroadcast(-g, sb)

    return record((a, b), out, grad_fn)


def mul(a, b) -> Variable:
    a, b = as_variable(a), as_variable(b)
    broadcast_shape(a.shape, b.shape)
    ad, bd = a.value, b.value
    out = ad * bd
    # an untracked operand's gradient is never read: it is not formed
    need_a, need_b = a.node is not None, b.node is not None

    def grad_fn(g: Array):
        return (_mul_grad(g, bd, ad.shape) if need_a else None,
                _mul_grad(g, ad, bd.shape) if need_b else None)

    return record((a, b), out, grad_fn)


def _unary(x, forward, make_grad) -> Variable:
    x = as_variable(x)
    xd = x.value
    out = forward(xd)
    local = make_grad(xd, out)

    def grad_fn(g: Array):
        return (g * local,)

    return record((x,), out, grad_fn)


def sin(x) -> Variable:
    return _unary(x, np.sin, lambda xd, out: np.cos(xd))


def exp(x) -> Variable:
    """Plain exponential; large inputs overflow to infinity on purpose."""
    return _unary(x, np.exp, lambda xd, out: out)


def sinh(x) -> Variable:
    return _unary(x, np.sinh, lambda xd, out: np.cosh(xd))


def tanh(x) -> Variable:
    return _unary(x, np.tanh, lambda xd, out: 1.0 - out * out)


def pow_const(x, exponent: float) -> Variable:
    e = float(exponent)
    return _unary(x, lambda xd: xd ** e, lambda xd, out: e * xd ** (e - 1.0))


def _clamp_margin(xd: Array, low: float, high: float) -> float:
    """Smallest distance of any input to a clamp boundary."""
    boundary = np.minimum(np.abs(xd - low), np.abs(high - xd))
    return float(boundary.min()) if boundary.size else math.inf


def clamp(x, low: float, high: float) -> Variable:
    """Clip to [low, high]; gradient is passed through strictly inside."""
    x = as_variable(x)
    xd = x.value
    out = np.clip(xd, low, high)
    mask = (xd > low) & (xd < high)

    def grad_fn(g: Array):
        return (g * mask,)

    _log_selection(mask, lambda: _clamp_margin(xd, low, high))
    return record((x,), out, grad_fn)


# --- reductions ---

def reduce_sum(x, axis: int) -> Variable:
    """Sum over one axis. A trailing axis that is strided in memory is
    added up by whole slices, with the bits np.sum gives on the same
    values in C order."""
    x = as_variable(x)
    ndim = len(x.shape)
    if not -ndim <= axis < ndim:
        raise ShapeMismatch(f"axis {axis} out of range for rank {ndim}")
    axis %= ndim
    if x.shape[axis] == 0:
        raise EmptyAxis(f"cannot reduce axis {axis} with extent 0")
    in_shape = x.shape
    xd = x.value
    if axis == ndim - 1 and xd.strides[-1] != xd.itemsize:
        out = _pairwise_slices(xd)
        out += 0.0  # np.sum adds its rows to the identity 0.0
    else:
        out = xd.sum(axis=axis)

    def grad_fn(g: Array):
        return (np.broadcast_to(np.expand_dims(g, axis), in_shape),)

    return record((x,), out, grad_fn)


def _pairwise_slices(x: Array) -> Array:
    """The sum of x over its trailing axis in numpy's pairwise order, each
    step adding whole slices x[..., i].

    numpy sums a row of up to 8 entries in order, and up to 128 in eight
    accumulators, one per position modulo 8, combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) before the last n % 8 entries are
    added in order; a longer row is split in two halves, the first a
    multiple of 8 long. Every addition keeps numpy's operand order, so a
    result differs from x.sum(axis=-1) in no bit but a NaN's.
    """
    n = x.shape[-1]
    if n > 128:
        half = n // 2 - n // 2 % 8
        out = _pairwise_slices(x[..., :half])
        out += _pairwise_slices(x[..., half:])
        return out
    if n < 8:
        out = x[..., 0].copy()
        rest = range(1, n)
    else:
        end = n - n % 8
        # the 8 accumulators side by side on a trailing axis of 8
        r = x[..., :8]
        if end > 8:
            r = r + x[..., 8:16]
            for i in range(16, end, 8):
                r += x[..., i:i + 8]
        out = r[..., 0] + r[..., 1]
        out += r[..., 2] + r[..., 3]
        high = r[..., 4] + r[..., 5]
        high += r[..., 6] + r[..., 7]
        out += high
        rest = range(end, n)
    for i in rest:
        out += x[..., i]
    return out


def _median_pick(arr: Array) -> Array:
    """Per row of the trailing axis, the index of the element a stable
    sort would place at position k = floor(extent/2).

    Only the k-th value v of each row is sorted out; the winner is then
    recovered exactly as the (number of entries equal to v among the
    first k sorted ones)-th entry equal to v in index order. "Equal"
    follows sort order: -0.0 ties with 0.0 and NaNs, sorted last, tie
    with each other.
    """
    n = arr.shape[-1]
    k = n // 2
    flat = arr.reshape(-1, n)
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
    return (pos - np.arange(0, pos.size * n, n)).reshape(arr.shape[:-1])


def select(values: Array, kind: str) -> Array:
    """The winners along a constant array's trailing axis, for gather to
    take: per row, the index of the maximum ("max", ties to the lowest
    index) or of the median ("median", the element at sorted position
    floor(extent/2), equal values ordered by index as a stable sort
    would). The winners and their tie margin go to gradcheck's log.
    """
    if not values.shape or values.shape[-1] == 0:
        raise EmptyAxis(f"cannot select along the trailing axis of shape "
                        f"{values.shape}")
    if kind == "median":
        arg = _median_pick(values)
    elif kind == "max":
        arg = np.argmax(values, axis=-1)
    else:
        raise ValueError(f"unknown selection {kind!r}")
    _log_selection(arg, lambda: _selection_margin(values, arg))
    return arg


def sum_all(x) -> Variable:
    x = as_variable(x)
    out = x.value.sum()
    in_shape = x.shape

    def grad_fn(g: Array):
        return (np.broadcast_to(g, in_shape),)

    return record((x,), out, grad_fn)


# --- structure ---

def reshape(x, new_shape: Sequence[int]) -> Variable:
    x = as_variable(x)
    new_shape = tuple(int(s) for s in new_shape)
    if any(s < 0 for s in new_shape):
        raise ShapeMismatch(f"negative extent in shape {new_shape}")
    if math.prod(new_shape) != x.value.size:
        raise SizeMismatch(
            f"cannot reshape {x.shape} ({x.value.size} elements) to {new_shape}"
        )
    in_shape = x.shape

    def grad_fn(g: Array):
        return (np.reshape(g, in_shape),)

    return record((x,), np.reshape(x.value, new_shape), grad_fn)


def swapped_layout(x) -> Variable:
    """x's values in a copy that stores its last two axes swapped in
    memory. The shape and every value stay, so the gradient passes
    straight through; only the strides differ."""
    x = as_variable(x)
    out = np.ascontiguousarray(np.swapaxes(x.value, -1, -2)).swapaxes(-1, -2)

    def grad_fn(g: Array):
        return (g,)

    return record((x,), out, grad_fn)


def stack(parts: Sequence[Variable], axis: int = 0) -> Variable:
    parts = [as_variable(p) for p in parts]
    if not parts:
        raise ShapeMismatch("cannot stack zero variables")
    shapes = {p.shape for p in parts}
    if len(shapes) != 1:
        raise ShapeMismatch(f"stack needs equal shapes, have {sorted(shapes)}")
    out = np.stack([p.value for p in parts], axis=axis)
    shape = parts[0].shape

    def grad_fn(g: Array):
        # ascontiguousarray makes a 0-d slice 1-d; the reshape restores it
        return tuple(np.ascontiguousarray(s).reshape(shape)
                     for s in np.moveaxis(g, axis, 0))

    return record(parts, out, grad_fn)


def gather(x, index: Array) -> Variable:
    """x[..., index]: per row of the index array, the entry of x's
    trailing axis at that index, where x's leading axes broadcast to the
    index array's shape.

    The backward scatter-adds with np.bincount in the index array's C
    order, so an entry picked more than once sums its gradients in a
    fixed order.
    """
    x = as_variable(x)
    lead, length = x.shape[:-1], x.shape[-1]
    if len(lead) != index.ndim or broadcast_shape(lead, index.shape) != index.shape:
        raise ShapeMismatch(f"cannot gather {index.shape} indices from {x.shape}")
    if index.size and not (0 <= index.min() and index.max() < length):
        raise ShapeMismatch(f"gather index outside [0, {length})")
    rows = np.broadcast_to(np.arange(math.prod(lead)).reshape(lead), index.shape)
    flat = (rows * length + index).ravel()
    in_shape, size = x.shape, x.value.size

    def grad_fn(g: Array):
        return (np.bincount(flat, weights=g.ravel(), minlength=size)
                .reshape(in_shape),)

    return record((x,), x.value.reshape(-1)[flat].reshape(index.shape), grad_fn)


def place_rows(parts: Sequence[Variable], rows: Sequence[Array]) -> Variable:
    """One array whose rows rows[i] are the rows of parts[i], in order.

    The rows together must be a permutation of range(total rows); the
    backward hands each part the gradient rows it placed.
    """
    parts = [as_variable(p) for p in parts]
    tails = {p.shape[1:] for p in parts}
    if len(tails) != 1 or any(p.shape[0] != len(r) for p, r in zip(parts, rows)):
        raise ShapeMismatch("each part must have one row per row index, "
                            "and all rows one shape")
    total = sum(len(r) for r in rows)
    if not np.array_equal(np.sort(np.concatenate(rows)), np.arange(total)):
        raise ShapeMismatch(f"row indices are not a permutation of range({total})")
    out = np.empty((total,) + tails.pop())
    for p, r in zip(parts, rows):
        out[r] = p.value

    def grad_fn(g: Array):
        return tuple(g[r] for r in rows)

    return record(parts, out, grad_fn)


# --- custom operations ---

@dataclass(frozen=True)
class CustomBackward:
    """A forward function paired with a hand-written backward rule.

    forward maps raw input arrays to one output array. backward receives
    (upstream-gradient, *input-arrays, output-array) and must return one
    gradient per input, each exactly matching that input's shape, or None
    for inputs that get no gradient.
    """

    forward: Callable[..., Array]
    backward: Callable[..., Sequence[Array | None]]


def apply_custom(rule: CustomBackward, *inputs) -> Variable:
    """Record an operation whose backward pass is the given rule, not a
    composition of primitives."""
    variables = [as_variable(v) for v in inputs]
    arrays = [v.value for v in variables]
    out = np.asarray(rule.forward(*arrays), dtype=np.float64)

    def grad_fn(g: Array):
        grads = rule.backward(g, *arrays, out)
        if len(grads) != len(arrays):
            raise ShapeMismatch(
                f"custom backward returned {len(grads)} gradients for "
                f"{len(arrays)} inputs"
            )
        for got, arr in zip(grads, arrays):
            if got is not None and tuple(got.shape) != arr.shape:
                raise ShapeMismatch(
                    f"custom backward produced shape {tuple(got.shape)} "
                    f"for input of shape {arr.shape}"
                )
        # copied: the rule's arrays may be the caller's, not to freeze or share
        return tuple(None if got is None else np.array(got, float) for got in grads)

    return record(variables, out, grad_fn)


# --- backward pass ---

def backward(root: Variable) -> dict[int, Tensor]:
    """Reverse sweep from a scalar root that consumes the root's tape.

    Returns {leaf node id: gradient} for every leaf, zero where the root
    does not reach. Completed or not, the sweep releases the tape; using
    it again raises DetachedRoot.
    """
    tape = root.tape
    if tape is None or root.node is None or tape._released:
        raise DetachedRoot("root is not recorded on a live tape")
    if root.value.size != 1:
        raise NonScalarRoot(f"root must hold one element, has {root.value.size}")
    grads: dict[int, Array] = {root.node: np.ones(root.value.shape, dtype=np.float64)}
    leaves: dict[int, Tensor] = {}
    try:
        for nid in range(len(tape.nodes) - 1, -1, -1):
            g = grads.pop(nid, None)
            node = tape.nodes[nid]
            if node.grad_fn is None:
                leaves[nid] = Tensor._wrap(np.zeros(node.shape) if g is None else g)
                continue
            if g is None:
                continue
            for pid, pg in zip(node.parents, node.grad_fn(g)):
                if pid is None or pg is None:
                    continue
                expected = tape.nodes[pid].shape
                if tuple(pg.shape) != expected:
                    raise ShapeMismatch(
                        f"backward rule produced shape {tuple(pg.shape)} for node "
                        f"of shape {expected}"
                    )
                grads[pid] = grads[pid] + pg if pid in grads else pg
    finally:
        tape.release()
    return leaves


# --- finite-difference checking ---

@dataclass
class GradcheckReport:
    """Outcome of comparing tape gradients against central differences."""

    max_rel_err: list[float]
    tol: float
    tie_coords: int = 0
    min_margin: float = math.inf

    @property
    def passed(self) -> bool:
        return all(e <= self.tol for e in self.max_rel_err)

    def worst(self) -> float:
        finite = [e for e in self.max_rel_err if not math.isnan(e)]
        return max(finite) if finite else 0.0

    def clean(self, margin: float = 0.0) -> bool:
        """True when no probe hit a tie and every selection had slack."""
        return self.tie_coords == 0 and self.min_margin > margin


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def _with_selections(f: Callable[..., Variable], variables: list[Variable]):
    """f's output and the selection log of its evaluation."""
    log: list = []
    token = _selections.set(log)
    try:
        return f(*variables), log
    finally:
        _selections.reset(token)


def gradcheck(f: Callable[..., Variable], inputs: Sequence[Tensor], *,
              h: float = 1e-6, tol: float = 1e-5) -> GradcheckReport:
    """Check every analytic input gradient of a scalar function against
    central finite differences, coordinate by coordinate.

    Only the nominal pass is taped. A probe runs on constants; one whose
    perturbed evaluations pick different selection winners than the
    nominal pass sits on a kink, and is counted as a tie and skipped,
    never failed.
    """
    tape = Tape()
    variables = [tape.leaf(t) for t in inputs]
    nominal = [v.value for v in variables]
    root, selections = _with_selections(f, variables)
    if root.value.size != 1:
        raise NonScalarRoot("gradcheck target must be scalar")
    if not math.isfinite(float(root.value.reshape(()))):
        raise NonFiniteValue("gradcheck target is not finite")
    base_winners = [winners for winners, _ in selections]
    min_margin = min([math.inf] + [m() for _, m in selections])
    grads = backward(root)

    def evaluate(arrays: list[Array]) -> tuple[float, bool]:
        """f at the arrays, and whether it picked the nominal winners."""
        out, log = _with_selections(f, [as_variable(Tensor._wrap(a)) for a in arrays])
        val = float(out.value.reshape(()))
        if not math.isfinite(val):
            raise NonFiniteValue("perturbed evaluation is not finite")
        return val, len(log) == len(base_winners) and all(
            np.array_equal(w, b) for (w, _), b in zip(log, base_winners))

    max_errs: list[float] = []
    tie_coords = 0
    for i, var in enumerate(variables):
        analytic = grads[var.node].data
        worst = 0.0
        for c in range(nominal[i].size):
            plus = [a.copy() for a in nominal]
            minus = [a.copy() for a in nominal]
            plus[i].reshape(-1)[c] += h
            minus[i].reshape(-1)[c] -= h
            f_plus, same_plus = evaluate(plus)
            f_minus, same_minus = evaluate(minus)
            if not (same_plus and same_minus):
                tie_coords += 1
                continue
            numeric = (f_plus - f_minus) / (2.0 * h)
            worst = max(worst, _rel_err(float(analytic.reshape(-1)[c]), numeric))
        max_errs.append(worst)
    return GradcheckReport(max_errs, tol, tie_coords, min_margin)
