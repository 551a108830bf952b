"""Tape-based reverse-mode automatic differentiation.

Every tracked computation appends a node to a Tape. Nodes are recorded in
evaluation order, so a node's parents always precede it; the backward pass
is a single reverse sweep that accumulates gradients additively at fan-out
points. Gradients returned for a node always have exactly that node's shape.

Selection-style operations (max, median, downsampling by max) remember
which element won. Those indices drive the backward scatter, and they also
feed the finite-difference checker: if a perturbed evaluation selects a
different winner the probe sits on a kink and is reported as a tie rather
than a failure. How close each winner sits to a tie (its margin) is only
computed on the nominal tape of gradcheck, the one reader of it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DetachedRoot,
    NonFiniteValue,
    NonScalarRoot,
    ShapeMismatch,
)
from .tensor import BroadcastSpec, Shape, Tensor, _normalize_axis, _reduce_raw

Array = np.ndarray
GradFn = Callable[[Array], Sequence[Array | None]]


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
    selection: Array | None = None
    tie_margin: float = math.inf


class Tape:
    """Append-only record of one forward computation."""

    def __init__(self):
        self.nodes: list[Node] = []
        # gradcheck sets this on its nominal tape; elsewhere tie margins
        # are never computed
        self._margins = False
        self._watched: dict[int, Variable] = {}
        self._watched_params: list[Parameter] = []

    def _append(self, node: Node) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def leaf(self, value) -> "Variable":
        t = value if isinstance(value, Tensor) else Tensor(value)
        nid = self._append(Node((), t.shape, None))
        return Variable(t, self, nid)

    def watch(self, param: Parameter) -> "Variable":
        """Register a parameter as a tracked leaf.

        Watching the same parameter again returns the same variable, so
        every use in the forward pass contributes to one gradient slot.
        """
        var = self._watched.get(id(param))
        if var is None:
            var = self.leaf(param.value)
            self._watched[id(param)] = var
            self._watched_params.append(param)
        return var

    def watched_variable(self, param: Parameter) -> "Variable | None":
        return self._watched.get(id(param))

    def selection_signature(self) -> list[Array]:
        """Winner indices of every selection node, in recording order."""
        return [n.selection for n in self.nodes if n.selection is not None]

    def min_selection_margin(self) -> float:
        """Smallest distance between any selection winner and a competitor.

        Only gradcheck's nominal tape records margins; any other tape
        reports inf.
        """
        margin = math.inf
        for n in self.nodes:
            if n.selection is not None:
                margin = min(margin, n.tie_margin)
        return margin


class Variable:
    """A value paired with its position on a tape.

    Variables with node None are constants: they participate in the math
    but receive no gradient.
    """

    __slots__ = ("value", "tape", "node")

    def __init__(self, value: Tensor, tape: Tape | None, node: int | None):
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


def as_variable(value) -> Variable:
    if isinstance(value, Variable):
        return value
    t = value if isinstance(value, Tensor) else Tensor(value)
    return Variable(t, None, None)


def record(inputs: Sequence[Variable], out_value: Tensor, grad_fn: GradFn, *,
           selection: Array | None = None,
           tie_margin: Callable[[], float] | None = None) -> Variable:
    """Append one operation node; constant inputs contribute no node id.

    tie_margin is called only on a tape that records margins.
    """
    tapes = {v.tape for v in inputs if v.tape is not None}
    if len(tapes) > 1:
        raise RuntimeError("inputs belong to different tapes")
    if not tapes:
        return Variable(out_value, None, None)
    tape = tapes.pop()
    parents = tuple(v.node if v.tape is tape else None for v in inputs)
    margin = tie_margin() if tape._margins and tie_margin is not None else math.inf
    nid = tape._append(Node(parents, out_value.shape, grad_fn, selection, margin))
    return Variable(out_value, tape, nid)


def _unbroadcast(grad: Array, shape: Shape) -> Array:
    """Sum a gradient over the dimensions broadcasting expanded."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _selection_margin(arr: Array, arg: Array, axis: int) -> float:
    """Smallest nonzero distance between winners and other entries.

    Entries exactly equal to the winner are skipped: a flat plateau does
    not move the selected value, and genuine ambiguity among them is
    caught separately by comparing winner indices between evaluations.
    """
    if arr.shape[axis] <= 1:
        return math.inf
    sel = np.take_along_axis(arr, np.expand_dims(arg, axis), axis=axis)
    diff = np.abs(arr - sel)
    diff = np.where(diff == 0.0, np.inf, diff)
    return float(diff.min())


# --- elementwise primitives ---

def add(a, b) -> Variable:
    a, b = as_variable(a), as_variable(b)
    BroadcastSpec.align(a.shape, b.shape)
    out = a.value.data + b.value.data

    def grad_fn(g: Array):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return record((a, b), Tensor._wrap(out), grad_fn)


def sub(a, b) -> Variable:
    a, b = as_variable(a), as_variable(b)
    BroadcastSpec.align(a.shape, b.shape)
    out = a.value.data - b.value.data

    def grad_fn(g: Array):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return record((a, b), Tensor._wrap(out), grad_fn)


def mul(a, b) -> Variable:
    a, b = as_variable(a), as_variable(b)
    BroadcastSpec.align(a.shape, b.shape)
    ad, bd = a.value.data, b.value.data
    out = ad * bd

    def grad_fn(g: Array):
        return _unbroadcast(g * bd, a.shape), _unbroadcast(g * ad, b.shape)

    return record((a, b), Tensor._wrap(out), grad_fn)


def _unary(x, forward, make_grad) -> Variable:
    x = as_variable(x)
    xd = x.value.data
    out = forward(xd)
    local = make_grad(xd, out)

    def grad_fn(g: Array):
        return (g * local,)

    return record((x,), Tensor._wrap(out), grad_fn)


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
    xd = x.value.data
    out = np.clip(xd, low, high)
    mask = (xd > low) & (xd < high)

    def grad_fn(g: Array):
        return (g * mask,)

    return record((x,), Tensor._wrap(out), grad_fn,
                  selection=mask.astype(np.int8),
                  tie_margin=lambda: _clamp_margin(xd, low, high))


# --- reductions ---

def reduce_sum(x, axis: int) -> Variable:
    x = as_variable(x)
    axis = _normalize_axis(axis, len(x.shape))
    values, _ = _reduce_raw("sum", x.value.data, axis)
    in_shape = x.shape

    def grad_fn(g: Array):
        return (np.broadcast_to(np.expand_dims(g, axis), in_shape),)

    return record((x,), Tensor._wrap(values), grad_fn)


def _reduce_select(x, axis: int, kind: str, scale: float) -> Variable:
    x = as_variable(x)
    axis = _normalize_axis(axis, len(x.shape))
    xd = x.value.data
    values, arg = _reduce_raw(kind, xd, axis)
    in_shape = x.shape

    def grad_fn(g: Array):
        out = np.zeros(in_shape, dtype=np.float64)
        np.put_along_axis(out, np.expand_dims(arg, axis),
                          np.expand_dims(g * scale, axis), axis=axis)
        return (out,)

    out_value = values if scale == 1.0 else values * scale
    return record((x,), Tensor._wrap(out_value), grad_fn, selection=arg,
                  tie_margin=lambda: _selection_margin(xd, arg, axis))


def reduce_max(x, axis: int, scale: float = 1.0) -> Variable:
    """Maximum along one axis, times a constant. Gradient flows only to
    the winning element; ties resolve to the lowest index."""
    return _reduce_select(x, axis, "max", scale)


def reduce_median(x, axis: int, scale: float = 1.0) -> Variable:
    """Median along one axis, times a constant. The median is the element
    at sorted position floor(extent/2), equal values ordered by index as a
    stable sort would (found without one), so the gradient flows to
    exactly one input element."""
    return _reduce_select(x, axis, "median", scale)


def sum_all(x) -> Variable:
    x = as_variable(x)
    out = np.asarray(x.value.data.sum())
    in_shape = x.shape

    def grad_fn(g: Array):
        return (np.broadcast_to(g, in_shape),)

    return record((x,), Tensor._wrap(out), grad_fn)


# --- structure ---

def reshape(x, new_shape: Sequence[int]) -> Variable:
    x = as_variable(x)
    from .tensor import reshape as t_reshape
    out = t_reshape(x.value, new_shape)
    in_shape = x.shape

    def grad_fn(g: Array):
        return (np.reshape(g, in_shape),)

    return record((x,), out, grad_fn)


def stack(parts: Sequence[Variable], axis: int = 0) -> Variable:
    parts = [as_variable(p) for p in parts]
    if not parts:
        raise ShapeMismatch("cannot stack zero variables")
    shapes = {p.shape for p in parts}
    if len(shapes) != 1:
        raise ShapeMismatch(f"stack needs equal shapes, have {sorted(shapes)}")
    out = np.stack([p.value.data for p in parts], axis=axis)

    def grad_fn(g: Array):
        slots = np.moveaxis(g, axis, 0)
        return tuple(np.ascontiguousarray(slots[i]) for i in range(len(parts)))

    return record(parts, Tensor._wrap(out), grad_fn)


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
    arrays = [v.value.data for v in variables]
    out = np.asarray(rule.forward(*arrays), dtype=np.float64)

    def grad_fn(g: Array):
        grads = rule.backward(g, *arrays, out)
        if len(grads) != len(variables):
            raise ShapeMismatch(
                f"custom backward returned {len(grads)} gradients for "
                f"{len(variables)} inputs"
            )
        for got, var in zip(grads, variables):
            if got is not None and tuple(got.shape) != var.shape:
                raise ShapeMismatch(
                    f"custom backward produced shape {tuple(got.shape)} "
                    f"for input of shape {var.shape}"
                )
        return grads

    return record(variables, Tensor._wrap(out), grad_fn)


# --- backward pass ---

def backward(root: Variable) -> dict[int, Tensor]:
    """Reverse sweep from a scalar root.

    Returns a map from node id to gradient for every node that received
    gradient, plus a zero gradient for every leaf the root does not reach.
    """
    if root.tape is None or root.node is None:
        raise DetachedRoot("root is not recorded on any tape")
    if root.value.size != 1:
        raise NonScalarRoot(f"root must hold one element, has {root.value.size}")
    tape = root.tape
    grads: dict[int, Array] = {root.node: np.ones(root.value.shape, dtype=np.float64)}
    for nid in range(root.node, -1, -1):
        g = grads.get(nid)
        if g is None:
            continue
        node = tape.nodes[nid]
        if node.grad_fn is None:
            continue
        parent_grads = node.grad_fn(g)
        for pid, pg in zip(node.parents, parent_grads):
            if pid is None or pg is None:
                continue
            expected = tape.nodes[pid].shape
            if tuple(pg.shape) != expected:
                raise ShapeMismatch(
                    f"backward rule produced shape {tuple(pg.shape)} for node "
                    f"of shape {expected}"
                )
            if pid in grads:
                grads[pid] = grads[pid] + pg
            else:
                grads[pid] = pg
    result = {nid: Tensor._wrap(np.array(g)) for nid, g in grads.items()}
    for nid, node in enumerate(tape.nodes):
        if node.grad_fn is None and nid not in result:
            result[nid] = Tensor._wrap(np.zeros(node.shape, dtype=np.float64))
    return result


# --- finite-difference checking ---

@dataclass
class GradcheckReport:
    """Outcome of comparing tape gradients against central differences."""

    max_rel_err: list[float]
    tol: float
    tie_coords: int = 0
    min_margin: float = math.inf
    passed: bool = field(default=False)

    def worst(self) -> float:
        finite = [e for e in self.max_rel_err if not math.isnan(e)]
        return max(finite) if finite else 0.0

    def clean(self, margin: float = 0.0) -> bool:
        """True when no probe hit a tie and every selection had slack."""
        return self.tie_coords == 0 and self.min_margin > margin


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def gradcheck(f: Callable[..., Variable], inputs: Sequence[Tensor], *,
              h: float = 1e-6, tol: float = 1e-5) -> GradcheckReport:
    """Check every analytic input gradient of a scalar function against
    central finite differences, coordinate by coordinate.

    A probe whose perturbed evaluations pick different selection winners
    than the nominal run sits on a kink; it is counted as a tie and
    skipped, never failed.
    """
    inputs = [t if isinstance(t, Tensor) else Tensor(t) for t in inputs]
    tape = Tape()
    tape._margins = True
    variables = [tape.leaf(t) for t in inputs]
    root = f(*variables)
    if root.value.size != 1:
        raise NonScalarRoot("gradcheck target must be scalar")
    base_value = float(root.value.data.reshape(()))
    if not math.isfinite(base_value):
        raise NonFiniteValue("gradcheck target is not finite")
    grads = backward(root)
    base_signature = tape.selection_signature()

    def evaluate(arrays: list[Array]) -> tuple[float, list[Array]]:
        probe_tape = Tape()
        probe_vars = [probe_tape.leaf(Tensor._wrap(a)) for a in arrays]
        out = f(*probe_vars)
        val = float(out.value.data.reshape(()))
        if not math.isfinite(val):
            raise NonFiniteValue("perturbed evaluation is not finite")
        return val, probe_tape.selection_signature()

    def same_signature(sig: list[Array]) -> bool:
        if len(sig) != len(base_signature):
            return False
        return all(np.array_equal(a, b) for a, b in zip(sig, base_signature))

    max_errs: list[float] = []
    tie_coords = 0
    for i, var in enumerate(variables):
        analytic = grads[var.node].data
        worst = 0.0
        flat = inputs[i].data.reshape(-1)
        for c in range(flat.size):
            plus = [t.data.copy() for t in inputs]
            minus = [t.data.copy() for t in inputs]
            plus[i].reshape(-1)[c] += h
            minus[i].reshape(-1)[c] -= h
            f_plus, sig_plus = evaluate(plus)
            f_minus, sig_minus = evaluate(minus)
            if not (same_signature(sig_plus) and same_signature(sig_minus)):
                tie_coords += 1
                continue
            numeric = (f_plus - f_minus) / (2.0 * h)
            worst = max(worst, _rel_err(float(analytic.reshape(-1)[c]), numeric))
        max_errs.append(worst)
    report = GradcheckReport(max_rel_err=max_errs, tol=tol, tie_coords=tie_coords,
                             min_margin=tape.min_selection_margin())
    report.passed = all(e <= tol for e in max_errs)
    return report
