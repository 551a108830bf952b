"""Operator library: nodal, pool and activation functions and their sets.

A neuron applies three stages to its unfolded input patches:

  nodal       elementwise in (weight, input) under broadcasting
  pool        reduction over the trailing patch axis, times a constant
  activation  pointwise, with the neuron bias folded in as f(x - b)

Every stage function, of whichever kind, is one Operator(name, fn): fn
takes the stage's inputs and then an OperatorConstants. KINDS names the
three kinds in enumeration order.

Built-in operators:

  nodal       mul w*y | cubic w*y^3 | sine sin(k_sin*w*y)
              exp e^(w*y)-1 | sinh sinh(w*y) | chirp sin(k_chirp*w*y^2)
  pool        sum (scale 1) | median (scale = patch length)
              max (scale = patch length)
  activation  tanh(x-b) | lincut clamp((x-b)/cut, -1, 1) | identity x-b

An operator set is one (nodal, pool, activation) triple. Sets are
enumerated nodal-major: index = nodal*(pools*activations) +
pool*activations + activation. Registering a custom operator appends the
new combinations after all existing indices, which stay valid.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autograd as ag
from .autograd import CustomBackward, Variable, apply_custom
from .errors import DuplicateName, NonFiniteValue, ShapeContractViolation


@dataclass(frozen=True)
class OperatorConstants:
    """Fixed scalars the built-in operators depend on."""

    k_sin: float = math.pi
    k_chirp: float = math.pi
    cut: float = 10.0


DEFAULT_CONSTANTS = OperatorConstants()


@dataclass(frozen=True)
class Operator:
    """One named stage function of any kind; the constants come last.

    select marks a built-in selection pool by its reduction ("max" or
    "median"): such a pool returns the winner of each patch row times the
    patch length, so a taped pass evaluates its nodal stage on the winners
    only (see network.block_forward). sums marks the built-in sum pool,
    whose reduce_sum adds a strided patch axis by whole slices: a tier
    hands its groups the patch matrix stored patch-major (see
    network.OpTier.forward).
    """

    name: str
    fn: Callable[..., Variable]
    select: str | None = None
    sums: bool = False


# the stages of an operator set, in enumeration order (nodal-major)
KINDS = ("nodal", "pool", "activation")


@dataclass(frozen=True)
class OperatorSet:
    """One (nodal, pool, activation) triple plus its enumeration index."""

    nodal: Operator
    pool: Operator
    activation: Operator
    index: int

    @property
    def names(self) -> tuple[str, str, str]:
        return (self.nodal.name, self.pool.name, self.activation.name)


# --- built-in nodal operators: elementwise in (w, y) ---

def _nodal_mul(w, y, c):
    return ag.mul(w, y)


def _nodal_cubic(w, y, c):
    return ag.mul(w, ag.pow_const(y, 3))


def _nodal_sine(w, y, c):
    return ag.sin(ag.mul(ag.mul(w, y), c.k_sin))


def _nodal_exp(w, y, c):
    return ag.sub(ag.exp(ag.mul(w, y)), 1.0)


def _nodal_sinh(w, y, c):
    return ag.sinh(ag.mul(w, y))


def _nodal_chirp(w, y, c):
    return ag.sin(ag.mul(ag.mul(w, ag.pow_const(y, 2)), c.k_chirp))


# --- built-in pools: reduce the trailing patch axis ---

def _pool_sum(z, c):
    return ag.reduce_sum(z, -1)


def _selection_pool(kind: str) -> Operator:
    """The built-in pool named and marked by its selection kind: each
    patch row's winner, times the patch length."""
    def pool(z, c):
        return ag.mul(ag.gather(z, ag.select(z.value, kind)), float(z.shape[-1]))

    return Operator(kind, pool, select=kind)


# --- built-in activations: pointwise in (x, b) ---

def _act_tanh(x, b, c):
    return ag.tanh(ag.sub(x, b))


def _act_lincut(x, b, c):
    return ag.clamp(ag.mul(ag.sub(x, b), 1.0 / c.cut), -1.0, 1.0)


def _act_identity(x, b, c):
    return ag.sub(x, b)


BUILTIN_NODAL = (
    Operator("mul", _nodal_mul),
    Operator("cubic", _nodal_cubic),
    Operator("sine", _nodal_sine),
    Operator("exp", _nodal_exp),
    Operator("sinh", _nodal_sinh),
    Operator("chirp", _nodal_chirp),
)

BUILTIN_POOL = (
    Operator("sum", _pool_sum, sums=True),
    _selection_pool("median"),
    _selection_pool("max"),
)

BUILTIN_ACTIVATION = (
    Operator("tanh", _act_tanh),
    Operator("lincut", _act_lincut),
    Operator("identity", _act_identity),
)


class OperatorSetLibrary:
    """Ordered collection of operator sets with stable integer indices.

    The initial enumeration is nodal-major over the constructor lists.
    Later registrations only append: every pre-existing set keeps its
    index, and the combinations a new operator creates are numbered after
    the current maximum, themselves in nodal-major order.
    """

    def __init__(self, nodal=BUILTIN_NODAL, pool=BUILTIN_POOL,
                 activation=BUILTIN_ACTIVATION):
        self.nodal: list[Operator] = list(nodal)
        self.pool: list[Operator] = list(pool)
        self.activation: list[Operator] = list(activation)
        self._triples: list[tuple[int, int, int]] = []
        self._index_of: dict[tuple[int, int, int], int] = {}
        self._add_triples({})

    def _add_triples(self, fixed: dict[str, int]) -> None:
        """Number every triple whose kinds in `fixed` take the given
        operator index, in nodal-major order."""
        ranges = [[fixed[k]] if k in fixed else range(len(getattr(self, k)))
                  for k in KINDS]
        for triple in itertools.product(*ranges):
            self._index_of[triple] = len(self._triples)
            self._triples.append(triple)

    def __len__(self) -> int:
        return len(self._triples)

    def decode(self, index: int) -> OperatorSet:
        if not 0 <= index < len(self._triples):
            raise KeyError(f"operator set index {index} out of range [0, {len(self) - 1}]")
        ni, pi, ai = self._triples[index]
        return OperatorSet(self.nodal[ni], self.pool[pi], self.activation[ai], index)

    def encode(self, nodal_idx: int, pool_idx: int, act_idx: int) -> int:
        return self._index_of[(nodal_idx, pool_idx, act_idx)]

    def _find(self, ops, name: str) -> int:
        for i, op in enumerate(ops):
            if op.name == name:
                return i
        raise KeyError(f"no operator named {name!r}")

    def set_by_names(self, nodal: str, pool: str, activation: str) -> OperatorSet:
        return self.decode(self.encode(
            self._find(self.nodal, nodal),
            self._find(self.pool, pool),
            self._find(self.activation, activation),
        ))


def register_builtin_library() -> OperatorSetLibrary:
    """A fresh library holding exactly the built-in operators."""
    return OperatorSetLibrary()


# --- evaluation entry points ---

def _check_finite(var: Variable, what: str) -> Variable:
    if not np.all(np.isfinite(var.value)):
        raise NonFiniteValue(f"{what} produced a non-finite value")
    return var


def evaluate_nodal(op: Operator, w, y,
                   constants: OperatorConstants = DEFAULT_CONSTANTS) -> Variable:
    w, y = ag.as_variable(w), ag.as_variable(y)
    ag.broadcast_shape(w.shape, y.shape)
    return _check_finite(op.fn(w, y, constants), f"nodal operator {op.name!r}")


def evaluate_pool(op: Operator, z,
                  constants: OperatorConstants = DEFAULT_CONSTANTS) -> Variable:
    z = ag.as_variable(z)
    return _check_finite(op.fn(z, constants), f"pool operator {op.name!r}")


def scale_winners(op: Operator, z, length: int) -> Variable:
    """A selection pool's output from its winners' nodal values z [G, C,
    M*N]: z times the patch length, checked as evaluate_pool checks."""
    return _check_finite(ag.mul(z, float(length)), f"pool operator {op.name!r}")


def evaluate_activation(op: Operator, x, b,
                        constants: OperatorConstants = DEFAULT_CONSTANTS) -> Variable:
    x, b = ag.as_variable(x), ag.as_variable(b)
    ag.broadcast_shape(x.shape, b.shape)
    return _check_finite(op.fn(x, b, constants), f"activation {op.name!r}")


# --- custom registration ---

def _probe_pool(fn: Callable[[Variable, OperatorConstants], Variable]) -> None:
    """Reject pools that do not reduce exactly the trailing axis."""
    rng = np.random.default_rng(0)
    probe = ag.as_variable(rng.uniform(-1.0, 1.0, size=(2, 3, 4)))
    try:
        out = fn(probe, DEFAULT_CONSTANTS)
    except Exception as e:
        raise ShapeContractViolation(f"pool probe evaluation failed: {e}") from e
    if out.shape != (2, 3):
        raise ShapeContractViolation(
            f"pool must map shape (2, 3, 4) to (2, 3), got {out.shape}"
        )


def _wrap_custom(forward, backward):
    """Build the stage function for a custom operator.

    With a hand-written backward rule the operation is recorded through
    that rule, on every argument but the trailing constants; otherwise
    forward must be written in terms of the differentiable primitives and
    is used directly.
    """
    if backward is None:
        return forward
    rule = CustomBackward(forward=forward, backward=backward)
    return lambda *args: apply_custom(rule, *args[:-1])


def add_custom_operator(lib: OperatorSetLibrary, kind: str, name: str, forward,
                        backward=None) -> OperatorSetLibrary:
    """Register one custom operator and append its new combinations.

    kind is "nodal", "pool" or "activation". forward takes the stage's
    tracked variables plus an OperatorConstants (or, when a backward rule
    is supplied, raw arrays). A stage sees a tier's whole group of G
    blocks: nodal w [G, C, 1, m*n] and y [1, C, M*N, m*n], pool
    z [G, C, M*N, m*n], activation x [G, M, N] and b [G, 1, 1]. In a
    taped pass under a median or max pool a nodal operator is also
    called on the winning pairs, w and y both [G, C, M*N]; a hand-written
    backward must therefore sum each gradient over the axes its input was
    broadcast along, whichever they are. Under the built-in sum pool a
    nodal operator receives y with patch-major strides, stored as
    [1, C, m*n, M*N]: the same shape and values, so a hand-written
    backward must not assume C order; other pools see a row-major z.
    Returns the same library, updated.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown operator kind {kind!r}")
    ops = getattr(lib, kind)
    if any(op.name == name for op in ops):
        raise DuplicateName(f"{kind} operator {name!r} already registered")
    fn = _wrap_custom(forward, backward)
    if kind == "pool":
        _probe_pool(fn)
    ops.append(Operator(name, fn))
    lib._add_triples({kind: len(ops) - 1})
    return lib
