"""Gradient-descent optimizers: plain SGD with momentum, and Adam.

Both keep per-parameter state slots keyed by parameter name, and a step
assigns every parameter a new read-only value. Updates are:

  sgd    v <- momentum * v + g        p <- p - lr * v
  adam   m <- b1*m + (1-b1)*g         v <- b2*v + (1-b2)*g^2
         p <- p - lr * m/(1-b1^t) / (sqrt(v/(1-b2^t)) + eps)

State round-trips bitwise through state_entries and restore_from_entries
(the archive entries a trainer checkpoint stores): opt/kind, opt/hyper
(the hyperparameters in constructor order), opt/<slot>/<parameter> for
each slot, and for Adam the step count opt/step.
"""
from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from . import checkpoint
from .autograd import Parameter
from .errors import CorruptState, NonFiniteGradient, UnknownOptimizer
from .tensor import Tensor


def _grad_array(grads: Mapping[str, Tensor], param: Parameter) -> np.ndarray:
    g = grads.get(param.name)
    if g is None:
        return np.zeros(param.value.shape, dtype=np.float64)
    arr = g.data if isinstance(g, Tensor) else np.asarray(g, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteGradient(f"gradient for {param.name!r} is not finite")
    return arr


class Optimizer:
    """The state an optimizer keeps and archives. A subclass names its
    hyperparameters with their defaults, its per-parameter slots and
    whether it counts steps, and writes its own step."""

    name: str
    defaults: dict[str, float]
    slots: tuple[str, ...]
    counts_steps = False

    def __init__(self, **hyper: float):
        unknown = sorted(hyper.keys() - self.defaults.keys())
        if unknown:
            raise TypeError(f"{self.name} has no hyperparameter {unknown[0]!r}")
        for key, default in self.defaults.items():
            setattr(self, key, float(hyper.get(key, default)))
        self.state: dict[str, dict[str, np.ndarray]] = {s: {} for s in self.slots}
        self.step_count = 0

    def scale_lr(self, factor: float) -> None:
        self.lr *= factor

    def state_entries(self) -> dict[str, object]:
        entries: dict[str, object] = {
            "opt/kind": self.name.encode(),
            "opt/hyper": np.array([getattr(self, k) for k in self.defaults]),
        }
        if self.counts_steps:
            entries["opt/step"] = np.array([self.step_count], dtype=np.uint64)
        for slot, values in self.state.items():
            for name, value in values.items():
                entries[f"opt/{slot}/{name}"] = value
        return entries

    @classmethod
    def from_entries(cls, entries: Mapping[str, object],
                     shapes: Mapping[str, tuple]) -> "Optimizer":
        """The archived optimizer of parameters of these names and shapes;
        a slot holds every parameter or none (before the first step)."""
        hyper = checkpoint.read_array(entries, "opt/hyper", (len(cls.defaults),))
        opt = cls(**dict(zip(cls.defaults, hyper.tolist())))
        if cls.counts_steps:
            opt.step_count = checkpoint.read_scalar(entries, "opt/step")
        for slot in cls.slots:
            prefix = f"opt/{slot}/"
            if any(name.startswith(prefix) for name in entries):
                opt.state[slot] = checkpoint.read_arrays(entries, prefix, shapes)
        return opt


class SGD(Optimizer):
    """Stochastic gradient descent with classical momentum."""

    name = "sgd"
    defaults = {"lr": 0.01, "momentum": 0.9}
    slots = ("velocity",)

    def step(self, params: Iterable[Parameter], grads: Mapping[str, Tensor]) -> None:
        velocity = self.state["velocity"]
        for p in params:
            g = _grad_array(grads, p)
            v = velocity.get(p.name)
            if v is None:
                v = np.zeros(p.value.shape, dtype=np.float64)
            v = self.momentum * v + g
            velocity[p.name] = v
            p.assign(Tensor._wrap(p.value.data - self.lr * v))


class Adam(Optimizer):
    """Adam with bias-corrected first and second moments."""

    name = "adam"
    defaults = {"lr": 0.001, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8}
    slots = ("m", "v")
    counts_steps = True

    def step(self, params: Iterable[Parameter], grads: Mapping[str, Tensor]) -> None:
        self.step_count += 1
        t = self.step_count
        first, second = self.state["m"], self.state["v"]
        for p in params:
            g = _grad_array(grads, p)
            m = first.get(p.name)
            v = second.get(p.name)
            if m is None:
                m = np.zeros(p.value.shape, dtype=np.float64)
                v = np.zeros(p.value.shape, dtype=np.float64)
            m = self.beta1 * m + (1.0 - self.beta1) * g
            v = self.beta2 * v + (1.0 - self.beta2) * g * g
            first[p.name] = m
            second[p.name] = v
            m_hat = m / (1.0 - self.beta1 ** t)
            v_hat = v / (1.0 - self.beta2 ** t)
            p.assign(Tensor._wrap(p.value.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)))


OPTIMIZERS: dict[str, type[Optimizer]] = {cls.name: cls for cls in (SGD, Adam)}
SUPPORTED = tuple(OPTIMIZERS)


def make_optimizer(name: str, **hyper) -> Optimizer:
    """Build an optimizer by name from the keywords of `hyper` it takes,
    ignoring the rest; unknown names list the supported ones."""
    cls = OPTIMIZERS.get(name)
    if cls is None:
        raise UnknownOptimizer(
            f"unknown optimizer {name!r}; supported: {', '.join(SUPPORTED)}")
    return cls(**{k: v for k, v in hyper.items() if k in cls.defaults})


def restore_from_entries(entries: Mapping[str, object],
                         shapes: Mapping[str, tuple]) -> Optimizer:
    kind = checkpoint.read_text(entries, "opt/kind")
    if kind not in OPTIMIZERS:
        raise CorruptState(f"optimizer state names unknown kind {kind!r}")
    return OPTIMIZERS[kind].from_entries(entries, shapes)
