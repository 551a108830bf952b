"""Gradient-descent optimizers: plain SGD with momentum, and Adam.

Both keep one state slot per parameter name and update parameter values
in place. Updates are:

  sgd    v <- momentum * v + g        p <- p - lr * v
  adam   m <- b1*m + (1-b1)*g         v <- b2*v + (1-b2)*g^2
         p <- p - lr * m/(1-b1^t) / (sqrt(v/(1-b2^t)) + eps)

State round-trips bitwise through state_entries and restore_from_entries
(the archive entries a trainer checkpoint stores).
"""
from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from .autograd import Parameter
from .errors import CorruptState, NonFiniteGradient, UnknownOptimizer
from .tensor import Tensor

SUPPORTED = ("sgd", "adam")


def _grad_array(grads: Mapping[str, Tensor], param: Parameter) -> np.ndarray:
    g = grads.get(param.name)
    if g is None:
        return np.zeros(param.value.shape, dtype=np.float64)
    arr = g.data if isinstance(g, Tensor) else np.asarray(g, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteGradient(f"gradient for {param.name!r} is not finite")
    return arr


class SGD:
    """Stochastic gradient descent with classical momentum."""

    name = "sgd"

    def __init__(self, lr: float = 0.01, momentum: float = 0.9):
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.velocity: dict[str, np.ndarray] = {}

    def step(self, params: Iterable[Parameter], grads: Mapping[str, Tensor]) -> None:
        for p in params:
            g = _grad_array(grads, p)
            v = self.velocity.get(p.name)
            if v is None:
                v = np.zeros(p.value.shape, dtype=np.float64)
            v = self.momentum * v + g
            self.velocity[p.name] = v
            p.assign(Tensor._wrap(p.value.data - self.lr * v))

    def scale_lr(self, factor: float) -> None:
        self.lr *= factor

    def state_entries(self) -> dict[str, object]:
        entries: dict[str, object] = {
            "opt/kind": self.name.encode(),
            "opt/hyper": np.array([self.lr, self.momentum]),
        }
        for name, v in self.velocity.items():
            entries[f"opt/velocity/{name}"] = v
        return entries

    @classmethod
    def from_entries(cls, entries: Mapping[str, object]) -> "SGD":
        if "opt/hyper" not in entries:
            raise CorruptState("sgd state has no opt/hyper entry")
        hyper = np.asarray(entries["opt/hyper"]).reshape(-1)
        if hyper.size != 2:
            raise CorruptState(f"sgd hyperparameters need 2 values, found {hyper.size}")
        opt = cls(lr=float(hyper[0]), momentum=float(hyper[1]))
        prefix = "opt/velocity/"
        for name, value in entries.items():
            if name.startswith(prefix):
                opt.velocity[name[len(prefix):]] = np.array(value, dtype=np.float64)
        return opt


class Adam:
    """Adam with bias-corrected first and second moments."""

    name = "adam"

    def __init__(self, lr: float = 0.001, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: Iterable[Parameter], grads: Mapping[str, Tensor]) -> None:
        self.step_count += 1
        t = self.step_count
        for p in params:
            g = _grad_array(grads, p)
            m = self.m.get(p.name)
            v = self.v.get(p.name)
            if m is None:
                m = np.zeros(p.value.shape, dtype=np.float64)
                v = np.zeros(p.value.shape, dtype=np.float64)
            m = self.beta1 * m + (1.0 - self.beta1) * g
            v = self.beta2 * v + (1.0 - self.beta2) * g * g
            self.m[p.name] = m
            self.v[p.name] = v
            m_hat = m / (1.0 - self.beta1 ** t)
            v_hat = v / (1.0 - self.beta2 ** t)
            p.assign(Tensor._wrap(p.value.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)))

    def scale_lr(self, factor: float) -> None:
        self.lr *= factor

    def state_entries(self) -> dict[str, object]:
        entries: dict[str, object] = {
            "opt/kind": self.name.encode(),
            "opt/hyper": np.array([self.lr, self.beta1, self.beta2, self.eps]),
            "opt/step": np.array([self.step_count], dtype=np.uint64),
        }
        for name, m in self.m.items():
            entries[f"opt/m/{name}"] = m
        for name, v in self.v.items():
            entries[f"opt/v/{name}"] = v
        return entries

    @classmethod
    def from_entries(cls, entries: Mapping[str, object]) -> "Adam":
        if "opt/hyper" not in entries or "opt/step" not in entries:
            raise CorruptState("adam state needs opt/hyper and opt/step entries")
        hyper = np.asarray(entries["opt/hyper"]).reshape(-1)
        if hyper.size != 4:
            raise CorruptState(f"adam hyperparameters need 4 values, found {hyper.size}")
        opt = cls(lr=float(hyper[0]), beta1=float(hyper[1]),
                  beta2=float(hyper[2]), eps=float(hyper[3]))
        step = np.asarray(entries["opt/step"]).reshape(-1)
        opt.step_count = int(step[0])
        for name, value in entries.items():
            if name.startswith("opt/m/"):
                opt.m[name[len("opt/m/"):]] = np.array(value, dtype=np.float64)
            elif name.startswith("opt/v/"):
                opt.v[name[len("opt/v/"):]] = np.array(value, dtype=np.float64)
        return opt


Optimizer = SGD | Adam


def make_optimizer(name: str, **hyper) -> Optimizer:
    """Build an optimizer by name; unknown names list the supported ones."""
    if name == "sgd":
        allowed = {k: v for k, v in hyper.items() if k in ("lr", "momentum")}
        return SGD(**allowed)
    if name == "adam":
        allowed = {k: v for k, v in hyper.items()
                   if k in ("lr", "beta1", "beta2", "eps")}
        return Adam(**allowed)
    raise UnknownOptimizer(
        f"unknown optimizer {name!r}; supported: {', '.join(SUPPORTED)}"
    )


def restore_from_entries(entries: Mapping[str, object]) -> Optimizer:
    kind = entries.get("opt/kind")
    if kind is None:
        raise CorruptState("optimizer state has no opt/kind entry")
    if isinstance(kind, bytes):
        kind = kind.decode("utf-8", errors="replace")
    if kind == "sgd":
        return SGD.from_entries(entries)
    if kind == "adam":
        return Adam.from_entries(entries)
    raise CorruptState(f"optimizer state names unknown kind {kind!r}")
