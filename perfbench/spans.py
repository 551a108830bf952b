"""Span recorder for the traced benchmark run.

A span is (name, start, end, parent). Each thread keeps its own stack of
open spans, so folds trained on worker threads nest correctly. A span's
self time is its duration minus the time its children cover; children
run on the parent's thread and never overlap, so that is their summed
duration.

install() wraps onnkit's public functions under the names their callers
look them up by, and returns a function that puts the originals back.
Nothing in onnkit itself is edited: every span is recorded from here,
around a call into one module.

Gradcheck runs the same unfold, nodal, pool and backward code on its own
tiny inputs. Those calls are charged to network.gradcheck_set alone, so
the layer figures describe training, evaluation and verification.
"""
from __future__ import annotations

import functools
import os
import threading
import time
from dataclasses import dataclass


GRADCHECK = "network.gradcheck_set"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    child_s: float = 0.0
    in_gradcheck: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class SpanRecorder:
    """Keeps spans and counters in memory until the session ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.peaks: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(name, time.perf_counter(), parent=parent,
                    in_gradcheck=parent is not None and (
                        parent.in_gradcheck or parent.name == GRADCHECK))
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        with self._lock:
            self.spans.append(span)

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + value

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.peaks[name] = max(self.peaks.get(name, 0.0), value)

    def self_time(self, name: str) -> float:
        return sum(s.self_s for s in self.named(name))

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans
                if s.name == name and not s.in_gradcheck]


def _wrap(rec: SpanRecorder, name: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = rec.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.end(span)
        if after is not None and not span.in_gradcheck:
            after(rec, out, *args, **kwargs)
        return out
    return traced


def _wrap_forward(rec: SpanRecorder, fn):
    """network_forward is one function with two layers behind it: the taped
    training forward and the untaped evaluation forward."""
    @functools.wraps(fn)
    def traced(net, batch, tape=None):
        if tape is None:
            span = rec.begin("network.forward_untaped")
            try:
                return fn(net, batch)
            finally:
                rec.end(span)
        before = len(tape.nodes)
        span = rec.begin("network.forward_taped")
        try:
            return fn(net, batch, tape)
        finally:
            rec.end(span)
            rec.add("network.taped_forwards", 1)
            rec.add("network.tape_nodes", len(tape.nodes) - before)
    return traced


def _value_size(out) -> int:
    value = getattr(out, "value", out)
    return int(value.size)


def _count_patches(rec, out, *args, **kwargs):
    # C * MN * mn float64 entries: computed from the array's shape
    rec.add("patchops.patch_bytes", 8 * _value_size(out))


def _count_nodal(rec, out, *args, **kwargs):
    rec.add("oplib.nodal_elems", _value_size(out))


def _count_grads(rec, grads, *args, **kwargs):
    rec.peak("autograd.grad_bytes", sum(g.data.nbytes for g in grads.values()))


def _count_step(rec, out, *args, **kwargs):
    rec.add("optim.steps", 1)


def _count_archive(rec, out, path, *args, **kwargs):
    rec.add("checkpoint.archive_bytes", os.path.getsize(path))


def install(rec: SpanRecorder):
    """Wrap onnkit's layer entry points; returns the undo function.

    Each target is the attribute its callers resolve at call time:
    network.py imports the oplib evaluators by name, the trainer imports
    network_forward by name, unfold's backward calls fold_array as a
    patchops global, and the CLI imports check_operator_set_gradients.
    """
    from onnkit import (autograd, checkpoint, cli, dataio, network, optim,
                        patchops, trainer)

    targets = [
        (cli, "parse_config", "cli.parse_config", None),
        (dataio, "make_synthetic_task", "dataio.generate", None),
        (dataio, "partition", "dataio.partition", None),
        (autograd, "backward", "autograd.backward", _count_grads),
        (autograd, "stack", "autograd.stack", None),
        (network, "evaluate_nodal", "oplib.nodal", _count_nodal),
        (network, "evaluate_pool", "oplib.pool", None),
        (network, "evaluate_activation", "oplib.activation", None),
        (patchops, "unfold", "patchops.unfold", _count_patches),
        (patchops, "fold_array", "patchops.fold", None),
        (patchops, "resample", "patchops.resample", None),
        (optim.SGD, "step", "optim.step", _count_step),
        (optim.Adam, "step", "optim.step", _count_step),
        (trainer.Trainer, "train", "trainer.train", None),
        (trainer.Trainer, "evaluate", "trainer.evaluate", None),
        (checkpoint, "save", "checkpoint.save", _count_archive),
        (checkpoint, "load", "checkpoint.load", None),
        (cli, "check_operator_set_gradients", GRADCHECK, None),
    ]
    originals = []
    for owner, attr, name, after in targets:
        fn = owner.__dict__[attr]
        originals.append((owner, attr, fn))
        setattr(owner, attr, _wrap(rec, name, fn, after))
    forward = network.network_forward
    for owner in (network, trainer):
        originals.append((owner, "network_forward", owner.network_forward))
        setattr(owner, "network_forward", _wrap_forward(rec, forward))

    def undo():
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)
    return undo


SELF_TIMES = {
    "cli.parse_config_s": "cli.parse_config",
    "dataio.generate_s": "dataio.generate",
    "dataio.partition_s": "dataio.partition",
    "network.forward_taped_s": "network.forward_taped",
    "network.forward_untaped_s": "network.forward_untaped",
    "autograd.backward_s": "autograd.backward",
    "autograd.stack_s": "autograd.stack",
    "oplib.nodal_s": "oplib.nodal",
    "oplib.pool_s": "oplib.pool",
    "oplib.activation_s": "oplib.activation",
    "patchops.unfold_s": "patchops.unfold",
    "patchops.fold_s": "patchops.fold",
    "patchops.resample_s": "patchops.resample",
    "optim.step_s": "optim.step",
    "trainer.self_s": "trainer.train",
    "trainer.evaluate_s": "trainer.evaluate",
    "checkpoint.save_s": "checkpoint.save",
    "checkpoint.load_s": "checkpoint.load",
}


def layer_metrics(rec: SpanRecorder) -> dict[str, float]:
    """Per-layer figures of one traced session.

    Every *_s figure is the layer's self time summed over the session
    outside gradcheck, except network.gradcheck_set_s (whole time per call) and
    cli.fold_busy_s (summed Trainer.train spans). Counts are session
    totals, except tape_nodes_per_step (per taped forward) and grad_bytes
    (the largest backward). Byte and element counts are computed from
    array shapes, not measured memory traffic.
    """
    out = {metric: rec.self_time(name) for metric, name in SELF_TIMES.items()}
    folds = rec.named("trainer.train")
    busy = sum(s.duration for s in folds)
    phase = max(s.end for s in folds) - min(s.start for s in folds)
    out["cli.fold_busy_s"] = busy
    out["cli.fold_overlap"] = busy / phase
    checks = rec.named(GRADCHECK)
    out["network.gradcheck_set_s"] = sum(s.duration for s in checks) / len(checks)
    forwards = rec.counts["network.taped_forwards"]
    out["network.tape_nodes_per_step"] = rec.counts["network.tape_nodes"] / forwards
    out["autograd.grad_bytes"] = rec.peaks["autograd.grad_bytes"]
    for name in ("oplib.nodal_elems", "patchops.patch_bytes", "optim.steps",
                 "checkpoint.archive_bytes"):
        out[name] = rec.counts[name]
    out["trace.spans"] = float(len(rec.spans))
    return out
