"""Acceptance suite: nine end-to-end criteria, one verdict line each.

Each test prints "PASS criterion N: <evidence>" (or FAIL) past the capture
so the verdicts are visible in plain pytest output, then asserts.
"""
import dataclasses
import io
import time
from pathlib import Path

import numpy as np
import pytest

import onnkit.autograd as ag
import onnkit.patchops as patchops
from onnkit.cli import cmd_describe, cmd_train, parse_config
from onnkit.dataio import make_synthetic_task, partition
from onnkit.network import (
    NetworkConfig,
    OpNetwork,
    check_operator_set_gradients,
    network_forward,
)
from onnkit.oplib import (
    DEFAULT_CONSTANTS,
    evaluate_activation,
    evaluate_nodal,
    evaluate_pool,
    register_builtin_library,
)
from onnkit.tensor import Tensor
from onnkit.trainer import BUILTIN_METRICS, Trainer, TrainerConfig, export_stats

from oracles import conv2d_same_multichannel

LIB = register_builtin_library()
CONV = LIB.set_by_names("mul", "sum", "identity").index


def verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_convolution_oracle_equivalence(capsys):
    rng = np.random.default_rng(100)
    t0 = time.perf_counter()
    worst = 0.0
    for case in range(50):
        channels = int(rng.choice([1, 3]))
        kernel = int(rng.choice([1, 3, 5, 7]))
        height = int(rng.integers(3, 17))
        width = int(rng.integers(3, 17))
        img = rng.uniform(-1, 1, size=(channels, height, width))
        k = rng.uniform(-1, 1, size=(channels, kernel, kernel))
        net = OpNetwork(NetworkConfig(in_channels=channels, tier_sizes=[1],
                                      kernel_sizes=[kernel],
                                      operators=[[CONV]]), LIB)
        # the engine's patch dot product is a correlation; flipping the
        # kernel on both spatial axes makes it the oracle's convolution
        net.tiers[0].blocks[0].weights.assign(Tensor(np.flip(k, axis=(1, 2))))
        got = network_forward(net, img[np.newaxis]).data[0, 0]
        want = conv2d_same_multichannel(img, k)
        worst = max(worst, float(np.max(np.abs(got - want))))
    span = time.perf_counter() - t0
    ok = worst < 1e-10 and span < 5.0
    verdict(capsys, 1, ok,
            f"50 conv cases, max abs err {worst:.2e} (tol 1e-10), "
            f"{span:.2f}s (budget 5s)")


def _two_tier_gradcheck(index, seed):
    """FD-check one operator set driving both tiers of a 2-block + 1-block
    network on a 6x6 input; redraw when a selection sits near a tie."""
    opset = LIB.decode(index)
    size = 6
    plan = patchops.get_plan(size, size, 3, 3)
    consts = DEFAULT_CONSTANTS

    def block(w, b, patches, channels):
        wr = ag.reshape(w, (channels, 1, 9))
        z = evaluate_nodal(opset.nodal, wr, patches, consts)
        pooled = evaluate_pool(opset.pool, z, consts)
        mat = ag.reshape(ag.reduce_sum(pooled, 0), (size, size))
        return evaluate_activation(opset.activation, mat, b, consts)

    def f(x, wa, ba, wb, bb, w1, b1):
        patches = patchops.unfold(x, plan)
        hidden = ag.stack([block(wa, ba, patches, 1),
                           block(wb, bb, patches, 1)], axis=0)
        patches2 = patchops.unfold(hidden, plan)
        out = block(w1, b1, patches2, 2)
        return ag.sum_all(out)

    # Keep pooled pre-activations around O(1): max and median multiply by
    # the patch length, which would push tanh into saturation and leave
    # true gradients below the finite-difference noise floor.
    w_hi = 0.5 / (9.0 if opset.pool.name in ("max", "median") else 1.0)
    # A cubic second tier differentiates to 3*w*y^2 at the hidden values y,
    # so hidden values near zero push true gradients below what central
    # differences resolve. Biasing the hidden blocks away from zero keeps
    # |y| around 0.5 to 0.8: for lincut (slope 1/10 up to the cut at 10)
    # that takes |pre| around 5, while tanh saturates there and wants
    # |pre| around 1. Inputs get a magnitude floor for the same reason,
    # keeping the cubic input derivative 3*w*x^2 alive at every coordinate.
    lincut = opset.activation.name == "lincut"
    rng = np.random.Generator(np.random.PCG64(seed))

    def draw_signed(lo, hi, shape):
        mag = rng.uniform(lo, hi, shape)
        return Tensor._wrap(mag * rng.choice([-1.0, 1.0], shape))

    def draw_hidden_bias():
        if lincut:
            return draw_signed(3.0, 6.0, ())
        return draw_signed(0.7, 1.1, ())

    report = None
    for _ in range(6):
        draws = [
            draw_signed(0.5, 1.0, (1, size, size)),
            Tensor._wrap(rng.uniform(-w_hi, w_hi, (1, 3, 3))),
            draw_hidden_bias(),
            Tensor._wrap(rng.uniform(-w_hi, w_hi, (1, 3, 3))),
            draw_hidden_bias(),
            Tensor._wrap(rng.uniform(-w_hi, w_hi, (2, 3, 3))),
            Tensor._wrap(rng.uniform(-0.1, 0.1, ())),
        ]
        report = ag.gradcheck(f, draws, h=1e-6, tol=1e-4)
        if report.passed and report.clean(1e-4):
            return report
    return report


def test_criterion_02_all_builtin_sets_pass_gradcheck(capsys):
    core = [i for i in range(len(LIB))
            if LIB.decode(i).activation.name != "identity"]
    assert len(core) == 36
    t0 = time.perf_counter()
    failures = []
    worst = 0.0
    ties = 0
    for index in core:
        report = _two_tier_gradcheck(index, seed=index + 1)
        worst = max(worst, report.worst())
        ties += report.tie_coords
        if not report.passed:
            failures.append((index, LIB.decode(index).names, report.worst()))
    span = time.perf_counter() - t0
    ok = not failures and span < 60.0
    verdict(capsys, 2, ok,
            f"36/36 operator sets on 2-tier nets, max rel err {worst:.2e} "
            f"(tol 1e-4), {ties} tie coords skipped, {span:.1f}s (budget 60s)"
            if ok else f"failing sets: {failures}, {span:.1f}s")


def test_criterion_03_unfold_fold_adjointness(capsys):
    rng = np.random.default_rng(300)
    worst = 0.0
    for _ in range(100):
        channels = int(rng.integers(1, 4))
        kernel = int(rng.choice([1, 3, 5, 7]))
        height = int(rng.integers(2, 13))
        width = int(rng.integers(2, 13))
        plan = patchops.get_plan(height, width, kernel, kernel)
        y = rng.uniform(-1, 1, size=(channels, height, width))
        g = rng.uniform(-1, 1, size=(channels, height * width, kernel * kernel))
        lhs = float(np.sum(patchops.unfold_array(y, plan) * g))
        rhs = float(np.sum(y * patchops.fold_array(g, plan)))
        worst = max(worst, abs(lhs - rhs))
    ok = worst < 1e-12
    verdict(capsys, 3, ok,
            f"100 instances, max |<unfold(y),G> - <y,fold(G)>| = {worst:.2e} "
            f"(tol 1e-12)")


def test_criterion_04_nonlinear_map_training(capsys, tmp_path):
    sine = LIB.set_by_names("sine", "sum", "tanh").index
    ds = make_synthetic_task("nonlinear-map", count=64, size=16, seed=0)
    (split,) = partition(ds, folds=1, seed=0)
    net = OpNetwork(NetworkConfig(tier_sizes=[4, 1], kernel_sizes=[3, 3],
                                  operators=[[sine], [CONV]]), LIB)
    cfg = TrainerConfig(num_epochs=60, num_runs=1, optimizer="adam", lr=0.01,
                        batch_size=8, seed=0)
    trainer = Trainer(net, split, cfg, metrics=[BUILTIN_METRICS["snr"]])
    t0 = time.perf_counter()
    record = trainer.train()
    span = time.perf_counter() - t0

    snrs = record.series[("train", "snr")][0]
    best = max(snrs)
    export_stats(record, tmp_path)
    summary = (tmp_path / "summary.csv").read_text()
    lines = summary.splitlines()
    header_ok = lines[0] == "partition,metric,fold_0,mean,mean_per_image_time_s"
    snr_row = next(l.split(",") for l in lines[1:]
                   if l.startswith("train,snr,"))
    time_ok = float(snr_row[-1]) > 0.0
    ok = best >= 15.0 and span < 180.0 and header_ok and time_ok
    verdict(capsys, 4, ok,
            f"nonlinear-map train SNR {best:.2f} dB in {len(snrs)} Adam "
            f"epochs at lr=0.01 (needs >= 15 dB within 300), {span:.1f}s "
            f"(budget 180s), per-image time {float(snr_row[-1]):.2e}s in summary")


def test_criterion_05_blur_inverse_least_squares(capsys):
    ds = make_synthetic_task("blur-inverse", count=32, size=16, seed=0)
    (split,) = partition(ds, folds=1, seed=0)
    net = OpNetwork(NetworkConfig(tier_sizes=[1], kernel_sizes=[9],
                                  operators=[[CONV]]), LIB)
    cfg = TrainerConfig(num_epochs=250, num_runs=1, optimizer="adam", lr=0.03,
                        batch_size=8, seed=0)
    net.reset_parameters(cfg.seed ^ 0)  # the same reset the first run applies
    x = np.stack([p[0].data for p in split.train.pairs])
    t = np.stack([p[1].data for p in split.train.pairs])
    initial = float(((network_forward(net, x).data - t) ** 2).mean())

    trainer = Trainer(net, split, cfg)
    record = trainer.train()
    best = min(record.series[("train", "loss")][0])
    ratio = initial / best
    ok = ratio >= 100.0
    verdict(capsys, 5, ok,
            f"blur-inverse single (mul,sum,identity) tier: MSE {initial:.3e} "
            f"-> {best:.3e}, {ratio:.0f}x reduction in "
            f"{cfg.num_epochs} epochs (needs >= 100x within 500)")


def test_criterion_06_checkpoint_resumption_is_bitwise(capsys, tmp_path):
    ds = make_synthetic_task("identity", count=8, size=6, seed=1)
    (split,) = partition(ds, folds=1, seed=0)
    base = dict(num_runs=1, optimizer="adam", lr=0.02, batch_size=4, seed=9)

    def fresh_net():
        return OpNetwork(NetworkConfig(tier_sizes=[1], kernel_sizes=[3],
                                       operators=[[CONV]]), LIB)

    def fresh_trainer(epochs):
        return Trainer(fresh_net(), split,
                       TrainerConfig(num_epochs=epochs, **base))

    straight = fresh_trainer(10)
    straight_losses = straight.train().series[("train", "loss")][0]

    halfway = fresh_trainer(5)
    halfway.train()
    path = tmp_path / "half.ckpt"
    halfway.save_all(path)
    resumed = Trainer.load(path, fresh_net(), split)
    resumed.cfg = dataclasses.replace(resumed.cfg, num_epochs=10)
    resumed_losses = resumed.train().series[("train", "loss")][0]

    ok = (len(straight_losses) == len(resumed_losses) == 10
          and straight_losses == resumed_losses)
    verdict(capsys, 6, ok,
            "5 epochs + save + load + 5 epochs matches a straight 10-epoch "
            "run bitwise" if ok else
            f"trajectories differ: {straight_losses} vs {resumed_losses}")


TRAIN_CFG = """\
[network]
tier_sizes = 2,1
kernel_sizes = 3,3
operators = 18 / 2

[trainer]
num_epochs = 3
num_runs = 2
optimizer = adam
lr = 0.01
batch_size = 4
seed = 5
metrics = snr

[data]
task = identity
count = 8
size = 6
folds = 2
val_fraction = 0.25
"""


def strip_timing(summary_text):
    return [line.rsplit(",", 1)[0] for line in summary_text.splitlines()]


def test_criterion_07_cmd_train_is_deterministic(capsys, tmp_path):
    cfg = parse_config(TRAIN_CFG, LIB)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = cmd_train(cfg, out, jobs=1, library=LIB)
        assert code == 0
        outs.append((out / "summary.csv").read_text())
    ok = strip_timing(outs[0]) == strip_timing(outs[1])
    verdict(capsys, 7, ok,
            "two cmd_train invocations: summary CSVs byte-identical outside "
            "the timing column" if ok else "summaries differ")


DESCRIBE_CFG = """\
[network]
tier_sizes = 12,32,1
kernel_sizes = 21,7,3
operators = 2 / 2 / 2
sampling_factors = 2,-2,1

[trainer]
num_epochs = 1

[data]
task = identity
size = 32
"""


def test_criterion_08_describe_parameter_arithmetic(capsys):
    cfg = parse_config(DESCRIBE_CFG, LIB)
    stream = io.StringIO()
    assert cmd_describe(cfg, LIB, stream) == 0
    out = stream.getvalue()
    needed = ["parameters: 24441", "output 12 x 16 x 16",
              "output 32 x 32 x 32", "output 1 x 32 x 32"]
    missing = [s for s in needed if s not in out]
    ok = not missing
    verdict(capsys, 8, ok,
            "describe reports 24441 parameters and 16x16 -> 32x32 -> 32x32"
            if ok else f"missing from describe output: {missing}")


def test_criterion_09_heterogeneous_tier(capsys):
    sine = LIB.set_by_names("sine", "sum", "tanh").index
    mul = LIB.set_by_names("mul", "sum", "tanh").index
    rng = np.random.default_rng(9)
    img = rng.uniform(-1, 1, size=(1, 1, 8, 8))

    outs = {}
    for tag, pair in (("mixed", [sine, mul]), ("sine", [sine]),
                      ("mul", [mul])):
        net = OpNetwork(NetworkConfig(tier_sizes=[2], kernel_sizes=[3],
                                      operators=[pair]), LIB)
        net.reset_parameters(7)  # identical weights in all three variants
        outs[tag] = network_forward(net, img).data

    differs = (not np.array_equal(outs["mixed"], outs["sine"])
               and not np.array_equal(outs["mixed"], outs["mul"]))
    reports = {name: check_operator_set_gradients(LIB, idx, seed=2)
               for name, idx in (("sine", sine), ("mul", mul))}
    grads_ok = all(r.passed for r in reports.values())
    ok = differs and grads_ok
    verdict(capsys, 9, ok,
            "mixed (sine,mul) tier differs from both homogeneous tiers; "
            "both sets pass gradcheck" if ok else
            f"differs={differs}, gradcheck="
            f"{ {n: r.passed for n, r in reports.items()} }")
