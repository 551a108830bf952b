"""Network assembly: conv equivalence, parameter math, batching, init."""
import gc
import weakref

import numpy as np
import pytest

import onnkit.autograd as autograd_mod
import onnkit.network as network_mod
from onnkit.autograd import Tape
from onnkit.dataio import make_synthetic_task, partition
from onnkit.errors import IndivisibleExtent, NonFiniteLoss, ShapeMismatch
from onnkit.network import (
    OpNetwork,
    build_network,
    check_operator_set_gradients,
    network_forward,
)
from onnkit.oplib import register_builtin_library
from onnkit.tensor import Tensor
from onnkit.trainer import Trainer, TrainerConfig

from oracles import conv2d_same_multichannel


@pytest.fixture()
def lib():
    return register_builtin_library()


def conv_index(lib):
    return lib.set_by_names("mul", "sum", "identity").index


def make_conv_net(lib, in_channels, kernel):
    return build_network(in_channels, [1], [kernel], [[conv_index(lib)]], [1],
                         library=lib)


@pytest.mark.parametrize("channels,size,kernel", [
    (1, 5, 3),
    (1, 8, 5),
    (2, 6, 3),
    (3, 7, 7),
])
def test_block_equals_naive_convolution(lib, channels, size, kernel):
    rng = np.random.default_rng(channels * 100 + size * 10 + kernel)
    img = rng.standard_normal((channels, size, size))
    k = rng.standard_normal((channels, kernel, kernel))
    net = make_conv_net(lib, channels, kernel)
    # the patch dot-product is a correlation; flipping the kernel on both
    # spatial axes turns it into the classical convolution the oracle computes
    net.tiers[0].blocks[0].weights.assign(Tensor(np.flip(k, axis=(1, 2))))
    out = network_forward(net, img[np.newaxis])
    want = conv2d_same_multichannel(img, k)
    assert np.max(np.abs(out.data[0, 0] - want)) < 1e-12


def test_convolution_bias_is_subtracted(lib):
    rng = np.random.default_rng(7)
    img = rng.standard_normal((1, 4, 4))
    net = make_conv_net(lib, 1, 3)
    net.tiers[0].blocks[0].weights.assign(
        Tensor(rng.standard_normal((1, 3, 3))))
    base = network_forward(net, img[np.newaxis]).data
    net.tiers[0].blocks[0].bias.assign(Tensor(0.25))
    shifted = network_forward(net, img[np.newaxis]).data
    assert np.allclose(base - 0.25, shifted)


def test_parameter_count_for_three_tier_model(lib):
    net = build_network(1, [12, 32, 1], [21, 7, 3],
                        [[0], [0], [conv_index(lib)]], [2, -2, 1], library=lib)
    want = 12 * (1 * 21 * 21 + 1) + 32 * (12 * 7 * 7 + 1) + 1 * (32 * 3 * 3 + 1)
    assert want == 24441
    assert net.parameter_count() == want


def test_parameter_names_are_unique(lib):
    net = build_network(1, [3, 2], [3, 3], [[0], [1]], [1, 1], library=lib)
    names = [p.name for p in net.parameters()]
    assert len(names) == len(set(names))
    assert "0/0/weights" in names and "1/1/bias" in names


def test_spatial_flow_with_sampling(lib):
    net = build_network(1, [4, 4, 1], [3, 3, 3], [[0], [0], [2]], [2, -2, 1],
                        library=lib)
    assert net.spatial_flow((32, 32)) == [(16, 16), (32, 32), (32, 32)]


def test_indivisible_sampling_is_reported(lib):
    net = build_network(1, [1], [3], [[0]], [2], library=lib)
    with pytest.raises(IndivisibleExtent):
        net.spatial_flow((5, 6))


def test_batch_output_matches_per_sample_bitwise(lib):
    net = build_network(1, [3, 1], [3, 3], [[4, 9, 28], [2]], [1, 1],
                        library=lib)
    net.reset_parameters(11)
    rng = np.random.default_rng(12)
    batch = rng.uniform(-1, 1, size=(3, 1, 6, 6))
    whole = network_forward(net, batch)
    for i in range(3):
        single = network_forward(net, batch[i:i + 1])
        assert np.array_equal(whole.data[i], single.data[0])


def test_reset_parameters_is_deterministic(lib):
    net_a = build_network(1, [2, 1], [3, 3], [[0], [2]], [1, 1], library=lib)
    net_b = build_network(1, [2, 1], [3, 3], [[0], [2]], [1, 1], library=lib)
    net_a.reset_parameters(5)
    net_b.reset_parameters(5)
    for pa, pb in zip(net_a.parameters(), net_b.parameters()):
        assert np.array_equal(pa.value.data, pb.value.data)
    net_b.reset_parameters(6)
    flat_a = np.concatenate([p.value.data.ravel() for p in net_a.parameters()])
    flat_b = np.concatenate([p.value.data.ravel() for p in net_b.parameters()])
    assert not np.array_equal(flat_a, flat_b)


def test_reset_zeroes_biases_and_bounds_weights(lib):
    net = build_network(2, [3], [5], [[0]], [1], library=lib,
                        init=("uniform", 0.05))
    net.reset_parameters(1)
    for blk in net.tiers[0].blocks:
        assert blk.bias.value.data == 0.0
        assert np.max(np.abs(blk.weights.value.data)) <= 0.05


def test_fan_in_initialization_bound(lib):
    net = build_network(4, [2], [3], [[0]], [1], library=lib,
                        init=("fan_in", 0.0))
    net.reset_parameters(2)
    bound = 1.0 / np.sqrt(4 * 3 * 3)
    w = net.tiers[0].blocks[0].weights.value.data
    assert np.max(np.abs(w)) <= bound
    assert np.max(np.abs(w)) > 0.5 * bound


def test_single_opset_broadcasts_across_tier(lib):
    net = build_network(1, [4], [3], [[13]], [1], library=lib)
    assert all(blk.opset.index == 13 for blk in net.tiers[0].blocks)


def test_opset_list_length_must_match_tier_size(lib):
    with pytest.raises(ShapeMismatch):
        build_network(1, [3], [3], [[0, 1]], [1], library=lib)


def test_heterogeneous_tier_mixes_operators(lib):
    sine = lib.set_by_names("sine", "sum", "tanh").index
    mul = lib.set_by_names("mul", "sum", "tanh").index
    rng = np.random.default_rng(3)
    img = rng.uniform(-1, 1, size=(1, 1, 6, 6))

    outputs = {}
    for tag, pair in (("mixed", [sine, mul]), ("sine", [sine]),
                      ("mul", [mul])):
        net = build_network(1, [2, 1], [3, 3], [pair, [2]], [1, 1],
                            library=lib)
        net.reset_parameters(9)
        outputs[tag] = network_forward(net, img).data
    assert not np.array_equal(outputs["mixed"], outputs["sine"])
    assert not np.array_equal(outputs["mixed"], outputs["mul"])


def test_network_forward_validates_batch_shape(lib):
    net = make_conv_net(lib, 1, 3)
    with pytest.raises(ShapeMismatch):
        network_forward(net, np.zeros((1, 4, 4)))
    with pytest.raises(ShapeMismatch):
        network_forward(net, np.zeros((1, 2, 4, 4)))


def test_tier_extracts_patches_once_per_forward(lib, monkeypatch):
    calls = []
    original = network_mod.patchops.unfold

    def counting(x, plan):
        calls.append(1)
        return original(x, plan)

    monkeypatch.setattr(network_mod.patchops, "unfold", counting)
    net = build_network(1, [5], [3], [[0]], [1], library=lib)
    net.reset_parameters(0)
    network_forward(net, np.zeros((1, 1, 4, 4)))
    assert len(calls) == 1


def test_empty_tier_list_is_rejected(lib):
    with pytest.raises(ShapeMismatch):
        OpNetwork(1, [], [], [], [])


@pytest.mark.parametrize("names", [
    ("mul", "sum", "identity"),
    ("sine", "sum", "tanh"),
    ("exp", "max", "lincut"),
    ("cubic", "median", "tanh"),
])
def test_operator_set_gradients_pass(lib, names):
    index = lib.set_by_names(*names).index
    report = check_operator_set_gradients(lib, index, seed=1)
    assert report.passed, f"{names}: max rel err {report.worst()}"


def test_tie_margins_are_computed_only_for_gradcheck(lib, monkeypatch):
    median_lincut = lib.set_by_names("cubic", "median", "lincut").index
    max_tanh = lib.set_by_names("sine", "max", "tanh").index
    net = build_network(1, [2, 1], [3, 3], [[median_lincut, max_tanh],
                                            [conv_index(lib)]],
                        [2, -2], library=lib, init=("uniform", 0.5))
    net.reset_parameters(0)
    calls = []

    def forbidden(*args):
        calls.append(args)
        raise AssertionError("tie margin computed outside gradcheck")

    monkeypatch.setattr(autograd_mod, "_selection_margin", forbidden)
    monkeypatch.setattr(autograd_mod, "_clamp_margin", forbidden)
    rng = np.random.default_rng(0)
    network_forward(net, Tensor(rng.uniform(-1, 1, (2, 1, 8, 8))))
    data = make_synthetic_task("identity", count=4, size=8, seed=0)
    split = partition(data, folds=1, val_fraction=0.25, seed=0)[0]
    cfg = TrainerConfig(num_epochs=1, optimizer="sgd", lr=0.01, batch_size=4)
    Trainer(net, split, cfg).train()
    assert calls == []
    # the same selections in gradcheck's nominal pass do get their margins
    monkeypatch.setattr(network_mod, "GRADCHECK_ATTEMPTS", 1)
    with pytest.raises(AssertionError, match="outside gradcheck"):
        check_operator_set_gradients(lib, median_lincut)
    assert calls


@pytest.fixture()
def tapes(monkeypatch):
    """Weak references to every Tape created, with the cyclic collector
    off: a tape still alive afterwards is held by a reference cycle (or a
    live owner), not freed by reference counting."""
    created = []
    init = autograd_mod.Tape.__init__

    def tracking_init(self):
        init(self)
        created.append(weakref.ref(self))

    monkeypatch.setattr(autograd_mod.Tape, "__init__", tracking_init)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield created
    finally:
        if was_enabled:
            gc.enable()


def alive(refs):
    return sum(ref() is not None for ref in refs)


def test_no_tape_outlives_its_pass(lib, tapes, monkeypatch):
    median_lincut = lib.set_by_names("cubic", "median", "lincut").index
    net = build_network(1, [2, 1], [3, 3], [[median_lincut, conv_index(lib)],
                                            [2]],
                        [2, -2], library=lib, init=("uniform", 0.5))
    net.reset_parameters(0)
    rng = np.random.default_rng(0)
    network_forward(net, Tensor(rng.uniform(-1, 1, (2, 1, 8, 8))))
    assert tapes == []  # the untaped forward creates none
    data = make_synthetic_task("identity", count=4, size=8, seed=0)
    split = partition(data, folds=1, val_fraction=0.25, seed=0)[0]
    cfg = TrainerConfig(num_epochs=1, optimizer="sgd", lr=0.01, batch_size=4)
    Trainer(net, split, cfg).train()
    assert len(tapes) == 1 and alive(tapes) == 0
    # one draw tapes its nominal pass only; its probes run on constants
    monkeypatch.setattr(network_mod, "GRADCHECK_ATTEMPTS", 1)
    check_operator_set_gradients(lib, median_lincut)
    assert len(tapes) == 2 and alive(tapes) == 0


@pytest.mark.parametrize("lr,status", [
    (4.0, "aborted: nodal operator 'exp' produced a non-finite value"),
    (50.0, "aborted: loss became inf in run 0 epoch 0"),
])
def test_a_diverging_step_frees_its_tape(lib, tapes, lr, status):
    # two exp tiers at a large SGD step, one sample a step: with seed 1 an
    # update drives the next step's exp (stage check) or loss (loss check)
    # to overflow, so that step's forward raises before its backward
    exp_tanh = lib.set_by_names("exp", "sum", "tanh").index
    exp_identity = lib.set_by_names("exp", "sum", "identity").index
    net = build_network(1, [2, 1], [3, 3], [[exp_tanh], [exp_identity]],
                        [1, 1], library=lib)
    data = make_synthetic_task("blur-inverse", count=8, size=8, seed=0)
    split = partition(data, folds=1, val_fraction=0.25, seed=0)[0]
    cfg = TrainerConfig(num_epochs=3, optimizer="sgd", lr=lr, batch_size=1,
                        seed=1)
    trainer = Trainer(net, split, cfg)
    with pytest.raises(NonFiniteLoss, match="every run diverged"):
        trainer.train()
    assert trainer.record.run_status == [status]
    assert len(tapes) > 1 and alive(tapes) == 0
