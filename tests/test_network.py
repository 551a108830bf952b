"""Network assembly: conv equivalence, parameter math, batching, init."""
import gc
import weakref

import numpy as np
import pytest

import onnkit.autograd as autograd_mod
import onnkit.network as network_mod
from onnkit import patchops
from onnkit.autograd import Tape, backward
from onnkit.dataio import make_synthetic_task, partition
from onnkit.errors import (
    IndivisibleExtent,
    NonFiniteLoss,
    NonFiniteValue,
    ShapeMismatch,
    ValidationError,
)
from onnkit.network import (
    NetworkConfig,
    OpNetwork,
    block_forward,
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
    return OpNetwork(NetworkConfig(in_channels=in_channels, tier_sizes=[1],
                                   kernel_sizes=[kernel],
                                   operators=[[conv_index(lib)]]), lib)


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
    net = OpNetwork(NetworkConfig(tier_sizes=[12, 32, 1],
                                  kernel_sizes=[21, 7, 3],
                                  operators=[[0], [0], [conv_index(lib)]],
                                  sampling_factors=[2, -2, 1]), lib)
    want = 12 * (1 * 21 * 21 + 1) + 32 * (12 * 7 * 7 + 1) + 1 * (32 * 3 * 3 + 1)
    assert want == 24441
    assert net.parameter_count() == want


def test_parameter_names_are_unique(lib):
    net = OpNetwork(NetworkConfig(tier_sizes=[3, 2], kernel_sizes=[3, 3],
                                  operators=[[0], [1]]), lib)
    names = [p.name for p in net.parameters()]
    assert len(names) == len(set(names))
    assert "0/0/weights" in names and "1/1/bias" in names


def test_spatial_flow_with_sampling(lib):
    net = OpNetwork(NetworkConfig(tier_sizes=[4, 4, 1], kernel_sizes=[3, 3, 3],
                                  operators=[[0], [0], [2]],
                                  sampling_factors=[2, -2, 1]), lib)
    assert net.spatial_flow((32, 32)) == [(16, 16), (32, 32), (32, 32)]


def test_indivisible_sampling_is_reported(lib):
    net = OpNetwork(NetworkConfig(tier_sizes=[1], kernel_sizes=[3],
                                  operators=[[0]], sampling_factors=[2]), lib)
    with pytest.raises(IndivisibleExtent):
        net.spatial_flow((5, 6))


def test_batch_output_matches_per_sample_bitwise(lib):
    net = OpNetwork(NetworkConfig(tier_sizes=[3, 1], kernel_sizes=[3, 3],
                                  operators=[[4, 9, 28], [2]]), lib)
    net.reset_parameters(11)
    rng = np.random.default_rng(12)
    batch = rng.uniform(-1, 1, size=(3, 1, 6, 6))
    whole = network_forward(net, batch)
    for i in range(3):
        single = network_forward(net, batch[i:i + 1])
        assert np.array_equal(whole.data[i], single.data[0])


def test_reset_parameters_is_deterministic(lib):
    net_a = OpNetwork(NetworkConfig(tier_sizes=[2, 1], kernel_sizes=[3, 3],
                                    operators=[[0], [2]]), lib)
    net_b = OpNetwork(NetworkConfig(tier_sizes=[2, 1], kernel_sizes=[3, 3],
                                    operators=[[0], [2]]), lib)
    net_a.reset_parameters(5)
    net_b.reset_parameters(5)
    for pa, pb in zip(net_a.parameters(), net_b.parameters()):
        assert np.array_equal(pa.value.data, pb.value.data)
    net_b.reset_parameters(6)
    flat_a = np.concatenate([p.value.data.ravel() for p in net_a.parameters()])
    flat_b = np.concatenate([p.value.data.ravel() for p in net_b.parameters()])
    assert not np.array_equal(flat_a, flat_b)


def test_reset_zeroes_biases_and_bounds_weights(lib):
    net = OpNetwork(NetworkConfig(in_channels=2, tier_sizes=[3],
                                  kernel_sizes=[5], operators=[[0]],
                                  init="uniform", init_bound=0.05), lib)
    net.reset_parameters(1)
    for blk in net.tiers[0].blocks:
        assert blk.bias.value.data == 0.0
        assert np.max(np.abs(blk.weights.value.data)) <= 0.05


def test_fan_in_initialization_bound(lib):
    net = OpNetwork(NetworkConfig(in_channels=4, tier_sizes=[2],
                                  kernel_sizes=[3], operators=[[0]],
                                  init="fan_in", init_bound=0.0), lib)
    net.reset_parameters(2)
    bound = 1.0 / np.sqrt(4 * 3 * 3)
    w = net.tiers[0].blocks[0].weights.value.data
    assert np.max(np.abs(w)) <= bound
    assert np.max(np.abs(w)) > 0.5 * bound


def test_single_opset_broadcasts_across_tier(lib):
    net = OpNetwork(NetworkConfig(tier_sizes=[4], kernel_sizes=[3],
                                  operators=[[13]]), lib)
    assert all(blk.opset.index == 13 for blk in net.tiers[0].blocks)


def test_opset_list_length_must_match_tier_size(lib):
    with pytest.raises(ValidationError, match="network: operators tier 0"):
        OpNetwork(NetworkConfig(tier_sizes=[3], kernel_sizes=[3],
                                operators=[[0, 1]]), lib)


@pytest.mark.parametrize("change,field", [
    ({"operators": [[999]]}, "operators"),
    ({"cut": 0.0}, "cut"),
    ({"init": "foo"}, "init"),
    ({"init_bound": float("inf")}, "init_bound"),
    ({"tier_sizes": []}, "tier_sizes"),
    ({"kernel_sizes": [4]}, "kernel_sizes"),
    ({"sampling_factors": [0]}, "sampling_factors"),
    ({"tier_sizes": [2.5]}, "tier_sizes"),
    ({"kernel_sizes": [3.0]}, "kernel_sizes"),
    ({"operators": [[0.0]]}, "operators"),
    ({"tier_sizes": [True]}, "tier_sizes"),
    ({"k_sin": "pi"}, "k_sin"),
], ids=["index-999", "cut-0", "init-foo", "init_bound-inf", "no-tiers",
        "kernel-4", "sampling-0", "tier_sizes-float", "kernel_sizes-float",
        "operators-float", "tier_sizes-bool", "k_sin-str"])
def test_a_broken_config_fails_at_construction_naming_its_field(lib, change,
                                                                field):
    config = {"tier_sizes": [2], "kernel_sizes": [3], "operators": [[0]],
              **change}
    with pytest.raises(ValidationError, match=f"^network: {field} "):
        OpNetwork(NetworkConfig(**config), lib)


def test_heterogeneous_tier_mixes_operators(lib):
    sine = lib.set_by_names("sine", "sum", "tanh").index
    mul = lib.set_by_names("mul", "sum", "tanh").index
    rng = np.random.default_rng(3)
    img = rng.uniform(-1, 1, size=(1, 1, 6, 6))

    outputs = {}
    for tag, pair in (("mixed", [sine, mul]), ("sine", [sine]),
                      ("mul", [mul])):
        net = OpNetwork(NetworkConfig(tier_sizes=[2, 1], kernel_sizes=[3, 3],
                                      operators=[pair, [2]]), lib)
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
    net = OpNetwork(NetworkConfig(tier_sizes=[5], kernel_sizes=[3],
                                  operators=[[0]]), lib)
    net.reset_parameters(0)
    network_forward(net, np.zeros((1, 1, 4, 4)))
    assert len(calls) == 1


def one_block_group(blk, patches, spatial, constants):
    """A block evaluated alone, as a group of one."""
    weights = autograd_mod.as_variable(blk.weights.value.data[np.newaxis])
    bias = autograd_mod.as_variable(blk.bias.value.data.reshape(1, 1, 1))
    return block_forward(blk.opset, weights, bias, patches, spatial, constants)


def test_a_mixed_tier_matches_its_blocks_run_one_by_one(lib):
    sine = lib.set_by_names("sine", "sum", "tanh").index
    mul = lib.set_by_names("mul", "median", "lincut").index
    net = OpNetwork(NetworkConfig(in_channels=2, tier_sizes=[5],
                                  kernel_sizes=[3],
                                  operators=[[sine, mul, sine, mul, sine]],
                                  init="uniform", init_bound=0.5), lib)
    net.reset_parameters(4)
    tier = net.tiers[0]
    for k, blk in enumerate(tier.blocks):
        blk.bias.assign(Tensor(0.1 * k - 0.2))
    assert [rows.tolist() for _, _, rows in tier.groups] == [[0, 2, 4], [1, 3]]
    x = np.random.default_rng(6).uniform(-1.0, 1.0, (2, 6, 6))
    patches = patchops.unfold(x[np.newaxis], patchops.get_plan(6, 6, 3, 3))
    for tape in (None, Tape()):
        got = tier.forward(autograd_mod.as_variable(x), tape, net.constants)
        assert (got.tape is None) == (tape is None)
        for k, blk in enumerate(tier.blocks):
            alone = one_block_group(blk, patches, (6, 6), net.constants)
            assert np.array_equal(got.value[k], alone.value[0])


class StandIns:
    """Hands the tier gradcheck's variables in place of its parameters."""

    def __init__(self, params, variables):
        self.by_name = {p.name: v for p, v in zip(params, variables)}

    def watch(self, param):
        return self.by_name[param.name]


def test_a_two_group_tier_passes_gradcheck(lib):
    net = OpNetwork(NetworkConfig(in_channels=2, tier_sizes=[3],
                                  kernel_sizes=[3],
                                  operators=[[0, 18, 0]]), lib)
    tier = net.tiers[0]
    assert len(tier.groups) == 2
    params = tier.parameters()
    rng = np.random.default_rng(8)
    values = [Tensor(rng.uniform(-0.5, 0.5, p.value.shape)) for p in params]
    x = Tensor(rng.uniform(-0.5, 0.5, (2, 5, 5)))

    def f(xv, *variables):
        out = tier.forward(xv, StandIns(params, variables), net.constants)
        return autograd_mod.sum_all(out)

    report = autograd_mod.gradcheck(f, [x, *values], h=1e-6, tol=1e-4)
    assert report.passed, f"max rel err {report.worst()}"
    assert report.clean(1e-4)
    assert len(report.max_rel_err) == 1 + len(params)


def test_a_step_records_as_many_operations_for_any_tier_width(lib):
    recorded = []
    for width in (1, 4, 16):
        net = OpNetwork(NetworkConfig(tier_sizes=[width, 1],
                                      kernel_sizes=[3, 3],
                                      operators=[[0], [2]]), lib)
        net.reset_parameters(0)
        tape = Tape()
        out = network_forward(net, np.ones((2, 1, 6, 6)), tape)
        loss = autograd_mod.sum_all(autograd_mod.mul(out, out))
        # one leaf per parameter; every other node records an operation
        recorded.append(len(tape.nodes) - len(net.parameters()))
        backward(loss)
    assert recorded[0] == recorded[1] == recorded[2]


def dense_group(opset, weights, bias, patches, spatial, constants):
    """block_forward's stages composed over the full nodal array."""
    g, c, m, n = weights.shape
    z = opset.nodal.fn(autograd_mod.reshape(weights, (g, c, 1, m * n)),
                       patches, constants)
    pooled = opset.pool.fn(z, constants)
    x = autograd_mod.reshape(autograd_mod.reduce_sum(pooled, 1), (g, *spatial))
    return opset.activation.fn(x, bias, constants)


def test_a_taped_selection_group_matches_the_dense_composition(lib):
    sets = [lib.set_by_names(*names).index for names in (
        ("cubic", "median", "lincut"), ("sine", "max", "tanh"),
        ("mul", "sum", "tanh"))]
    # two blocks in each selection group, three in the sum group
    net = OpNetwork(NetworkConfig(in_channels=2, tier_sizes=[7],
                                  kernel_sizes=[3],
                                  operators=[sets * 2 + sets[2:]],
                                  init="uniform", init_bound=0.5), lib)
    net.reset_parameters(2)
    tier = net.tiers[0]
    for k, blk in enumerate(tier.blocks):
        blk.bias.assign(Tensor(0.05 * k - 0.1))
    rng = np.random.default_rng(3)
    x = Tensor(rng.uniform(-1.0, 1.0, (2, 6, 6)))
    r = Tensor(rng.uniform(-1.0, 1.0, (7, 6, 6)))
    plan = patchops.get_plan(6, 6, 3, 3)

    def dense(xv, tape):
        patches = patchops.unfold(autograd_mod.reshape(xv, (1, 2, 6, 6)), plan)
        outs = [dense_group(
            opset, autograd_mod.stack([tape.watch(b.weights) for b in blocks]),
            autograd_mod.reshape(autograd_mod.stack(
                [tape.watch(b.bias) for b in blocks]), (len(blocks), 1, 1)),
            patches, (6, 6), net.constants) for opset, blocks, _ in tier.groups]
        return autograd_mod.place_rows(outs, [rows for *_, rows in tier.groups])

    def taped(forward):
        tape = Tape()
        xv = tape.leaf(x)
        out = forward(xv, tape)
        shapes = {node.shape for node in tape.nodes}
        leaves = [xv.node] + [tape.watch(p).node for p in tier.parameters()]
        grads = backward(autograd_mod.sum_all(autograd_mod.mul(out, r)))
        return out.value, [grads[n].data for n in leaves], shapes

    out, got, shapes = taped(lambda xv, tape: tier.forward(xv, tape, net.constants))
    want_out, want, dense_shapes = taped(dense)
    assert np.array_equal(out, want_out)
    for a, b in zip(got, want):
        assert np.any(b != 0.0)
        assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()
    # the sum group (3 blocks) tapes its full nodal array, the selection
    # groups (2 blocks each) theirs only in the dense composition
    assert (3, 2, 36, 9) in shapes and (2, 2, 36, 9) in dense_shapes
    assert (2, 2, 36, 9) not in shapes


def test_an_overflow_off_the_winners_aborts_a_taped_step(lib, monkeypatch):
    exp_median = lib.set_by_names("exp", "median", "tanh").index
    net = OpNetwork(NetworkConfig(tier_sizes=[1], kernel_sizes=[3],
                                  operators=[[exp_median]]), lib)
    blk = net.tiers[0].blocks[0]

    def corner_weight(seed):
        # exp(1e4 * y) - 1 overflows where a patch's first entry y > 0.08;
        # the other eight entries give exp(0) - 1 = 0, so every median,
        # the winner, stays 0
        w = np.zeros((1, 3, 3))
        w[0, 0, 0] = 1e4
        blk.weights.assign(Tensor(w))
        blk.bias.assign(Tensor(0.0))

    monkeypatch.setattr(net, "reset_parameters", corner_weight)
    data = make_synthetic_task("identity", count=4, size=6, seed=0)
    corner_weight(0)
    patches = patchops.unfold_array(data.pairs[0][0].data,
                                    patchops.get_plan(6, 6, 3, 3))
    with np.errstate(over="ignore"):
        z = np.expm1(1e4 * patches[..., 0])
    assert np.isinf(z).any()
    x = autograd_mod.as_variable(data.pairs[0][0])
    with pytest.raises(NonFiniteValue, match="nodal operator 'exp'"), \
            np.errstate(over="ignore"):
        net.tiers[0].forward(x, Tape(), net.constants)
    split = partition(data, folds=1, val_fraction=0.25, seed=0)[0]
    cfg = TrainerConfig(num_epochs=1, optimizer="sgd", lr=0.01, batch_size=4)
    trainer = Trainer(net, split, cfg)
    with pytest.raises(NonFiniteLoss, match="every run diverged"):
        trainer.train()
    assert trainer.record.run_status == [
        "aborted: nodal operator 'exp' produced a non-finite value"]


def test_empty_tier_list_is_rejected(lib):
    with pytest.raises(ValidationError, match="network: tier_sizes"):
        OpNetwork(NetworkConfig(tier_sizes=[], kernel_sizes=[], operators=[]))


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
    net = OpNetwork(NetworkConfig(tier_sizes=[2, 1], kernel_sizes=[3, 3],
                                  operators=[[median_lincut, max_tanh],
                                             [conv_index(lib)]],
                                  sampling_factors=[2, -2], init="uniform",
                                  init_bound=0.5), lib)
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
    net = OpNetwork(NetworkConfig(tier_sizes=[2, 1], kernel_sizes=[3, 3],
                                  operators=[[median_lincut, conv_index(lib)],
                                             [2]],
                                  sampling_factors=[2, -2], init="uniform",
                                  init_bound=0.5), lib)
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
    net = OpNetwork(NetworkConfig(tier_sizes=[2, 1], kernel_sizes=[3, 3],
                                  operators=[[exp_tanh], [exp_identity]]), lib)
    data = make_synthetic_task("blur-inverse", count=8, size=8, seed=0)
    split = partition(data, folds=1, val_fraction=0.25, seed=0)[0]
    cfg = TrainerConfig(num_epochs=3, optimizer="sgd", lr=lr, batch_size=1,
                        seed=1)
    trainer = Trainer(net, split, cfg)
    with pytest.raises(NonFiniteLoss, match="every run diverged"):
        trainer.train()
    assert trainer.record.run_status == [status]
    assert len(tapes) > 1 and alive(tapes) == 0
