"""Operator library: built-in formulas, set enumeration, custom operators."""
import math

import numpy as np
import pytest

import onnkit.autograd as ag
from onnkit.autograd import Tape, backward, gradcheck
from onnkit.dataio import make_synthetic_task, partition
from onnkit.errors import (
    DuplicateName,
    EmptyAxis,
    NonFiniteValue,
    ShapeContractViolation,
)
from onnkit.network import (
    NetworkConfig,
    OpNetwork,
    check_operator_set_gradients,
    network_forward,
)
from onnkit.oplib import (
    OperatorConstants,
    add_custom_operator,
    evaluate_activation,
    evaluate_nodal,
    evaluate_pool,
    register_builtin_library,
)
from onnkit.patchops import get_plan, unfold_array
from onnkit.tensor import Tensor
from onnkit.trainer import Trainer, TrainerConfig


@pytest.fixture()
def lib():
    return register_builtin_library()


def nodal_value(lib, name, w, y, constants=None):
    op = next(o for o in lib.nodal if o.name == name)
    out = evaluate_nodal(op, Tensor(w), Tensor(y),
                         constants or OperatorConstants())
    return out.value


def pool_value(lib, name, z):
    op = next(o for o in lib.pool if o.name == name)
    return evaluate_pool(op, Tensor(z)).value


def act_value(lib, name, x, b=0.0, constants=None):
    op = next(o for o in lib.activation if o.name == name)
    out = evaluate_activation(op, Tensor(x), Tensor(b),
                              constants or OperatorConstants())
    return out.value


def test_nodal_formulas(lib):
    assert nodal_value(lib, "mul", [2.0], [3.0]).tolist() == [6.0]
    assert nodal_value(lib, "cubic", [2.0], [3.0]).tolist() == [54.0]
    assert nodal_value(lib, "sine", [0.5], [1.0])[0] == pytest.approx(
        math.sin(math.pi * 0.5))
    assert nodal_value(lib, "sinh", [0.5], [1.0])[0] == pytest.approx(
        math.sinh(0.5))


def test_exp_nodal_is_zero_at_zero_product(lib):
    assert nodal_value(lib, "exp", [0.0], [5.0]).tolist() == [0.0]
    assert nodal_value(lib, "exp", [1.0], [0.0]).tolist() == [0.0]
    assert nodal_value(lib, "exp", [1.0], [1.0])[0] == pytest.approx(math.e - 1.0)


def test_chirp_squares_the_input(lib):
    got = nodal_value(lib, "chirp", [0.1], [2.0])[0]
    assert got == pytest.approx(math.sin(math.pi * 0.1 * 4.0))
    assert got == pytest.approx(0.9510565162951535)


def test_nodal_constants_are_configurable(lib):
    constants = OperatorConstants(k_sin=2.0)
    got = nodal_value(lib, "sine", [0.5], [1.0], constants)[0]
    assert got == pytest.approx(math.sin(1.0))


def test_pool_sum(lib):
    assert pool_value(lib, "sum", [[1.0, 2.0, 3.0]]).tolist() == [6.0]


def test_pool_median_scales_by_patch_length(lib):
    assert pool_value(lib, "median", [[1.0, 2.0, 3.0]]).tolist() == [6.0]
    assert pool_value(lib, "median", [[7.0, 1.0, 4.0]]).tolist() == [12.0]


def test_pool_max_scales_by_patch_length(lib):
    assert pool_value(lib, "max", [[-1.0, 5.0, 2.0]]).tolist() == [15.0]


def test_pool_rejects_empty_trailing_axis(lib):
    with pytest.raises(EmptyAxis):
        pool_value(lib, "sum", np.zeros((2, 0)))


def test_activation_tanh(lib):
    assert act_value(lib, "tanh", [1.0])[0] == pytest.approx(0.7615941559557649)
    assert act_value(lib, "tanh", [1.5], b=0.5)[0] == pytest.approx(
        math.tanh(1.0))


def test_activation_lincut_slope_and_saturation(lib):
    assert act_value(lib, "lincut", [25.0]).tolist() == [1.0]
    assert act_value(lib, "lincut", [-25.0]).tolist() == [-1.0]
    assert act_value(lib, "lincut", [5.0]).tolist() == [0.5]
    assert act_value(lib, "lincut", [6.0], b=1.0).tolist() == [0.5]


def test_activation_identity_subtracts_bias(lib):
    assert act_value(lib, "identity", [2.5], b=1.0).tolist() == [1.5]


def test_bounded_activations_stay_in_unit_interval(lib):
    rng = np.random.default_rng(4)
    x = rng.uniform(-50.0, 50.0, size=200)
    for name in ("tanh", "lincut"):
        out = act_value(lib, name, x)
        assert np.all(out >= -1.0) and np.all(out <= 1.0)


def test_library_size_and_enumeration(lib):
    assert len(lib) == 6 * 3 * 3
    assert lib.decode(0).names == ("mul", "sum", "tanh")
    assert lib.decode(2).names == ("mul", "sum", "identity")
    assert lib.decode(3).names == ("mul", "median", "tanh")
    assert lib.decode(9).names == ("cubic", "sum", "tanh")
    # index = nodal * (pools * activations) + pool * activations + activation
    assert lib.decode(4 * 9 + 2 * 3 + 1).names == ("sinh", "max", "lincut")


def test_indices_round_trip(lib):
    for index in range(len(lib)):
        s = lib.decode(index)
        assert s.index == index
        ni = [o.name for o in lib.nodal].index(s.nodal.name)
        pi = [o.name for o in lib.pool].index(s.pool.name)
        ai = [o.name for o in lib.activation].index(s.activation.name)
        assert lib.encode(ni, pi, ai) == index


def test_decode_rejects_out_of_range(lib):
    with pytest.raises(KeyError):
        lib.decode(len(lib))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_nodal_finiteness_is_enforced(lib):
    with pytest.raises(NonFiniteValue):
        nodal_value(lib, "exp", [800.0], [1.0])


def test_custom_nodal_keeps_existing_indices(lib):
    before = [lib.decode(i).names for i in range(len(lib))]
    add_custom_operator(lib, "nodal", "wsq",
                        lambda w, y, c: ag.mul(ag.pow_const(w, 2), y))
    assert len(lib) == 54 + 9
    for i, names in enumerate(before):
        assert lib.decode(i).names == names
    assert lib.decode(54).names == ("wsq", "sum", "tanh")
    assert lib.decode(62).names == ("wsq", "max", "identity")


def test_custom_pool_keeps_existing_indices(lib):
    before = [lib.decode(i).names for i in range(len(lib))]
    add_custom_operator(lib, "pool", "mean",
                        lambda z, c: ag.mul(ag.reduce_sum(z, -1),
                                            1.0 / z.shape[-1]))
    assert len(lib) == 54 + 6 * 3
    for i, names in enumerate(before):
        assert lib.decode(i).names == names
    assert lib.decode(54).names == ("mul", "mean", "tanh")


def test_readme_custom_operator_runs_in_a_tier_and_passes_gradcheck(lib):
    add_custom_operator(lib, "nodal", "wsq", lambda w, y, consts: w * y * y)
    index = lib.set_by_names("wsq", "sum", "tanh").index
    assert index == 54
    net = OpNetwork(NetworkConfig(tier_sizes=[2], kernel_sizes=[3],
                                  operators=[[index]], init="uniform",
                                  init_bound=0.5), lib)
    net.reset_parameters(0)
    x = np.random.default_rng(5).uniform(-1.0, 1.0, (1, 1, 5, 5))
    out = network_forward(net, x).data
    # the nodal operator sees w [2, 1, 1, 9] and y [1, 1, 25, 9]
    y = unfold_array(x[0], get_plan(5, 5, 3, 3))
    for k, blk in enumerate(net.tiers[0].blocks):
        w = blk.weights.value.data.reshape(1, 1, 9)
        want = np.tanh((w * y * y).sum(axis=-1).sum(axis=0)).reshape(5, 5)
        assert np.array_equal(out[0, k], want)
    assert check_operator_set_gradients(lib, index, seed=0).passed


def test_duplicate_operator_name_is_rejected(lib):
    with pytest.raises(DuplicateName):
        add_custom_operator(lib, "nodal", "mul", lambda w, y, c: ag.mul(w, y))


def test_pool_probe_rejects_shape_violations(lib):
    with pytest.raises(ShapeContractViolation):
        add_custom_operator(lib, "pool", "noop", lambda z, c: z)


def _sum_to_shape(grad, shape):
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    return grad.sum(axis=axes, keepdims=True) if axes else grad


def test_custom_operator_with_backward_rule_participates(lib):
    add_custom_operator(
        lib, "nodal", "pair",
        forward=lambda w, y: w * y + 0.5 * w,
        backward=lambda g, w, y, out: (_sum_to_shape(g * (y + 0.5), w.shape),
                                       g * w),
    )
    idx = next(i for i in range(len(lib))
               if lib.decode(i).names == ("pair", "sum", "identity"))
    report = check_operator_set_gradients(lib, idx, seed=3)
    assert report.passed


def test_wrong_custom_backward_is_caught_by_gradient_check(lib):
    add_custom_operator(
        lib, "nodal", "bad",
        forward=lambda w, y: w * y,
        backward=lambda g, w, y, out: (_sum_to_shape(g * (y + 1.0), w.shape),
                                       g * w),
    )
    idx = next(i for i in range(len(lib))
               if lib.decode(i).names == ("bad", "sum", "identity"))
    report = check_operator_set_gradients(lib, idx, seed=3)
    assert not report.passed


def test_custom_backward_trains_and_gradchecks_under_a_median_pool(lib):
    # taped under a median pool, the rule also meets w and y both
    # [G, C, M*N], the winning pairs: summing over broadcast axes serves
    # both call shapes
    add_custom_operator(
        lib, "nodal", "pair",
        forward=lambda w, y: w * y + 0.5 * w * w,
        backward=lambda g, w, y, out: (_sum_to_shape(g * (y + w), w.shape),
                                       _sum_to_shape(g * w, y.shape)),
    )
    idx = lib.set_by_names("pair", "median", "tanh").index
    report = check_operator_set_gradients(lib, idx, seed=3)
    assert report.passed, f"max rel err {report.worst()}"
    assert report.tie_coords == 0
    # the custom tier's input is tracked, so its y gradient is needed too
    net = OpNetwork(NetworkConfig(tier_sizes=[2, 3, 1], kernel_sizes=[3, 3, 3],
                                  operators=[[0], [idx], [2]], init="uniform",
                                  init_bound=0.5), lib)
    data = make_synthetic_task("identity", count=4, size=6, seed=0)
    split = partition(data, folds=1, val_fraction=0.25, seed=0)[0]
    cfg = TrainerConfig(num_epochs=1, optimizer="sgd", lr=0.1, batch_size=4)
    net.reset_parameters(cfg.seed)  # the draw the run starts from
    before = [p.value.data.copy() for p in net.tiers[1].parameters()]
    trainer = Trainer(net, split, cfg)
    trainer.train()
    assert trainer.record.run_status == ["done"]
    after = [p.value.data for p in net.tiers[1].parameters()]
    assert all(not np.array_equal(a, b) for a, b in zip(after, before))


def test_a_clamping_nodal_operator_logs_each_selection_once(lib):
    # the taped pass picks the max winners on the full nodal array, whose
    # clamp it logs, then evaluates the clamp again on the winners only:
    # logged twice, it would make every probe of gradcheck a tie
    add_custom_operator(lib, "nodal", "clipped",
                        lambda w, y, c: ag.clamp(ag.mul(w, y), -5.0, 5.0))
    idx = lib.set_by_names("clipped", "max", "identity").index
    report = check_operator_set_gradients(lib, idx, seed=1)
    assert report.passed, f"max rel err {report.worst()}"
    assert report.tie_coords == 0


@pytest.mark.parametrize("nodal", ["mul", "cubic", "sine", "exp", "sinh", "chirp"])
def test_each_nodal_gradient_against_fd(lib, nodal):
    op = next(o for o in lib.nodal if o.name == nodal)
    rng = np.random.default_rng(len(nodal))
    w = Tensor(rng.uniform(-0.5, 0.5, size=(2, 3)))
    y = Tensor(rng.uniform(-0.5, 0.5, size=(2, 3)))

    def f(wv, yv):
        return ag.sum_all(evaluate_nodal(op, wv, yv))

    report = gradcheck(f, [w, y], tol=1e-4)
    assert report.passed, f"{nodal}: max rel err {report.worst()}"


@pytest.mark.parametrize("pool", ["sum", "median", "max"])
def test_each_pool_gradient_against_fd(lib, pool):
    op = next(o for o in lib.pool if o.name == pool)
    rng = np.random.default_rng(len(pool) + 10)
    z = Tensor(rng.uniform(-1.0, 1.0, size=(2, 4, 5)))

    def f(zv):
        return ag.sum_all(evaluate_pool(op, zv))

    report = gradcheck(f, [z], tol=1e-4)
    assert report.passed
    assert report.clean(1e-4)


@pytest.mark.parametrize("act", ["tanh", "lincut", "identity"])
def test_each_activation_gradient_against_fd(lib, act):
    op = next(o for o in lib.activation if o.name == act)
    rng = np.random.default_rng(len(act) + 20)
    x = Tensor(rng.uniform(-2.0, 2.0, size=(3, 3)))
    b = Tensor(0.25)

    def f(xv, bv):
        return ag.sum_all(evaluate_activation(op, xv, bv))

    report = gradcheck(f, [x, b], tol=1e-4)
    assert report.passed


def test_a_custom_selection_pool_is_the_builtin_median_taped_densely(lib):
    # README's recipe: unmarked (select=None), so a taped pass tapes its
    # full nodal array instead of taking the winners path
    add_custom_operator(lib, "pool", "median2", lambda z, c: ag.mul(
        ag.gather(z, ag.select(z.value, "median")), float(z.shape[-1])))
    assert lib.pool[-1].select is None
    tanh = lib.set_by_names("mul", "sum", "tanh").index
    rng = np.random.default_rng(4)
    x = rng.uniform(-1.0, 1.0, (2, 1, 6, 6))
    r = rng.uniform(-1.0, 1.0, (2, 2, 6, 6))

    def run(pool):
        index = lib.set_by_names("cubic", pool, "lincut").index
        net = OpNetwork(NetworkConfig(tier_sizes=[2, 2], kernel_sizes=[3, 3],
                                      operators=[[tanh], [index]],
                                      init="uniform", init_bound=0.5), lib)
        net.reset_parameters(1)
        untaped = network_forward(net, x).data
        tape = Tape()
        out = network_forward(net, x, tape)
        shapes = {node.shape for node in tape.nodes}
        leaves = [tape.watch(p).node for p in net.parameters()]
        grads = backward(ag.sum_all(ag.mul(out, r)))
        return untaped, [grads[n].data for n in leaves], shapes, index

    untaped, got, shapes, index = run("median2")
    want_untaped, want, winner_shapes, _ = run("median")
    assert untaped.tobytes() == want_untaped.tobytes()
    for a, b in zip(got, want):
        assert np.any(b != 0.0)
        assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()
    assert (2, 2, 36, 9) in shapes and (2, 2, 36, 9) not in winner_shapes
    report = check_operator_set_gradients(lib, index, seed=1)
    assert report.passed, f"max rel err {report.worst()}"
