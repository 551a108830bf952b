"""Operator library: built-in formulas, set enumeration, custom operators."""
import math

import numpy as np
import pytest

import onnkit.autograd as ag
from onnkit.autograd import Tape, backward, gradcheck
from onnkit.errors import (
    DuplicateName,
    EmptyAxis,
    NonFiniteValue,
    ShapeContractViolation,
)
from onnkit.network import check_operator_set_gradients
from onnkit.oplib import (
    OperatorConstants,
    add_custom_operator,
    evaluate_activation,
    evaluate_nodal,
    evaluate_pool,
    register_builtin_library,
)
from onnkit.tensor import Tensor


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
