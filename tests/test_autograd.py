"""Autodiff: backward rules, fan-out, custom rules, gradient checking."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import onnkit.autograd as ag
from onnkit.autograd import (
    CustomBackward,
    Parameter,
    Tape,
    Variable,
    apply_custom,
    backward,
    gradcheck,
)
from onnkit.errors import (
    DetachedRoot,
    NonFiniteValue,
    NonScalarRoot,
    ShapeMismatch,
)
from onnkit.tensor import Tensor

from oracles import fd_gradient, max_rel_err


def leaf_grads(tape, root, *variables):
    grads = backward(root)
    return [grads[v.node].data for v in variables]


def test_sum_of_squares_gradient_is_2x():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, size=8)
    # the draw must stay clear of zero for the difference quotient to
    # resolve the per-coordinate gradient
    assert np.abs(x).min() > 0.05
    tape = Tape()
    xv = tape.leaf(Tensor(x))
    root = ag.sum_all(ag.pow_const(xv, 2))
    (gx,) = leaf_grads(tape, root, xv)
    assert np.array_equal(gx, 2.0 * x)
    report = gradcheck(lambda v: ag.sum_all(ag.pow_const(v, 2)), [Tensor(x)])
    assert report.passed
    assert report.worst() < 1e-6


def test_broadcast_mul_gradient_matches_fd_oracle():
    rng = np.random.default_rng(7)
    w = rng.uniform(-1, 1, size=(1, 3))
    x = rng.uniform(-1, 1, size=(2, 3))
    tape = Tape()
    wv, xv = tape.leaf(Tensor(w)), tape.leaf(Tensor(x))
    root = ag.sum_all(ag.mul(wv, xv))
    gw, gx = leaf_grads(tape, root, wv, xv)
    assert gw.shape == w.shape and gx.shape == x.shape
    # summing over the broadcast dimension: dL/dw = column sums of x
    assert np.allclose(gw, x.sum(axis=0, keepdims=True))
    fd_w, fd_x = fd_gradient(lambda arrs: float((arrs[0] * arrs[1]).sum()), [w, x])
    assert max_rel_err(gw, fd_w) < 1e-6
    assert max_rel_err(gx, fd_x) < 1e-6


def test_fan_out_accumulates_additively():
    tape = Tape()
    x = tape.leaf(Tensor([1.0, 2.0]))
    root = ag.sum_all(ag.add(ag.mul(x, 2.0), ag.mul(x, 3.0)))
    (gx,) = leaf_grads(tape, root, x)
    assert np.array_equal(gx, [5.0, 5.0])


def test_watch_same_parameter_returns_same_variable():
    p = Parameter("p", Tensor([1.0, 1.0]))
    tape = Tape()
    v1 = tape.watch(p)
    v2 = tape.watch(p)
    assert v1 is v2
    root = ag.sum_all(ag.add(ag.mul(v1, 2.0), ag.mul(v2, 3.0)))
    grads = backward(root)
    assert np.array_equal(grads[v1.node].data, [5.0, 5.0])


def winner(x, kind):
    """The max or median winner of x's trailing axis, taken by gather."""
    return ag.gather(x, ag.select(x.value, kind))


def test_max_routes_gradient_to_winner_scaled():
    tape = Tape()
    x = tape.leaf(Tensor([3.0, 9.0, 9.0, 1.0]))
    root = ag.mul(winner(x, "max"), 4.0)
    assert root.value.item() == 36.0
    (gx,) = leaf_grads(tape, root, x)
    assert np.array_equal(gx, [0.0, 4.0, 0.0, 0.0])  # tie -> lowest index


def test_median_routes_gradient_to_selected_element():
    tape = Tape()
    x = tape.leaf(Tensor([7.0, 1.0, 4.0]))
    root = ag.mul(winner(x, "median"), 3.0)
    assert root.value.item() == 12.0
    (gx,) = leaf_grads(tape, root, x)
    assert np.array_equal(gx, [0.0, 0.0, 3.0])


def test_unreached_leaf_gets_zero_gradient():
    tape = Tape()
    a = tape.leaf(Tensor([1.0, 2.0]))
    b = tape.leaf(Tensor([[3.0]]))
    grads = backward(ag.sum_all(a))
    assert np.array_equal(grads[b.node].data, [[0.0]])


def test_gradient_shapes_match_node_shapes_exactly():
    rng = np.random.default_rng(1)
    tape = Tape()
    a = tape.leaf(Tensor(rng.normal(size=(2, 1, 4))))
    b = tape.leaf(Tensor(rng.normal(size=(3, 1))))
    c = tape.leaf(Tensor(rng.normal(size=())))
    root = ag.sum_all(ag.mul(ag.add(a, b), c))
    grads = backward(root)
    for var in (a, b, c):
        assert grads[var.node].shape == var.shape


def test_backward_rejects_non_scalar_root():
    tape = Tape()
    x = tape.leaf(Tensor([1.0, 2.0]))
    with pytest.raises(NonScalarRoot):
        backward(x)


def test_backward_rejects_detached_root():
    const = ag.as_variable(Tensor(3.0))
    with pytest.raises(DetachedRoot):
        backward(const)


def test_constants_receive_no_node():
    tape = Tape()
    x = tape.leaf(Tensor([1.0]))
    out = ag.mul(x, 4.0)
    assert out.tape is tape
    grads = backward(ag.sum_all(out))
    assert np.array_equal(grads[x.node].data, [4.0])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_exp_is_not_clamped_and_gradcheck_flags_overflow():
    tape = Tape()
    x = tape.leaf(Tensor([1000.0]))
    out = ag.exp(x)
    assert math.isinf(out.value.item())
    with pytest.raises(NonFiniteValue):
        gradcheck(lambda v: ag.sum_all(ag.exp(v)), [Tensor([1000.0])])


def test_clamp_gradient_masks_saturated_regions():
    tape = Tape()
    x = tape.leaf(Tensor([-2.0, -0.5, 0.5, 2.0]))
    root = ag.sum_all(ag.clamp(x, -1.0, 1.0))
    (gx,) = leaf_grads(tape, root, x)
    assert np.array_equal(gx, [0.0, 1.0, 1.0, 0.0])


def test_reshape_and_stack_backward():
    tape = Tape()
    a = tape.leaf(Tensor([[1.0, 2.0], [3.0, 4.0]]))
    b = tape.leaf(Tensor([[5.0, 6.0], [7.0, 8.0]]))
    stacked = ag.stack([a, b], axis=0)
    root = ag.sum_all(ag.mul(ag.reshape(stacked, (8,)), Tensor(np.arange(8.0))))
    ga, gb = leaf_grads(tape, root, a, b)
    assert np.array_equal(ga, [[0.0, 1.0], [2.0, 3.0]])
    assert np.array_equal(gb, [[4.0, 5.0], [6.0, 7.0]])


def test_stack_of_scalars_backward():
    tape = Tape()
    a, b = tape.leaf(1.0), tape.leaf(2.0)
    ga, gb = leaf_grads(tape, ag.sum_all(ag.stack([a, b])), a, b)
    assert ga.shape == () and gb.shape == ()
    assert ga == 1.0 and gb == 1.0


def test_place_rows_orders_parts_and_routes_gradients():
    tape = Tape()
    a = tape.leaf(Tensor([[1.0], [2.0]]))
    b = tape.leaf(Tensor([[3.0]]))
    rows = [np.array([0, 2]), np.array([1])]
    placed = ag.place_rows([a, b], rows)
    assert placed.value.tolist() == [[1.0], [3.0], [2.0]]
    root = ag.sum_all(ag.mul(placed, Tensor([[1.0], [2.0], [3.0]])))
    ga, gb = leaf_grads(tape, root, a, b)
    assert ga.tolist() == [[1.0], [3.0]]
    assert gb.tolist() == [[2.0]]
    with pytest.raises(ShapeMismatch):
        ag.place_rows([a, b], [np.array([0, 1]), np.array([1])])
    with pytest.raises(ShapeMismatch):
        ag.place_rows([a, b], [np.array([0]), np.array([1])])


def test_gather_picks_trailing_entries_and_scatter_adds_gradients():
    tape = Tape()
    # x's leading axes (2, 1) broadcast to the index's (2, 3)
    x = tape.leaf(Tensor([[[1.0, 2.0, 3.0]], [[4.0, 5.0, 6.0]]]))
    index = np.array([[2, 0, 2], [1, 1, 0]])
    picked = ag.gather(x, index)
    assert picked.value.tolist() == [[3.0, 1.0, 3.0], [5.0, 5.0, 4.0]]
    weights = Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    (gx,) = leaf_grads(tape, ag.sum_all(ag.mul(picked, weights)), x)
    assert gx.tolist() == [[[2.0, 0.0, 4.0]], [[6.0, 9.0, 0.0]]]
    rows = Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    # out of range, a row count that does not broadcast, a wrong rank
    for bad in (np.array([0, 3]), np.array([-1, 0]), np.array([0]),
                np.array([[0], [1]])):
        with pytest.raises(ShapeMismatch):
            ag.gather(rows, bad)


def test_gather_passes_gradcheck():
    rng = np.random.default_rng(5)
    index = rng.integers(0, 4, size=(3, 2, 5))

    def f(w, y):
        return ag.sum_all(ag.sin(ag.mul(ag.gather(w, index), ag.gather(y, index))))

    report = gradcheck(f, [Tensor(rng.uniform(-1, 1, (3, 2, 1, 4))),
                           Tensor(rng.uniform(-1, 1, (1, 2, 5, 4)))])
    assert report.passed and report.tie_coords == 0


def test_mul_forms_no_gradient_for_an_untracked_operand(monkeypatch):
    tape = Tape()
    x = tape.leaf(Tensor([[1.0, 2.0]]))
    formed = []
    mul_grad = ag._mul_grad

    def counting(grad, other, shape):
        formed.append(shape)
        return mul_grad(grad, other, shape)

    monkeypatch.setattr(ag, "_mul_grad", counting)
    root = ag.sum_all(ag.mul(x, Tensor([[3.0], [4.0]])))
    (gx,) = leaf_grads(tape, root, x)
    assert gx.tolist() == [[7.0, 7.0]]
    assert formed == [(1, 2)]


def _mul_grads(a: np.ndarray, b: np.ndarray, g: np.ndarray, tracked: str):
    """The gradients backward gives a and b (None if untracked) of
    sum(mul(a, b) * g), whose upstream gradient at the mul is g exactly."""
    tape = Tape()
    va, vb = (tape.leaf(Tensor._wrap(v)) if name in tracked
              else ag.as_variable(Tensor._wrap(v))
              for name, v in (("a", a), ("b", b)))
    grads = backward(ag.sum_all(ag.mul(ag.mul(va, vb), Tensor._wrap(g))))
    return [grads[v.node].data if v.node is not None else None for v in (va, vb)]


@settings(max_examples=200, deadline=None)
@given(hnp.mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=4,
                                         max_side=4),
       st.sampled_from(["a", "b", "ab"]), st.integers(0, 2**32 - 1))
def test_mul_gradients_contract_to_the_unbroadcast_product(shapes, tracked, seed):
    rng = np.random.default_rng(seed)
    (sa, sb), out = shapes
    a, b, g = (rng.uniform(-1.0, 1.0, s) for s in (sa, sb, out))
    ga, gb = _mul_grads(a, b, g, tracked)
    for grad, own, other, name in ((ga, a, b, "a"), (gb, b, a, "b")):
        if name not in tracked:
            assert grad is None
            continue
        assert grad.shape == own.shape
        want = ag._unbroadcast(g * other, own.shape)
        scale = ag._unbroadcast(np.abs(g * other), own.shape)
        assert np.all(np.abs(grad - want) <= 1e-12 * scale)


def _offset_copy(arr: np.ndarray) -> np.ndarray:
    """A copy of arr whose data starts 8 bytes past a 16-byte boundary."""
    buf = np.empty(arr.size + 3)
    start = 1 if buf.ctypes.data % 16 == 0 else 2
    out = buf[start:start + arr.size].reshape(arr.shape)
    assert out.ctypes.data % 16 == 8
    out[...] = arr
    return out


@pytest.mark.parametrize("sw, sp", [((8, 8, 1, 9), (1, 8, 1024, 9)),
                                    ((3, 2, 1, 7), (1, 2, 5, 7)),
                                    ((2, 1, 3), (4, 3))])
def test_mul_gradients_do_not_depend_on_operand_alignment(sw, sp):
    rng = np.random.default_rng(5)
    w, p = rng.uniform(-1.0, 1.0, sw), rng.uniform(-1.0, 1.0, sp)
    g = rng.uniform(-1.0, 1.0, np.broadcast_shapes(sw, sp))
    aligned = _mul_grads(w, p, g, "ab")
    shifted = _mul_grads(_offset_copy(w), _offset_copy(p), _offset_copy(g), "ab")
    for x, y in zip(aligned, shifted):
        assert x.tobytes() == y.tobytes()


def test_composed_elementwise_chain_passes_gradcheck():
    rng = np.random.default_rng(21)
    x = Tensor(rng.uniform(-0.5, 0.5, size=(3, 3)))
    w = Tensor(rng.uniform(-0.5, 0.5, size=(3, 3)))

    def f(xv, wv):
        return ag.sum_all(ag.mul(ag.sin(xv), ag.exp(ag.mul(wv, 0.5))))

    report = gradcheck(f, [x, w], h=1e-6, tol=1e-5)
    assert report.passed
    assert report.tie_coords == 0


def test_more_compositions_pass_gradcheck():
    rng = np.random.default_rng(2)

    def f_tanh_sinh(xv):
        return ag.sum_all(ag.tanh(ag.sinh(xv)))

    def f_poly(xv):
        return ag.sum_all(ag.mul(ag.pow_const(xv, 3), ag.add(xv, 1.5)))

    for f in (f_tanh_sinh, f_poly):
        x = Tensor(rng.uniform(-0.5, 0.5, size=7))
        report = gradcheck(f, [x])
        assert report.passed, f"max rel err {report.worst()}"


def test_gradcheck_reports_exact_tie_as_skip_not_failure():
    x = Tensor([1.0, 1.0])
    report = gradcheck(lambda v: winner(v, "max"), [x])
    assert report.passed
    assert report.tie_coords > 0
    assert report.min_margin == math.inf  # exact ties carry no margin


def test_gradcheck_near_tie_is_visible_in_margin():
    x = Tensor([1.0, 1.0 + 1e-9])
    report = gradcheck(lambda v: winner(v, "max"), [x])
    assert report.min_margin == pytest.approx(1e-9, rel=1e-3)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_selection_log_is_installed_only_while_gradcheck_runs():
    assert ag._selections.get() is None
    logs = []

    def f(v):
        logs.append(ag._selections.get())
        return ag.exp(winner(v, "max"))

    assert gradcheck(f, [Tensor([0.5, 0.25])]).passed
    # the nominal pass and all four probes run with a log installed
    assert len(logs) == 5 and all(log for log in logs)
    assert ag._selections.get() is None
    # exp overflows once a probe adds h to the nominal maximum
    with pytest.raises(NonFiniteValue, match="perturbed"):
        gradcheck(f, [Tensor([709.782712893, 0.0])])
    assert ag._selections.get() is None


def test_custom_backward_rule_is_invoked():
    x = np.array([0.3, -0.2, 0.1])
    marked = CustomBackward(
        forward=np.tanh,
        backward=lambda g, xin, out: (3.0 * g * (1.0 - out * out),),
    )
    tape = Tape()
    xv = tape.leaf(Tensor(x))
    root = ag.sum_all(apply_custom(marked, xv))
    grads = backward(root)
    # three times the composition-derived tanh gradient proves the custom
    # rule ran instead of any primitive path
    assert np.allclose(grads[xv.node].data, 3.0 * (1.0 - np.tanh(x) ** 2))


def test_custom_backward_shape_is_validated():
    bad = CustomBackward(
        forward=np.tanh,
        backward=lambda g, xin, out: (np.zeros(99),),
    )
    tape = Tape()
    xv = tape.leaf(Tensor([0.1, 0.2]))
    root = ag.sum_all(apply_custom(bad, xv))
    with pytest.raises(ShapeMismatch):
        backward(root)
    # a failed sweep releases the tape as well
    with pytest.raises(DetachedRoot):
        backward(root)


def test_correct_custom_rule_passes_gradcheck_and_wrong_one_fails():
    good = CustomBackward(
        forward=lambda x: x * x * x,
        backward=lambda g, x, out: (3.0 * g * x * x,),
    )
    wrong = CustomBackward(
        forward=lambda x: x * x * x,
        backward=lambda g, x, out: (2.0 * g * x * x,),
    )
    x = Tensor([0.4, -0.3, 0.25])
    assert gradcheck(lambda v: ag.sum_all(apply_custom(good, v)), [x]).passed
    assert not gradcheck(lambda v: ag.sum_all(apply_custom(wrong, v)), [x]).passed


def test_gradcheck_rejects_non_scalar_target():
    with pytest.raises(NonScalarRoot):
        gradcheck(lambda v: ag.mul(v, 2.0), [Tensor([1.0, 2.0])])


def test_zero_upstream_gives_zero_leaf_gradient():
    tape = Tape()
    x = tape.leaf(Tensor([1.0, 2.0]))
    root = ag.sum_all(ag.mul(x, 0.0))
    grads = backward(root)
    assert np.array_equal(grads[x.node].data, [0.0, 0.0])


def test_backward_is_deterministic():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(4, 4))

    def run():
        tape = Tape()
        xv = tape.leaf(Tensor(x))
        root = ag.sum_all(ag.tanh(ag.mul(xv, xv)))
        return backward(root)[xv.node].data

    assert np.array_equal(run(), run())


def test_backward_returns_every_leaf_and_releases_its_tape():
    tape = Tape()
    x = tape.leaf(Tensor([1.0, 2.0]))
    unused = tape.leaf(Tensor(3.0))
    hidden = ag.tanh(x)
    root = ag.sum_all(ag.mul(hidden, hidden))
    late = tape.leaf(Tensor([4.0]))  # recorded after the root
    grads = backward(root)
    assert sorted(grads) == sorted([x.node, unused.node, late.node])
    assert grads[unused.node].data == 0.0
    assert np.array_equal(grads[late.node].data, [0.0])
    assert tape.nodes == []
    with pytest.raises(DetachedRoot):
        backward(root)
    # a value of the released tape can no longer be recorded on
    with pytest.raises(DetachedRoot):
        ag.mul(hidden, 2.0)
    with pytest.raises(DetachedRoot):
        tape.leaf(Tensor(1.0))
    assert ag.mul(hidden.value, 2.0).tape is None  # its array still can


def test_custom_rule_gradients_stay_the_callers_own():
    returned = []

    def rule_backward(g, xin, out):
        grad = 2.0 * g * xin
        returned.append(grad)
        return (grad,)

    double_square = CustomBackward(forward=lambda x: x * x,
                                   backward=rule_backward)
    tape = Tape()
    x = tape.leaf(Tensor([0.5, -1.5]))
    # one use reaches the leaf directly, another through a fan-out sum
    direct = tape.leaf(Tensor([2.0, 3.0]))
    root = ag.sum_all(ag.add(apply_custom(double_square, direct),
                             ag.add(apply_custom(double_square, x),
                                    apply_custom(double_square, x))))
    grads = backward(root)
    assert np.array_equal(grads[direct.node].data, [4.0, 6.0])
    assert np.array_equal(grads[x.node].data, [2.0, -6.0])
    assert len(returned) == 3
    for arr in returned:
        assert arr.flags.writeable
        for g in grads.values():
            assert not np.shares_memory(arr, g.data)
