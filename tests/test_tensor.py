"""Values: the boundary Tensor, raw reductions, and the engine's
broadcasting, reshape and read-only outputs."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import onnkit.autograd as ag
from onnkit.errors import EmptyAxis, ShapeMismatch, SizeMismatch
from onnkit.oplib import add_custom_operator, evaluate_nodal, register_builtin_library
from onnkit.tensor import Tensor, _reduce_raw

from oracles import median_pick, tile_broadcast


def test_outer_product_broadcast():
    a = Tensor([[2.0], [3.0]])
    b = Tensor([[1.0, 2.0, 3.0]])
    out = ag.mul(a, b)
    assert out.shape == (2, 3)
    assert out.value.tolist() == [[2.0, 4.0, 6.0], [3.0, 6.0, 9.0]]


def test_broadcast_spec_alignment():
    def result(left, right):
        return ag.add(np.zeros(left), np.zeros(right)).shape

    assert result((2, 3, 1, 4, 5), (3, 1, 1)) == (2, 3, 3, 4, 5)
    assert result((5,), (2, 1, 5)) == (2, 1, 5)
    assert result((), (4, 2)) == (4, 2)
    assert result((1,), (1,)) == (1,)


def test_broadcast_spec_rejects_incompatible():
    with pytest.raises(ShapeMismatch):
        ag.add(np.zeros(3), np.zeros(4))
    with pytest.raises(ShapeMismatch):
        ag.mul(np.zeros((2, 3, 1, 4, 5)), np.zeros((3, 2, 1)))
    with pytest.raises(ShapeMismatch):
        ag.sub(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))


def test_custom_backward_operator_still_gets_the_broadcast_check():
    # a hand-written forward would broadcast (or fail) on its own terms;
    # the nodal stage rejects incompatible operands before calling it
    lib = register_builtin_library()
    calls = []

    def forward(w, y):
        calls.append(1)
        return w * y

    add_custom_operator(lib, "nodal", "raw_mul", forward,
                        lambda g, w, y, out: (g * y, g * w))
    op = next(o for o in lib.nodal if o.name == "raw_mul")
    with pytest.raises(ShapeMismatch):
        evaluate_nodal(op, np.zeros((2, 3)), np.zeros((4,)))
    assert calls == []


BROADCAST_SHAPE_PAIRS = [
    ((2, 3), (2, 3)),
    ((2, 3), (3,)),
    ((2, 1, 4), (3, 1)),
    ((5,), ()),
    ((2, 3, 1, 4, 5), (3, 1, 1)),
    ((1, 6), (4, 1)),
]


@pytest.mark.parametrize("op", [np.add, np.multiply, np.subtract])
@pytest.mark.parametrize("shapes", BROADCAST_SHAPE_PAIRS)
def test_broadcast_matches_explicit_tiling(op, shapes):
    rng = np.random.default_rng(sum(shapes[0]) * 13 + sum(shapes[1]))
    a = rng.uniform(-2, 2, shapes[0])
    b = rng.uniform(-2, 2, shapes[1])
    expected = tile_broadcast(op, a, b)
    engine = {np.add: ag.add, np.multiply: ag.mul, np.subtract: ag.sub}[op]
    got = engine(Tensor(a), Tensor(b))
    assert got.shape == expected.shape
    assert np.array_equal(got.value, expected)


def test_reduce_sum_rows():
    values, arg = _reduce_raw("sum", np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), 1)
    assert values.tolist() == [6.0, 15.0]
    assert arg is None


def test_reduce_median_picks_stored_element():
    values, arg = _reduce_raw("median", np.array([[7.0, 1.0, 4.0]]), 1)
    assert values.tolist() == [4.0]
    assert arg.tolist() == [2]


def test_reduce_median_even_extent():
    # sorted position floor(4/2) = 2 of [9, 2, 5, 7] -> value 7 at index 3
    values, arg = _reduce_raw("median", np.array([9.0, 2.0, 5.0, 7.0]), 0)
    assert values.item() == 7.0
    assert arg.item() == 3


def test_reduce_median_stable_on_ties():
    values, arg = _reduce_raw("median", np.array([2.0, 2.0, 2.0]), 0)
    assert values.item() == 2.0
    assert arg.item() == 1  # sorted position 1 keeps original order


# value pools for the median property: few distinct values give heavy
# ties, signed zeros compare equal but differ in their bits
MEDIAN_ELEMENTS = {
    "ties": st.sampled_from([-1.0, -0.0, 0.0, 2.0]),
    "zeros": st.sampled_from([-0.0, 0.0]),
    "constant": st.just(0.5),
    "wide": st.floats(allow_nan=False, width=64),
    "nan": st.sampled_from([np.nan, -np.inf, -0.0, 0.0, 1.0]),
}


@st.composite
def median_cases(draw):
    ndim = draw(st.integers(1, 3))
    axis = draw(st.integers(0, ndim - 1))
    shape = [draw(st.integers(1, 3)) for _ in range(ndim)]
    shape[axis] = draw(st.one_of(st.integers(1, 12), st.integers(1, 500)))
    pool = draw(st.sampled_from(sorted(MEDIAN_ELEMENTS)))
    arr = draw(hnp.arrays(np.float64, tuple(shape),
                          elements=MEDIAN_ELEMENTS[pool], fill=st.nothing()))
    return arr, axis


@settings(max_examples=150, deadline=None)
@given(median_cases())
def test_median_winner_is_the_stable_sort_pick(case):
    arr, axis = case
    values, arg = _reduce_raw("median", arr, axis)
    order = np.argsort(arr, axis=axis, kind="stable")
    expected = np.take(order, arr.shape[axis] // 2, axis=axis)
    assert arg.shape == values.shape == expected.shape
    assert np.array_equal(arg, expected)
    picked = np.take_along_axis(arr, np.expand_dims(arg, axis), axis=axis)
    # bitwise: -0.0 and 0.0 are told apart
    assert values.tobytes() == np.squeeze(picked, axis=axis).tobytes()
    if np.isnan(arr).any():
        return  # the oracle's tuple sort does not order NaNs
    rows = np.moveaxis(arr, axis, -1)
    for idx in np.ndindex(rows.shape[:-1]):
        value, index = median_pick(rows[idx])
        assert arg[idx] == index
        assert np.float64(values[idx]).tobytes() == np.float64(value).tobytes()


def test_median_of_1d_input_is_0d():
    values, arg = _reduce_raw("median", np.array([3.0, -0.0, 0.0]), 0)
    assert values.shape == () and arg.shape == ()
    assert int(arg) == 2 and not np.signbit(values)  # +0.0, not -0.0


def test_reduce_max_tie_takes_lowest_index():
    values, arg = _reduce_raw("max", np.array([[5.0, 5.0, 3.0]]), 1)
    assert values.tolist() == [5.0]
    assert arg.tolist() == [0]


def test_reduce_rejects_empty_axis():
    with pytest.raises(EmptyAxis):
        ag.reduce_sum(np.zeros((2, 0)), 1)
    with pytest.raises(EmptyAxis):
        ag.reduce_max(np.zeros((0,)), 0)


def test_reduce_rejects_bad_axis():
    with pytest.raises(ShapeMismatch):
        ag.reduce_sum(Tensor([[1.0]]), 2)


def test_median_always_an_actual_element():
    rng = np.random.default_rng(11)
    for _ in range(25):
        arr = rng.normal(size=(3, 7))
        values, arg = _reduce_raw("median", arr, 1)
        for row in range(3):
            assert values[row] == arr[row, arg[row]]


def test_reshape_round_trip():
    t = Tensor(np.arange(12.0).reshape(3, 4))
    r = ag.reshape(t, (2, 6))
    assert r.shape == (2, 6)
    back = ag.reshape(r, (3, 4))
    assert np.array_equal(back.value, t.data)


def test_reshape_rejects_wrong_size():
    with pytest.raises(SizeMismatch):
        ag.reshape(Tensor([[1.0, 2.0]]), (3,))
    with pytest.raises(ShapeMismatch):
        ag.reshape(np.zeros(12), (-1, -12))


def test_tensor_is_immutable_and_isolated():
    src = np.ones((2, 2))
    t = Tensor(src)
    src[0, 0] = 99.0
    assert t.data[0, 0] == 1.0
    with pytest.raises(ValueError):
        t.data[0, 0] = 5.0


def test_tensor_is_contiguous_float64():
    t = Tensor(np.asfortranarray(np.arange(6).reshape(2, 3)))
    assert t.data.dtype == np.float64
    assert t.data.flags.c_contiguous


def test_operations_are_bitwise_deterministic():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(4, 5)), rng.normal(size=(5,))
    first = ag.add(Tensor(a), Tensor(b))
    second = ag.add(Tensor(a), Tensor(b))
    assert first.value.tobytes() == second.value.tobytes()
    v1, _ = _reduce_raw("sum", a, 0)
    v2, _ = _reduce_raw("sum", a, 0)
    assert v1.tobytes() == v2.tobytes()


def test_arithmetic_dunders():
    a = ag.as_variable(Tensor([1.0, 2.0]))
    assert (a + 1.0).value.tolist() == [2.0, 3.0]
    assert (1.0 - a).value.tolist() == [0.0, -1.0]
    assert (a * Tensor([2.0, 3.0])).value.tolist() == [2.0, 6.0]
    assert (a - 1.0).value.tolist() == [0.0, 1.0]
    assert (-a).value.tolist() == [-1.0, -2.0]


def test_engine_values_are_read_only_and_isolated():
    src = np.ones((2, 2))
    tape = ag.Tape()
    x = tape.leaf(src)
    src[0, 0] = 99.0
    assert x.value[0, 0] == 1.0
    # every recorded output, tracked or constant, scalar or not
    for v in (x, ag.mul(x, 2.0), ag.sum_all(x), ag.reshape(x, (4,)),
              ag.add(np.ones(2), 1.0)):
        assert v.value.dtype == np.float64
        with pytest.raises(ValueError):
            v.value[...] = 5.0
