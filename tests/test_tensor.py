"""Tensor layer: broadcasting, reductions, reshape, immutability."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from onnkit.errors import EmptyAxis, ShapeMismatch, SizeMismatch
from onnkit.tensor import (
    BroadcastSpec,
    Tensor,
    _reduce_raw,
    broadcast_binary,
    reduce,
    reshape,
)

from oracles import median_pick, tile_broadcast


def test_outer_product_broadcast():
    a = Tensor([[2.0], [3.0]])
    b = Tensor([[1.0, 2.0, 3.0]])
    out = broadcast_binary(np.multiply, a, b)
    assert out.shape == (2, 3)
    assert out.tolist() == [[2.0, 4.0, 6.0], [3.0, 6.0, 9.0]]


def test_broadcast_spec_alignment():
    spec = BroadcastSpec.align((2, 3, 1, 4, 5), (3, 1, 1))
    assert spec.result == (2, 3, 3, 4, 5)
    assert BroadcastSpec.align((5,), (2, 1, 5)).result == (2, 1, 5)
    assert BroadcastSpec.align((), (4, 2)).result == (4, 2)
    assert BroadcastSpec.align((1,), (1,)).result == (1,)


def test_broadcast_spec_rejects_incompatible():
    with pytest.raises(ShapeMismatch):
        BroadcastSpec.align((3,), (4,))
    with pytest.raises(ShapeMismatch):
        BroadcastSpec.align((2, 3, 1, 4, 5), (3, 2, 1))
    with pytest.raises(ShapeMismatch):
        broadcast_binary(np.add, Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))


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
    got = broadcast_binary(op, Tensor(a), Tensor(b))
    assert got.shape == expected.shape
    assert np.array_equal(got.data, expected)


def test_reduce_sum_rows():
    values, arg = reduce("sum", Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), 1)
    assert values.tolist() == [6.0, 15.0]
    assert arg is None


def test_reduce_median_picks_stored_element():
    values, arg = reduce("median", Tensor([[7.0, 1.0, 4.0]]), 1)
    assert values.tolist() == [4.0]
    assert arg.tolist() == [2.0]


def test_reduce_median_even_extent():
    # sorted position floor(4/2) = 2 of [9, 2, 5, 7] -> value 7 at index 3
    values, arg = reduce("median", Tensor([9.0, 2.0, 5.0, 7.0]), 0)
    assert values.item() == 7.0
    assert arg.item() == 3.0


def test_reduce_median_stable_on_ties():
    values, arg = reduce("median", Tensor([2.0, 2.0, 2.0]), 0)
    assert values.item() == 2.0
    assert arg.item() == 1.0  # sorted position 1 keeps original order


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
    values, arg = reduce("max", Tensor([[5.0, 5.0, 3.0]]), 1)
    assert values.tolist() == [5.0]
    assert arg.tolist() == [0.0]


def test_reduce_rejects_empty_axis():
    with pytest.raises(EmptyAxis):
        reduce("sum", Tensor(np.zeros((2, 0))), 1)
    with pytest.raises(EmptyAxis):
        reduce("max", Tensor(np.zeros((0,))), 0)


def test_reduce_rejects_bad_axis():
    with pytest.raises(ShapeMismatch):
        reduce("sum", Tensor([[1.0]]), 2)


def test_median_always_an_actual_element():
    rng = np.random.default_rng(11)
    for _ in range(25):
        arr = rng.normal(size=(3, 7))
        values, arg = reduce("median", Tensor(arr), 1)
        for row in range(3):
            idx = int(arg.data[row])
            assert values.data[row] == arr[row, idx]


def test_reshape_round_trip():
    t = Tensor(np.arange(12.0).reshape(3, 4))
    r = reshape(t, (2, 6))
    assert r.shape == (2, 6)
    back = reshape(r, (3, 4))
    assert np.array_equal(back.data, t.data)


def test_reshape_rejects_wrong_size():
    with pytest.raises(SizeMismatch):
        reshape(Tensor([[1.0, 2.0]]), (3,))


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
    first = broadcast_binary(np.add, Tensor(a), Tensor(b))
    second = broadcast_binary(np.add, Tensor(a), Tensor(b))
    assert np.array_equal(first.data, second.data)
    v1, _ = reduce("sum", Tensor(a), 0)
    v2, _ = reduce("sum", Tensor(a), 0)
    assert np.array_equal(v1.data, v2.data)


def test_arithmetic_dunders():
    a = Tensor([1.0, 2.0])
    assert (a + 1.0).tolist() == [2.0, 3.0]
    assert (a * Tensor([2.0, 3.0])).tolist() == [2.0, 6.0]
    assert (a - 1.0).tolist() == [0.0, 1.0]
    assert (-a).tolist() == [-1.0, -2.0]
