"""Patch extraction, fold_array (adjointness) and resampling."""
import numpy as np
import pytest

import onnkit.autograd as ag
from onnkit.autograd import Tape, backward, gradcheck
from onnkit.errors import IndivisibleExtent, ShapeMismatch, ZeroFactor
from onnkit.patchops import (
    fold_array,
    get_plan,
    resample,
    unfold,
    unfold_array,
)
from onnkit.tensor import Tensor

from oracles import unfold_loop


def test_unfold_center_row_of_identity_image():
    eye = Tensor(np.eye(3)[None, :, :])
    plan = get_plan(3, 3, 3, 3)
    patches = unfold(eye, plan).value
    assert patches.shape == (1, 9, 9)
    # the center pixel's patch covers the whole image in row-major order
    assert patches[0, 4].tolist() == [1, 0, 0, 0, 1, 0, 0, 0, 1]


def test_unfold_corner_rows_read_zero_padding():
    eye = Tensor(np.eye(3)[None, :, :])
    patches = unfold(eye, get_plan(3, 3, 3, 3)).value
    assert patches[0, 0].tolist() == [0, 0, 0, 0, 1, 0, 0, 0, 1]
    assert patches[0, 8].tolist() == [1, 0, 0, 0, 1, 0, 0, 0, 0]


@pytest.mark.parametrize("shape,kernel", [
    ((1, 4, 5), (3, 3)),
    ((2, 5, 4), (1, 3)),
    ((3, 6, 6), (5, 5)),
    ((1, 3, 7), (3, 1)),
    ((2, 2, 2), (7, 7)),
    ((1, 5, 5), (1, 1)),
])
def test_unfold_matches_loop_oracle(shape, kernel):
    rng = np.random.default_rng(shape[1] * 10 + kernel[0])
    y = rng.normal(size=shape)
    got = unfold(Tensor(y), get_plan(shape[1], shape[2], *kernel))
    assert got.tape is None  # a constant in, an untracked variable out
    assert np.array_equal(got.value, unfold_loop(y, *kernel))
    assert got.value.flags.c_contiguous


def test_fold_of_ones_counts_patch_membership():
    out = fold_array(np.ones((1, 9, 9)), get_plan(3, 3, 3, 3))
    assert out[0].tolist() == [
        [4.0, 6.0, 4.0],
        [6.0, 9.0, 6.0],
        [4.0, 6.0, 4.0],
    ]


@pytest.mark.parametrize("case", range(10))
def test_unfold_fold_adjointness(case):
    rng = np.random.default_rng(100 + case)
    height = int(rng.integers(2, 9))
    width = int(rng.integers(2, 9))
    m = int(rng.choice([1, 3, 5]))
    n = int(rng.choice([1, 3, 5]))
    channels = int(rng.integers(1, 4))
    plan = get_plan(height, width, m, n)
    y = rng.normal(size=(channels, height, width))
    patches = rng.normal(size=(channels, height * width, m * n))
    lhs = float((unfold_array(y, plan) * patches).sum())
    rhs = float((y * fold_array(patches, plan)).sum())
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_plan_rejects_even_kernels():
    with pytest.raises(ShapeMismatch):
        get_plan(4, 4, 2, 3)


def test_unfold_validates_input_shape():
    with pytest.raises(ShapeMismatch):
        unfold(Tensor(np.zeros((1, 4, 4))), get_plan(3, 3, 3, 3))


def test_downsample_takes_cell_maxima():
    x = Tensor([[[1.0, 2.0], [3.0, 4.0]]])
    out = resample(x, 2)
    assert out.shape == (1, 1, 1)
    assert out.value[0, 0, 0] == 4.0


def test_upsample_replicates_pixels():
    x = Tensor([[[5.0]]])
    out = resample(x, -2)
    assert out.value[0].tolist() == [[5.0, 5.0], [5.0, 5.0]]


def test_resample_identity_factor():
    x = Tensor(np.arange(8.0).reshape(2, 2, 2))
    out = resample(x, 1)
    assert np.array_equal(out.value, x.data)


def test_resample_rejects_indivisible_extent():
    with pytest.raises(IndivisibleExtent):
        resample(Tensor(np.zeros((1, 3, 3))), 2)


def test_resample_rejects_zero_factor():
    with pytest.raises(ZeroFactor):
        resample(Tensor(np.zeros((1, 2, 2))), 0)


def test_downsample_gradient_goes_to_winner():
    tape = Tape()
    x = tape.leaf(Tensor([[[1.0, 7.0], [3.0, 4.0]]]))
    root = ag.sum_all(resample(x, 2))
    grads = backward(root)
    assert grads[x.node].data[0].tolist() == [[0.0, 1.0], [0.0, 0.0]]


def test_downsample_tie_goes_to_lowest_row_major_index():
    tape = Tape()
    x = tape.leaf(Tensor([[[2.0, 2.0], [2.0, 2.0]]]))
    root = ag.sum_all(resample(x, 2))
    grads = backward(root)
    assert grads[x.node].data[0].tolist() == [[1.0, 0.0], [0.0, 0.0]]


def test_upsample_gradient_sums_blocks():
    tape = Tape()
    x = tape.leaf(Tensor([[[1.0, 2.0]]]))
    up = resample(x, -2)
    root = ag.sum_all(ag.mul(up, Tensor(np.arange(8.0).reshape(1, 2, 4))))
    grads = backward(root)
    # each input pixel collects its replicated block of the cofactor
    assert grads[x.node].data[0].tolist() == [[0 + 1 + 4 + 5, 2 + 3 + 6 + 7]]


def test_unfold_gradient_is_fold_and_passes_fd():
    rng = np.random.default_rng(9)
    y = Tensor(rng.normal(size=(2, 4, 4)) * 0.5)
    weights = rng.normal(size=(2, 16, 9))
    plan = get_plan(4, 4, 3, 3)

    def f(yv):
        return ag.sum_all(ag.mul(unfold(yv, plan), Tensor(weights)))

    report = gradcheck(f, [y], h=1e-6, tol=1e-6)
    assert report.passed
    # closed form: the gradient of sum(unfold(y) * W) is fold(W)
    tape = Tape()
    yv = tape.leaf(y)
    grads = backward(f(yv))
    assert np.allclose(grads[yv.node].data, fold_array(weights, plan))


def test_downsample_gradcheck_clear_of_ties():
    rng = np.random.default_rng(30)
    x = Tensor(rng.uniform(-1.0, 1.0, size=(1, 4, 4)))

    def f(xv):
        return ag.sum_all(resample(xv, 2))

    report = gradcheck(f, [x], tol=1e-5)
    assert report.passed
    assert report.tie_coords == 0


def test_plan_is_cached():
    assert get_plan(5, 5, 3, 3) is get_plan(5, 5, 3, 3)
