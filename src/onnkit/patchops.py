"""Patch extraction and spatial resampling.

unfold turns a [C, M, N] image into a [C, M*N, m*n] patch matrix: one row
per output pixel holding that pixel's zero-padded m-by-n neighbourhood in
row-major order ("same" padding, stride 1, odd kernel extents). A leading
axis of length 1 passes through: [1, C, M, N] gives [1, C, M*N, m*n], the
patch operand of a tier's grouped nodal stage. fold_array
is its exact adjoint and unfold's backward: it scatter-adds patch entries
back onto the image grid, so <unfold(y), G> equals <y, fold_array(G)> for
all operands.

unfold and resample take a tracked variable or any constant value and
return a Variable; for a constant it is untracked.

Both directions are driven by one precomputed index, which keeps them
consistent and makes the adjoint pairing a structural fact rather than a
numerical one: unfold is one take from the flattened image with a zero
appended, the slot every out-of-image read names, and fold_array is one
bincount onto those positions, the zero's own bin dropped.

resample shrinks by max-pooling over k-by-k cells (factor k > 1) or grows
by nearest-neighbour replication (factor -k), applied per channel. The
max-pool picks each cell's winner with autograd's select and gathers it.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import autograd as ag
from .autograd import Variable, record
from .errors import IndivisibleExtent, ShapeMismatch, ZeroFactor

Array = np.ndarray


class UnfoldPlan:
    """Precomputed gather/scatter index for one (height, width, kernel) case.

    index [M*N, m*n] holds, for every (pixel, patch-slot) pair, the flat
    source pixel, or M*N where the slot falls outside the image: the
    position of the zero that unfold appends to the flattened image.
    """

    __slots__ = ("height", "width", "kernel", "index")

    def __init__(self, height: int, width: int, kernel: tuple[int, int]):
        m, n = kernel
        if m < 1 or n < 1 or m % 2 == 0 or n % 2 == 0:
            raise ShapeMismatch(f"kernel extents must be odd and positive, got {kernel}")
        self.height = height
        self.width = width
        self.kernel = (m, n)
        pm, pn = (m - 1) // 2, (n - 1) // 2
        rows = np.arange(height)[:, None, None, None] + np.arange(m)[None, None, :, None] - pm
        cols = np.arange(width)[None, :, None, None] + np.arange(n)[None, None, None, :] - pn
        rows, cols = np.broadcast_arrays(rows, cols)
        inside = (rows >= 0) & (rows < height) & (cols >= 0) & (cols < width)
        flat = np.where(inside, rows * width + cols, height * width)
        self.index = flat.reshape(height * width, m * n)

    @property
    def patch_count(self) -> int:
        return self.height * self.width

    @property
    def patch_size(self) -> int:
        return self.kernel[0] * self.kernel[1]


@lru_cache(maxsize=None)
def get_plan(height: int, width: int, m: int, n: int) -> UnfoldPlan:
    return UnfoldPlan(height, width, (m, n))


def _one_leading_axis(shape: tuple[int, ...], tail: tuple[int, int]) -> bool:
    """Whether shape is [C, *tail] or [1, C, *tail]."""
    return len(shape) in (3, 4) and shape[:-3] in ((), (1,)) and shape[-2:] == tail


def unfold_array(y: Array, plan: UnfoldPlan) -> Array:
    """Gather patches from a [C, M, N] array into [C, M*N, m*n]; a leading
    axis of length 1 is kept, [1, C, M, N] giving [1, C, M*N, m*n]."""
    if not _one_leading_axis(y.shape, (plan.height, plan.width)):
        raise ShapeMismatch(
            f"expected [C, {plan.height}, {plan.width}] image, got {y.shape}"
        )
    flat = y.reshape(y.shape[:-2] + (-1,))
    padded = np.concatenate([flat, np.zeros(flat.shape[:-1] + (1,))], axis=-1)
    return np.take(padded, plan.index, axis=-1)


def fold_array(patches: Array, plan: UnfoldPlan) -> Array:
    """Scatter-add a [C, M*N, m*n] patch matrix back to [C, M, N]; a
    leading axis of length 1 is kept, as in unfold_array."""
    if not _one_leading_axis(patches.shape, (plan.patch_count, plan.patch_size)):
        raise ShapeMismatch(
            f"expected [C, {plan.patch_count}, {plan.patch_size}] patches, "
            f"got {patches.shape}"
        )
    # channel c's pixels are bins c*(M*N+1) ..., its padding slot's bin last
    pixels = plan.patch_count
    rows = patches.reshape(-1, pixels * plan.patch_size)
    bins = np.arange(0, rows.shape[0] * (pixels + 1), pixels + 1)[:, None]
    sums = np.bincount((bins + plan.index.reshape(-1)).ravel(), weights=rows.ravel(),
                       minlength=rows.shape[0] * (pixels + 1))
    return sums.reshape(-1, pixels + 1)[:, :pixels].reshape(
        patches.shape[:-2] + (plan.height, plan.width))


def unfold(y, plan: UnfoldPlan) -> Variable:
    """Patch extraction; its backward is fold_array."""
    y = ag.as_variable(y)

    def grad_fn(g: Array):
        return (fold_array(g, plan),)

    return record((y,), unfold_array(y.value, plan), grad_fn)


def _check_factor(factor: int) -> int:
    factor = int(factor)
    if factor == 0:
        raise ZeroFactor("resampling factor must be nonzero")
    return factor


def _down_views(x: Array, k: int) -> Array:
    """View a [C, M, N] array as [C, M/k, N/k, k*k] pooling cells."""
    c, mm, nn = x.shape
    if mm % k or nn % k:
        raise IndivisibleExtent(
            f"spatial extents {(mm, nn)} are not divisible by factor {k}"
        )
    cells = x.reshape(c, mm // k, k, nn // k, k)
    cells = cells.transpose(0, 1, 3, 2, 4)
    return cells.reshape(c, mm // k, nn // k, k * k)


def resample(x, factor: int) -> Variable:
    """Spatial resampling of a [C, M, N] value. factor 1 is identity,
    k > 1 max-pools k-by-k cells, -k replicates each pixel k-by-k.

    Downsampling routes gradient to each cell's winning element (ties to
    the lowest row-major index); upsampling sums gradient over each
    replicated block.
    """
    factor = _check_factor(factor)
    x = ag.as_variable(x)
    if x.value.ndim != 3:
        raise ShapeMismatch(f"expected a [C, M, N] value, got shape {x.shape}")
    if factor == 1:
        return x
    if factor > 1:
        return _downsample_variable(x, factor)
    return _upsample_variable(x, -factor)


def _downsample_variable(x: Variable, k: int) -> Variable:
    c, mm, nn = x.shape
    rows, cols = np.divmod(ag.select(_down_views(x.value, k), "max"), k)
    # each cell winner's flat position in its channel's image
    index = (np.arange(0, mm, k)[:, None] + rows) * nn + np.arange(0, nn, k) + cols
    return ag.gather(ag.reshape(x, (c, 1, 1, mm * nn)), index)


def _upsample_variable(x: Variable, k: int) -> Variable:
    xd = x.value
    out = np.repeat(np.repeat(xd, k, axis=1), k, axis=2)
    c, mm, nn = xd.shape

    def grad_fn(g: Array):
        blocks = g.reshape(c, mm, k, nn, k)
        return (blocks.sum(axis=(2, 4)),)

    return record((x,), out, grad_fn)
