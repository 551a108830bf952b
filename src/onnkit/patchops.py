"""Patch extraction and spatial resampling.

unfold turns a [C, M, N] image into a [C, M*N, m*n] patch matrix: one row
per output pixel holding that pixel's zero-padded m-by-n neighbourhood in
row-major order ("same" padding, stride 1, odd kernel extents). fold_array
is its exact adjoint and unfold's backward: it scatter-adds patch entries
back onto the image grid, so <unfold(y), G> equals <y, fold_array(G)> for
all operands.

unfold and resample take a tracked variable or any constant value and
return a Variable; for a constant it is untracked.

Both directions are driven by one precomputed index plan, which keeps them
consistent and makes the adjoint pairing a structural fact rather than a
numerical one.

resample shrinks by max-pooling over k-by-k cells (factor k > 1) or grows
by nearest-neighbour replication (factor -k), applied per channel.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import autograd as ag
from .autograd import Variable, record
from .errors import IndivisibleExtent, ShapeMismatch, ZeroFactor

Array = np.ndarray


class UnfoldPlan:
    """Precomputed gather/scatter indices for one (height, width, kernel) case.

    index holds, for every (pixel, patch-slot) pair, the flat source pixel,
    or -1 where the slot falls outside the image and reads as zero.
    """

    __slots__ = ("height", "width", "kernel", "index", "valid", "safe_index")

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
        flat = rows * width + cols
        flat = np.where(inside, flat, -1)
        self.index = flat.reshape(height * width, m * n)
        self.valid = inside.reshape(height * width, m * n)
        self.safe_index = np.where(self.valid, self.index, 0)

    @property
    def patch_count(self) -> int:
        return self.height * self.width

    @property
    def patch_size(self) -> int:
        return self.kernel[0] * self.kernel[1]


@lru_cache(maxsize=None)
def get_plan(height: int, width: int, m: int, n: int) -> UnfoldPlan:
    return UnfoldPlan(height, width, (m, n))


def unfold_array(y: Array, plan: UnfoldPlan) -> Array:
    """Gather patches from a [C, M, N] array into [C, M*N, m*n]."""
    if y.ndim != 3 or y.shape[1] != plan.height or y.shape[2] != plan.width:
        raise ShapeMismatch(
            f"expected [C, {plan.height}, {plan.width}] image, got {y.shape}"
        )
    flat = y.reshape(y.shape[0], -1)
    out = flat[:, plan.safe_index]
    # the gather comes out channel-innermost; C order keeps the later
    # reductions' summation order, and with it every output bit, fixed
    return np.ascontiguousarray(np.where(plan.valid[None, :, :], out, 0.0))


def fold_array(patches: Array, plan: UnfoldPlan) -> Array:
    """Scatter-add a [C, M*N, m*n] patch matrix back to [C, M, N]."""
    if patches.ndim != 3 or patches.shape[1] != plan.patch_count \
            or patches.shape[2] != plan.patch_size:
        raise ShapeMismatch(
            f"expected [C, {plan.patch_count}, {plan.patch_size}] patches, "
            f"got {patches.shape}"
        )
    channels = patches.shape[0]
    out = np.zeros((channels, plan.height * plan.width), dtype=np.float64)
    idx = plan.safe_index
    contrib = np.where(plan.valid[None, :, :], patches, 0.0)
    for c in range(channels):
        np.add.at(out[c], idx.reshape(-1), contrib[c].reshape(-1))
    return out.reshape(channels, plan.height, plan.width)


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
    xd = x.value
    cells = _down_views(xd, k)
    arg = np.argmax(cells, axis=-1)
    values = np.take_along_axis(cells, arg[..., None], axis=-1)[..., 0]
    c, mm, nn = xd.shape

    def grad_fn(g: Array):
        spread = np.zeros(cells.shape, dtype=np.float64)
        np.put_along_axis(spread, arg[..., None], g[..., None], axis=-1)
        spread = spread.reshape(c, mm // k, nn // k, k, k)
        spread = spread.transpose(0, 1, 3, 2, 4)
        return (np.ascontiguousarray(spread.reshape(c, mm, nn)),)

    return record((x,), values, grad_fn, selection=arg,
                  tie_margin=lambda: ag._selection_margin(cells, arg, cells.ndim - 1))


def _upsample_variable(x: Variable, k: int) -> Variable:
    xd = x.value
    out = np.repeat(np.repeat(xd, k, axis=1), k, axis=2)
    c, mm, nn = xd.shape

    def grad_fn(g: Array):
        blocks = g.reshape(c, mm, k, nn, k)
        return (blocks.sum(axis=(2, 4)),)

    return record((x,), out, grad_fn)
