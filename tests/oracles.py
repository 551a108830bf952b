"""Independent reference implementations used as test oracles.

Everything here is written with plain loops or explicit materialization,
deliberately avoiding the library's own compute paths, so tests compare
two independent routes to the same values.
"""
import numpy as np


def tile_broadcast(op, a, b):
    """Broadcast by explicitly tiling both operands, then apply op
    scalar by scalar."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    rank = max(a.ndim, b.ndim)
    sa = (1,) * (rank - a.ndim) + a.shape
    sb = (1,) * (rank - b.ndim) + b.shape
    result = tuple(max(x, y) for x, y in zip(sa, sb))
    ta = np.tile(a.reshape(sa), tuple(r // s for r, s in zip(result, sa)))
    tb = np.tile(b.reshape(sb), tuple(r // s for r, s in zip(result, sb)))
    out = np.empty(result, dtype=float)
    for idx in np.ndindex(result):
        out[idx] = op(ta[idx], tb[idx])
    return out


def conv2d_same_loop(image, kernel):
    """Centered quadruple-loop 2-d convolution with zero padding.

    out[i, j] = sum_{u, v} kernel[u, v] * image[i - u + pm, j - v + pn],
    reads outside the image count as zero. Kernel extents must be odd.
    """
    image = np.asarray(image, dtype=float)
    kernel = np.asarray(kernel, dtype=float)
    height, width = image.shape
    m, n = kernel.shape
    pm, pn = (m - 1) // 2, (n - 1) // 2
    out = np.zeros((height, width))
    for i in range(height):
        for j in range(width):
            acc = 0.0
            for u in range(m):
                for v in range(n):
                    ii, jj = i - u + pm, j - v + pn
                    if 0 <= ii < height and 0 <= jj < width:
                        acc += kernel[u, v] * image[ii, jj]
            out[i, j] = acc
    return out


def conv2d_same_multichannel(x, w):
    """Sum of per-channel centered convolutions: x is [C, M, N], w is
    [C, m, n], the result is [M, N]."""
    out = np.zeros(x.shape[1:])
    for c in range(x.shape[0]):
        out += conv2d_same_loop(x[c], w[c])
    return out


def unfold_loop(y, m, n):
    """Per-pixel neighbourhood gathering with explicit loops."""
    y = np.asarray(y, dtype=float)
    channels, height, width = y.shape
    pm, pn = (m - 1) // 2, (n - 1) // 2
    out = np.zeros((channels, height * width, m * n))
    for c in range(channels):
        for i in range(height):
            for j in range(width):
                slot = 0
                for u in range(m):
                    for v in range(n):
                        ii, jj = i + u - pm, j + v - pn
                        if 0 <= ii < height and 0 <= jj < width:
                            out[c, i * width + j, slot] = y[c, ii, jj]
                        slot += 1
    return out


def fold_add_at(patches, height, width, m, n):
    """Scatter-add a [C, M*N, m*n] patch matrix onto [C, M, N] with one
    sequential np.add.at per channel: every in-image slot, pixel by pixel
    and slot by slot, adds onto its source pixel in that order; slots
    outside the image are skipped."""
    patches = np.asarray(patches, dtype=float)
    pm, pn = (m - 1) // 2, (n - 1) // 2
    targets, sources = [], []
    for i in range(height):
        for j in range(width):
            for u in range(m):
                for v in range(n):
                    ii, jj = i + u - pm, j + v - pn
                    if 0 <= ii < height and 0 <= jj < width:
                        targets.append(ii * width + jj)
                        sources.append((i * width + j) * m * n + u * n + v)
    out = np.zeros((patches.shape[0], height * width))
    for c in range(patches.shape[0]):
        np.add.at(out[c], targets, patches[c].reshape(-1)[sources])
    return out.reshape(-1, height, width)


def median_pick(values):
    """(value, original index) of the element at sorted position
    floor(n/2), earliest original index on equal values."""
    values = list(values)
    order = sorted(range(len(values)), key=lambda i: (values[i], i))
    pick = order[len(values) // 2]
    return values[pick], pick


def fd_gradient(f, arrays, h=1e-6):
    """Central finite differences of a scalar function of several arrays."""
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    grads = []
    for i, a in enumerate(arrays):
        g = np.zeros_like(a)
        for c in range(a.size):
            plus = [x.copy() for x in arrays]
            minus = [x.copy() for x in arrays]
            plus[i].reshape(-1)[c] += h
            minus[i].reshape(-1)[c] -= h
            g.reshape(-1)[c] = (f(plus) - f(minus)) / (2.0 * h)
        grads.append(g)
    return grads


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def max_rel_err(a, b):
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    return max(rel_err(x, y) for x, y in zip(a, b)) if a.size else 0.0
