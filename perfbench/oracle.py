"""Direct numpy reference for networks built only from (mul, sum, .) sets.

Such a network is a stack of zero-padded "same" correlations: block k of a
tier computes act(sum_c sum_uv w[k, c, u, v] * x[c, i + u - p, j + v - p]
- b[k]). This is written from that definition with sliding windows, not
from onnkit's unfold plans, so it checks the patch path independently.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

ACTIVATIONS = {
    "tanh": lambda x, cut: np.tanh(x),
    "identity": lambda x, cut: x,
    "lincut": lambda x, cut: np.clip(x / cut, -1.0, 1.0),
}


def is_conv_stack(net) -> bool:
    return all(tier.sampling == 1 and all(
        b.opset.nodal.name == "mul" and b.opset.pool.name == "sum"
        and b.opset.activation.name in ACTIVATIONS for b in tier.blocks)
        for tier in net.tiers)


def conv_stack(net, batch: np.ndarray) -> np.ndarray:
    """Forward a [B, C, M, N] batch through a (mul, sum, .) network."""
    out = []
    for x in batch:
        for tier in net.tiers:
            m, n = tier.kernel
            pad = np.pad(x, ((0, 0), ((m - 1) // 2,) * 2, ((n - 1) // 2,) * 2))
            windows = sliding_window_view(pad, (m, n), axis=(1, 2))
            maps = []
            for blk in tier.blocks:
                w = blk.weights.value.data
                b = float(blk.bias.value.data)
                pre = np.einsum("cijuv,cuv->ij", windows, w) - b
                maps.append(ACTIVATIONS[blk.opset.activation.name](
                    pre, net.constants.cut))
            x = np.stack(maps)
        out.append(x)
    return np.stack(out)
