"""Operational networks: blocks, tiers and the full model.

A block is one neuron of a tier: a weight grid of shape
[in_channels, m, n], one scalar bias, and an operator set. Its forward
pass works on the tier's shared patch matrix [C, M*N, m*n]: the weights
are reshaped to [C, 1, m*n] and broadcast against the patches (each
weight row meets every patch without materialising copies), the nodal
result is pooled over the patch axis, channels are combined by summation,
and the activation applies the bias as f(x - b).

A tier unfolds its input once and feeds the same patch matrix to every
block, stacks the K block outputs into [K, M, N], and finally resamples
spatially. A network chains tiers; with every block set to
(mul, sum, identity) and zero biases it computes an ordinary
multi-channel convolution stack.
"""
from __future__ import annotations

import numpy as np

from . import autograd as ag
from . import patchops
from .autograd import Parameter, Tape, Variable
from .errors import IndivisibleExtent, ShapeMismatch
from .oplib import (
    DEFAULT_CONSTANTS,
    OperatorConstants,
    OperatorSet,
    OperatorSetLibrary,
    evaluate_activation,
    evaluate_nodal,
    evaluate_pool,
)
from .tensor import Tensor


class OpBlock:
    """One neuron: weights [C_in, m, n], scalar bias, operator set."""

    def __init__(self, in_channels: int, kernel: tuple[int, int],
                 opset: OperatorSet, name: str):
        m, n = kernel
        self.in_channels = in_channels
        self.kernel = (m, n)
        self.opset = opset
        self.name = name
        self.weights = Parameter(f"{name}/weights",
                                 Tensor(np.zeros((in_channels, m, n))))
        self.bias = Parameter(f"{name}/bias", Tensor(0.0))

    def parameters(self) -> list[Parameter]:
        return [self.weights, self.bias]

    def forward(self, patches: Variable, spatial: tuple[int, int],
                tape: Tape | None, constants: OperatorConstants) -> Variable:
        """Map the tier's patch matrix [C, M*N, m*n] to this block's [M, N];
        without a tape the parameters enter as constants."""
        leaf = tape.watch if tape is not None else lambda p: ag.as_variable(p.value)
        return block_forward(self.opset, leaf(self.weights), leaf(self.bias),
                             patches, spatial, constants)


def block_forward(opset: OperatorSet, weights: Variable, bias: Variable,
                  patches: Variable, spatial: tuple[int, int],
                  constants: OperatorConstants) -> Variable:
    """One block's nodal, pool and activation stages: weights [C, m, n]
    and a scalar bias over the patch matrix [C, M*N, m*n], giving [M, N]."""
    c, m, n = weights.shape
    w = ag.reshape(weights, (c, 1, m * n))
    z = evaluate_nodal(opset.nodal, w, patches, constants)
    pooled = evaluate_pool(opset.pool, z, constants)
    x = ag.reshape(ag.reduce_sum(pooled, 0), spatial)
    return evaluate_activation(opset.activation, x, bias, constants)


class OpTier:
    """A bank of blocks sharing one patch extraction, plus resampling."""

    def __init__(self, in_channels: int, size: int, kernel: tuple[int, int],
                 opsets: list[OperatorSet], sampling: int, name: str):
        if len(opsets) == 1:
            opsets = opsets * size
        if len(opsets) != size:
            raise ShapeMismatch(
                f"tier {name!r} has {size} blocks but {len(opsets)} operator sets"
            )
        self.in_channels = in_channels
        self.size = size
        self.kernel = kernel
        self.sampling = int(sampling)
        self.name = name
        self.blocks = [
            OpBlock(in_channels, kernel, opsets[k], f"{name}/{k}")
            for k in range(size)
        ]

    def parameters(self) -> list[Parameter]:
        return [p for blk in self.blocks for p in blk.parameters()]

    def output_spatial(self, spatial: tuple[int, int]) -> tuple[int, int]:
        mm, nn = spatial
        s = self.sampling
        if s == 1:
            return spatial
        if s > 1:
            if mm % s or nn % s:
                raise IndivisibleExtent(
                    f"tier {self.name!r}: extents {spatial} not divisible by {s}"
                )
            return (mm // s, nn // s)
        return (mm * -s, nn * -s)

    def forward(self, x: Variable, tape: Tape | None,
                constants: OperatorConstants) -> Variable:
        c, mm, nn = x.shape
        if c != self.in_channels:
            raise ShapeMismatch(
                f"tier {self.name!r} expects {self.in_channels} channels, got {c}"
            )
        self.output_spatial((mm, nn))
        plan = patchops.get_plan(mm, nn, *self.kernel)
        patches = patchops.unfold(x, plan)
        outputs = [blk.forward(patches, (mm, nn), tape, constants)
                   for blk in self.blocks]
        stacked = ag.stack(outputs, axis=0)
        return patchops.resample(stacked, self.sampling)


class OpNetwork:
    """A chain of tiers mapping [C_in, M, N] images to [K_last, M', N']."""

    def __init__(self, in_channels: int, tier_sizes: list[int],
                 kernel_sizes: list[int], opsets_per_tier: list[list[OperatorSet]],
                 sampling_factors: list[int],
                 constants: OperatorConstants = DEFAULT_CONSTANTS,
                 init: tuple[str, float] = ("uniform", 0.1)):
        counts = {len(tier_sizes), len(kernel_sizes), len(opsets_per_tier),
                  len(sampling_factors)}
        if len(counts) != 1:
            raise ShapeMismatch("per-tier argument lists have different lengths")
        if not tier_sizes:
            raise ShapeMismatch("a network needs at least one tier")
        self.in_channels = in_channels
        self.constants = constants
        self.init = init
        self.tiers: list[OpTier] = []
        channels = in_channels
        for t, (size, ks, opsets, s) in enumerate(
                zip(tier_sizes, kernel_sizes, opsets_per_tier, sampling_factors)):
            self.tiers.append(OpTier(channels, size, (ks, ks), opsets, s, str(t)))
            channels = size

    @property
    def out_channels(self) -> int:
        return self.tiers[-1].size

    def parameters(self) -> list[Parameter]:
        return [p for tier in self.tiers for p in tier.parameters()]

    def parameter_count(self) -> int:
        return sum(p.value.size for p in self.parameters())

    def spatial_flow(self, spatial: tuple[int, int]) -> list[tuple[int, int]]:
        """Spatial extents after each tier, for the given input extents."""
        flow = []
        for tier in self.tiers:
            spatial = tier.output_spatial(spatial)
            flow.append(spatial)
        return flow

    def reset_parameters(self, seed: int) -> None:
        """Draw weights uniformly and zero the biases, deterministically.

        With init ("uniform", b) weights are drawn from U(-b, b); with
        ("fan_in", _) the bound is 1/sqrt(in_channels * m * n) per tier.
        """
        rng = np.random.Generator(np.random.PCG64(seed))
        kind, base = self.init
        for tier in self.tiers:
            c, (m, n) = tier.in_channels, tier.kernel
            b = 1.0 / np.sqrt(c * m * n) if kind == "fan_in" else base
            for blk in tier.blocks:
                blk.weights.assign(Tensor._wrap(
                    rng.uniform(-b, b, size=(c, m, n))))
                blk.bias.assign(Tensor(0.0))


def network_forward(net: OpNetwork, batch, tape: Tape | None = None):
    """Run a [B, C, M, N] batch through the network.

    Samples are processed independently and stacked, so a batch gives
    bitwise the same outputs as running its samples one by one. Without a
    tape nothing is recorded (the parameters enter as constants) and the
    result is a Tensor; with one it is a tracked variable recorded on that
    tape, which the caller's backward then consumes.
    """
    batch_t = batch if isinstance(batch, Tensor) else Tensor(batch)
    if batch_t.ndim != 4:
        raise ShapeMismatch(f"expected a [B, C, M, N] batch, got {batch_t.shape}")
    if batch_t.shape[1] != net.in_channels:
        raise ShapeMismatch(
            f"network expects {net.in_channels} channels, got {batch_t.shape[1]}"
        )
    outs = []
    for sample in batch_t.data:
        x = Variable(sample, None, None)
        for tier in net.tiers:
            x = tier.forward(x, tape, net.constants)
        outs.append(x)
    stacked = ag.stack(outs, axis=0)
    if tape is None:
        return Tensor._wrap(stacked.value)
    return stacked


# check_operator_set_gradients' probe: square image and kernel extents,
# central-difference step, relative tolerance, tie margin and draws
GRADCHECK_SIZE = 6
GRADCHECK_KERNEL = 3
GRADCHECK_TOL = 1e-4
GRADCHECK_H = 1e-6
GRADCHECK_MARGIN = 1e-4
GRADCHECK_ATTEMPTS = 5


def check_operator_set_gradients(library: OperatorSetLibrary, index: int, *,
                                 seed: int = 0,
                                 in_channels: int = 1) -> ag.GradcheckReport:
    """Finite-difference check of one operator set in a one-block network.

    The scalar target is the summed block output; gradients are checked
    for the input image, the weights and the bias. Draws whose selection
    operations sit within GRADCHECK_MARGIN of a tie, or whose probes flip
    a winner, are redrawn, up to GRADCHECK_ATTEMPTS draws in all.
    """
    opset = library.decode(index)
    constants = DEFAULT_CONSTANTS
    rng = np.random.Generator(np.random.PCG64(seed))
    size, kernel = GRADCHECK_SIZE, GRADCHECK_KERNEL
    plan = patchops.get_plan(size, size, kernel, kernel)

    def f(xv, wv, bv):
        patches = patchops.unfold(xv, plan)
        return ag.sum_all(block_forward(opset, wv, bv, patches, (size, size),
                                        constants))

    report = None
    for _ in range(GRADCHECK_ATTEMPTS):
        x = Tensor._wrap(rng.uniform(-0.5, 0.5, (in_channels, size, size)))
        w = Tensor._wrap(rng.uniform(-0.5, 0.5, (in_channels, kernel, kernel)))
        b = Tensor(rng.uniform(-0.1, 0.1))
        report = ag.gradcheck(f, [x, w, b], h=GRADCHECK_H, tol=GRADCHECK_TOL)
        if report.clean(GRADCHECK_MARGIN):
            return report
    return report


def build_network(in_channels: int, tier_sizes: list[int],
                  kernel_sizes: list[int], operator_indices: list[list[int]],
                  sampling_factors: list[int], library: OperatorSetLibrary,
                  constants: OperatorConstants = DEFAULT_CONSTANTS,
                  init: tuple[str, float] = ("uniform", 0.1)) -> OpNetwork:
    """Construct a network from per-tier operator set indices.

    A tier's index list holds either one index, shared by all its blocks,
    or exactly one index per block.
    """
    opsets = [[library.decode(i) for i in tier] for tier in operator_indices]
    return OpNetwork(in_channels, tier_sizes, kernel_sizes, opsets,
                     sampling_factors, constants, init)
