"""Operational networks: blocks, tiers and the full model.

A block is one neuron of a tier: a weight grid of shape
[in_channels, m, n], one scalar bias, and an operator set.

A tier groups its blocks by operator set when it is built. Per sample it
unfolds its input once into the patch matrix [1, C, M*N, m*n], and
block_forward evaluates each group of G blocks over it in one pass: the
group's weights, stacked to [G, C, m, n], enter the nodal stage as
[G, C, 1, m*n] and broadcast against the patches (each weight row meets
every patch without materialising copies); the nodal result
[G, C, M*N, m*n] is pooled over the patch axis, channels are combined by
summation, and the activation applies the stacked biases [G, 1, 1] as
f(x - b), giving [G, M, N]. In a tier that mixes operator sets one op
puts the groups' rows back in block order, giving [K, M, N]; the tier
finally resamples spatially. Every stage is elementwise or reduces
along one axis, so a block's output has the same bits however many
blocks share its group.

A median or max pool hands each output pixel's gradient to one patch
entry, its winner. A taped pass therefore evaluates such a group's nodal
stage on constants, picks the winners [G, C, M*N] there and tapes the
nodal stage again on the winning pairs only: the nodal operator is then
called with w and y both [G, C, M*N], and its result times the patch
length is the pool's output. An untaped pass runs the nodal stage and the
pool once, over the full patch matrix.

A network chains tiers; with every block set to (mul, sum, identity) and
zero biases it computes an ordinary multi-channel convolution stack.
A NetworkConfig describes it; OpNetwork, the one network constructor,
runs check_network_config on that description before building a tier.
"""
from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from . import checkpoint, patchops
from .autograd import Parameter, Tape, Variable
from .errors import IndivisibleExtent, ShapeMismatch, UnfitNetwork, ValidationError
from .oplib import (
    DEFAULT_CONSTANTS,
    OperatorConstants,
    OperatorSet,
    OperatorSetLibrary,
    evaluate_activation,
    evaluate_nodal,
    evaluate_pool,
    register_builtin_library,
    scale_winners,
)
from .tensor import Tensor


@dataclass(kw_only=True)
class NetworkConfig:
    """A network described tier by tier; its fields are [network]'s keys."""
    in_channels: int = 1
    tier_sizes: list[int]
    kernel_sizes: list[int]
    operators: list[list[int]]
    # empty: 1 for every tier
    sampling_factors: list[int] = field(default_factory=list)
    k_sin: float = float(np.pi)
    k_chirp: float = float(np.pi)
    cut: float = 10.0
    init: str = "uniform"
    init_bound: float = 0.1


def check_network_config(get, library_size: int, fail) -> None:
    """As trainer.check_trainer_config, for [network]; indices in [0,
    library_size). A field's type is checked as a rule first reads it."""
    get = checkpoint.typed(NetworkConfig, get, fail)
    if get("in_channels") < 1:
        fail("in_channels", "must be at least 1")
    tier_sizes = get("tier_sizes")
    if not tier_sizes:
        fail("tier_sizes", "must hold at least one value")
    if any(s < 1 for s in tier_sizes):
        fail("tier_sizes", "entries must be at least 1")
    kernel_sizes = get("kernel_sizes")
    if len(kernel_sizes) != len(tier_sizes):
        fail("kernel_sizes", f"has {len(kernel_sizes)} entries, "
                             f"tier_sizes has {len(tier_sizes)}")
    for k in kernel_sizes:
        if k < 1 or k % 2 == 0:
            fail("kernel_sizes", f"entries must be odd and positive, got {k}")
    operators = get("operators")
    if len(operators) != len(tier_sizes):
        fail("operators", f"names {len(operators)} tiers, network has "
                          f"{len(tier_sizes)}")
    for t, (indices, size) in enumerate(zip(operators, tier_sizes)):
        if len(indices) not in (1, size):
            fail("operators",
                 f"tier {t} needs 1 or {size} indices, has {len(indices)}")
        for idx in indices:
            if not 0 <= idx < library_size:
                fail("operators", f"index {idx} out of range [0, {library_size - 1}]")
    sampling = get("sampling_factors") or [1] * len(tier_sizes)
    if len(sampling) != len(tier_sizes):
        fail("sampling_factors",
             f"has {len(sampling)} entries, tier_sizes has {len(tier_sizes)}")
    if any(s == 0 for s in sampling):
        fail("sampling_factors", "entries must be nonzero")
    init = get("init")
    if init not in ("uniform", "fan_in"):
        fail("init", f"must be 'uniform' or 'fan_in', got {init!r}")
    if get("cut") == 0:
        fail("cut", "must be nonzero")
    # weights are drawn from U(-b, b), whose width 2b must be a finite float
    if not 0 <= get("init_bound") <= sys.float_info.max / 2:
        fail("init_bound", f"must be in [0, {sys.float_info.max / 2!r}]")
    for key in checkpoint.type_hints(NetworkConfig):  # and those no rule read
        get(key)


def _fail(key: str, rule: str):
    raise ValidationError(f"network: {key} {rule}")


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


def block_forward(opset: OperatorSet, weights: Variable, bias: Variable,
                  patches: Variable, spatial: tuple[int, int],
                  constants: OperatorConstants) -> Variable:
    """The nodal, pool and activation stages of a group of G blocks that
    share one operator set: weights [G, C, m, n] and biases [G, 1, 1] over
    the patch matrix [1, C, M*N, m*n], giving [G, M, N]."""
    g, c, m, n = weights.shape
    w = ag.reshape(weights, (g, c, 1, m * n))
    # untaped selection groups pool the dense nodal array, one select and
    # one gather on z: sending them through the winners path below leaves
    # an untaped network forward no faster, but makes every gradcheck
    # probe (all are untaped) pay a second nodal pass and two gathers;
    # check_operator_set_gradients for set 13 (cubic, median, lincut)
    # took a third to a half longer that way
    if opset.pool.select is None or w.tape is None and patches.tape is None:
        z = evaluate_nodal(opset.nodal, w, patches, constants)
        pooled = evaluate_pool(opset.pool, z, constants)
    else:
        # a selection pool hands each pixel's gradient to one patch entry:
        # pick the winners on constants, then tape the nodal stage on them
        z = evaluate_nodal(opset.nodal, Variable(w.value, None, None),
                           Variable(patches.value, None, None), constants)
        arg = ag.select(z.value, opset.pool.select)
        with ag.unlogged():
            z = evaluate_nodal(opset.nodal, ag.gather(w, arg),
                               ag.gather(patches, arg), constants)
        pooled = scale_winners(opset.pool, z, m * n)
    x = ag.reshape(ag.reduce_sum(pooled, 1), (g, *spatial))
    return evaluate_activation(opset.activation, x, bias, constants)


class OpTier:
    """A bank of blocks sharing one patch extraction, plus resampling.

    The blocks, one per opsets entry, are grouped by operator set once,
    here; a forward pass evaluates each group in one block_forward call.
    """

    def __init__(self, in_channels: int, size: int, kernel: tuple[int, int],
                 opsets: list[OperatorSet], sampling: int, name: str):
        self.in_channels = in_channels
        self.size = size
        self.kernel = kernel
        self.sampling = int(sampling)
        self.name = name
        self.blocks = [
            OpBlock(in_channels, kernel, opsets[k], f"{name}/{k}")
            for k in range(size)
        ]
        members: dict[OperatorSet, list[int]] = {}
        for k, opset in enumerate(opsets):
            members.setdefault(opset, []).append(k)
        # (operator set, its blocks, their positions in the tier's output)
        self.groups = [(opset, [self.blocks[k] for k in ks], np.array(ks))
                       for opset, ks in members.items()]

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
        """Map one sample [C, M, N] to [K, M', N']; without a tape the
        parameters enter as constants."""
        c, mm, nn = x.shape
        if c != self.in_channels:
            raise ShapeMismatch(
                f"tier {self.name!r} expects {self.in_channels} channels, got {c}"
            )
        self.output_spatial((mm, nn))
        plan = patchops.get_plan(mm, nn, *self.kernel)
        patches = patchops.unfold(ag.reshape(x, (1, c, mm, nn)), plan)
        leaf = tape.watch if tape is not None else lambda p: ag.as_variable(p.value)
        outputs = []
        for opset, blocks, _ in self.groups:
            weights = ag.stack([leaf(blk.weights) for blk in blocks])
            bias = ag.reshape(ag.stack([leaf(blk.bias) for blk in blocks]),
                              (len(blocks), 1, 1))
            outputs.append(block_forward(opset, weights, bias, patches,
                                         (mm, nn), constants))
        out = outputs[0] if len(outputs) == 1 else ag.place_rows(
            outputs, [rows for _, _, rows in self.groups])
        return patchops.resample(out, self.sampling)


class OpNetwork:
    """A chain of tiers mapping [C_in, M, N] images to [K_last, M', N'],
    built from a config check_network_config accepts (else ValidationError
    "network: <field> <rule>"), its indices decoded in library."""

    def __init__(self, config: NetworkConfig,
                 library: OperatorSetLibrary | None = None):
        lib = library or register_builtin_library()
        check_network_config(functools.partial(getattr, config), len(lib), _fail)
        self.in_channels = channels = config.in_channels
        self.constants = OperatorConstants(config.k_sin, config.k_chirp, config.cut)
        self.init = (config.init, config.init_bound)
        self.tiers: list[OpTier] = []
        for t, (size, ks, indices, s) in enumerate(zip(
                config.tier_sizes, config.kernel_sizes, config.operators,
                config.sampling_factors or [1] * len(config.tier_sizes))):
            opsets = [lib.decode(i) for i in indices]  # a lone index serves every block
            self.tiers.append(OpTier(channels, size, (ks, ks),
                                     opsets * (size // len(opsets)), s, str(t)))
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

    def check_fit(self, in_shape: tuple[int, ...],
                  out_shape: tuple[int, ...]) -> None:
        """Raise UnfitNetwork unless the tiers map [C, M, N] images of
        in_shape to outputs of out_shape."""
        if in_shape[0] != self.in_channels:
            raise UnfitNetwork(f"data has {in_shape[0]} channels, network "
                               f"expects {self.in_channels}")
        try:
            produced = (self.out_channels,) + self.spatial_flow(tuple(in_shape[1:]))[-1]
        except IndivisibleExtent as e:
            raise UnfitNetwork(str(e)) from e
        if produced != tuple(out_shape):
            raise UnfitNetwork(f"tier chain produces {produced}, targets are "
                               f"{tuple(out_shape)}")

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
    """Finite-difference check of one operator set on one image, through
    block_forward as a one-block group.

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
        # one image and a one-block group: x [1, C, 6, 6], w [1, C, 3, 3]
        # and b [1, 1, 1]
        x = Tensor._wrap(rng.uniform(-0.5, 0.5, (1, in_channels, size, size)))
        w = Tensor._wrap(rng.uniform(-0.5, 0.5, (1, in_channels, kernel, kernel)))
        b = Tensor._wrap(rng.uniform(-0.1, 0.1, (1, 1, 1)))
        report = ag.gradcheck(f, [x, w, b], h=GRADCHECK_H, tol=GRADCHECK_TOL)
        if report.clean(GRADCHECK_MARGIN):
            return report
    return report
