"""Image pairs: binary greyscale files, synthetic tasks, fold splits.

Images are 8-bit binary greyscale ("P5", maximum value 255). Pixel values
map linearly onto [-1, 1]: 0 becomes -1.0 and 255 becomes +1.0. A sample
is an (input, target) pair of [channels, M, N] tensors.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    IoError,
    MissingPair,
    SizeMismatch,
    TooFewSamples,
    UnsupportedFormat,
)
from .tensor import Tensor

SYNTHETIC_TASKS = ("identity", "blur-inverse", "nonlinear-map")


def read_pgm(path) -> np.ndarray:
    """Read a binary greyscale file into a uint8 [M, N] array."""
    try:
        blob = Path(path).read_bytes()
    except OSError as e:
        raise IoError(f"cannot read image {path}: {e}") from e
    if blob[:2] != b"P5":
        raise UnsupportedFormat(f"{path}: not a binary greyscale (P5) file")
    # Header tokens may be separated by whitespace and '#' comment lines.
    pos = 2
    tokens: list[int] = []
    while len(tokens) < 3:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if pos < len(blob) and blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos] not in (0x0A, 0x0D):
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        tok = blob[start:pos]
        if not tok.isdigit():
            raise UnsupportedFormat(f"{path}: malformed header token {tok!r}")
        tokens.append(int(tok))
    pos += 1  # single whitespace byte after maxval
    width, height, maxval = tokens
    if maxval != 255:
        raise UnsupportedFormat(f"{path}: maximum value {maxval}, only 255 supported")
    expected = width * height
    payload = blob[pos:pos + expected]
    if len(payload) != expected:
        raise UnsupportedFormat(
            f"{path}: payload holds {len(payload)} bytes, header promises {expected}"
        )
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width).copy()


def pixels_to_signal(pixels: np.ndarray) -> np.ndarray:
    """Map uint8 pixels to floats in [-1, 1] (0 -> -1.0, 255 -> +1.0)."""
    return pixels.astype(np.float64) * (2.0 / 255.0) - 1.0


@dataclass
class PairedImageDataset:
    """(input, target) tensor pairs, each of shape [channels, M, N]."""

    pairs: list[tuple[Tensor, Tensor]]
    names: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.pairs)

    def subset(self, indices) -> "PairedImageDataset":
        return PairedImageDataset(
            pairs=[self.pairs[i] for i in indices],
            names=[self.names[i] for i in indices] if self.names else [],
        )


def load_image_folder(path, size: tuple[int, int]) -> PairedImageDataset:
    """Load <id>_in / <id>_out image pairs from a directory.

    Every input needs a matching target and vice versa, and every image
    must have exactly the given (height, width).
    """
    folder = Path(path)
    if not folder.is_dir():
        raise IoError(f"{path} is not a directory")
    ins: dict[str, Path] = {}
    outs: dict[str, Path] = {}
    for p in sorted(folder.iterdir()):
        m = re.fullmatch(r"(.+)_(in|out)\.pgm", p.name)
        if not m:
            continue
        (ins if m.group(2) == "in" else outs)[m.group(1)] = p
    for name in sorted(ins.keys() | outs.keys()):
        if name not in ins:
            raise MissingPair(f"target {name!r} has no matching input image")
        if name not in outs:
            raise MissingPair(f"input {name!r} has no matching target image")
    if not ins:
        raise MissingPair(f"{folder} holds no <id>_in.pgm / <id>_out.pgm pairs")
    pairs = []
    names = sorted(ins)
    height, width = size
    for name in names:
        sample = []
        for p in (ins[name], outs[name]):
            pix = read_pgm(p)
            if pix.shape != (height, width):
                raise SizeMismatch(
                    f"{p}: image is {pix.shape}, dataset expects {(height, width)}"
                )
            sample.append(Tensor._wrap(pixels_to_signal(pix)[None, :, :]))
        pairs.append((sample[0], sample[1]))
    return PairedImageDataset(pairs=pairs, names=names)


def _sinusoid_field(rng: np.random.Generator, size: int) -> np.ndarray:
    """Sum of four random-frequency 2-d sinusoids, normalized into [-1, 1]."""
    ii, jj = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    field_sum = np.zeros((size, size))
    for _ in range(4):
        fx = rng.uniform(0.25, 1.5)
        fy = rng.uniform(0.25, 1.5)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        amp = rng.uniform(0.5, 1.0)
        field_sum += amp * np.sin(2.0 * math.pi * (fx * ii + fy * jj) / size + phase)
    peak = np.abs(field_sum).max()
    if peak > 0:
        field_sum /= peak
    return field_sum


def box_blur3(image: np.ndarray) -> np.ndarray:
    """3x3 mean filter with zero padding, always dividing by 9."""
    padded = np.pad(image, 1)
    out = np.zeros_like(image, dtype=np.float64)
    for du in range(3):
        for dv in range(3):
            out += padded[du:du + image.shape[0], dv:dv + image.shape[1]]
    return out / 9.0


def make_synthetic_task(kind: str, count: int, size: int, seed: int,
                        channels: int = 1) -> PairedImageDataset:
    """Generate (input, target) pairs for a named synthetic task.

    identity       target equals the input field
    blur-inverse   the input is the 3x3 box blur of the target
    nonlinear-map  target is tanh(2 * input), pointwise
    """
    if kind not in SYNTHETIC_TASKS:
        raise ValueError(
            f"unknown synthetic task {kind!r}; choose from {', '.join(SYNTHETIC_TASKS)}"
        )
    if count < 1:
        raise TooFewSamples(f"need at least one sample, requested {count}")
    rng = np.random.Generator(np.random.PCG64(seed))
    pairs = []
    names = []
    for i in range(count):
        xs, ys = [], []
        for _ in range(channels):
            f = _sinusoid_field(rng, size)
            if kind == "identity":
                x, y = f, f
            elif kind == "blur-inverse":
                x, y = box_blur3(f), f
            else:
                x, y = f, np.tanh(2.0 * f)
            xs.append(x)
            ys.append(y)
        pairs.append((Tensor._wrap(np.stack(xs)), Tensor._wrap(np.stack(ys))))
        names.append(f"{kind}-{i:04d}")
    return PairedImageDataset(pairs=pairs, names=names)


@dataclass
class FoldSplit:
    """One cross-validation fold: train/validation/test datasets."""

    fold: int
    train: PairedImageDataset
    val: PairedImageDataset
    test: PairedImageDataset


def partition(dataset: PairedImageDataset, folds: int,
              val_fraction: float = 0.0, seed: int = 0) -> list[FoldSplit]:
    """Split a dataset into cross-validation folds.

    A seeded permutation of the samples is cut into `folds` contiguous
    shards; fold f uses shard f as its test set (so the test sets are
    disjoint and exhaustive) and splits the rest into validation and
    training by val_fraction. With a single fold the test set is empty.
    """
    n = len(dataset)
    if folds < 1:
        raise TooFewSamples(f"fold count must be at least 1, got {folds}")
    if not 0.0 <= val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in [0, 1), got {val_fraction}")
    if folds > 1 and folds > n:
        raise TooFewSamples(f"cannot cut {n} samples into {folds} folds")
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(n)
    shards = np.array_split(order, folds) if folds > 1 else [np.array([], dtype=int)]
    splits = []
    for f in range(folds):
        test_idx = shards[f] if folds > 1 else shards[0]
        rest = np.concatenate([shards[k] for k in range(folds) if k != f]) \
            if folds > 1 else order
        n_val = int(round(val_fraction * len(rest)))
        val_idx, train_idx = rest[:n_val], rest[n_val:]
        if len(train_idx) == 0:
            raise TooFewSamples(
                f"fold {f} has no training samples "
                f"({n} samples, {folds} folds, val_fraction {val_fraction})"
            )
        splits.append(FoldSplit(
            fold=f,
            train=dataset.subset(train_idx),
            val=dataset.subset(val_idx),
            test=dataset.subset(test_idx),
        ))
    return splits
