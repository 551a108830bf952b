"""The benchmark's workloads: one onnkit config per (workload, seed).

The network shapes and operator sets of each workload are fixed; the seed
and the session's index in the run only pick the synthetic data, the
parameter initialisation and the held-out images; gradcheck's probes use
GRADCHECK_SEED. onnkit sees
nothing but the config text written here.

Why each workload exists (BENCHMARK.json lists the ones the suite runs):

  conv-tape   cheap (mul, sum) operators on a 32x32 blur-inverse task, so
              time goes to tape bookkeeping and backward. The target of a
              leaner backward, one array type and the (mul, sum) GEMM path.
  sine-max    harmonic nodal ops (three tape nodes each over [C, MN, 25])
              plus max-pool selection bookkeeping: nodal and memory bound.
              Not in the suite: on a shared 2-vCPU host its figures spread
              too widely across runs to hold a 25% bound.
  ref-hetero  the README's three-tier reference: 441-wide median pools,
              resampling, operator sets mixed within a tier, two folds
              trained on two threads and two archives to verify.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    network: str          # body of the [network] section
    task: str
    size: int
    folds: int
    jobs: int
    # Adam step small enough that the training loss falls from the first
    # epoch to the last; sine-max and ref-hetero train on one batch per
    # epoch, and larger steps overshoot on some seeds
    lr: float
    # gradcheck calls per session: one call takes 30-250 ms, so each
    # workload repeats it to time about a second per session; a multiple
    # of session.GRADCHECK_ROUNDS
    gradcheck_calls: int
    # scale -> (samples, val_fraction, epochs, held-out samples); "tiny"
    # is for the smoke tests
    scales: dict[str, tuple[int, float, int, int]]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="conv-tape",
            network="tier_sizes = 8, 8, 1\n"
                    "kernel_sizes = 3, 3, 3\n"
                    "operators = 0 / 0 / 2\n",
            task="blur-inverse", size=32, folds=1, jobs=1, lr=0.003,
            gradcheck_calls=30,
            scales={"full": (32, 0.25, 6, 96), "tiny": (4, 0.5, 1, 8)},
        ),
        Workload(
            name="sine-max",
            network="tier_sizes = 8, 8, 1\n"
                    "kernel_sizes = 5, 5, 5\n"
                    "operators = 24 / 24 / 2\n",
            task="nonlinear-map", size=24, folds=1, jobs=1, lr=0.0001,
            gradcheck_calls=9,
            scales={"full": (16, 0.5, 4, 16), "tiny": (2, 0.5, 1, 2)},
        ),
        Workload(
            name="ref-hetero",
            # the README lists two tier-1 indices for 32 blocks, which
            # parse_config rejects: every block gets its own, 0 and 13
            # alternating
            network="tier_sizes = 12, 32, 1\n"
                    "kernel_sizes = 21, 7, 3\n"
                    "operators = 4 / " + ", ".join(["0", "13"] * 16) + " / 2\n"
                    "sampling_factors = 2, -2, 1\n",
            task="nonlinear-map", size=16, folds=2, jobs=2, lr=0.003,
            gradcheck_calls=6,
            scales={"full": (10, 0.2, 2, 8), "tiny": (4, 0.5, 1, 2)},
        ),
    )
}


# `onnkit gradcheck` draws its probe inputs from the config's trainer seed.
# The benchmark gives it this fixed seed (check_operator_set_gradients'
# own default) rather than the run's. Redraws near median ties make one
# call take 1-5x as long depending on the seed. And on about one probe
# seed in ten (11, 15, 16, 22, ... below 100) gradcheck reports FAIL for
# set 13 (cubic, median, lincut): the relative error exceeds tol=1e-4 at
# h=1e-6, grows at h=1e-7 and falls within tol at h=1e-5, the mark of
# central-difference rounding error rather than a wrong tape gradient.
# test_perfbench keeps that defect in view as an expected failure.
GRADCHECK_SEED = 0


@dataclass(frozen=True)
class Instance:
    """One workload made concrete for a seed: config text plus the
    held-out images the benchmark evaluates on its own."""

    workload: Workload
    config_text: str
    gradcheck_config_text: str
    heldout_seed: int
    heldout_count: int
    jobs: int


def make_instance(name: str, seed: int, scale: str = "full",
                  max_jobs: int = 2, session: int = 0,
                  gradcheck_seed: int = GRADCHECK_SEED) -> Instance:
    """The instance of the given session of a run with this seed.

    Every session of a run draws its own data, initialisation and held-out
    images: how fast the median pools run depends on the values they
    select from, so a run's medians over several draws vary less from
    seed to seed than one draw does.
    """
    w = WORKLOADS[name]
    count, val_fraction, epochs, heldout = w.scales[scale]
    data_seed, trainer_seed, heldout_seed = (
        int(s) for s in
        np.random.SeedSequence((seed, session)).generate_state(3) % 2**31)

    def config(trainer_seed: int) -> str:
        return (
            "[network]\n"
            "in_channels = 1\n"
            f"{w.network}"
            "\n[trainer]\n"
            f"num_epochs = {epochs}\n"
            "optimizer = adam\n"
            f"lr = {w.lr!r}\n"
            "batch_size = 8\n"
            f"seed = {trainer_seed}\n"
            "metrics = snr\n"
            "\n[data]\n"
            f"task = {w.task}\n"
            f"count = {count}\n"
            f"size = {w.size}\n"
            f"folds = {w.folds}\n"
            f"val_fraction = {val_fraction!r}\n"
            f"seed = {data_seed}\n"
        )

    return Instance(w, config(trainer_seed), config(gradcheck_seed),
                    heldout_seed, heldout, min(w.jobs, max_jobs))
