"""One onnkit session, run the way a user runs it.

A session sets up (import onnkit, parse the config, build the dataset,
partition it, build the network), runs `onnkit train`, pushes held-out
images through the trained network, runs `onnkit eval` on every archive
train wrote and `onnkit gradcheck` as many times as the workload says.
run.py gives every session a process of its own, so ru_maxrss is the
session's peak. The CLI is driven in-process through cli.main, so the
traced run can time the layers underneath it and ru_maxrss covers
everything the session allocates.

Every CLI call and every correctness check is one attempted operation; a
non-zero exit or a failed check counts as a failed one.
"""
from __future__ import annotations

import contextlib
import csv
import importlib
import io
import math
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
import spans
from workloads import Instance

ORACLE_TOL = 1e-10
# setup takes tens of milliseconds: repeat it so its median is steady
SETUP_REPEATS = 3
# Co-tenants of a shared host change its speed over stretches of seconds.
# The short, repeatable measurements are therefore spread over the session
# rather than taken in one block: the held-out images pass through the
# network after train and again after eval, and the gradcheck calls run
# in this many rounds, before train, after it and at the end.
HELDOUT_PASSES = 2
GRADCHECK_ROUNDS = 3


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def absorb(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures


@dataclass
class SessionResult:
    """Raw times and work of one session; summarize() turns a run's
    sessions into its figures."""

    wall_s: float
    setup_s: list[float]
    trained: int           # samples stepped: epochs x train size x folds
    train_s: float
    heldout_rates: list[float]  # samples/s of each held-out batch
    verify_s: float
    gradcheck_s: list[float]
    peak_rss_mib: float
    best_val_snr_db: float
    train_loss_ratio: float
    layers: dict[str, float] | None


def fresh_import():
    """Import onnkit and its CLI anew, as a new process would."""
    for name in [n for n in sys.modules
                 if n == "onnkit" or n.startswith("onnkit.")]:
        del sys.modules[name]
    importlib.import_module("onnkit")
    return importlib.import_module("onnkit.cli")


def _cli(cli, argv: list[str]) -> tuple[int, str, float]:
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue(), time.perf_counter() - t0


def _tamper(path: Path) -> None:
    """Shift one recorded best so that eval must report a mismatch."""
    from onnkit import checkpoint
    entries = checkpoint.load(path)
    key = sorted(k for k in entries if k.startswith("best/")
                 and k.endswith("/value"))[0]
    entries[key] = np.asarray(entries[key]) + 1.0
    checkpoint.save(path, entries)


def _summary_value(path: Path, partition: str, metric: str) -> float:
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            if row["partition"] == partition and row["metric"] == metric:
                return float(row["mean"])
    return math.nan


def _loss_ratio(out_dir: Path) -> float:
    """Last over first epoch's training loss, averaged over folds."""
    ratios = []
    for path in sorted(out_dir.glob("train_fold*.csv")):
        with open(path, newline="") as fh:
            losses = [float(row["loss"]) for row in csv.DictReader(fh)]
        ratios.append(losses[-1] / losses[0])
    return statistics.mean(ratios)


def summarize(results: list[SessionResult]) -> dict[str, float]:
    """A run's end-to-end figures from its sessions.

    On a shared 2-vCPU virtual machine, co-tenants slowed the same work by
    up to 1.7x in stretches of 5-30 s. Figures measured many times in a
    run are medians of those measurements, which such a stretch moves
    least: setup_s over every setup, eval_samples_per_s over every
    held-out batch, gradcheck_s over every gradcheck call and verify_s
    over sessions. Training is timed once per session, so its rate is
    the run's summed samples over its summed train time. peak_rss_mib is
    the median of the sessions' peaks: ref-hetero's peak depends on
    whether its two fold threads reach their largest tapes at the same
    moment, and ranged 727-825 MiB over three sessions of one seed.
    """
    def total(name):
        return sum(getattr(r, name) for r in results)

    gradchecks = [s for r in results for s in r.gradcheck_s]
    return {
        "setup_s": statistics.median(s for r in results for s in r.setup_s),
        "train_samples_per_s": total("trained") / total("train_s"),
        "eval_samples_per_s": statistics.median(
            rate for r in results for rate in r.heldout_rates),
        "verify_s": statistics.median(r.verify_s for r in results),
        "gradcheck_s": statistics.median(gradchecks),
        "peak_rss_mib": statistics.median(r.peak_rss_mib for r in results),
        "best_val_snr_db": statistics.median(r.best_val_snr_db for r in results),
        "train_loss_ratio": statistics.median(r.train_loss_ratio for r in results),
    }


def run_session(inst: Instance, workdir: Path, checks: Checks,
                trace: bool = False, fault: str | None = None) -> SessionResult:
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cfg_path = workdir / "session.cfg"
    cfg_path.write_text(inst.config_text)
    gradcheck_cfg = workdir / "gradcheck.cfg"
    gradcheck_cfg.write_text(inst.gradcheck_config_text)
    out_dir = workdir / "out"
    rec = spans.SpanRecorder() if trace else None
    undo = None
    try:
        started = time.perf_counter()
        setups = []
        for attempt in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            cli = fresh_import()
            if rec is not None and attempt == SETUP_REPEATS - 1:
                undo = spans.install(rec)
            from onnkit import checkpoint, dataio, network
            from onnkit.tensor import Tensor
            cfg = cli.parse_config(cfg_path.read_text())
            dataset = cli.dataset_from_config(cfg)
            splits = dataio.partition(dataset, cfg.data.folds,
                                      cfg.data.val_fraction, cfg.data.seed)
            net = cli.network_from_config(cfg)
            setups.append(time.perf_counter() - t0)

        gradcheck_s = []

        def gradcheck_round():
            for _ in range(inst.workload.gradcheck_calls // GRADCHECK_ROUNDS):
                code, _, span = _cli(cli, ["gradcheck", "--config",
                                           str(gradcheck_cfg)])
                gradcheck_s.append(span)
                checks.record("gradcheck exits 0", code == 0)

        gradcheck_round()
        code, _, train_s = _cli(cli, ["train", "--config", str(cfg_path),
                                      "--out", str(out_dir),
                                      "--jobs", str(inst.jobs)])
        checks.record("train exits 0", code == 0)
        archives = sorted(out_dir.glob("fold*.ckpt"))
        checks.record("one archive per fold", len(archives) == cfg.data.folds)
        stepped = cfg.trainer.num_epochs * cfg.trainer.num_runs * sum(
            len(s.train) for s in splits)

        held = dataio.make_synthetic_task(cfg.data.task, inst.heldout_count,
                                          cfg.data.size, inst.heldout_seed)
        xs = np.stack([x.data for x, _ in held.pairs])
        final = checkpoint.load(archives[0])
        for p in net.parameters():
            p.assign(Tensor(final[f"param/{p.name}"]))
        batch = cfg.trainer.batch_size
        heldout_rates = []

        def heldout_pass():
            preds = []
            for lo in range(0, len(xs), batch):
                t1 = time.perf_counter()
                preds.append(network.network_forward(net, xs[lo:lo + batch]).data)
                heldout_rates.append(len(preds[-1]) / (time.perf_counter() - t1))
            return np.concatenate(preds)

        preds = heldout_pass()
        if oracle.is_conv_stack(net):
            err = float(np.max(np.abs(preds - oracle.conv_stack(net, xs))))
            checks.record(f"conv oracle within {ORACLE_TOL:g} (err {err:.2e})",
                          err < ORACLE_TOL)
        gradcheck_round()

        if fault == "tamper-archive":
            _tamper(archives[0])
        verify_s = 0.0
        for path in archives:
            code, text, span = _cli(cli, ["eval", "--ckpt", str(path)])
            verify_s += span
            lines = text.splitlines()
            checks.record(f"eval {path.name} reports match for every best",
                          code == 0 and bool(lines)
                          and all(line.endswith(", match") for line in lines))

        for _ in range(HELDOUT_PASSES - 1):
            checks.record("held-out outputs repeat bitwise",
                          np.array_equal(heldout_pass(), preds))
        gradcheck_round()
        wall_s = time.perf_counter() - started
    finally:
        if undo is not None:
            undo()

    return SessionResult(
        wall_s=wall_s, setup_s=setups,
        trained=stepped, train_s=train_s,
        heldout_rates=heldout_rates,
        verify_s=verify_s, gradcheck_s=gradcheck_s,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        best_val_snr_db=_summary_value(out_dir / "summary.csv", "val", "snr"),
        train_loss_ratio=_loss_ratio(out_dir),
        layers=spans.layer_metrics(rec) if rec is not None else None)
