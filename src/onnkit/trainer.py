"""Multi-run training with metric tracking, bests and checkpointing.

A session runs the configured number of independent runs. Run r resets the
network parameters with seed XOR r and shuffles minibatches with its own
seeded generator, so every run (and every rerun of the session) is exactly
reproducible. Mean squared error is the loss and is always tracked as a
metric; further metrics are evaluated on every partition after each epoch.

For every (partition, metric) pair the best value seen so far is kept
together with the run, the epoch and a snapshot of the parameters that
achieved it; on ties the earlier epoch wins. A run whose loss, stage
outputs or gradients turn NaN or infinite is aborted and recorded as such
while the remaining runs proceed.

save_all writes the complete session state into one archive: parameters,
optimizer and generator state, series, bests and, when the trainer was
given one, the text of the configuration it ran. The archive does not
describe the network. load restores the state into a network the caller
built, so training continues exactly where it stopped, bit for bit; the
command line builds that network from the configuration, a library caller
from its own build_network call.
"""
from __future__ import annotations

import csv
import io
import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import autograd as ag
from . import checkpoint, optim
from .autograd import Tape
from .dataio import FoldSplit, PairedImageDataset
from .errors import (
    ConstantTarget,
    CorruptState,
    NonFiniteGradient,
    NonFiniteLoss,
    NonFiniteValue,
    ShapeMismatch,
)
from .network import OpNetwork, network_forward
from .tensor import Tensor

PARTITIONS = ("train", "val", "test")

SNR_CAP_DB = 300.0

# what a diverging run raises: the loss check, the stage checks of the
# forward pass and the optimizer's gradient check
DIVERGENCE_ERRORS = (NonFiniteLoss, NonFiniteValue, NonFiniteGradient)


def calc_snr(pred: Tensor, target: Tensor) -> float:
    """Signal-to-noise ratio in decibels of a prediction against a target.

    10*log10( sum((t - mean(t))^2) / sum((t - p)^2) ). A residual of
    exactly zero reports the cap value; a constant target is an error.
    """
    if pred.shape != target.shape:
        raise ShapeMismatch(f"prediction {pred.shape} vs target {target.shape}")
    t = target.data
    signal = float(((t - t.mean()) ** 2).sum())
    if signal == 0.0:
        raise ConstantTarget("target is constant; its signal power is zero")
    residual = float(((t - pred.data) ** 2).sum())
    if residual == 0.0:
        return SNR_CAP_DB
    return 10.0 * math.log10(signal / residual)


@dataclass(frozen=True)
class MetricSpec:
    """A named scalar metric and the direction that counts as better."""

    name: str
    compute: Callable[[Tensor, Tensor], float]
    criterion: str  # "max" or "min"

    def improves(self, value: float, incumbent: float) -> bool:
        if self.criterion == "max":
            return value > incumbent
        return value < incumbent


LOSS_METRIC = MetricSpec("loss", lambda p, t: float(((p.data - t.data) ** 2).mean()),
                         "min")

BUILTIN_METRICS = {"snr": MetricSpec("snr", calc_snr, "max")}


@dataclass
class TrainerConfig:
    """Knobs of one training session."""

    num_epochs: int
    num_runs: int = 1
    optimizer: str = "adam"
    lr: float = 0.001
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    lr_decay: float = 1.0
    batch_size: int = 8
    seed: int = 0
    model_name: str = "model"


@dataclass
class BestEntry:
    """Best value of one metric on one partition, with provenance."""

    value: float
    run: int
    epoch: int
    params: dict[str, np.ndarray]


class TrainingRecord:
    """Per-epoch series, per-image times and best entries of a session."""

    def __init__(self, partitions: list[str], metric_names: list[str],
                 fold: int = 0, criteria: dict[str, str] | None = None):
        self.partitions = partitions
        self.metric_names = metric_names
        self.fold = fold
        self.criteria = criteria or {
            m: ("min" if m == "loss" else "max") for m in metric_names
        }
        self.series: dict[tuple[str, str], list[list[float]]] = {
            (p, m): [] for p in partitions for m in metric_names
        }
        self.times: dict[str, list[list[float]]] = {p: [] for p in partitions}
        self.run_status: list[str] = []

    def start_run(self) -> None:
        for key in self.series:
            self.series[key].append([])
        for p in self.partitions:
            self.times[p].append([])
        self.run_status.append("running")

    def append_epoch(self, partition: str, values: dict[str, float],
                     per_image_time: float) -> None:
        for m, v in values.items():
            self.series[(partition, m)][-1].append(v)
        self.times[partition][-1].append(per_image_time)

    def finish_run(self, status: str) -> None:
        self.run_status[-1] = status

    def run_count(self) -> int:
        return len(self.run_status)


def _rng_for_run(seed: int, run: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(run, 1))
    return np.random.Generator(np.random.PCG64(ss))


def _stack_pairs(dataset: PairedImageDataset, indices=None):
    idx = range(len(dataset)) if indices is None else indices
    xs = np.stack([dataset.pairs[i][0].data for i in idx])
    ts = np.stack([dataset.pairs[i][1].data for i in idx])
    return Tensor._wrap(xs), Tensor._wrap(ts)


class Trainer:
    """Drives training of one network on one fold split."""

    def __init__(self, net: OpNetwork, split: FoldSplit, cfg: TrainerConfig,
                 metrics: list[MetricSpec] | None = None,
                 config_text: str | None = None):
        if len(split.train) == 0:
            raise ShapeMismatch("training partition is empty")
        self.net = net
        self.split = split
        self.cfg = cfg
        self.metrics = [LOSS_METRIC] + [m for m in (metrics or [])
                                        if m.name != "loss"]
        self.config_text = config_text
        self.partitions = [p for p in PARTITIONS if len(self._dataset(p)) > 0]
        self.record = TrainingRecord(self.partitions,
                                     [m.name for m in self.metrics], split.fold,
                                     {m.name: m.criterion for m in self.metrics})
        self.best: dict[tuple[str, str], BestEntry] = {}
        self.optimizer: optim.Optimizer | None = None
        self._rng: np.random.Generator | None = None
        self._run = 0
        self._epoch = 0
        optim.make_optimizer(cfg.optimizer)  # fail early on unknown names
        sample_in, sample_out = split.train.pairs[0]
        if sample_in.shape[0] != net.in_channels:
            raise ShapeMismatch(
                f"data has {sample_in.shape[0]} channels, network expects "
                f"{net.in_channels}"
            )
        flow = net.spatial_flow(sample_in.shape[1:])
        if (net.out_channels,) + flow[-1] != sample_out.shape:
            raise ShapeMismatch(
                f"network produces {(net.out_channels,) + flow[-1]}, targets are "
                f"{sample_out.shape}"
            )

    def _dataset(self, partition: str) -> PairedImageDataset:
        return getattr(self.split, partition)

    # --- evaluation ---

    def evaluate(self, partition: str) -> dict[str, float]:
        """Loss and metric values of the current parameters on a partition."""
        data = self._dataset(partition)
        x, t = _stack_pairs(data)
        pred = network_forward(self.net, x)
        return {m.name: m.compute(pred, t) for m in self.metrics}

    def _update_best(self, partition: str, values: dict[str, float],
                     run: int, epoch: int) -> None:
        for m in self.metrics:
            key = (partition, m.name)
            incumbent = self.best.get(key)
            if incumbent is None or m.improves(values[m.name], incumbent.value):
                snapshot = {p.name: p.value.data.copy()
                            for p in self.net.parameters()}
                self.best[key] = BestEntry(values[m.name], run, epoch, snapshot)

    # --- training ---

    def _train_epoch(self) -> float:
        """One pass of minibatch updates. Returns the last batch loss."""
        train = self.split.train
        order = self._rng.permutation(len(train))
        params = self.net.parameters()
        batch = max(1, self.cfg.batch_size)
        last_loss = math.nan
        for lo in range(0, len(order), batch):
            idx = order[lo:lo + batch]
            x, t = _stack_pairs(train, idx)
            tape = Tape()
            try:
                pred = network_forward(self.net, x, tape)
                diff = ag.sub(pred, ag.as_variable(t))
                loss = ag.mul(ag.sum_all(ag.pow_const(diff, 2)), 1.0 / t.size)
                last_loss = float(loss.value)
                if not math.isfinite(last_loss):
                    raise NonFiniteLoss(
                        f"loss became {last_loss} in run {self._run} "
                        f"epoch {self._epoch}"
                    )
                leaves = {p.name: tape.watch(p).node for p in params}
                grads = ag.backward(loss)
            finally:  # also when the forward diverges before backward
                tape.release()
            self.optimizer.step(params, {name: grads[nid]
                                         for name, nid in leaves.items()})
        if self.cfg.lr_decay != 1.0:
            self.optimizer.scale_lr(self.cfg.lr_decay)
        return last_loss

    def _start_run(self, run: int) -> None:
        self._run = run
        self._epoch = 0
        self.net.reset_parameters(self.cfg.seed ^ run)
        self.optimizer = optim.make_optimizer(
            self.cfg.optimizer, lr=self.cfg.lr, momentum=self.cfg.momentum,
            beta1=self.cfg.beta1, beta2=self.cfg.beta2, eps=self.cfg.eps)
        self._rng = _rng_for_run(self.cfg.seed, run)
        self.record.start_run()

    def _epoch_values(self) -> dict[str, tuple[dict[str, float], float]]:
        """Train one epoch, then evaluate every partition. Returns each
        partition's metric values and its wall time; the train partition's
        time includes the updates."""
        out = {}
        t0 = time.perf_counter()
        self._train_epoch()
        for partition in self.partitions:
            values = self.evaluate(partition)
            out[partition] = (values, time.perf_counter() - t0)
            t0 = time.perf_counter()
        return out

    def _run_epochs(self) -> None:
        """Advance the current run to the configured epoch count.

        A run whose loss, stage outputs or gradients turn non-finite is
        recorded as aborted with the reason; numpy's overflow warnings on
        the way there are not printed, the abort status says it all.
        """
        cfg = self.cfg
        while self._epoch < cfg.num_epochs:
            try:
                with np.errstate(all="ignore"):
                    epoch = self._epoch_values()
            except DIVERGENCE_ERRORS as e:
                self.record.finish_run(f"aborted: {e}")
                return
            for partition, (values, span) in epoch.items():
                self.record.append_epoch(partition, values,
                                         span / len(self._dataset(partition)))
                self._update_best(partition, values, self._run, self._epoch)
            self._epoch += 1
        self.record.finish_run("done")

    def train(self) -> TrainingRecord:
        """Run or resume the session; returns the filled record."""
        start = self._run
        resuming = self.record.run_count() > start
        for run in range(start, self.cfg.num_runs):
            if run == start and resuming:
                pass  # continue the restored run with its restored state
            else:
                self._start_run(run)
            self._run_epochs()
        aborted = [s for s in self.record.run_status if s.startswith("aborted")]
        if aborted and len(aborted) == self.record.run_count():
            raise NonFiniteLoss(f"every run diverged; first failure: {aborted[0]}")
        return self.record

    # --- persistence ---

    def save_all(self, path) -> None:
        """Archive parameters, optimizer, generator, series and bests."""
        entries: dict[str, object] = {}
        entries["trainer/config"] = json.dumps(asdict(self.cfg),
                                               sort_keys=True).encode()
        entries["trainer/metrics"] = json.dumps(
            [[m.name, m.criterion] for m in self.metrics]).encode()
        if self.config_text is not None:
            entries["config/text"] = self.config_text.encode()
        for p in self.net.parameters():
            entries[f"param/{p.name}"] = p.value.data
        if self.optimizer is not None:
            entries.update(self.optimizer.state_entries())
        if self._rng is not None:
            entries["rng/state"] = json.dumps(self._rng.bit_generator.state,
                                              sort_keys=True).encode()
        entries["trainer/run"] = np.array([self._run], dtype=np.uint64)
        entries["trainer/epoch"] = np.array([self._epoch], dtype=np.uint64)
        entries["trainer/fold"] = np.array([self.split.fold], dtype=np.uint64)
        entries["trainer/partitions"] = json.dumps(self.partitions).encode()
        entries["trainer/status"] = json.dumps(self.record.run_status).encode()
        for (part, metric), runs in self.record.series.items():
            for r, series in enumerate(runs):
                entries[f"stats/{part}/{metric}/run{r}"] = np.array(series)
        for part, runs in self.record.times.items():
            for r, series in enumerate(runs):
                entries[f"stats/{part}/per_image_time_s/run{r}"] = np.array(series)
        for (part, metric), best in self.best.items():
            base = f"best/{part}/{metric}"
            entries[f"{base}/value"] = np.array(best.value)
            entries[f"{base}/run"] = np.array([best.run], dtype=np.uint64)
            entries[f"{base}/epoch"] = np.array([best.epoch], dtype=np.uint64)
            for name, arr in best.params.items():
                entries[f"{base}/param/{name}"] = arr
        checkpoint.save(path, entries)

    @classmethod
    def load(cls, path, net: OpNetwork, split: FoldSplit,
             metrics: list[MetricSpec] | None = None) -> "Trainer":
        """Restore a trainer from an archive into `net`, ready to continue
        training. `path` is the archive's path, or the entries
        checkpoint.load already decoded from it.

        `net` must have the parameters the archive holds: the same names,
        none missing and none extra (CorruptState), the same shapes
        (ShapeMismatch). Metric compute functions cannot live in the
        archive; named builtin metrics are reattached automatically and
        custom ones must be passed back in through `metrics`.
        """
        entries = path if isinstance(path, dict) else checkpoint.load(path)
        for required in ("trainer/config", "trainer/run", "trainer/epoch"):
            if required not in entries:
                raise CorruptState(f"archive lacks required entry {required!r}")
        params = {p.name: p for p in net.parameters()}
        _check_parameter_names(entries, "param/", params)
        cfg = TrainerConfig(**json.loads(entries["trainer/config"].decode()))
        metric_info = json.loads(entries.get("trainer/metrics", b"[]").decode())
        supplied = {m.name: m for m in metrics or []}
        restored_metrics = []
        for name, criterion in metric_info:
            if name == "loss":
                continue
            if name in supplied:
                restored_metrics.append(supplied[name])
            elif name in BUILTIN_METRICS:
                restored_metrics.append(BUILTIN_METRICS[name])
            else:
                raise CorruptState(
                    f"archive references metric {name!r}; pass its MetricSpec "
                    f"to load()"
                )
        config_text = entries.get("config/text")
        trainer = cls(net, split, cfg, restored_metrics,
                      config_text.decode() if config_text else None)
        for name, p in params.items():
            p.assign(Tensor(entries[f"param/{name}"]))
        if "opt/kind" in entries:
            trainer.optimizer = optim.restore_from_entries(entries)
        if "rng/state" in entries:
            state = json.loads(entries["rng/state"].decode())
            rng = _rng_for_run(cfg.seed, 0)
            rng.bit_generator.state = state
            trainer._rng = rng
        trainer._run = int(np.asarray(entries["trainer/run"]).reshape(-1)[0])
        trainer._epoch = int(np.asarray(entries["trainer/epoch"]).reshape(-1)[0])
        trainer.record = _record_from_entries(entries, trainer.partitions,
                                              [m.name for m in trainer.metrics],
                                              split.fold)
        trainer.best = _bests_from_entries(entries)
        for partition, metric in trainer.best:
            _check_parameter_names(entries, f"best/{partition}/{metric}/param/",
                                   params)
        return trainer


def _check_parameter_names(entries: dict, prefix: str, names) -> None:
    """Raise CorruptState naming the first `prefix`<name> entry that the
    archive and the network do not share, the network's names first."""
    stored = {k[len(prefix):] for k in entries if k.startswith(prefix)}
    for name in list(names) + sorted(stored):
        if (name in names) != (name in stored):
            where = "network" if name in names else "archive"
            raise CorruptState(
                f"parameter entry {prefix + name!r} is only in the {where}")


def _record_from_entries(entries: dict, partitions: list[str],
                         metric_names: list[str], fold: int) -> TrainingRecord:
    stored = json.loads(entries.get("trainer/partitions", b"null").decode())
    if stored:
        partitions = stored
    criteria = dict(json.loads(entries.get("trainer/metrics", b"[]").decode()))
    record = TrainingRecord(partitions, metric_names, fold, criteria or None)
    record.run_status = json.loads(entries.get("trainer/status", b"[]").decode())
    runs = len(record.run_status)
    for r in range(runs):
        for key in record.series:
            part, metric = key
            data = entries.get(f"stats/{part}/{metric}/run{r}")
            record.series[key].append(
                [] if data is None else [float(v) for v in np.asarray(data)])
        for part in partitions:
            data = entries.get(f"stats/{part}/per_image_time_s/run{r}")
            record.times[part].append(
                [] if data is None else [float(v) for v in np.asarray(data)])
    return record


def _bests_from_entries(entries: dict) -> dict[tuple[str, str], BestEntry]:
    bests: dict[tuple[str, str], BestEntry] = {}
    value_keys = [k for k in entries if k.startswith("best/")
                  and k.endswith("/value")]
    for key in value_keys:
        parts = key.split("/")
        partition, metric = parts[1], parts[2]
        base = f"best/{partition}/{metric}"
        params = {}
        prefix = f"{base}/param/"
        for name, arr in entries.items():
            if name.startswith(prefix):
                params[name[len(prefix):]] = np.array(arr, dtype=np.float64)
        bests[(partition, metric)] = BestEntry(
            value=float(np.asarray(entries[key]).reshape(())),
            run=int(np.asarray(entries[f"{base}/run"]).reshape(-1)[0]),
            epoch=int(np.asarray(entries[f"{base}/epoch"]).reshape(-1)[0]),
            params=params,
        )
    return bests


# --- CSV export ---

def _fmt(value: float) -> str:
    """17 significant digits, '.' decimal separator: round-trips float64."""
    return "%.17g" % value


def best_series_value(record: TrainingRecord, partition: str,
                      metric: str) -> float:
    """Best value of one metric series across all runs and epochs."""
    pick = max if record.criteria.get(metric, "max") == "max" else min
    values = [v for run in record.series[(partition, metric)] for v in run]
    if not values:
        return math.nan
    return pick(values)


@contextmanager
def _atomic_csv(path: Path):
    """A csv writer whose rows replace the file at path in one step when
    the block completes, and are dropped if it raises."""
    buf = io.StringIO(newline="")
    yield csv.writer(buf)
    checkpoint.write_atomic(path, buf.getvalue().encode())


def export_stats(records, out_dir) -> list[Path]:
    """Write per-partition CSV series and a fold summary.

    Accepts one record or a sequence of per-fold records. Every partition
    of every fold gets "<partition>_fold<id>.csv" with columns
    run, epoch, loss, <other metrics...>, per_image_time_s; "summary.csv"
    tabulates the best value per (partition, metric) for each fold plus
    their mean and the mean per-image training time.
    """
    if isinstance(records, TrainingRecord):
        records = [records]
    records = list(records)
    if not records:
        raise ValueError("no records to export")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for rec in records:
        for part in rec.partitions:
            path = out / f"{part}_fold{rec.fold}.csv"
            with _atomic_csv(path) as writer:
                writer.writerow(["run", "epoch"] + rec.metric_names
                                + ["per_image_time_s"])
                for r in range(rec.run_count()):
                    for e in range(len(rec.times[part][r])):
                        row = [str(r), str(e)]
                        row += [_fmt(rec.series[(part, m)][r][e])
                                for m in rec.metric_names]
                        row.append(_fmt(rec.times[part][r][e]))
                        writer.writerow(row)
            written.append(path)
    summary = out / "summary.csv"
    first = records[0]
    fold_ids = [rec.fold for rec in records]
    with _atomic_csv(summary) as writer:
        writer.writerow(["partition", "metric"]
                        + [f"fold_{f}" for f in fold_ids]
                        + ["mean", "mean_per_image_time_s"])
        for part in first.partitions:
            for metric in first.metric_names:
                values = [best_series_value(rec, part, metric)
                          for rec in records]
                times = [
                    float(np.mean([t for run in rec.times[part] for t in run]))
                    for rec in records if any(rec.times[part])
                ]
                row = [part, metric] + [_fmt(v) for v in values]
                row.append(_fmt(float(np.mean(values))))
                row.append(_fmt(float(np.mean(times)) if times else math.nan))
                writer.writerow(row)
    written.append(summary)
    return written
