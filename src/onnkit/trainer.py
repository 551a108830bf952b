"""Multi-run training with metric tracking, bests and checkpointing.

A session runs the configured number of independent runs. Run r resets the
network parameters with seed XOR r and shuffles minibatches with its own
seeded generator, so every run (and every rerun of the session) is exactly
reproducible. Mean squared error is the loss and is always tracked as the
first metric; naming it among the metrics is allowed once, with criterion
min and its own compute. Further metrics are evaluated on every partition
after each epoch. resolve_metrics checks a metric list, wherever it is from.

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
from its own OpNetwork(NetworkConfig(...)) call. A TrainerConfig checks
the [trainer] rules when it is built, so load reports an archived
trainer/config that breaks one as CorruptState naming the entry.
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
from .autograd import Parameter, Tape
from .dataio import FoldSplit, PairedImageDataset
from .errors import (
    BrokenRule,
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


def resolve_metrics(pairs, supplied=()) -> list[MetricSpec]:
    """LOSS_METRIC, then each other (name, criterion) pair with the compute
    function of the supplied, else the built-in, spec of its name. Each
    name is known and named once, each criterion max or min, loss's min,
    and a supplied loss computes LOSS_METRIC's; else BrokenRule."""
    def broken(rule):
        raise BrokenRule("trainer", "metrics", rule)

    if any(m.name == "loss" and m.compute is not LOSS_METRIC.compute
           for m in supplied):
        broken("compute of loss must be LOSS_METRIC's mean squared error")
    known = {**BUILTIN_METRICS, **{m.name: m for m in supplied}}
    named = set()
    for name, crit in pairs:
        if name not in known and name != "loss":
            broken(f"unknown metric {name!r}; builtin: "
                   f"{', '.join(sorted(BUILTIN_METRICS))}")
        if crit not in ("max", "min"):
            broken(f"criterion must be max or min, got {crit!r}")
        if name == "loss" and crit != "min":
            broken(f"criterion of loss must be min, got {crit!r}")
        if name in named:
            broken(f"names {name!r} twice")
        named.add(name)
    return [LOSS_METRIC, *(MetricSpec(name, known[name].compute, crit)
                           for name, crit in pairs if name != "loss")]


@dataclass(frozen=True)
class TrainerConfig:
    """Knobs of one training session, the [trainer] keys but metrics.
    Built, it holds each field's annotated type (all checked first) and
    the section's rules, else BrokenRule("trainer", field, rule)."""

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

    def __post_init__(self):
        checkpoint.check_types(self, "trainer")
        if self.optimizer not in optim.SUPPORTED:
            raise BrokenRule("trainer", "optimizer", "must be one of "
                             f"{', '.join(optim.SUPPORTED)}, got {self.optimizer!r}")
        for key, least in (("num_epochs", 1), ("num_runs", 1), ("batch_size", 1),
                           ("seed", 0), ("momentum", 0), ("eps", 0)):
            if getattr(self, key) < least:
                raise BrokenRule("trainer", key, f"must be at least {least}")
        for key in ("beta1", "beta2"):
            if not 0 <= getattr(self, key) < 1:
                raise BrokenRule("trainer", key, "must be in [0, 1)")
        for key in ("lr", "lr_decay"):
            if getattr(self, key) <= 0:
                raise BrokenRule("trainer", key, "must be positive")


@dataclass
class BestEntry:
    """Best value of one metric on one partition, with provenance."""

    value: float
    run: int
    epoch: int
    params: dict[str, np.ndarray]


class TrainingRecord:
    """Per-epoch series, per-image times and run status of a session,
    for each of its partitions and metrics."""

    def __init__(self, partitions: list[str], metrics: list[MetricSpec],
                 fold: int = 0):
        self.partitions = partitions
        self.metrics = metrics
        self.fold = fold
        self.series: dict[tuple[str, str], list[list[float]]] = {
            (p, m.name): [] for p in partitions for m in metrics
        }
        self.times: dict[str, list[list[float]]] = {p: [] for p in partitions}
        self.run_status: list[str] = []

    @property
    def metric_names(self) -> list[str]:
        return [m.name for m in self.metrics]

    def columns(self) -> dict[str, list[list[float]]]:
        """Each run's series by "<partition>/<metric or per_image_time_s>"."""
        return {**{"/".join(key): runs for key, runs in self.series.items()},
                **{f"{p}/per_image_time_s": runs for p, runs in self.times.items()}}

    def start_run(self) -> None:
        for runs in self.columns().values():
            runs.append([])
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
    """Drives training of one network on one fold split. Its metrics are
    resolve_metrics of the given specs' own (name, criterion) pairs."""

    def __init__(self, net: OpNetwork, split: FoldSplit, cfg: TrainerConfig,
                 metrics: list[MetricSpec] | None = None,
                 config_text: str | None = None):
        if len(split.train) == 0:
            raise ShapeMismatch("training partition is empty")
        self.net = net
        self.split = split
        self.cfg = cfg
        self.config_text = config_text
        metrics = metrics or ()
        self.record = TrainingRecord(
            [p for p in PARTITIONS if len(self._dataset(p)) > 0],
            resolve_metrics([(m.name, m.criterion) for m in metrics], metrics),
            split.fold)
        self.best: dict[tuple[str, str], BestEntry] = {}
        self.optimizer: optim.Optimizer | None = None
        self._rng: np.random.Generator | None = None
        self._run = 0
        self._epoch = 0
        sample_in, sample_out = split.train.pairs[0]
        net.check_fit(sample_in.shape, sample_out.shape)

    @property
    def partitions(self) -> list[str]:
        return self.record.partitions

    def _dataset(self, partition: str) -> PairedImageDataset:
        return getattr(self.split, partition)

    # --- evaluation ---

    def evaluate(self, partition: str) -> dict[str, float]:
        """Loss and metric values of the current parameters on a partition."""
        data = self._dataset(partition)
        x, t = _stack_pairs(data)
        pred = network_forward(self.net, x)
        return {m.name: m.compute(pred, t) for m in self.record.metrics}

    def _update_best(self, partition: str, values: dict[str, float],
                     run: int, epoch: int) -> None:
        for m in self.record.metrics:
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
        batch = self.cfg.batch_size
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
        self.optimizer = optim.make_optimizer(self.cfg.optimizer,
                                              **asdict(self.cfg))
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
            [[m.name, m.criterion] for m in self.record.metrics]).encode()
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
        for column, runs in self.record.columns().items():
            for r, series in enumerate(runs):
                entries[f"stats/{column}/run{r}"] = np.array(series)
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
        """Restore a trainer from an archive, its path or the entries
        checkpoint.load decoded from it, into `net`, ready to continue
        training. `net` changes only once every entry has passed its
        checks: a load that raises leaves it as it was.

        `net` must have the archive's parameters: the same names, none
        missing and none extra (CorruptState), the same shapes
        (ShapeMismatch). Each best and nonempty optimizer slot holds them
        all in those shapes, each best is of a partition and metric the
        archive was trained on, `trainer/config` and `trainer/metrics` keep
        their rules and `split`'s nonempty partitions are the archive's
        (CorruptState). Metric compute functions cannot live in the
        archive: each archived metric keeps its archived criterion and
        takes its compute function from the spec of its name in
        `metrics` (checked before any entry is read), else the builtin one.
        """
        resolve_metrics((), metrics or ())
        entries = path if isinstance(path, dict) else checkpoint.load(path)
        shapes = {p.name: p.value.shape for p in net.parameters()}
        stored = checkpoint.read_arrays(entries, "param/", dict.fromkeys(shapes))
        fields = checkpoint.read_json(entries, "trainer/config", dict)
        try:
            cfg = TrainerConfig(**fields)
        except TypeError as e:
            raise CorruptState(f"entry 'trainer/config' is no TrainerConfig: "
                               f"{e}") from e
        except BrokenRule as e:
            raise CorruptState(f"entry 'trainer/config': {e.key} {e.rule}") from e
        archived = checkpoint.read_json(entries, "trainer/metrics",
                                        list[tuple[str, str]], [])
        try:
            metrics = resolve_metrics(archived, metrics or ())
        except BrokenRule as e:
            raise CorruptState(f"entry 'trainer/metrics': {e.key} {e.rule}") from e
        trainer = cls(net, split, cfg, metrics,
                      checkpoint.read_text(entries, "config/text", None))
        staged = [Parameter(p.name, p.value) for p in net.parameters()]
        for p in staged:
            p.assign(Tensor(stored[p.name]))
        if "opt/kind" in entries:
            trainer.optimizer = optim.restore_from_entries(entries, shapes)
        if "rng/state" in entries:
            rng = _rng_for_run(cfg.seed, 0)
            try:
                rng.bit_generator.state = checkpoint.read_json(
                    entries, "rng/state", dict)
            except (KeyError, OverflowError, TypeError, ValueError) as e:
                raise CorruptState(f"entry 'rng/state' is no PCG64 state: "
                                   f"{e!r}") from e
            trainer._rng = rng
        trainer._run = checkpoint.read_scalar(entries, "trainer/run")
        trainer._epoch = checkpoint.read_scalar(entries, "trainer/epoch")
        _restore_record(trainer.record, entries)
        trainer.best = _bests_from_entries(entries, trainer.record, shapes)
        for p, value in zip(net.parameters(), staged):
            p.value = value.value
        return trainer


def _restore_record(record: TrainingRecord, entries: dict) -> None:
    """Fill a fresh record with the archive's run status and series."""
    stored = (checkpoint.read_json(entries, "trainer/partitions", list[str],
                                   None) or record.partitions)
    for part in dict.fromkeys(record.partitions + stored):
        if (part in stored) != (part in record.partitions):
            where = "archive" if part in stored else "split"
            raise CorruptState(f"the {part} partition is only in the {where}: "
                               f"the archive was trained on {', '.join(stored)}")
    record.run_status = checkpoint.read_json(entries, "trainer/status", list[str], [])
    for r in range(len(record.run_status)):
        for column, runs in record.columns().items():
            runs.append(checkpoint.read_array(
                entries, f"stats/{column}/run{r}", (None,), np.empty(0)).tolist())


def _bests_from_entries(entries: dict, record: TrainingRecord,
                        shapes: dict) -> dict[tuple[str, str], BestEntry]:
    """The bests of the record's (partition, metric) pairs that the archive
    holds; CorruptState names any other best/ entry."""
    bests: dict[tuple[str, str], BestEntry] = {}
    read: set[str] = set()
    for key in record.series:
        base = "best/{}/{}".format(*key)
        if f"{base}/value" not in entries:
            continue
        bests[key] = BestEntry(
            value=checkpoint.read_scalar(entries, f"{base}/value", np.float64),
            run=checkpoint.read_scalar(entries, f"{base}/run"),
            epoch=checkpoint.read_scalar(entries, f"{base}/epoch"),
            params=checkpoint.read_arrays(entries, f"{base}/param/", shapes))
        read.update(f"{base}/{leaf}" for leaf in (
            "value", "run", "epoch", *(f"param/{name}" for name in shapes)))
    stray = sorted(k for k in entries if k.startswith("best/") and k not in read)
    if stray:
        raise CorruptState(f"entry {stray[0]!r} is the best of no partition "
                           f"and metric the archive was trained on")
    return bests


# --- CSV export ---

def _fmt(value: float) -> str:
    """17 significant digits, '.' decimal separator: round-trips float64."""
    return "%.17g" % value


def best_series_value(record: TrainingRecord, partition: str,
                      metric: str) -> float:
    """Best value of one metric series across all runs and epochs."""
    spec = next(m for m in record.metrics if m.name == metric)
    pick = max if spec.criterion == "max" else min
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
    their mean and, for the row's partition, the mean over folds of each
    fold's mean per-image time (the train partition's includes its updates).
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
            times = [
                float(np.mean([t for run in rec.times[part] for t in run]))
                for rec in records if any(rec.times[part])
            ]
            mean_time = _fmt(float(np.mean(times)) if times else math.nan)
            for metric in first.metric_names:
                values = [best_series_value(rec, part, metric)
                          for rec in records]
                row = [part, metric] + [_fmt(v) for v in values]
                row.append(_fmt(float(np.mean(values))))
                row.append(mean_time)
                writer.writerow(row)
    written.append(summary)
    return written
