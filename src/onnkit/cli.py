"""Command-line front end: train, eval, gradcheck, describe.

Configuration is INI-like text with three sections:

  [network]   in_channels, tier_sizes, kernel_sizes, operators,
              sampling_factors, k_sin, k_chirp, cut, init, init_bound
  [trainer]   num_epochs, num_runs, optimizer, lr, momentum, beta1, beta2,
              eps, lr_decay, batch_size, seed, model_name, metrics
  [data]      task, path, count, size, channels, folds, val_fraction, seed

The keys are the fields of NetworkConfig, TrainerConfig and DataConfig
(plus metrics): a missing key takes its field's default, and one whose
field has none is required. No sampling_factors means 1 for every tier.

Lists are comma-separated. The operators key separates tiers with '/';
each tier holds either one operator set index (shared by all its blocks)
or one index per block, e.g. "operators = 4 / 0,13 / 3". Comments are
whole lines starting with '#' or ';'; a value holding whitespace followed
by '#' or ';' is rejected. Validation failures name the offending line.

train archives the effective configuration (the file's values with the
--seed and --folds overrides applied, rendered by format_config) in every
fold's checkpoint. eval builds the network and the fold split from one
configuration, --config if given, else the archived one (--seed and
--folds apply to either), and restores the archived state into that
network.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime failure.
Errors print one line to stderr: "error: <domain>: <message>".
"""
from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import checkpoint, dataio
from .errors import (
    NonFiniteLoss,
    OnnkitError,
    ParseError,
    TooFewSamples,
    UnknownOptimizer,
    ValidationError,
)
from .network import OpNetwork, build_network, check_operator_set_gradients
from .oplib import OperatorConstants, OperatorSetLibrary, register_builtin_library
from .tensor import Tensor
from .trainer import (
    BUILTIN_METRICS,
    PARTITIONS,
    MetricSpec,
    Trainer,
    TrainerConfig,
    export_stats,
)


@dataclass(kw_only=True)
class NetworkConfig:
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


@dataclass(kw_only=True)
class DataConfig:
    task: str
    path: str | None = None
    count: int = 64
    size: int = 16
    channels: int = 1
    folds: int = 1
    val_fraction: float = 0.0
    seed: int = 0


@dataclass
class FullConfig:
    network: NetworkConfig
    trainer: TrainerConfig
    data: DataConfig
    metrics: list[tuple[str, str]] = field(default_factory=list)


# --- raw INI-like parsing, tracking line numbers ---

_SECTIONS = ("network", "trainer", "data")

@dataclass(frozen=True)
class _Raw:
    value: str
    line: int


def _parse_sections(text: str) -> dict[str, dict[str, _Raw]]:
    sections: dict[str, dict[str, _Raw]] = {}
    current: str | None = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ParseError(f"config: line {lineno}: empty section name")
            if current not in _SECTIONS:
                raise ValidationError(
                    f"config: line {lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ParseError(
                f"config: line {lineno}: expected 'key = value', got {line!r}"
            )
        if current is None:
            raise ParseError(
                f"config: line {lineno}: key outside any [section]"
            )
        key, _, value = line.partition("=")
        if re.search(r"\s[#;]", value):
            raise ParseError(
                f"config: line {lineno}: inline comment in {value.strip()!r}; "
                f"put comments on their own line"
            )
        key = key.strip()
        if not key:
            raise ParseError(f"config: line {lineno}: empty key")
        if key in sections[current]:
            raise ParseError(
                f"config: line {lineno}: duplicate key {key!r} in [{current}]"
            )
        sections[current][key] = _Raw(value.strip(), lineno)
    return sections


# resolving the string annotations is slow, and a schema's never change
_type_hints = functools.cache(get_type_hints)


class _Section:
    """Typed access to one section's raw values, with line-tagged errors;
    the schema dataclass's fields give each key's type and default."""

    def __init__(self, name: str, raw: dict[str, _Raw], schema):
        self.name = name
        self.raw = raw
        self.schema = schema
        self.fields = {f.name: f for f in fields(schema)}
        self.kinds = _type_hints(schema)
        self.seen: set[str] = set()

    def fail(self, key: str, message: str):
        entry = self.raw.get(key)
        where = f"line {entry.line}: " if entry else ""
        raise ValidationError(f"{self.name}: {where}{key} {message}")

    def _convert(self, key: str, text: str, kind):
        try:
            if kind is int:
                return int(text)
            if kind is float:
                value = float(text)
                if math.isnan(value):
                    self.fail(key, f"must be a number, got {text!r}")
                return value
            return text
        except ValueError:
            self.fail(key, f"must be a {kind.__name__}, got {text!r}")

    def text(self, key: str) -> str | None:
        """The key's raw value, None when it is absent and may be."""
        self.seen.add(key)
        entry = self.raw.get(key)
        f = self.fields.get(key)
        if (entry is None and f is not None and f.default is MISSING
                and f.default_factory is MISSING):
            raise ValidationError(f"{self.name}: missing required key {key!r}")
        return None if entry is None else entry.value

    def items(self, key: str) -> list[str]:
        """The key's comma-separated items, none when it is absent."""
        text = self.text(key)
        if text is None:
            return []
        items = [t.strip() for t in text.split(",") if t.strip()]
        if not items:
            self.fail(key, "must hold at least one value")
        return items

    def get(self, key: str):
        """The key's value converted to its field's type, or its default."""
        kind = self.kinds[key]
        if get_origin(kind) is list:
            items = self.items(key)
            if items:
                (item_kind,) = get_args(kind)
                return [self._convert(key, t, item_kind) for t in items]
        else:
            text = self.text(key)
            if text is not None:
                return self._convert(key, text, kind)
        f = self.fields[key]
        return f.default if f.default_factory is MISSING else f.default_factory()

    def build(self, **checked):
        """The schema instance of the checked values, reading every other
        key in field order."""
        rest = {k: self.get(k) for k in self.fields if k not in checked}
        return self.schema(**checked, **rest)

    def check_unknown(self):
        for key, entry in self.raw.items():
            if key not in self.seen:
                raise ValidationError(
                    f"{self.name}: line {entry.line}: unknown key {key!r}"
                )


def _parse_operators(section: _Section, key: str,
                     tier_sizes: list[int], library_size: int) -> list[list[int]]:
    tiers = [t.strip() for t in section.text(key).split("/")]
    if len(tiers) != len(tier_sizes):
        section.fail(key, f"names {len(tiers)} tiers, network has {len(tier_sizes)}")
    result = []
    for t, (spec_text, size) in enumerate(zip(tiers, tier_sizes)):
        items = [s.strip() for s in spec_text.split(",") if s.strip()]
        if not items:
            section.fail(key, f"tier {t} has no operator set index")
        try:
            indices = [int(s) for s in items]
        except ValueError:
            section.fail(key, f"tier {t} holds a non-integer index")
        if len(indices) not in (1, size):
            section.fail(
                key,
                f"tier {t} needs 1 or {size} indices, has {len(indices)}",
            )
        for idx in indices:
            if not 0 <= idx < library_size:
                section.fail(
                    key,
                    f"index {idx} out of range [0, {library_size - 1}]",
                )
        result.append(indices)
    return result


def parse_config(text: str,
                 library: OperatorSetLibrary | None = None) -> FullConfig:
    """Parse and validate configuration text."""
    lib = library or register_builtin_library()
    sections = _parse_sections(text)
    if "network" not in sections:
        raise ValidationError("network: missing section [network]")

    net_s = _Section("network", sections["network"], NetworkConfig)
    in_channels = net_s.get("in_channels")
    if in_channels < 1:
        net_s.fail("in_channels", "must be at least 1")
    tier_sizes = net_s.get("tier_sizes")
    if any(s < 1 for s in tier_sizes):
        net_s.fail("tier_sizes", "entries must be at least 1")
    kernel_sizes = net_s.get("kernel_sizes")
    if len(kernel_sizes) != len(tier_sizes):
        net_s.fail("kernel_sizes",
                   f"has {len(kernel_sizes)} entries, tier_sizes has {len(tier_sizes)}")
    for k in kernel_sizes:
        if k < 1 or k % 2 == 0:
            net_s.fail("kernel_sizes", f"entries must be odd and positive, got {k}")
    operators = _parse_operators(net_s, "operators", tier_sizes, len(lib))
    sampling = net_s.get("sampling_factors") or [1] * len(tier_sizes)
    if len(sampling) != len(tier_sizes):
        net_s.fail("sampling_factors",
                   f"has {len(sampling)} entries, tier_sizes has {len(tier_sizes)}")
    if any(s == 0 for s in sampling):
        net_s.fail("sampling_factors", "entries must be nonzero")
    init = net_s.get("init")
    if init not in ("uniform", "fan_in"):
        net_s.fail("init", f"must be 'uniform' or 'fan_in', got {init!r}")
    network = net_s.build(in_channels=in_channels, tier_sizes=tier_sizes,
                          kernel_sizes=kernel_sizes, operators=operators,
                          sampling_factors=sampling, init=init)
    if network.cut == 0:
        net_s.fail("cut", "must be nonzero")
    # weights are drawn from U(-b, b), whose width 2b must be a finite float
    if not 0 <= network.init_bound <= sys.float_info.max / 2:
        net_s.fail("init_bound", f"must be in [0, {sys.float_info.max / 2!r}]")
    net_s.check_unknown()

    tr_s = _Section("trainer", sections.get("trainer", {}), TrainerConfig)
    trainer = tr_s.build()
    for key, least in (("num_epochs", 1), ("num_runs", 1), ("batch_size", 1),
                       ("seed", 0)):
        if getattr(trainer, key) < least:
            tr_s.fail(key, f"must be at least {least}")
    if trainer.lr <= 0:
        tr_s.fail("lr", "must be positive")
    metrics: list[tuple[str, str]] = []
    for item in tr_s.items("metrics"):
        name, _, crit = item.partition(":")
        name = name.strip()
        crit = crit.strip()
        if name == "loss":
            continue
        if name not in BUILTIN_METRICS:
            tr_s.fail("metrics",
                      f"unknown metric {name!r}; builtin: "
                      f"{', '.join(sorted(BUILTIN_METRICS))}")
        if not crit:
            crit = BUILTIN_METRICS[name].criterion
        if crit not in ("max", "min"):
            tr_s.fail("metrics", f"criterion must be max or min, got {crit!r}")
        metrics.append((name, crit))
    tr_s.check_unknown()

    da_s = _Section("data", sections.get("data", {}), DataConfig)
    task = da_s.get("task")
    known_tasks = dataio.SYNTHETIC_TASKS + ("folder",)
    if task not in known_tasks:
        da_s.fail("task", f"must be one of {', '.join(known_tasks)}")
    data = da_s.build(task=task)
    if task == "folder" and not data.path:
        da_s.fail("path", "is required when task = folder")
    for key, least in (("count", 1), ("size", 1), ("channels", 1), ("folds", 1),
                       ("seed", 0)):
        if getattr(data, key) < least:
            da_s.fail(key, f"must be at least {least}")
    if not 0.0 <= data.val_fraction < 1.0:
        da_s.fail("val_fraction", "must be in [0, 1)")
    da_s.check_unknown()

    if data.channels != network.in_channels:
        da_s.fail("channels",
                  f"is {data.channels}, network in_channels is {network.in_channels}")
    return FullConfig(network=network, trainer=trainer, data=data, metrics=metrics)


def format_config(cfg: FullConfig) -> str:
    """Render a configuration as canonical text; parse() round-trips it."""
    lines = []
    for name in _SECTIONS:
        section = getattr(cfg, name)
        lines.append(f"[{name}]")
        for f in fields(section):
            value = getattr(section, f.name)
            if f.name == "operators":
                value = " / ".join(",".join(map(str, tier)) for tier in value)
            elif isinstance(value, list):
                # an empty list is an absent key: sampling_factors' 1 per tier
                value = ", ".join(map(str, value)) or None
            if value is not None:
                lines.append(f"{f.name} = {value}")
        if name == "trainer" and cfg.metrics:
            lines.append(
                "metrics = " + ", ".join(f"{m}:{c}" for m, c in cfg.metrics))
        lines.append("")
    return "\n".join(lines)


# --- building pieces from a parsed config ---

def network_from_config(cfg: FullConfig,
                        library: OperatorSetLibrary | None = None) -> OpNetwork:
    lib = library or register_builtin_library()
    n = cfg.network
    constants = OperatorConstants(k_sin=n.k_sin, k_chirp=n.k_chirp, cut=n.cut)
    return build_network(n.in_channels, n.tier_sizes, n.kernel_sizes,
                         n.operators, n.sampling_factors, lib, constants,
                         (n.init, n.init_bound))


def dataset_from_config(cfg: FullConfig) -> dataio.PairedImageDataset:
    # a bad path or broken folder is a configuration problem, not a
    # runtime one: surface it under the data domain with exit code 1
    d = cfg.data
    try:
        if d.task == "folder":
            return dataio.load_image_folder(d.path, (d.size, d.size))
        return dataio.make_synthetic_task(d.task, d.count, d.size, d.seed,
                                          d.channels)
    except OnnkitError as e:
        raise ValidationError(f"data: {e}") from e


def _splits_from_config(cfg: FullConfig) -> list[dataio.FoldSplit]:
    # like an unreadable dataset, data that cannot be cut into the
    # configured folds is a configuration problem (exit code 1)
    d = cfg.data
    dataset = dataset_from_config(cfg)
    try:
        return dataio.partition(dataset, d.folds, d.val_fraction, d.seed)
    except TooFewSamples as e:
        raise ValidationError(f"data: {e}") from e


def metrics_from_config(cfg: FullConfig) -> list[MetricSpec]:
    out = []
    for name, crit in cfg.metrics:
        base = BUILTIN_METRICS[name]
        out.append(MetricSpec(base.name, base.compute, crit))
    return out


def _fold_seed(master: int, fold: int) -> int:
    ss = np.random.SeedSequence(entropy=master, spawn_key=(fold,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# --- commands ---

def cmd_describe(cfg: FullConfig, library: OperatorSetLibrary | None = None,
                 stream=None) -> int:
    stream = stream or sys.stdout
    lib = library or register_builtin_library()
    net = network_from_config(cfg, lib)
    size = cfg.data.size
    flow = net.spatial_flow((size, size))
    print(f"input: {net.in_channels} x {size} x {size}", file=stream)
    for t, tier in enumerate(net.tiers):
        names = sorted({b.opset.names for b in tier.blocks})
        ops = "; ".join("(" + ", ".join(n) + ")" for n in names)
        mm, nn = flow[t]
        print(
            f"tier {t}: {tier.size} block(s), kernel "
            f"{tier.kernel[0]}x{tier.kernel[1]}, operators {ops}, "
            f"sampling {tier.sampling}, output {tier.size} x {mm} x {nn}",
            file=stream,
        )
    print(f"parameters: {net.parameter_count()}", file=stream)
    return 0


def _train_one_fold(cfg: FullConfig, split, library, seed):
    """The fold's trainer, and the error if every one of its runs diverged."""
    net = network_from_config(cfg, library)
    fold_cfg = replace(cfg.trainer, seed=seed)
    trainer = Trainer(net, split, fold_cfg, metrics_from_config(cfg),
                      format_config(cfg))
    try:
        trainer.train()
    except NonFiniteLoss as e:
        return trainer, e
    return trainer, None


def cmd_train(cfg: FullConfig, out_dir, jobs: int = 1,
              library: OperatorSetLibrary | None = None) -> int:
    lib = library or register_builtin_library()
    splits = _splits_from_config(cfg)
    seeds = [_fold_seed(cfg.trainer.seed, s.fold) for s in splits]
    if jobs > 1 and len(splits) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(
                lambda args: _train_one_fold(cfg, args[0], lib, args[1]),
                zip(splits, seeds)))
    else:
        results = [_train_one_fold(cfg, s, lib, seed)
                   for s, seed in zip(splits, seeds)]
    trainers = [trainer for trainer, _ in results]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for trainer in trainers:
        trainer.save_all(out / f"fold{trainer.split.fold}.ckpt")
    export_stats([t.record for t in trainers], out)
    for trainer in trainers:
        for status in trainer.record.run_status:
            if status.startswith("aborted"):
                print(f"warning: fold {trainer.split.fold} {status}",
                      file=sys.stderr)
    for trainer, error in results:
        if error is not None:
            # every fold's outputs are written; the session still failed
            raise NonFiniteLoss(f"fold {trainer.split.fold}: {error}")
    return 0


def cmd_gradcheck(cfg: FullConfig,
                  library: OperatorSetLibrary | None = None,
                  stream=None) -> int:
    stream = stream or sys.stdout
    lib = library or register_builtin_library()
    indices = sorted({i for tier in cfg.network.operators for i in tier})
    failures = 0
    for idx in indices:
        names = ", ".join(lib.decode(idx).names)
        report = check_operator_set_gradients(
            lib, idx, seed=cfg.trainer.seed,
            in_channels=cfg.network.in_channels)
        verdict = "PASS" if report.passed else "FAIL"
        if not report.passed:
            failures += 1
        print(
            f"{verdict} set {idx} ({names}): max rel err {report.worst():.3e}, "
            f"ties skipped {report.tie_coords}",
            file=stream,
        )
    print(f"{len(indices) - failures}/{len(indices)} operator sets passed",
          file=stream)
    return 0 if failures == 0 else 2


def _archived_config_text(entries: dict) -> str:
    text = entries.get("config/text")
    if text is None:
        raise ValidationError(
            "config: checkpoint stores no configuration; pass --config")
    return text.decode()


def cmd_eval(ckpt_path, cfg: FullConfig | None = None,
             library: OperatorSetLibrary | None = None, stream=None) -> int:
    """Re-evaluate every archived best. ckpt_path is an archive path or the
    entries checkpoint.load decoded from one; cfg defaults to the
    configuration the archive holds."""
    stream = stream or sys.stdout
    lib = library or register_builtin_library()
    entries = (ckpt_path if isinstance(ckpt_path, dict)
               else checkpoint.load(ckpt_path))
    if cfg is None:
        cfg = parse_config(_archived_config_text(entries), lib)
    splits = _splits_from_config(cfg)
    fold = int(np.asarray(entries.get("trainer/fold", np.array([0]))).reshape(-1)[0])
    if fold >= len(splits):
        raise ValidationError(
            f"config: checkpoint holds fold {fold}, but the configuration "
            f"partitions the data into {len(splits)} fold(s)")
    split = splits[fold]
    for partition in PARTITIONS:
        if (len(getattr(split, partition)) == 0
                and any(k.startswith(f"best/{partition}/") for k in entries)):
            raise ValidationError(
                f"config: checkpoint holds bests on the {partition} "
                f"partition, but the configuration leaves it empty")
    trainer = Trainer.load(entries, network_from_config(cfg, lib), split)
    mismatches = 0
    for (partition, metric), best in sorted(trainer.best.items()):
        for p in trainer.net.parameters():
            p.assign(Tensor(best.params[p.name]))
        value = trainer.evaluate(partition)[metric]
        same = value == best.value
        if not same:
            mismatches += 1
        print(
            f"fold {fold} {partition} {metric}: recorded {best.value:.17g} "
            f"(run {best.run}, epoch {best.epoch}), re-evaluated "
            f"{value:.17g}, {'match' if same else 'MISMATCH'}",
            file=stream,
        )
    return 0 if mismatches == 0 else 2


# --- argument parsing and entry point ---

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="onnkit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required,
                       help="path to configuration text")
        p.add_argument("--seed", type=int, default=None,
                       help="override the trainer seed")
        p.add_argument("--folds", type=int, default=None,
                       help="override the fold count")

    p_train = sub.add_parser("train", help="train a network")
    common(p_train)
    p_train.add_argument("--out", default="out", help="output directory")
    p_train.add_argument("--jobs", type=int, default=1,
                         help="parallel fold workers")

    p_eval = sub.add_parser("eval", help="re-evaluate archived best states")
    p_eval.add_argument("--ckpt", required=True, help="checkpoint archive")
    common(p_eval, config_required=False)

    p_grad = sub.add_parser("gradcheck",
                            help="finite-difference check configured operator sets")
    common(p_grad)

    p_desc = sub.add_parser("describe", help="print network structure")
    common(p_desc)
    return parser


def _load_config(args, archive: dict | None = None) -> FullConfig:
    """The --config file, else the configuration the decoded archive
    holds, with the --seed and --folds overrides applied."""
    if args.config:
        path = Path(args.config)
        try:
            text = path.read_text()
        except OSError as e:
            raise ParseError(f"config: cannot read {path}: {e}") from e
    else:
        text = _archived_config_text(archive)
    cfg = parse_config(text)
    if args.seed is not None:
        if args.seed < 0:
            raise ValidationError("trainer: seed must be at least 0")
        cfg.trainer.seed = args.seed
    if args.folds is not None:
        if args.folds < 1:
            raise ValidationError("data: folds must be at least 1")
        cfg.data.folds = args.folds
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"error: usage: {e}", file=sys.stderr)
        return 1
    try:
        if args.command == "train":
            return cmd_train(_load_config(args), args.out, max(1, args.jobs))
        if args.command == "describe":
            return cmd_describe(_load_config(args))
        if args.command == "gradcheck":
            return cmd_gradcheck(_load_config(args))
        if args.command == "eval":
            entries = checkpoint.load(args.ckpt)
            return cmd_eval(entries, _load_config(args, entries))
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as e:
        print(f"error: usage: {e}", file=sys.stderr)
        return 1
    except UnknownOptimizer as e:
        print(f"error: trainer: {e}", file=sys.stderr)
        return 1
    except (ParseError, ValidationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OnnkitError as e:
        print(f"error: runtime: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
