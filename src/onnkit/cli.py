"""Command-line front end: train, eval, gradcheck, describe.

Configuration is INI-like text with three sections:

  [network]   in_channels, tier_sizes, kernel_sizes, operators,
              sampling_factors, k_sin, k_chirp, cut, init, init_bound
  [trainer]   num_epochs, num_runs, optimizer, lr, momentum, beta1, beta2,
              eps, lr_decay, batch_size, seed, model_name, metrics
  [data]      task, path, count, size, channels, folds, val_fraction, seed

The keys are the fields of NetworkConfig, TrainerConfig and DataConfig
(plus metrics, a field of FullConfig): a missing key takes its field's
default, and one whose field has none is required. No sampling_factors
means 1 for every tier.

Lists are comma-separated. The operators key separates tiers with '/';
each tier holds either one operator set index (shared by all its blocks)
or one index per block, e.g. "operators = 4 / 0,13 / 3". Comments are
whole lines starting with '#' or ';'; a value holding whitespace followed
by '#' or ';' is rejected. Each of the four config dataclasses is frozen
and checks its section's rules when it is built (BrokenRule "<section>:
<key> <rule>"), so a config given to a command, the --seed and --folds
overrides (dataclasses.replace) and an archived trainer/config meet the
rules the text does; parse_config adds the failing key's line. The metrics
key's rules are trainer.resolve_metrics, which a Trainer's specs and an
archived trainer/metrics go through too, with the same texts. Operator
set indices are checked against the library when the text is parsed and
when OpNetwork or gradcheck decodes them. A tier chain not mapping the
[channels, size, size] images onto targets of that shape is a config error.

train archives the effective configuration (the file's values with the
overrides applied, rendered by format_config) in every fold's checkpoint;
eval builds the network and fold split from --config, else from that one,
with the overrides applied too, and restores the archive into it.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime failure.
Errors print one line to stderr: "error: <domain>: <message>".
"""
from __future__ import annotations

import argparse
import functools
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import get_args, get_origin

import numpy as np

from . import checkpoint, dataio, oplib, patchops
from .errors import (
    BrokenRule,
    NonFiniteLoss,
    OnnkitError,
    ParseError,
    TooFewSamples,
    UnfitNetwork,
    ValidationError,
)
from .network import (NetworkConfig, OpNetwork, check_operator_indices,
                      check_operator_set_gradients)
from .oplib import OperatorSetLibrary, register_builtin_library
from .tensor import Tensor
from .trainer import (
    BUILTIN_METRICS,
    LOSS_METRIC,
    PARTITIONS,
    Trainer,
    TrainerConfig,
    export_stats,
    resolve_metrics,
)


@dataclass(frozen=True, kw_only=True)
class DataConfig:
    """The [data] keys. Built, it holds each field's annotated type and the
    section's rules, else BrokenRule("data", field, rule)."""
    task: str
    path: str | None = None
    count: int = 64
    size: int = 16
    channels: int = 1
    folds: int = 1
    val_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        checkpoint.check_types(self, "data")
        known_tasks = dataio.SYNTHETIC_TASKS + ("folder",)
        if self.task not in known_tasks:
            raise BrokenRule("data", "task", f"must be one of {', '.join(known_tasks)}")
        if self.task == "folder" and not self.path:
            raise BrokenRule("data", "path", "is required when task = folder")
        for key, least in (("count", 1), ("size", 1), ("channels", 1),
                           ("folds", 1), ("seed", 0)):
            if getattr(self, key) < least:
                raise BrokenRule("data", key, f"must be at least {least}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise BrokenRule("data", "val_fraction", "must be in [0, 1)")


@dataclass(frozen=True)
class FullConfig:
    """The three sections and the metrics key. Built, metrics is a list of
    (name, criterion) pairs keeping trainer.resolve_metrics' rules, and
    the data has the network's input channels."""
    network: NetworkConfig
    trainer: TrainerConfig
    data: DataConfig
    metrics: list[tuple[str, str]] = field(default_factory=list)

    def __post_init__(self):
        if not checkpoint.holds(self.metrics, list[tuple[str, str]]):
            raise BrokenRule("trainer", "metrics", "must be a list of (name, "
                             f"criterion) pairs, got {self.metrics!r}")
        resolve_metrics(self.metrics)
        if self.data.channels != self.network.in_channels:
            raise BrokenRule("data", "channels", f"is {self.data.channels}, "
                             f"network in_channels is {self.network.in_channels}")


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


def _convert(section: str, key: str, text: str, kind):
    """A key's text as a value of its field's type."""
    if kind == list[list[int]]:  # operators: tiers on '/', indices on ','
        tiers = []
        for t, tier in enumerate(text.split("/")):
            items = [s.strip() for s in tier.split(",") if s.strip()]
            if not items:
                raise BrokenRule(section, key, f"tier {t} has no operator set index")
            try:
                tiers.append([int(s) for s in items])
            except ValueError:
                raise BrokenRule(section, key,
                                 f"tier {t} holds a non-integer index") from None
        return tiers
    if get_origin(kind) is list:
        items = [s.strip() for s in text.split(",") if s.strip()]
        if not items:
            raise BrokenRule(section, key, "must hold at least one value")
        return [_convert(section, key, s, *get_args(kind)) for s in items]
    try:
        value = kind(text) if kind in (int, float) else text
    except ValueError:
        raise BrokenRule(section, key,
                         f"must be a {kind.__name__}, got {text!r}") from None
    if value != value:  # NaN
        raise BrokenRule(section, key, f"must be a number, got {text!r}")
    return value


def _build(sections: dict[str, dict[str, _Raw]], section: str, schema,
           *extra: str):
    """The schema instance of a section's keys, each converted to its
    field's type; an absent key takes its field's default. Then the keys
    neither a field nor in extra are rejected."""
    raw = sections.get(section, {})
    kinds = checkpoint.type_hints(schema)
    values = {}
    for f in fields(schema):
        if f.name in raw:
            values[f.name] = _convert(section, f.name, raw[f.name].value,
                                      kinds[f.name])
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValidationError(f"{section}: missing required key {f.name!r}")
    built = schema(**values)
    for key, entry in raw.items():
        if key not in kinds and key not in extra:
            raise ValidationError(
                f"{section}: line {entry.line}: unknown key {key!r}")
    return built


def parse_config(text: str,
                 library: OperatorSetLibrary | None = None) -> FullConfig:
    """Parse configuration text into a FullConfig whose operator set
    indices library decodes; a broken rule names the key's line."""
    lib = library or register_builtin_library()
    sections = _parse_sections(text)
    if "network" not in sections:
        raise ValidationError("network: missing section [network]")
    try:
        network = _build(sections, "network", NetworkConfig)
        check_operator_indices(network, lib)
        trainer = _build(sections, "trainer", TrainerConfig, "metrics")
        metrics: list[tuple[str, str]] = []
        raw = sections.get("trainer", {}).get("metrics")
        items = _convert("trainer", "metrics", raw.value, list[str]) if raw else []
        for item in items:  # an empty criterion is the metric's own
            name, _, crit = map(str.strip, item.partition(":"))
            spec = LOSS_METRIC if name == "loss" else BUILTIN_METRICS.get(name)
            metrics.append((name, crit or (spec.criterion if spec else "")))
        data = _build(sections, "data", DataConfig)
        return FullConfig(network, trainer, data, metrics)
    except BrokenRule as e:
        entry = sections.get(e.section, {}).get(e.key)
        if entry is None:
            raise
        raise ValidationError(f"{e.section}: line {entry.line}: {e.key} "
                              f"{e.rule}") from None


def format_config(cfg: FullConfig) -> str:
    """Render a configuration as canonical text; parse() round-trips it. A
    str field the text cannot hold raises ValidationError."""
    lines = []
    for name in _SECTIONS:
        section = getattr(cfg, name)
        lines.append(f"[{name}]")
        for f in fields(section):
            value = getattr(section, f.name)
            if f.name == "operators":
                value = " / ".join(",".join(map(str, tier)) for tier in value)
            elif isinstance(value, list):
                value = ", ".join(map(str, value))
            elif isinstance(value, str) and (len(value.splitlines()) > 1 or re.search(
                    r"^\s|\s$|(^|\s)[#;]", value)):  # line break, end space, comment
                raise ValidationError(f"{name}: {f.name} {value!r} cannot be "
                                      "written as config text")
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
    return OpNetwork(cfg.network, library)


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


def _fold_seed(master: int, fold: int) -> int:
    ss = np.random.SeedSequence(entropy=master, spawn_key=(fold,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# --- commands ---

def cmd_describe(cfg: FullConfig, library: OperatorSetLibrary | None = None,
                 stream=None) -> int:
    stream = stream or sys.stdout
    net = network_from_config(cfg, library)
    size = cfg.data.size
    images = (cfg.data.channels, size, size)
    net.check_fit(images, images)
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
        # the pool sees the tier's input extents; a median pools a window more
        # than half padding to 0 for every input if its nodal op maps 0 to 0
        plan = patchops.get_plan(*(flow[t - 1] if t else (size, size)), *tier.kernel)
        entries = tier.in_channels * plan.patch_count * plan.patch_size
        padded = (plan.index == plan.patch_count).sum(axis=1) * 2 > plan.patch_size
        print(
            f"  per sample: patch matrix {8 * entries} bytes, "
            f"{tier.size * entries} nodal evaluations, {padded.sum()} of "
            f"{plan.patch_count} windows more than half zero padding",
            file=stream,
        )
        if padded.all() and any(g.pool.select == "median" and g.nodal in
                                oplib.BUILTIN_NODAL for g, _, _ in tier.groups):
            print("  every window is more than half zero padding: the median "
                  "pool outputs 0 for every input", file=stream)
    print(f"parameters: {net.parameter_count()}", file=stream)
    return 0


def _train_one_fold(cfg: FullConfig, text: str, library, split, seed):
    """The fold's trainer, and the error if every one of its runs diverged."""
    net = network_from_config(cfg, library)
    fold_cfg = replace(cfg.trainer, seed=seed)
    trainer = Trainer(net, split, fold_cfg, resolve_metrics(cfg.metrics), text)
    try:
        trainer.train()
    except NonFiniteLoss as e:
        return trainer, e
    return trainer, None


def cmd_train(cfg: FullConfig, out_dir, jobs: int = 1,
              library: OperatorSetLibrary | None = None) -> int:
    lib = library or register_builtin_library()
    text = format_config(cfg)
    splits = _splits_from_config(cfg)
    seeds = [_fold_seed(cfg.trainer.seed, s.fold) for s in splits]
    train = functools.partial(_train_one_fold, cfg, text, lib)
    if jobs > 1 and len(splits) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(train, splits, seeds))
    else:
        results = list(map(train, splits, seeds))
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
    check_operator_indices(cfg.network, lib)
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
    text = checkpoint.read_text(entries, "config/text", None)
    if text is None:
        raise ValidationError(
            "config: checkpoint stores no configuration; pass --config")
    return text


def cmd_eval(ckpt_path, cfg: FullConfig | None = None,
             library: OperatorSetLibrary | None = None, stream=None) -> int:
    """Re-evaluate every archived best. Each distinct (partition, parameter
    state) runs once, and every metric's recorded value is checked against
    that state's result; a state is its parameters' exact bytes, so bests
    that share a run and epoch but not their parameters each run. ckpt_path
    is an archive path or the entries checkpoint.load decoded from one; cfg
    defaults to the configuration the archive holds."""
    stream = stream or sys.stdout
    lib = library or register_builtin_library()
    entries = (ckpt_path if isinstance(ckpt_path, dict)
               else checkpoint.load(ckpt_path))
    if cfg is None:
        cfg = parse_config(_archived_config_text(entries), lib)
    splits = _splits_from_config(cfg)
    fold = checkpoint.read_scalar(entries, "trainer/fold", default=0)
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
    params = trainer.net.parameters()
    results: dict[tuple, dict[str, float]] = {}
    mismatches = 0
    for (partition, metric), best in sorted(trainer.best.items()):
        state = (partition, *(best.params[p.name].tobytes() for p in params))
        if state not in results:
            for p in params:
                p.assign(Tensor(best.params[p.name]))
            results[state] = trainer.evaluate(partition)
        value = results[state][metric]
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
        cfg = replace(cfg, trainer=replace(cfg.trainer, seed=args.seed))
    if args.folds is not None:
        cfg = replace(cfg, data=replace(cfg.data, folds=args.folds))
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
    except UnfitNetwork as e:
        print(f"error: network: {e}", file=sys.stderr)
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
