"""CLI: config grammar, error lines, commands end to end, exit codes."""
import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import onnkit.autograd as ag
import onnkit.checkpoint as ckpt_mod
import onnkit.cli as cli_mod
import onnkit.network as network_mod
import onnkit.trainer as trainer_mod
from onnkit.cli import (
    DataConfig,
    FullConfig,
    NetworkConfig,
    cmd_eval,
    cmd_gradcheck,
    format_config,
    main,
    parse_config,
)
from onnkit.errors import NonFiniteLoss, ParseError, ValidationError
from onnkit.network import OpNetwork
from onnkit.oplib import (
    OperatorConstants,
    add_custom_operator,
    register_builtin_library,
)
from onnkit.trainer import Trainer, TrainerConfig

BASE = """\
[network]
tier_sizes = 1
kernel_sizes = 3
operators = 2

[trainer]
num_epochs = 2
optimizer = sgd
lr = 0.05
batch_size = 2
metrics = snr

[data]
task = identity
count = 8
size = 6
folds = 2
val_fraction = 0.25
"""

# written by onnkit when archives still described their network in an
# arch/json entry beside config/text: fold 1 of BASE
FIXTURE = Path(__file__).parent / "data" / "with_arch_json_fold1.ckpt"


def test_parse_config_defaults_and_values():
    cfg = parse_config(BASE)
    assert cfg.network.in_channels == 1
    assert cfg.network.tier_sizes == [1]
    assert cfg.network.operators == [[2]]
    assert cfg.network.sampling_factors == [1]
    assert cfg.trainer.num_epochs == 2
    assert cfg.trainer.optimizer == "sgd"
    assert cfg.trainer.lr == 0.05
    assert cfg.metrics == [("snr", "max")]
    assert cfg.data.task == "identity"
    assert cfg.data.folds == 2


@pytest.mark.parametrize("metrics", ["loss, snr", "snr, loss:min"])
def test_loss_may_be_named_once_as_a_min_metric(metrics):
    cfg = parse_config(BASE.replace("metrics = snr", f"metrics = {metrics}"))
    assert sorted(cfg.metrics) == [("loss", "min"), ("snr", "max")]
    assert parse_config(format_config(cfg)) == cfg


def test_operator_grammar_mixes_shared_and_per_block():
    text = BASE.replace("tier_sizes = 1", "tier_sizes = 2,2,1")
    text = text.replace("kernel_sizes = 3", "kernel_sizes = 3,5,3")
    text = text.replace("operators = 2", "operators = 4 / 0,13 / 2")
    cfg = parse_config(text)
    assert cfg.network.operators == [[4], [0, 13], [2]]


def test_readme_config_example_is_valid():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    cfg = parse_config(example)
    assert cfg.network.tier_sizes == [12, 32, 1]
    assert cfg.network.operators == [[4], [13], [2]]


def test_format_config_round_trips():
    cfg = parse_config(BASE)
    text = format_config(cfg)
    assert parse_config(text) == cfg


def test_a_network_config_without_sampling_factors_round_trips():
    # no sampling_factors, like an absent key, means 1 for every tier
    cfg = FullConfig(NetworkConfig(tier_sizes=[1, 2], kernel_sizes=[3, 5],
                                   operators=[[0], [2]]),
                     TrainerConfig(num_epochs=1), DataConfig(task="identity"))
    text = format_config(cfg)
    expected = dataclasses.replace(cfg.network, sampling_factors=[1, 1])
    assert parse_config(text) == dataclasses.replace(cfg, network=expected)


def test_a_network_config_without_sampling_factors_builds():
    # no sampling_factors means 1 for every tier here too
    cfg = FullConfig(NetworkConfig(tier_sizes=[1], kernel_sizes=[3],
                                   operators=[[0]]),
                     TrainerConfig(num_epochs=1), DataConfig(task="identity"))
    net = cli_mod.network_from_config(cfg)
    assert [tier.sampling for tier in net.tiers] == [1]


def test_syntax_errors_name_their_line():
    with pytest.raises(ParseError, match=r"config: line 2:.*key = value"):
        parse_config("[network]\nnonsense\n")
    with pytest.raises(ParseError, match="config: line 1: key outside"):
        parse_config("x = 1\n")
    with pytest.raises(ParseError, match=r"config: line 3: duplicate key 'a'"):
        parse_config("[network]\na = 1\na = 2\n")


def test_validation_errors_name_section_and_line():
    with pytest.raises(ValidationError,
                       match=r"config: line 20: unknown section \[bogus\]"):
        parse_config(BASE + "\n[bogus]\nx = 1\n")
    with pytest.raises(ValidationError, match=r"network: line 3:.*odd"):
        parse_config(BASE.replace("kernel_sizes = 3", "kernel_sizes = 4"))
    with pytest.raises(ValidationError, match="missing required key 'num_epochs'"):
        parse_config(BASE.replace("num_epochs = 2\n", ""))
    with pytest.raises(ValidationError, match="unknown key 'typo'"):
        parse_config(BASE + "\n[data]\n" if False else
                     BASE.replace("[data]", "[data]\ntypo = 1"))
    with pytest.raises(ValidationError, match=r"out of range \[0, 53\]"):
        parse_config(BASE.replace("operators = 2", "operators = 54"))
    with pytest.raises(ValidationError, match="unknown metric 'psnr'"):
        parse_config(BASE.replace("metrics = snr", "metrics = psnr"))
    with pytest.raises(ValidationError, match="criterion must be max or min"):
        parse_config(BASE.replace("metrics = snr", "metrics = snr:avg"))
    with pytest.raises(ValidationError,
                       match="trainer: line 11: metrics names 'snr' twice"):
        parse_config(BASE.replace("metrics = snr", "metrics = snr, snr:min"))
    with pytest.raises(ValidationError,
                       match="trainer: line 11: metrics names 'loss' twice"):
        parse_config(BASE.replace("metrics = snr", "metrics = loss, loss, snr"))
    with pytest.raises(ValidationError, match="trainer: line 11: metrics "
                       "criterion of loss must be min, got 'max'"):
        parse_config(BASE.replace("metrics = snr", "metrics = loss:max, snr"))
    with pytest.raises(ValidationError, match="path.*required"):
        parse_config(BASE.replace("task = identity", "task = folder"))
    with pytest.raises(ValidationError, match="network in_channels"):
        parse_config(BASE.replace("count = 8", "count = 8\nchannels = 3"))
    with pytest.raises(ValidationError, match="tier 0 needs 1 or 1"):
        parse_config(BASE.replace("operators = 2", "operators = 2,3"))


def test_line_numbers_survive_comments_and_blanks():
    text = ("# header\n\n[network]\n; note\ntier_sizes = 0\n"
            "kernel_sizes = 3\noperators = 2\n")
    with pytest.raises(ValidationError, match="network: line 5: tier_sizes"):
        parse_config(text)


FLOAT_KEYS = [(section, f.name)
              for section, kind in (("network", NetworkConfig),
                                    ("trainer", TrainerConfig),
                                    ("data", DataConfig))
              for f in dataclasses.fields(kind) if f.type == "float"]


@pytest.mark.parametrize("section,key", FLOAT_KEYS)
def test_nan_is_a_config_error_for_every_float_key(tmp_path, capsys,
                                                   section, key):
    lines = [line for line in BASE.splitlines()
             if not line.startswith(f"{key} =")]
    at = lines.index(f"[{section}]") + 1
    lines.insert(at, f"{key} = nan")
    path = write_config(tmp_path, "\n".join(lines) + "\n")
    assert main(["describe", "--config", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {section}: line {at + 1}: {key} must be a number, got 'nan'"]


# U(-b, b) needs 0 <= b and a finite width 2b
BOUND_DOMAIN = "init_bound must be in [0, 8.988465674311579e+307]"


@pytest.mark.parametrize("section,line,message", [
    ("trainer", "seed = -1", "seed must be at least 0"),
    ("data", "seed = -2", "seed must be at least 0"),
    ("network", "init_bound = -0.5", BOUND_DOMAIN),
    ("network", "init_bound = 1e308", BOUND_DOMAIN),
    ("network", "init_bound = inf", BOUND_DOMAIN),
])
def test_seeds_and_init_bounds_numpy_cannot_draw_from_are_config_errors(
        tmp_path, section, line, message):
    lines = BASE.splitlines()
    at = lines.index(f"[{section}]") + 1
    lines.insert(at, line)
    path = write_config(tmp_path, "\n".join(lines) + "\n")
    assert run_cli(["train", "--config", str(path),
                    "--out", str(tmp_path / "x")]) == (
        1, [], [f"error: {section}: line {at + 1}: {message}"])


@pytest.mark.parametrize("old,new", [
    ("tier_sizes = 1", "tier_sizes = 1  # one block"),
    ("[trainer]", "[trainer]\nmodel_name = m  ; note"),
    ("task = identity", "task = identity\t# tab-separated"),
])
def test_inline_comments_are_rejected_naming_their_line(old, new):
    text = BASE.replace(old, new)
    lineno = text.splitlines().index(new.splitlines()[-1]) + 1
    with pytest.raises(ParseError, match=rf"config: line {lineno}: inline "
                                         r"comment .*own line"):
        parse_config(text)


def test_whole_line_comments_and_bare_marks_still_parse():
    text = ("# header\n; another\n" + BASE).replace(
        "[trainer]", "[trainer]\n  # indented comment\nmodel_name = run#1;b")
    cfg = parse_config(text)
    assert cfg.network.tier_sizes == [1]
    assert cfg.trainer.model_name == "run#1;b"


_names = st.text("abcxyz_-.0189", max_size=8)
_floats = st.floats(allow_nan=False, width=64)


@st.composite
def full_configs(draw):
    lib_size = len(register_builtin_library())
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    operators = [draw(st.lists(st.integers(0, lib_size - 1), min_size=n,
                               max_size=n) | st.lists(
        st.integers(0, lib_size - 1), min_size=1, max_size=1))
        for n in sizes]
    channels = draw(st.integers(1, 4))
    network = NetworkConfig(
        in_channels=channels, tier_sizes=sizes,
        kernel_sizes=[draw(st.integers(0, 5)) * 2 + 1 for _ in sizes],
        operators=operators,
        sampling_factors=[draw(st.integers(-4, 4).filter(bool)) for _ in sizes],
        k_sin=draw(_floats), k_chirp=draw(_floats),
        cut=draw(_floats.filter(bool)),
        init=draw(st.sampled_from(["uniform", "fan_in"])),
        init_bound=draw(st.floats(0.0, sys.float_info.max / 2)))
    trainer = TrainerConfig(
        num_epochs=draw(st.integers(1, 10**6)),
        num_runs=draw(st.integers(1, 99)),
        optimizer=draw(st.sampled_from(["sgd", "adam"])),
        lr=draw(_floats.filter(lambda v: v > 0)),
        momentum=draw(st.floats(0.0, None)),
        beta1=draw(st.floats(0.0, 1.0, exclude_max=True)),
        beta2=draw(st.floats(0.0, 1.0, exclude_max=True)),
        eps=draw(st.floats(0.0, None)),
        lr_decay=draw(_floats.filter(lambda v: v > 0)),
        batch_size=draw(st.integers(1, 512)),
        seed=draw(st.integers(0, 2**64)), model_name=draw(_names))
    task = draw(st.sampled_from(["identity", "blur-inverse", "nonlinear-map",
                                 "folder"]))
    path = draw(_names.filter(bool) if task == "folder"
                else st.none() | _names)
    data = DataConfig(
        task=task, path=path, count=draw(st.integers(1, 10**6)),
        size=draw(st.integers(1, 4096)), channels=channels,
        folds=draw(st.integers(1, 20)),
        val_fraction=draw(st.floats(0.0, 1.0, exclude_max=True)),
        seed=draw(st.integers(0, 2**64)))
    # a metric may be named once
    metrics = draw(st.lists(st.tuples(st.just("snr"),
                                      st.sampled_from(["max", "min"])),
                            max_size=2, unique_by=lambda pair: pair[0]))
    return FullConfig(network, trainer, data, metrics)


@settings(max_examples=200, deadline=None)
@given(full_configs())
def test_parse_inverts_format_on_every_valid_config(cfg):
    assert parse_config(format_config(cfg)) == cfg


@settings(max_examples=200, deadline=None)
@given(full_configs())
def test_every_valid_config_passes_the_section_checkers_as_built(cfg):
    # every config the text path parses was built, so checked, by
    # full_configs; OpNetwork accepts its operator set indices too
    OpNetwork(cfg.network)


@settings(max_examples=300, deadline=None)
@given(name=st.text(st.sampled_from("ab =#;[]\t\n\r\x0b\x1c\x85\u2028"),
                    max_size=6) | st.text(max_size=6))
def test_format_config_writes_a_str_field_iff_the_text_holds_it(name):
    # a library-built config may hold any name; format_config must refuse
    # exactly the names that parse_config would not read back
    cfg = parse_config(BASE)
    try:
        format_config(dataclasses.replace(
            cfg, trainer=dataclasses.replace(cfg.trainer, model_name=name)))
        written = True
    except ValidationError as e:
        assert str(e).startswith(f"trainer: model_name {name!r} ")
        written = False
    text = format_config(cfg).replace("model_name = model\n",
                                      f"model_name = {name}\n")
    try:
        read = parse_config(text).trainer.model_name == name
    except (ParseError, ValidationError):
        read = False
    assert written == read


def test_train_refuses_a_name_its_archived_text_cannot_hold(tmp_path):
    cfg = parse_config(BASE)
    cfg = dataclasses.replace(cfg, trainer=dataclasses.replace(
        cfg.trainer, model_name="run 1 #2"))
    with pytest.raises(ValidationError,
                       match=r"^trainer: model_name 'run 1 #2' cannot"):
        cli_mod.cmd_train(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_module_docstring_lists_the_config_dataclass_fields():
    block = cli_mod.__doc__.split("three sections:\n\n")[1].split("\n\n")[0]
    listed = {name: [k.strip() for k in keys.split(",")]
              for name, keys in re.findall(r"\[(\w+)\]\s+([^\[]*)", block)}
    assert listed == {
        "network": [f.name for f in dataclasses.fields(NetworkConfig)],
        "trainer": [f.name for f in dataclasses.fields(TrainerConfig)]
        + ["metrics"],
        "data": [f.name for f in dataclasses.fields(DataConfig)],
    }


DESCRIBE = """\
[network]
tier_sizes = 12,32,1
kernel_sizes = 21,7,3
operators = 2 / 2 / 2
sampling_factors = 2,-2,1

[trainer]
num_epochs = 1

[data]
task = identity
size = 32
"""


def test_describe_reports_shapes_and_parameter_count(tmp_path, capsys):
    path = tmp_path / "net.cfg"
    path.write_text(DESCRIBE)
    assert main(["describe", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "input: 1 x 32 x 32" in out
    assert "output 12 x 16 x 16" in out
    assert "output 32 x 32 x 32" in out
    assert "output 1 x 32 x 32" in out
    assert "parameters: 24441" in out


REFERENCE = """\
[network]
tier_sizes = 12, 32, 1
kernel_sizes = 21, 7, 3
operators = 4 / 13 / 2
sampling_factors = 2, -2, 1

[trainer]
num_epochs = 1

[data]
task = identity
"""


def test_describe_reports_tier_costs_and_padding(tmp_path):
    path = tmp_path / "ref.cfg"
    path.write_text(REFERENCE)
    code, out, err = run_cli(["describe", "--config", str(path)])
    assert (code, err) == (0, [])
    # 8 bytes and K nodal evaluations per entry of the [C, M*N, m*n] patch
    # matrix over the tier's input extents 16x16, 8x8 and 16x16
    assert out[2::2] == [
        "  per sample: patch matrix 903168 bytes, 1354752 nodal evaluations, "
        "168 of 256 windows more than half zero padding",
        "  per sample: patch matrix 301056 bytes, 1204224 nodal evaluations, "
        "20 of 64 windows more than half zero padding",
        "  per sample: patch matrix 589824 bytes, 73728 nodal evaluations, "
        "4 of 256 windows more than half zero padding",
    ]


@pytest.mark.parametrize("operators,flagged", [(3, True), (0, False)],
                         ids=["mul-median-tanh", "mul-sum-tanh"])
def test_describe_flags_a_median_tier_that_is_all_padding(tmp_path, operators,
                                                          flagged):
    # a 7x7 window on a 4x4 image is more than half padding everywhere
    text = BASE.replace("kernel_sizes = 3", "kernel_sizes = 7").replace(
        "operators = 2", f"operators = {operators}").replace("size = 6",
                                                             "size = 4")
    code, out, err = run_cli(["describe", "--config",
                              str(write_config(tmp_path, text))])
    assert (code, err) == (0, [])
    assert "16 of 16 windows more than half zero padding" in out[2]
    line = ("  every window is more than half zero padding: the median pool "
            "outputs 0 for every input")
    assert (line in out) == flagged
    # and the median tier's output is the same for every input
    net = cli_mod.network_from_config(parse_config(text))
    net.reset_parameters(3)
    outputs = {net.tiers[0].forward(ag.as_variable(x), None,
                                    OperatorConstants()).value.tobytes()
               for x in np.random.default_rng(0).normal(size=(3, 1, 4, 4))}
    assert (len(outputs) == 1) == flagged


def write_config(tmp_path, text=BASE):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_train_writes_checkpoints_and_stats(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 0
    for fold in (0, 1):
        assert (out / f"fold{fold}.ckpt").exists()
        assert (out / f"train_fold{fold}.csv").exists()
        assert (out / f"val_fold{fold}.csv").exists()
        assert (out / f"test_fold{fold}.csv").exists()
    summary = (out / "summary.csv").read_text()
    header = summary.splitlines()[0]
    assert header == "partition,metric,fold_0,fold_1,mean,mean_per_image_time_s"
    assert capsys.readouterr().err == ""


def test_train_folds_override_drops_test_partition(tmp_path):
    path = write_config(
        tmp_path, BASE.replace("val_fraction = 0.25", "val_fraction = 0"))
    out = tmp_path / "single"
    assert main(["train", "--config", str(path), "--out", str(out),
                 "--folds", "1"]) == 0
    assert (out / "fold0.ckpt").exists()
    assert not (out / "fold1.ckpt").exists()
    assert (out / "train_fold0.csv").exists()
    assert not (out / "test_fold0.csv").exists()


def test_threaded_folds_write_the_same_archives(tmp_path):
    path = write_config(tmp_path)
    archives = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["train", "--config", str(path), "--out", str(out),
                     "--jobs", jobs]) == 0
        archives[jobs] = [ckpt_mod.load(out / f"fold{fold}.ckpt")
                          for fold in (0, 1)]
    for serial, threaded in zip(archives["1"], archives["2"]):
        assert set(serial) == set(threaded)
        for name in serial:
            if not re.fullmatch(r"stats/\w+/per_image_time_s/run\d+", name):
                assert (ckpt_mod.encode({name: serial[name]})
                        == ckpt_mod.encode({name: threaded[name]})), name


def test_eval_reproduces_archived_bests(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    main(["train", "--config", str(path), "--out", str(out)])
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(out / "fold0.ckpt")]) == 0
    got = capsys.readouterr().out
    assert "match" in got and "MISMATCH" not in got
    assert "fold 0 train loss" in got


def test_eval_detects_tampered_best_value(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    main(["train", "--config", str(path), "--out", str(out)])
    ckpt = out / "fold0.ckpt"
    entries = ckpt_mod.load(ckpt)
    entries["best/train/loss/value"] = np.array(123.0)
    ckpt_mod.save(ckpt, entries)
    capsys.readouterr()
    assert cmd_eval(str(ckpt)) == 2
    assert "MISMATCH" in capsys.readouterr().out


def test_eval_with_too_few_config_folds_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    main(["train", "--config", str(path), "--out", str(out)])
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(out / "fold1.ckpt"),
                 "--config", str(path), "--folds", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: config: ")
    assert "fold 1" in lines[0]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    # a warning would reach stderr as lines of its own
    return code, out.getvalue().splitlines(), \
        err.getvalue().splitlines() + [str(w.message) for w in caught]


def test_archives_hold_the_effective_config_and_no_network_entry(tmp_path):
    # a one-fold file trained at --folds 3 --seed 4: every archive holds
    # the config that ran, so eval needs no --config for any fold
    path = write_config(tmp_path, BASE.replace("folds = 2", "folds = 1"))
    out = tmp_path / "out"
    assert main(["train", "--config", str(path), "--out", str(out),
                 "--folds", "3", "--seed", "4"]) == 0
    want = parse_config(path.read_text())
    want = dataclasses.replace(
        want, data=dataclasses.replace(want.data, folds=3),
        trainer=dataclasses.replace(want.trainer, seed=4))
    for fold in range(3):
        ckpt = out / f"fold{fold}.ckpt"
        entries = ckpt_mod.load(ckpt)
        assert "arch/json" not in entries
        assert entries["config/text"].decode() == format_config(want)
        code, lines, err = run_cli(["eval", "--ckpt", str(ckpt)])
        assert (code, err) == (0, [])
        assert lines and all(line.endswith(", match") for line in lines)


def test_an_archive_with_a_network_entry_still_evaluates():
    # eval ignores the arch/json entry and builds the network from the
    # archived config
    assert "arch/json" in ckpt_mod.load(FIXTURE)
    code, lines, err = run_cli(["eval", "--ckpt", str(FIXTURE)])
    assert (code, err) == (0, [])
    assert len(lines) == 6
    assert all(line.startswith("fold 1 ") and line.endswith(", match")
               for line in lines)


def test_python_dash_m_onnkit_runs_the_cli():
    proc = _onnkit_child(["eval", "--ckpt", str(FIXTURE)], threads=1)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(proc.stdout.splitlines()) == 6


def _bests(entries):
    """(partition, metric) -> (value, run, epoch, parameter bytes) of each
    best an archive holds, in the order eval prints them."""
    bests = {}
    for key in sorted(k for k in entries if k.startswith("best/")
                      and k.endswith("/value")):
        base = key[:-len("value")]
        params = b"".join(entries[k].tobytes() for k in sorted(entries)
                          if k.startswith(base + "param/"))
        bests[tuple(base.split("/")[1:3])] = (
            float(entries[key]), int(entries[base + "run"][0]),
            int(entries[base + "epoch"][0]), params)
    return bests


def test_eval_runs_one_forward_per_partition_when_its_bests_share_a_state(
        tmp_path, monkeypatch):
    # train and test partitions: each one's loss and snr bests hold one
    # parameter state, so eval needs one forward per partition, not per best
    path = write_config(tmp_path, BASE.replace("val_fraction = 0.25",
                                               "val_fraction = 0"))
    out = tmp_path / "out"
    assert run_cli(["train", "--config", str(path), "--out", str(out)])[0] == 0
    ckpt = out / "fold0.ckpt"
    bests = _bests(ckpt_mod.load(ckpt))
    assert sorted(bests) == [("test", "loss"), ("test", "snr"),
                             ("train", "loss"), ("train", "snr")]
    for partition in ("test", "train"):
        assert bests[partition, "loss"][3] == bests[partition, "snr"][3]
    calls = []
    forward = trainer_mod.network_forward

    def counting_forward(*args, **kwargs):
        calls.append(args)
        return forward(*args, **kwargs)

    monkeypatch.setattr(trainer_mod, "network_forward", counting_forward)
    code, lines, err = run_cli(["eval", "--ckpt", str(ckpt)])
    assert (code, err) == (0, [])
    assert len(calls) == 2
    # every line as it reads when each best re-runs alone and matches
    assert lines == [
        f"fold 0 {partition} {metric}: recorded {value:.17g} (run {run}, "
        f"epoch {epoch}), re-evaluated {value:.17g}, match"
        for (partition, metric), (value, run, epoch, _) in bests.items()]


def test_eval_reports_a_changed_snr_best_weight_as_a_mismatch(tmp_path):
    # the val loss and snr bests share run and epoch; only the snr best's
    # parameters change, so its value must not be read off the loss state's
    entries = ckpt_mod.load(FIXTURE)
    name = "best/val/snr/param/0/0/weights"
    weights = entries[name].copy()
    weights.flat[0] += 0.25
    entries[name] = weights
    bests = _bests(entries)
    assert bests["val", "snr"][1:3] == bests["val", "loss"][1:3]
    path = tmp_path / "tampered.ckpt"
    ckpt_mod.save(path, entries)
    code, lines, err = run_cli(["eval", "--ckpt", str(path)])
    assert (code, err) == (2, [])
    assert [line.rsplit(", ", 1)[1] for line in lines] == [
        "MISMATCH" if key == ("val", "snr") else "match" for key in bests]


# tier 1 is shaped like the reference network's: 12 channels, 7x7 kernels,
# 8x8 pixels and 16 (mul, sum) blocks beside 16 (cubic, median) ones. Its
# weight gradient contracts [16, 64] with [64, 588]; as a matrix product
# over the patch-major patches, OpenBLAS 0.3.31 gives that other bytes on
# 2 threads than on 1
BLAS_CFG = """\
[network]
tier_sizes = 12, 32, 1
kernel_sizes = 3, 7, 3
operators = 4 / """ + ", ".join(["0", "13"] * 16) + """ / 2
sampling_factors = 2, -2, 1

[trainer]
num_epochs = 2
batch_size = 2
metrics = snr

[data]
task = nonlinear-map
count = 4
size = 16
folds = 1
val_fraction = 0.5
"""
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _onnkit_child(argv, threads):
    """Run the onnkit CLI in a child process whose BLAS libraries may use
    this many threads; only the child's environment is set."""
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **dict.fromkeys(BLAS_THREAD_VARS, str(threads)),
           "PYTHONPATH": pythonpath}
    return subprocess.run([sys.executable, "-m", "onnkit", *argv], env=env,
                          capture_output=True, text=True, timeout=300)


def test_archives_do_not_depend_on_the_blas_thread_count(tmp_path):
    path = write_config(tmp_path, BLAS_CFG)
    archives = {}
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        proc = _onnkit_child(["train", "--config", str(path), "--out", str(out)],
                             threads)
        assert (proc.returncode, proc.stderr) == (0, "")
        archives[threads] = out / "fold0.ckpt"
    one, two = (ckpt_mod.load(archives[t]) for t in (1, 2))
    assert sorted(one) == sorted(two)
    timing = re.compile(r"stats/[^/]+/per_image_time_s/")
    for name, value in one.items():
        if not timing.match(name):
            assert np.asarray(value).tobytes() == np.asarray(two[name]).tobytes(), name
    # each archive's bests re-evaluate bitwise at the other thread count
    for threads, ckpt in ((2, archives[1]), (1, archives[2])):
        proc = _onnkit_child(["eval", "--ckpt", str(ckpt)], threads)
        lines = proc.stdout.splitlines()
        assert (proc.returncode, proc.stderr) == (0, "")
        assert lines and all(line.endswith(", match") for line in lines)


def _config_with(**change):
    return lambda e: json.dumps({**json.loads(e["trainer/config"]),
                                 **change}).encode()


def _test_loss_best_copied_to(base):
    """Copies best/test/loss/* under `base`; the new value entry's value."""
    def tamper(entries):
        for key in [k for k in entries if k.startswith("best/test/loss/")]:
            entries[base + key[len("best/test/loss/"):]] = entries[key]
        return entries[base + "value"]
    return tamper


@pytest.mark.parametrize("entry,tamper,message", [
    ("trainer/run", lambda e: np.array([], dtype=np.uint64),
     "'trainer/run' must hold one uint64 value"),
    ("trainer/fold", lambda e: np.array([], dtype=np.uint64),
     "'trainer/fold' must hold one uint64 value"),
    ("best/val/snr/epoch", lambda e: np.array([1.0]),
     "'best/val/snr/epoch' must hold one uint64 value"),
    ("best/val/loss/value", lambda e: np.array([1.0, 2.0]),
     "'best/val/loss/value' must hold one float64 value"),
    ("trainer/status", lambda e: b"{", "'trainer/status' is not JSON"),
    ("trainer/config", _config_with(bogus=1),
     "'trainer/config' is no TrainerConfig"),
    ("trainer/config", _config_with(num_epochs="3"),
     "'trainer/config': num_epochs must be a int, got '3'"),
    ("trainer/config", _config_with(seed=-1),
     "'trainer/config': seed must be at least 0"),
    ("trainer/config", _config_with(batch_size=2.5),
     "'trainer/config': batch_size must be a int, got 2.5"),
    ("trainer/config", lambda e: np.array([1.0]),
     "'trainer/config' must hold text"),
    ("config/text", lambda e: b"\xff\xfe", "'config/text' is not UTF-8 text"),
    ("rng/state", lambda e: b'{"a": 1}', "'rng/state' is no PCG64 state"),
    ("trainer/metrics", lambda e: b'[["loss", "min"], ["snr", "avg"]]',
     "entry 'trainer/metrics': metrics criterion must be max or min, got 'avg'"),
    ("trainer/metrics",
     lambda e: b'[["loss", "min"], ["snr", "max"], ["snr", "min"]]',
     "entry 'trainer/metrics': metrics names 'snr' twice"),
    ("trainer/metrics",
     lambda e: b'[["loss", "max"], ["loss", "min"], ["snr", "max"]]',
     "entry 'trainer/metrics': metrics criterion of loss must be min, got 'max'"),
    ("trainer/metrics",
     lambda e: b'[["loss", "min"], ["snr", "max"], ["loss", "min"]]',
     "entry 'trainer/metrics': metrics names 'loss' twice"),
    ("stats/train/loss/run0", lambda e: b"x",
     "'stats/train/loss/run0' must hold a float64 array"),
    ("param/0/0/bias", lambda e: b"x",
     "'param/0/0/bias' must hold a float64 array"),
    ("param/0/0/weights", lambda e: np.zeros((1, 3, 3), dtype=np.uint64),
     "'param/0/0/weights' must hold a float64 array"),
    ("best/val/snr/param/0/0/bias", lambda e: b"x",
     "'best/val/snr/param/0/0/bias' must hold a float64 array"),
    ("best/val/snr/param/0/0/weights", lambda e: np.zeros((3, 3)),
     "'best/val/snr/param/0/0/weights' has shape (3, 3), expected (1, 3, 3)"),
    ("opt/velocity/0/0/weights", lambda e: b"x",
     "'opt/velocity/0/0/weights' must hold a float64 array"),
    ("opt/hyper", lambda e: b"x", "'opt/hyper' must hold a float64 array"),
    ("best/test/psnr/value", _test_loss_best_copied_to("best/test/psnr/"),
     "'best/test/psnr/epoch' is the best of no partition and metric"),
    ("best/zzz/loss/value", _test_loss_best_copied_to("best/zzz/loss/"),
     "'best/zzz/loss/epoch' is the best of no partition and metric"),
    ("trainer/partitions", lambda e: b"[1]",
     "'trainer/partitions' must hold a JSON list[str]"),
    ("trainer/metrics", lambda e: b'[["loss"]]',
     "'trainer/metrics' must hold a JSON list[tuple[str, str]]"),
    ("trainer/metrics", lambda e: b'["loss"]',
     "'trainer/metrics' must hold a JSON list[tuple[str, str]]"),
    ("trainer/status", lambda e: b"[1, 2]",
     "'trainer/status' must hold a JSON list[str]"),
], ids=["run-empty", "fold-empty", "best-epoch-float", "best-value-two",
        "status-json", "config-key", "config-str-int", "config-seed",
        "config-float-int", "config-float", "text-utf8", "rng-state",
        "metric-criterion", "metric-twice", "loss-max", "loss-twice",
        "stats-bytes", "param-bytes",
        "param-u64", "best-param-bytes", "best-param-shape", "opt-slot-bytes",
        "opt-hyper-bytes", "best-unknown-metric", "best-unknown-partition",
        "partitions-int", "metric-unpaired", "metric-str", "status-int"])
def test_a_corrupt_archive_entry_is_one_runtime_error_naming_it(
        tmp_path, entry, tamper, message):
    entries = ckpt_mod.load(FIXTURE)
    entries[entry] = tamper(entries)
    path = tmp_path / "tampered.ckpt"
    ckpt_mod.save(path, entries)
    code, lines, err = run_cli(["eval", "--ckpt", str(path)])
    assert (code, lines) == (2, [])
    assert len(err) == 1 and err[0].startswith("error: runtime: ")
    assert message in err[0]


def test_eval_with_an_emptied_partition_is_a_config_error(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    main(["train", "--config", str(path), "--out", str(out)])
    no_val = write_config(tmp_path,
                          BASE.replace("val_fraction = 0.25", "val_fraction = 0"))
    code, lines, err = run_cli(["eval", "--ckpt", str(out / "fold0.ckpt"),
                                "--config", str(no_val)])
    assert (code, lines) == (1, [])
    assert len(err) == 1 and err[0].startswith("error: config: ")
    assert "val partition" in err[0]


def test_eval_with_another_network_is_a_runtime_error(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    main(["train", "--config", str(path), "--out", str(out)])
    wider = write_config(tmp_path, BASE.replace("tier_sizes = 1",
                                                "tier_sizes = 2"))
    code, lines, err = run_cli(["eval", "--ckpt", str(out / "fold0.ckpt"),
                                "--config", str(wider)])
    assert (code, lines) == (2, [])
    assert err == ["error: runtime: parameter entry 'param/0/1/weights' is only "
                   "in the network"]


_MUTANT_VALUES = ["0", "-1", "1", "2", "3", "4", "12", "0.5", "2.5", "nan",
                  "inf", "-inf", "1e999", "x", "", ",", "1,", "1 / 2", "2,3",
                  "sum", "adam", "folder", "snr:avg", "fan_in"]
_MUTANT_LINES = ["[bogus]", "[]", "[net work]", "nonsense", "= 1", "typo = 1",
                 "[data]", "[network]", "channels = 2", "in_channels = 2",
                 "path = absent-dir", "sampling_factors = 2", "operators = 54"]


@st.composite
def mutated_base_configs(draw):
    """BASE with one or two lines given a new value, dropped or preceded
    by a stray line."""
    lines = BASE.splitlines()
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["value", "value", "drop", "insert"]))
        if kind == "value" and "=" in lines[i]:
            key = lines[i].partition("=")[0].strip()
            lines[i] = f"{key} = {draw(st.sampled_from(_MUTANT_VALUES))}"
        elif kind == "drop":
            del lines[i]
        else:
            lines.insert(i, draw(st.sampled_from(_MUTANT_LINES)))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def base_archive(tmp_path_factory):
    root = tmp_path_factory.mktemp("base")
    path = root / "base.cfg"
    path.write_text(BASE)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--config", str(path),
                     "--out", str(root / "out")]) == 0
    return root / "out" / "fold1.ckpt"


ERROR_LINE = re.compile(r"error: (usage|config|network|trainer|data|runtime): "
                        r"\S.*")


@settings(max_examples=150, deadline=None)
@given(text=mutated_base_configs())
def test_every_cli_failure_is_one_error_line(base_archive, text):
    path = base_archive.parent.parent / "mutant.cfg"
    path.write_text(text)
    for argv in (["describe", "--config", str(path)],
                 ["eval", "--ckpt", str(base_archive), "--config", str(path)]):
        code, out, err = run_cli(argv)
        assert code in (0, 1, 2)
        if code == 0:
            assert err == []
        elif err or code == 1:
            assert len(err) == 1 and ERROR_LINE.fullmatch(err[0]), err
            assert code == 1 or argv[0] == "eval"
        else:
            # eval's documented MISMATCH verdict prints no error line
            assert argv[0] == "eval" and "MISMATCH" in "\n".join(out)


DIVERGING = """\
[network]
tier_sizes = 2, 1
kernel_sizes = 3, 3
operators = 27 / 29

[trainer]
num_epochs = 3
num_runs = 3
optimizer = sgd
lr = 6
batch_size = 4

[data]
task = blur-inverse
count = 8
size = 8
folds = 2
val_fraction = 0.25
"""


def test_diverged_runs_are_recorded_and_the_session_goes_on(tmp_path, capsys):
    # exp nodal operators at a large SGD step: two of fold 1's three runs
    # overflow in the nodal stage, the rest train through
    out = tmp_path / "out"
    assert main(["train", "--config", str(write_config(tmp_path, DIVERGING)),
                 "--out", str(out)]) == 0
    for fold in (0, 1):
        assert (out / f"fold{fold}.ckpt").exists()
    assert (out / "summary.csv").exists()
    err = capsys.readouterr().err.splitlines()
    assert err == ["warning: fold 1 aborted: nodal operator 'exp' produced "
                   "a non-finite value"] * 2
    status = ckpt_mod.load(out / "fold1.ckpt")["trainer/status"].decode()
    assert status.count("aborted") == 2 and "done" in status


def test_a_fold_whose_every_run_diverges_does_not_sink_the_others(
        tmp_path, capsys, monkeypatch):
    # every run of fold 1 aborts: the session still writes both archives
    # and the CSVs, warns per run, then ends with one runtime error line
    original = Trainer._train_epoch

    def diverging_in_fold_1(self):
        if self.split.fold == 1:
            raise NonFiniteLoss("injected failure")
        return original(self)

    monkeypatch.setattr(Trainer, "_train_epoch", diverging_in_fold_1)
    out = tmp_path / "out"
    assert main(["train", "--config", str(write_config(tmp_path)),
                 "--out", str(out)]) == 2
    for fold in (0, 1):
        assert (out / f"fold{fold}.ckpt").exists()
        assert (out / f"train_fold{fold}.csv").exists()
    assert (out / "summary.csv").exists()
    err = capsys.readouterr().err.splitlines()
    assert err == ["warning: fold 1 aborted: injected failure",
                   "error: runtime: fold 1: every run diverged; first failure: "
                   "aborted: injected failure"]
    monkeypatch.undo()
    assert main(["eval", "--ckpt", str(out / "fold0.ckpt")]) == 0
    got = capsys.readouterr().out.splitlines()
    assert got and all(line.endswith(", match") for line in got)


def test_gradcheck_passes_for_configured_sets(tmp_path, capsys):
    text = BASE.replace("tier_sizes = 1", "tier_sizes = 1,1")
    text = text.replace("kernel_sizes = 3", "kernel_sizes = 3,3")
    text = text.replace("operators = 2", "operators = 0 / 2")
    path = write_config(tmp_path, text)
    assert main(["gradcheck", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "2/2 operator sets passed" in out
    assert out.count("PASS") == 2


def test_gradcheck_flags_broken_custom_operator(capsys):
    lib = register_builtin_library()
    add_custom_operator(
        lib, "nodal", "bad",
        forward=lambda w, y: w * y,
        backward=lambda g, w, y, out: (np.zeros(w.shape), g * w),
    )
    bad_index = next(i for i in range(len(lib))
                     if lib.decode(i).names == ("bad", "sum", "identity"))
    cfg = parse_config(BASE.replace("operators = 2",
                                    f"operators = {bad_index}"), lib)
    assert cmd_gradcheck(cfg, library=lib) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out and "0/1 operator sets passed" in out


def test_unknown_optimizer_is_a_config_error(tmp_path, capsys):
    path = write_config(
        tmp_path, BASE.replace("optimizer = sgd", "optimizer = cgd"))
    assert main(["train", "--config", str(path),
                 "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: trainer:")
    assert "cgd" in err and "sgd" in err and "adam" in err


# torch.optim's domains, plus a multiplicative decay that must keep the
# learning rate positive
@pytest.mark.parametrize("line,message", [
    ("optimizer = cgd", "optimizer must be one of sgd, adam, got 'cgd'"),
    ("beta1 = 1", "beta1 must be in [0, 1)"),
    ("beta2 = -0.5", "beta2 must be in [0, 1)"),
    ("momentum = -0.1", "momentum must be at least 0"),
    ("eps = -1e-8", "eps must be at least 0"),
    ("lr_decay = -1", "lr_decay must be positive"),
    ("lr_decay = 0", "lr_decay must be positive"),
])
@pytest.mark.parametrize("command", ["describe", "gradcheck", "train", "eval"])
def test_optimizer_settings_outside_their_domains_are_config_errors(
        base_out, tmp_path, command, line, message):
    out, _ = base_out
    lines = [k for k in BASE.splitlines()
             if k.partition("=")[0].strip() != line.partition("=")[0].strip()]
    at = lines.index("[trainer]") + 1
    lines.insert(at, line)
    path = write_config(tmp_path, "\n".join(lines) + "\n")
    argv = {"train": ["--out", str(tmp_path / "x")],
            "eval": ["--ckpt", str(out / "fold0.ckpt")]}.get(command, [])
    assert run_cli([command, "--config", str(path), *argv]) == (
        1, [], [f"error: trainer: line {at + 1}: {message}"])


def test_eval_with_an_added_partition_is_a_runtime_error(base_out, tmp_path):
    # the archive was trained without a val partition; this config has one
    out, _ = base_out
    no_val = write_config(tmp_path,
                          BASE.replace("val_fraction = 0.25", "val_fraction = 0"))
    assert main(["train", "--config", str(no_val),
                 "--out", str(tmp_path / "no_val")]) == 0
    with_val = write_config(tmp_path)
    assert run_cli(["eval", "--ckpt", str(tmp_path / "no_val" / "fold0.ckpt"),
                    "--config", str(with_val)]) == (
        2, [], ["error: runtime: the val partition is only in the split: the "
                "archive was trained on train, test"])


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert capsys.readouterr().err.startswith("error: usage:")
    assert main(["train"]) == 1
    assert capsys.readouterr().err.startswith("error: usage:")
    assert main(["frobnicate", "--config", "x"]) == 1
    assert capsys.readouterr().err.startswith("error: usage:")


def test_unreadable_config_exits_one(tmp_path, capsys):
    assert main(["describe", "--config", str(tmp_path / "absent.cfg")]) == 1
    assert capsys.readouterr().err.startswith("error: config:")


def test_invalid_config_exits_one(tmp_path, capsys):
    path = write_config(
        tmp_path, BASE.replace("kernel_sizes = 3", "kernel_sizes = 2"))
    assert main(["describe", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: network:") and "odd" in err


def test_missing_data_path_is_a_data_error(tmp_path, capsys):
    path = write_config(
        tmp_path,
        BASE.replace("task = identity",
                     f"task = folder\npath = {tmp_path / 'absent'}"))
    assert main(["train", "--config", str(path),
                 "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: data:") and "not a directory" in err


def test_pairless_image_folder_is_a_data_error(tmp_path, capsys):
    imgs = tmp_path / "imgs"
    imgs.mkdir()
    (imgs / "sample.pgm").write_bytes(b"P5\n4 4\n255\n" + bytes(16))
    path = write_config(
        tmp_path,
        BASE.replace("task = identity", f"task = folder\npath = {imgs}"))
    assert main(["train", "--config", str(path),
                 "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: data:") and "_in.pgm" in err


def test_seed_override_changes_training(tmp_path):
    path = write_config(tmp_path)
    outs = []
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}"
        assert main(["train", "--config", str(path), "--out", str(out),
                     "--seed", seed, "--folds", "1"]) == 0
        outs.append((out / "train_fold0.csv").read_text())
    assert outs[0] != outs[1]


@pytest.fixture(scope="module")
def base_out(tmp_path_factory):
    """BASE trained once: its two fold archives and its config file."""
    tmp = tmp_path_factory.mktemp("base")
    path = write_config(tmp)
    code, _, err = run_cli(["train", "--config", str(path),
                            "--out", str(tmp / "out")])
    assert (code, err) == (0, [])
    return tmp / "out", path


@pytest.mark.parametrize("old,new,message", [
    ("folds = 2", "folds = 12", "cannot cut 8 samples into 12 folds"),
    ("count = 8\nsize = 6\nfolds = 2\nval_fraction = 0.25",
     "count = 2\nsize = 6\nfolds = 2\nval_fraction = 0.75",
     "fold 0 has no training samples"),
], ids=["more-folds-than-samples", "fold-without-training-samples"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_data_that_cannot_be_cut_into_folds_is_a_data_error(
        base_out, tmp_path, command, old, new, message):
    out, _ = base_out
    path = write_config(tmp_path, BASE.replace(old, new))
    argv = (["train", "--out", str(tmp_path / "x")] if command == "train"
            else ["eval", "--ckpt", str(out / "fold0.ckpt")])
    code, lines, err = run_cli(argv + ["--config", str(path)])
    assert (code, lines) == (1, [])
    assert len(err) == 1 and err[0].startswith(f"error: data: {message}")


@pytest.mark.parametrize("sampling,message", [
    ("4", "tier '0': extents (6, 6) not divisible by 4"),
    ("2", "tier chain produces (1, 3, 3), targets are (1, 6, 6)"),
], ids=["indivisible-extents", "output-unlike-targets"])
@pytest.mark.parametrize("command", ["describe", "train", "eval"])
def test_a_tier_chain_that_does_not_fit_the_data_is_a_network_error(
        base_out, tmp_path, command, sampling, message):
    out, _ = base_out
    path = write_config(tmp_path, BASE.replace(
        "operators = 2", f"operators = 2\nsampling_factors = {sampling}"))
    argv = {"describe": ["describe"],
            "train": ["train", "--out", str(tmp_path / "x")],
            "eval": ["eval", "--ckpt", str(out / "fold0.ckpt")]}[command]
    assert run_cli(argv + ["--config", str(path)]) == (
        1, [], [f"error: network: {message}"])


def test_eval_applies_seed_and_folds_to_the_archived_config(base_out):
    out, path = base_out
    ckpt = str(out / "fold1.ckpt")
    archived = run_cli(["eval", "--ckpt", ckpt, "--folds", "1"])
    given = run_cli(["eval", "--ckpt", ckpt, "--config", str(path),
                     "--folds", "1"])
    assert archived == given
    code, lines, err = archived
    assert (code, lines) == (1, [])
    assert len(err) == 1
    assert err[0].startswith("error: config: checkpoint holds fold 1,")
    assert run_cli(["eval", "--ckpt", ckpt, "--folds", "0"]) == (
        1, [], ["error: data: folds must be at least 1"])
    code, _, err = run_cli(["eval", "--ckpt", ckpt, "--folds", "12"])
    assert (code, err) == (1, ["error: data: cannot cut 8 samples into 12 folds"])
    # the trainer seed plays no part in re-evaluation: every best still matches
    code, lines, err = run_cli(["eval", "--ckpt", ckpt, "--seed", "5"])
    assert (code, err) == (0, [])
    assert lines and all(line.endswith(", match") for line in lines)


@pytest.mark.parametrize("command", ["train", "gradcheck", "eval"])
def test_a_negative_seed_override_is_a_trainer_error(base_out, tmp_path,
                                                     command):
    out, path = base_out
    argv = {"train": ["--config", str(path), "--out", str(tmp_path / "x")],
            "gradcheck": ["--config", str(path)],
            "eval": ["--ckpt", str(out / "fold0.ckpt")]}[command]
    assert run_cli([command, *argv, "--seed", "-1"]) == (
        1, [], ["error: trainer: seed must be at least 0"])


@pytest.mark.parametrize("command", ["train", "gradcheck", "eval", "describe"])
def test_a_zero_folds_override_is_a_data_error(base_out, tmp_path, command):
    out, path = base_out
    argv = {"train": ["--config", str(path), "--out", str(tmp_path / "x")],
            "gradcheck": ["--config", str(path)],
            "eval": ["--ckpt", str(out / "fold0.ckpt")],
            "describe": ["--config", str(path)]}[command]
    assert run_cli([command, *argv, "--folds", "0"]) == (
        1, [], ["error: data: folds must be at least 1"])


@pytest.mark.parametrize("command,section,change,message", [
    ("train", "trainer", {"seed": -1}, "trainer: seed must be at least 0"),
    ("gradcheck", "trainer", {"seed": -1}, "trainer: seed must be at least 0"),
    ("describe", "network", {"operators": [[99]]},
     "network: operators index 99 out of range [0, 53]"),
    ("eval", "network", {"operators": [[99]]},
     "network: operators index 99 out of range [0, 53]"),
], ids=["train", "gradcheck", "describe", "eval"])
def test_every_command_checks_the_config_it_is_given(
        base_out, tmp_path, command, section, change, message):
    # a library caller hands the command a built config, not text: a
    # broken trainer seed fails as the config is built, an operator set
    # index the library lacks when the command decodes it
    out, _ = base_out
    base = parse_config(BASE)
    quiet = io.StringIO()

    def run():
        cfg = dataclasses.replace(base, **{section: dataclasses.replace(
            getattr(base, section), **change)})
        {"train": lambda: cli_mod.cmd_train(cfg, tmp_path / "x"),
         "gradcheck": lambda: cmd_gradcheck(cfg, stream=quiet),
         "describe": lambda: cli_mod.cmd_describe(cfg, stream=quiet),
         "eval": lambda: cmd_eval(str(out / "fold0.ckpt"), cfg,
                                  stream=quiet)}[command]()

    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        run()
    assert quiet.getvalue() == "" and not (tmp_path / "x").exists()


@pytest.mark.parametrize("metrics,message", [
    ([("psnr", "max")], "metrics unknown metric 'psnr'; builtin: snr"),
    ([("snr", "avg")], "metrics criterion must be max or min, got 'avg'"),
    ([("snr",)], "metrics must be a list of (name, criterion) pairs, "
                 "got [('snr',)]"),
    ([("snr", "max"), ("snr", "min")], "metrics names 'snr' twice"),
    ([("loss", "max")], "metrics criterion of loss must be min, got 'max'"),
    ([("loss", "min"), ("loss", "min")], "metrics names 'loss' twice"),
], ids=["name", "criterion", "pair", "twice", "loss-max", "loss-twice"])
def test_train_checks_the_metrics_of_a_built_config(tmp_path, monkeypatch,
                                                    metrics, message):
    # a library caller's metrics break the rules the text's metrics key
    # follows: one config error line, exit 1, nothing written
    cfg = parse_config(BASE)
    monkeypatch.setattr(cli_mod, "_load_config",
                        lambda args: dataclasses.replace(cfg, metrics=metrics))
    out = tmp_path / "x"
    assert run_cli(["train", "--config", "unused", "--out", str(out)]) == (
        1, [], [f"error: trainer: {message}"])
    assert not out.exists()


@pytest.mark.parametrize("pairs,rule", [
    ([("snr", "avg")], "criterion must be max or min, got 'avg'"),
    ([("loss", "max"), ("snr", "max")], "criterion of loss must be min, got 'max'"),
    ([("snr", "max"), ("snr", "min")], "names 'snr' twice"),
    ([("loss", "min"), ("snr", "max"), ("loss", "min")], "names 'loss' twice"),
], ids=["criterion", "loss-max", "twice", "loss-twice"])
def test_a_metric_list_breaks_one_rule_with_one_text_from_every_source(
        tmp_path, pairs, rule):
    # the config text, a library caller's specs and an archive's entry
    text = BASE.replace("metrics = snr", "metrics = " + ", ".join(
        f"{name}:{crit}" for name, crit in pairs))
    with pytest.raises(ValidationError,
                       match=f"^trainer: line 11: metrics {re.escape(rule)}$"):
        parse_config(text)

    cfg = parse_config(BASE)
    compute = {"loss": trainer_mod.LOSS_METRIC.compute,
               "snr": trainer_mod.calc_snr}
    specs = [trainer_mod.MetricSpec(name, compute[name], crit)
             for name, crit in pairs]
    with pytest.raises(ValidationError,
                       match=f"^trainer: metrics {re.escape(rule)}$"):
        Trainer(OpNetwork(cfg.network), cli_mod._splits_from_config(cfg)[0],
                cfg.trainer, specs)

    entries = ckpt_mod.load(FIXTURE)
    entries["trainer/metrics"] = json.dumps(pairs).encode()
    path = tmp_path / "tampered.ckpt"
    ckpt_mod.save(path, entries)
    assert run_cli(["eval", "--ckpt", str(path)]) == (2, [], [
        f"error: runtime: entry 'trainer/metrics': metrics {rule}"])


def test_eval_decodes_its_archive_once(base_out, monkeypatch):
    out, _ = base_out
    calls = []
    load = ckpt_mod.load

    def counting_load(path):
        calls.append(path)
        return load(path)

    monkeypatch.setattr(ckpt_mod, "load", counting_load)
    code, _, err = run_cli(["eval", "--ckpt", str(out / "fold0.ckpt")])
    assert (code, err) == (0, [])
    assert len(calls) == 1
    calls.clear()
    assert cmd_eval(str(out / "fold0.ckpt"), stream=io.StringIO()) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("change,message", [
    ({"count": "3"}, "count must be a int, got '3'"),
    ({"size": 2.5}, "size must be a int, got 2.5"),
    ({"folds": True}, "folds must be a int, got True"),
    ({"path": 3}, "path must be a str | None, got 3"),
], ids=["count-str", "size-float", "folds-bool", "path-int"])
def test_a_mistyped_data_field_fails_at_construction(change, message):
    # describe would otherwise end in a bare TypeError (count, size) or
    # cut the data into True folds
    with pytest.raises(ValidationError, match=f"^data: {re.escape(message)}$"):
        DataConfig(task="identity", **change)


@pytest.mark.parametrize("command,folds_checks,decodes", [
    ("describe", 0, 2), ("gradcheck", 0, 2), ("train", 2, 3), ("eval", 1, 2),
])
def test_a_command_checks_each_config_section_once(
        base_out, tmp_path, monkeypatch, command, folds_checks, decodes):
    # the text's sections are checked as they are built; the trainer again
    # for each fold's seed (train) or the archived trainer/config (eval),
    # the operator set indices where the text is parsed and where a
    # network or gradcheck decodes them
    out, path = base_out
    counts = dict.fromkeys(["network", "trainer", "data", "full", "indices"], 0)

    def count(owner, name, key):
        original = getattr(owner, name, lambda *args: None)

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted, raising=False)

    for owner, key in ((NetworkConfig, "network"), (TrainerConfig, "trainer"),
                       (DataConfig, "data"), (FullConfig, "full")):
        count(owner, "__post_init__", key)
    for module in (cli_mod, network_mod):
        count(module, "check_operator_indices", "indices")
    argv = {"describe": ["--config", str(path)],
            "gradcheck": ["--config", str(path)],
            "train": ["--config", str(path), "--out", str(tmp_path / "x")],
            "eval": ["--ckpt", str(out / "fold0.ckpt")]}[command]
    code, _, err = run_cli([command, *argv])
    assert (code, err) == (0, [])
    assert counts == {"network": 1, "trainer": 1 + folds_checks, "data": 1,
                      "full": 1, "indices": decodes}
