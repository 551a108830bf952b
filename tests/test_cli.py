"""CLI: config grammar, error lines, commands end to end, exit codes."""
import re
from pathlib import Path

import numpy as np
import pytest

import onnkit.checkpoint as ckpt_mod
from onnkit.cli import (
    cmd_eval,
    cmd_gradcheck,
    format_config,
    main,
    parse_config,
)
from onnkit.errors import ParseError, ValidationError
from onnkit.oplib import add_custom_operator, register_builtin_library

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


def test_syntax_errors_name_their_line():
    with pytest.raises(ParseError, match=r"config: line 2:.*key = value"):
        parse_config("[network]\nnonsense\n")
    with pytest.raises(ParseError, match="config: line 1: key outside"):
        parse_config("x = 1\n")
    with pytest.raises(ParseError, match=r"config: line 3: duplicate key 'a'"):
        parse_config("[network]\na = 1\na = 2\n")


def test_validation_errors_name_section_and_line():
    with pytest.raises(ValidationError, match="bogus: unknown section"):
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
    with pytest.raises(ValidationError, match="path.*required"):
        parse_config(BASE.replace("task = identity", "task = folder"))
    with pytest.raises(ValidationError, match="network in_channels"):
        parse_config(BASE.replace("count = 8", "count = 8\nchannels = 3"))
    with pytest.raises(ValidationError, match="tier 0 needs 1 or 1"):
        parse_config(BASE.replace("operators = 2", "operators = 2,3"))


def test_line_numbers_survive_comments_and_blanks():
    text = "# header\n\n[network]\n; note\ntier_sizes = 0\n"
    with pytest.raises(ValidationError, match="network: line 5: tier_sizes"):
        parse_config(text)


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


def test_train_respects_thread_env(tmp_path, monkeypatch):
    path = write_config(tmp_path)
    out = tmp_path / "threaded"
    monkeypatch.setenv("ONNKIT_THREADS", "2")
    assert main(["train", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "fold1.ckpt").exists()


def test_bad_thread_env_is_a_usage_level_error(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path)
    monkeypatch.setenv("ONNKIT_THREADS", "many")
    assert main(["train", "--config", str(path),
                 "--out", str(tmp_path / "x")]) == 1
    assert "ONNKIT_THREADS" in capsys.readouterr().err


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
