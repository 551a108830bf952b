"""Training loop: SNR metric, best tracking, divergence, resume, exports."""
import csv
import dataclasses
import math
import warnings

import numpy as np
import pytest

from onnkit.dataio import make_synthetic_task, partition
from onnkit import checkpoint
from onnkit.errors import (
    ConstantTarget,
    CorruptState,
    NonFiniteGradient,
    NonFiniteLoss,
    NonFiniteValue,
    ShapeMismatch,
    ValidationError,
)
from onnkit.network import NetworkConfig, OpNetwork
from onnkit.oplib import register_builtin_library
import onnkit.trainer as trainer_mod
from onnkit.tensor import Tensor
from onnkit.trainer import (
    BUILTIN_METRICS,
    MetricSpec,
    Trainer,
    TrainerConfig,
    best_series_value,
    calc_snr,
    export_stats,
)

LIB = register_builtin_library()


def test_snr_halved_residual_power_is_three_db():
    t = Tensor([1.0, -1.0, 1.0, -1.0])
    p = Tensor([0.0, -2.0, 1.0, -1.0])
    assert calc_snr(p, t) == pytest.approx(10 * math.log10(2.0), abs=1e-12)
    assert calc_snr(p, t) == pytest.approx(3.0102999566398121, abs=1e-10)


def test_snr_mean_prediction_is_zero_db():
    t = Tensor([3.0, 5.0, 7.0, 9.0])
    p = Tensor([6.0, 6.0, 6.0, 6.0])
    assert calc_snr(p, t) == pytest.approx(0.0, abs=1e-12)


def test_snr_exact_prediction_is_capped():
    t = Tensor([0.5, -0.25, 0.75])
    assert calc_snr(Tensor(t), t) == 300.0


def test_snr_tiny_residual_is_not_capped():
    # signal power 2e20, residual 1e-10: the true ratio exceeds the cap
    # value and is reported as-is; only an exactly-zero residual is capped
    t = Tensor([1e10, -1e10])
    p = Tensor([1e10 - 1e-5, -1e10])
    got = calc_snr(p, t)
    assert math.isfinite(got) and got > 300.0


def test_snr_rejects_constant_target():
    with pytest.raises(ConstantTarget):
        calc_snr(Tensor([1.0, 2.0]), Tensor([4.0, 4.0]))


def test_snr_rejects_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        calc_snr(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))


def test_metric_improvement_is_strict():
    snr = BUILTIN_METRICS["snr"]
    assert snr.improves(2.0, 1.0)
    assert not snr.improves(1.0, 1.0)
    loss = MetricSpec("loss", lambda p, t: 0.0, "min")
    assert loss.improves(0.5, 1.0)
    assert not loss.improves(1.0, 1.0)


def conv_net():
    idx = LIB.set_by_names("mul", "sum", "identity").index
    return OpNetwork(NetworkConfig(tier_sizes=[1], kernel_sizes=[3],
                                   operators=[[idx]]), LIB)


def identity_split(count=8, size=4, seed=0):
    ds = make_synthetic_task("identity", count=count, size=size, seed=seed)
    return partition(ds, folds=2, val_fraction=0.25, seed=1)[0]


def make_trainer(cfg, split=None):
    return Trainer(conv_net(), split or identity_split(), cfg,
                   metrics=[BUILTIN_METRICS["snr"]])


def test_training_reduces_loss_and_fills_record():
    cfg = TrainerConfig(num_epochs=15, num_runs=2, optimizer="adam", lr=0.02,
                        batch_size=2, seed=3)
    trainer = make_trainer(cfg)
    record = trainer.train()

    assert record.run_count() == 2
    assert set(record.partitions) == {"train", "val", "test"}
    assert record.metric_names[0] == "loss"
    assert "snr" in record.metric_names
    for run in range(2):
        series = record.series[("train", "loss")][run]
        assert len(series) == 15
        assert series[-1] < 0.5 * series[0]
        assert len(record.times["train"][run]) == 15
    assert record.run_status == ["done", "done"]
    assert all(t > 0 for t in record.times["train"][0])


def test_best_entry_keeps_earlier_epoch_on_tie():
    cfg = TrainerConfig(num_epochs=1, num_runs=1, optimizer="sgd", lr=0.01,
                        seed=0)
    trainer = make_trainer(cfg)
    values = {"loss": 1.0, "snr": 2.0}
    trainer._update_best("train", values, run=0, epoch=0)
    trainer._update_best("train", dict(values), run=0, epoch=5)
    assert trainer.best[("train", "loss")].epoch == 0
    assert trainer.best[("train", "snr")].epoch == 0
    trainer._update_best("train", {"loss": 0.5, "snr": 2.0}, run=1, epoch=7)
    assert trainer.best[("train", "loss")].epoch == 7
    assert trainer.best[("train", "snr")].epoch == 0


def test_best_snapshot_is_decoupled_from_live_parameters():
    cfg = TrainerConfig(num_epochs=2, num_runs=1, optimizer="sgd", lr=0.05,
                        seed=2)
    trainer = make_trainer(cfg)
    trainer.train()
    best = trainer.best[("train", "loss")]
    snapshot = {k: v.copy() for k, v in best.params.items()}
    trainer.net.reset_parameters(99)
    for k in snapshot:
        assert np.array_equal(best.params[k], snapshot[k])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_divergent_training_raises_when_every_run_aborts():
    cfg = TrainerConfig(num_epochs=60, num_runs=2, optimizer="sgd", lr=1e9,
                        momentum=0.9, batch_size=2, seed=0)
    trainer = make_trainer(cfg)
    with pytest.raises(NonFiniteLoss):
        trainer.train()
    assert all(s.startswith("aborted") for s in trainer.record.run_status)


def test_partial_abort_is_recorded_not_raised():
    cfg = TrainerConfig(num_epochs=2, num_runs=2, optimizer="sgd", lr=0.01,
                        seed=1)
    trainer = make_trainer(cfg)
    original = trainer._train_epoch

    def flaky():
        if trainer._run == 0:
            raise NonFiniteLoss("injected failure")
        return original()

    trainer._train_epoch = flaky
    record = trainer.train()
    assert record.run_status[0] == "aborted: injected failure"
    assert record.run_status[1] == "done"
    assert len(record.series[("train", "loss")][0]) == 0
    assert len(record.series[("train", "loss")][1]) == 2


def test_stage_overflow_aborts_the_run_and_the_next_run_completes():
    # two exp tiers at a large SGD step: with seed 1, run 0's first update
    # drives exp to overflow, which the nodal stage check reports, while
    # run 1 trains through
    exp_tanh = LIB.set_by_names("exp", "sum", "tanh").index
    exp_identity = LIB.set_by_names("exp", "sum", "identity").index
    net = OpNetwork(NetworkConfig(tier_sizes=[2, 1], kernel_sizes=[3, 3],
                                  operators=[[exp_tanh], [exp_identity]]), LIB)
    data = make_synthetic_task("blur-inverse", count=8, size=8, seed=0)
    split = partition(data, folds=1, val_fraction=0.25, seed=0)[0]
    cfg = TrainerConfig(num_epochs=3, num_runs=2, optimizer="sgd", lr=4.0,
                        batch_size=4, seed=1)
    trainer = Trainer(net, split, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning stays quiet
        record = trainer.train()
    assert record.run_status == [
        "aborted: nodal operator 'exp' produced a non-finite value", "done"]
    assert len(record.series[("train", "loss")][1]) == 3


@pytest.mark.parametrize("error", [NonFiniteValue, NonFiniteGradient])
def test_stage_and_gradient_errors_abort_only_their_run(error):
    # NonFiniteLoss is covered by test_partial_abort_is_recorded_not_raised
    cfg = TrainerConfig(num_epochs=2, num_runs=2, optimizer="sgd", lr=0.01,
                        seed=1)
    trainer = make_trainer(cfg)
    original = trainer._train_epoch

    def flaky():
        if trainer._run == 0:
            raise error("injected failure")
        return original()

    trainer._train_epoch = flaky
    record = trainer.train()
    assert record.run_status == ["aborted: injected failure", "done"]


def test_divergence_during_evaluation_leaves_no_partial_epoch():
    cfg = TrainerConfig(num_epochs=2, num_runs=1, optimizer="sgd", lr=0.01,
                        seed=1)
    trainer = make_trainer(cfg)
    original = trainer.evaluate

    def flaky(partition):
        if trainer._epoch == 1 and partition == "val":
            raise NonFiniteValue("injected failure")
        return original(partition)

    trainer.evaluate = flaky
    with pytest.raises(NonFiniteLoss):
        trainer.train()
    assert trainer.record.run_status == ["aborted: injected failure"]
    for part in trainer.partitions:
        assert len(trainer.record.series[(part, "loss")][0]) == 1
        assert len(trainer.record.times[part][0]) == 1


def test_unknown_optimizer_fails_at_construction():
    with pytest.raises(ValidationError, match="^trainer: optimizer must be "
                                              "one of sgd, adam, got 'cgd'$"):
        TrainerConfig(num_epochs=1, num_runs=1, optimizer="cgd")


def test_output_shape_mismatch_fails_at_construction():
    idx = LIB.set_by_names("mul", "sum", "identity").index
    two_channel = OpNetwork(NetworkConfig(tier_sizes=[2], kernel_sizes=[3],
                                          operators=[[idx]]), LIB)
    cfg = TrainerConfig(num_epochs=1, num_runs=1)
    with pytest.raises(ShapeMismatch):
        Trainer(two_channel, identity_split(), cfg)


def test_evaluate_reports_all_metrics():
    cfg = TrainerConfig(num_epochs=1, num_runs=1, seed=0)
    trainer = make_trainer(cfg)
    trainer.net.reset_parameters(0)
    values = trainer.evaluate("val")
    assert set(values) == {"loss", "snr"}
    assert values["loss"] > 0


def test_a_trainer_refuses_a_metric_named_twice():
    snr_min = MetricSpec("snr", calc_snr, "min")
    with pytest.raises(ValidationError, match="trainer: metrics names 'snr' twice"):
        Trainer(conv_net(), identity_split(), TrainerConfig(num_epochs=1),
                metrics=[BUILTIN_METRICS["snr"], snr_min])


@pytest.mark.parametrize("criteria,message", [
    (["max"], "trainer: metrics criterion of loss must be min, got 'max'"),
    # the second loss breaks the criterion rule before it repeats the name
    (["min", "max"], "trainer: metrics criterion of loss must be min, got 'max'"),
    (["min", "min"], "trainer: metrics names 'loss' twice"),
], ids=["max", "twice", "twice-min"])
def test_a_trainer_refuses_a_loss_that_is_maximised_or_named_twice(
        criteria, message):
    losses = [MetricSpec("loss", trainer_mod.LOSS_METRIC.compute, c)
              for c in criteria]
    with pytest.raises(ValidationError, match=f"^{message}$"):
        Trainer(conv_net(), identity_split(), TrainerConfig(num_epochs=1),
                metrics=[BUILTIN_METRICS["snr"], *losses])


def test_a_trainer_refuses_a_criterion_other_than_max_or_min():
    # "Max" once trained, minimising snr, into an archive its own load refused
    with pytest.raises(ValidationError, match="^trainer: metrics criterion "
                       "must be max or min, got 'Max'$"):
        Trainer(conv_net(), identity_split(), TrainerConfig(num_epochs=1),
                metrics=[MetricSpec("snr", calc_snr, "Max")])


def mean_abs_error(pred, target):
    return float(np.abs(pred.data - target.data).mean())


LOSS_RULE = ("^trainer: metrics compute of loss must be LOSS_METRIC's mean "
             "squared error$")


def test_a_loss_spec_computing_anything_but_the_mse_is_refused(tmp_path):
    mae_loss = MetricSpec("loss", mean_abs_error, "min")
    split = identity_split()
    with pytest.raises(ValidationError, match=LOSS_RULE):
        Trainer(conv_net(), split, TrainerConfig(num_epochs=1),
                metrics=[mae_loss])
    trainer = make_trainer(TrainerConfig(num_epochs=1), split)
    trainer.train()
    trainer.save_all(tmp_path / "t.ckpt")
    # the caller's specs, not the archive, are at fault: no CorruptState,
    # even for an archive that cannot be read
    for path in (tmp_path / "t.ckpt", tmp_path / "missing.ckpt"):
        with pytest.raises(ValidationError, match=LOSS_RULE):
            Trainer.load(path, conv_net(), split, metrics=[mae_loss])


def test_a_loss_named_once_as_min_is_the_first_metric():
    trainer = Trainer(conv_net(), identity_split(), TrainerConfig(num_epochs=1),
                      metrics=[BUILTIN_METRICS["snr"], trainer_mod.LOSS_METRIC])
    assert trainer.record.metric_names == ["loss", "snr"]


def test_save_load_resume_matches_straight_run_bitwise(tmp_path):
    split = identity_split()
    base = dict(num_runs=1, optimizer="sgd", lr=0.05, momentum=0.9,
                batch_size=2, seed=7)

    straight = make_trainer(TrainerConfig(num_epochs=10, **base), split)
    straight_rec = straight.train()

    halfway = make_trainer(TrainerConfig(num_epochs=5, **base), split)
    halfway.train()
    path = tmp_path / "half.ckpt"
    halfway.save_all(path)

    resumed = Trainer.load(path, conv_net(), split)
    resumed.cfg = dataclasses.replace(resumed.cfg, num_epochs=10)
    resumed_rec = resumed.train()

    want = straight_rec.series[("train", "loss")][0]
    got = resumed_rec.series[("train", "loss")][0]
    assert len(want) == len(got) == 10
    assert want == got  # bitwise: identical floats, not just close
    for p_s, p_r in zip(straight.net.parameters(), resumed.net.parameters()):
        assert np.array_equal(p_s.value.data, p_r.value.data)


def test_loaded_trainer_preserves_bests_and_config_text(tmp_path):
    split = identity_split()
    cfg = TrainerConfig(num_epochs=3, num_runs=1, optimizer="adam", lr=0.01,
                        seed=4)
    trainer = Trainer(conv_net(), split, cfg,
                      metrics=[BUILTIN_METRICS["snr"]],
                      config_text="[network]\nsize = 1\n")
    trainer.train()
    path = tmp_path / "t.ckpt"
    trainer.save_all(path)

    again = Trainer.load(path, conv_net(), split)
    assert again.config_text == "[network]\nsize = 1\n"
    assert set(again.best) == set(trainer.best)
    for key, entry in trainer.best.items():
        other = again.best[key]
        assert other.value == entry.value
        assert (other.run, other.epoch) == (entry.run, entry.epoch)
        for name, arr in entry.params.items():
            assert np.array_equal(other.params[name], arr)
    assert again.record.series == trainer.record.series


def test_resume_keeps_an_archived_builtin_metric_criterion(tmp_path):
    # metrics = snr:min in a config: load restores the criterion from the
    # archive, not from the builtin spec's max
    split = identity_split()
    snr_min = MetricSpec("snr", calc_snr, "min")
    base = dict(num_runs=1, optimizer="adam", lr=0.01, seed=4)
    straight = Trainer(conv_net(), split, TrainerConfig(num_epochs=6, **base),
                       metrics=[snr_min])
    straight.train()
    halfway = Trainer(conv_net(), split, TrainerConfig(num_epochs=3, **base),
                      metrics=[snr_min])
    halfway.train()
    path = tmp_path / "half.ckpt"
    halfway.save_all(path)

    resumed = Trainer.load(path, conv_net(), split)
    resumed.cfg = dataclasses.replace(resumed.cfg, num_epochs=6)
    resumed.train()
    assert resumed.record.series == straight.record.series
    assert set(resumed.best) == set(straight.best)
    for key, want in straight.best.items():
        got = resumed.best[key]
        assert (got.value, got.run, got.epoch) == (want.value, want.run,
                                                   want.epoch), key
    assert best_series_value(resumed.record, "train", "snr") == min(
        resumed.record.series[("train", "snr")][0])


@pytest.mark.parametrize("optimizer,tamper,entry", [
    ("adam", lambda e: e.pop("opt/m/0/0/weights"), "opt/m/0/0/weights"),
    ("adam", lambda e: e.update({"opt/m/zzz": np.zeros(3)}), "opt/m/zzz"),
    ("adam", lambda e: e.update({"opt/m/0/0/weights": np.zeros(3)}),
     "opt/m/0/0/weights"),
    ("sgd", lambda e: e.pop("opt/velocity/0/0/bias"), "opt/velocity/0/0/bias"),
])
def test_load_names_an_optimizer_entry_unlike_the_network(
        tmp_path, optimizer, tamper, entry):
    trainer = Trainer(conv_net(), identity_split(),
                      TrainerConfig(num_epochs=1, optimizer=optimizer))
    trainer.train()
    path = tmp_path / "t.ckpt"
    trainer.save_all(path)
    entries = checkpoint.load(path)
    tamper(entries)
    with pytest.raises(CorruptState, match=f"'{entry}'"):
        Trainer.load(entries, conv_net(), identity_split())


def test_load_accepts_empty_optimizer_slots(tmp_path):
    # saved before the first step: the optimizer holds no slot entries
    trainer = Trainer(conv_net(), identity_split(),
                      TrainerConfig(num_epochs=1))
    trainer._start_run(0)
    path = tmp_path / "t.ckpt"
    trainer.save_all(path)
    assert not [k for k in checkpoint.load(path)
                if k.startswith(("opt/m/", "opt/v/"))]
    loaded = Trainer.load(path, conv_net(), identity_split())
    assert loaded.optimizer.state == {"m": {}, "v": {}}


@pytest.mark.parametrize("saved_val,loaded_val,message", [
    (0.0, 0.25, "the val partition is only in the split: the archive was "
                "trained on train, test"),
    (0.25, 0.0, "the val partition is only in the archive: the archive was "
                "trained on train, val, test"),
])
def test_load_into_a_split_with_other_partitions_names_the_partition(
        tmp_path, saved_val, loaded_val, message):
    ds = make_synthetic_task("identity", count=8, size=4, seed=0)
    split_at = {v: partition(ds, folds=2, val_fraction=v, seed=1)[0]
                for v in (saved_val, loaded_val)}
    trainer = Trainer(conv_net(), split_at[saved_val],
                      TrainerConfig(num_epochs=1))
    trainer.train()
    path = tmp_path / "t.ckpt"
    trainer.save_all(path)
    with pytest.raises(CorruptState) as err:
        Trainer.load(path, conv_net(), split_at[loaded_val])
    assert str(err.value) == message


def two_tier_net():
    idx = LIB.set_by_names("mul", "sum", "identity").index
    return OpNetwork(NetworkConfig(tier_sizes=[1, 1], kernel_sizes=[3, 3],
                                   operators=[[idx], [idx]]), LIB)


def saved_trainer(tmp_path, net):
    trainer = Trainer(net, identity_split(),
                      TrainerConfig(num_epochs=1, num_runs=1, seed=2))
    trainer.train()
    path = tmp_path / "t.ckpt"
    trainer.save_all(path)
    return path


def test_archive_holds_no_network_description(tmp_path):
    entries = checkpoint.load(saved_trainer(tmp_path, conv_net()))
    assert not [k for k in entries if k.startswith("arch/")]
    assert sorted(k for k in entries if k.startswith("param/")) == [
        "param/0/0/bias", "param/0/0/weights"]


@pytest.mark.parametrize("saved,loaded,message", [
    (conv_net, two_tier_net,
     "parameter entry 'param/1/0/weights' is only in the network"),
    (two_tier_net, conv_net,
     "parameter entry 'param/1/0/bias' is only in the archive"),
])
def test_load_names_a_parameter_the_archive_and_network_do_not_share(
        tmp_path, saved, loaded, message):
    path = saved_trainer(tmp_path, saved())
    with pytest.raises(CorruptState) as err:
        Trainer.load(path, loaded(), identity_split())
    assert str(err.value) == message


def test_load_rejects_a_reshaped_parameter(tmp_path):
    path = saved_trainer(tmp_path, conv_net())
    idx = LIB.set_by_names("mul", "sum", "identity").index
    wider = OpNetwork(NetworkConfig(tier_sizes=[1], kernel_sizes=[5],
                                    operators=[[idx]]), LIB)
    with pytest.raises(ShapeMismatch, match="'0/0/weights' has shape"):
        Trainer.load(path, wider, identity_split())


def test_load_names_a_best_parameter_the_archive_lacks(tmp_path):
    path = saved_trainer(tmp_path, conv_net())
    entries = checkpoint.load(path)
    del entries["best/val/loss/param/0/0/bias"]
    checkpoint.save(path, entries)
    with pytest.raises(CorruptState, match="'best/val/loss/param/0/0/bias' "
                                           "is only in the network"):
        Trainer.load(path, conv_net(), identity_split())


@pytest.mark.parametrize("entry,value", [
    ("trainer/status", b"{"),
    ("best/val/loss/param/0/0/weights", np.zeros((3, 3))),
], ids=["status-json", "best-param-shape"])
def test_a_failed_load_leaves_the_network_unchanged(tmp_path, entry, value):
    entries = checkpoint.load(saved_trainer(tmp_path, conv_net()))
    entries[entry] = value
    net = conv_net()
    net.reset_parameters(123)
    before = [p.value.data.copy() for p in net.parameters()]
    with pytest.raises(CorruptState, match=f"'{entry}'"):
        Trainer.load(entries, net, identity_split())
    after = [p.value.data for p in net.parameters()]
    assert [a.tobytes() for a in after] == [b.tobytes() for b in before]


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_load_then_save_reproduces_the_archive_byte_for_byte(tmp_path,
                                                             optimizer):
    split = identity_split()
    assert len(split.val) and len(split.test)
    trainer = make_trainer(TrainerConfig(num_epochs=2, num_runs=2,
                                         optimizer=optimizer, seed=3), split)
    trainer.train()
    first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
    trainer.save_all(first)
    Trainer.load(first, conv_net(), split).save_all(second)
    assert first.read_bytes() == second.read_bytes()


def test_export_stats_layout(tmp_path):
    cfg = TrainerConfig(num_epochs=4, num_runs=2, optimizer="sgd", lr=0.02,
                        seed=5)
    trainer = make_trainer(cfg)
    record = trainer.train()
    export_stats(record, tmp_path)

    for part in ("train", "val", "test"):
        path = tmp_path / f"{part}_fold0.csv"
        assert path.exists()
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["run", "epoch", "loss", "snr", "per_image_time_s"]
        assert len(rows) == 1 + 2 * 4
        for row in rows[1:]:
            float(row[2]), float(row[3]), float(row[4])
        assert path.read_bytes().count(b"\r\n") == len(rows)

    with open(tmp_path / "summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["partition", "metric", "fold_0", "mean",
                       "mean_per_image_time_s"]
    assert ["train", "loss"] in [r[:2] for r in rows[1:]]
    assert ["val", "snr"] in [r[:2] for r in rows[1:]]


def test_failed_export_leaves_earlier_csv_files_whole(tmp_path, monkeypatch):
    cfg = TrainerConfig(num_epochs=2, num_runs=1, optimizer="sgd", lr=0.02,
                        seed=5)
    record = make_trainer(cfg).train()
    export_stats(record, tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    calls = []

    def failing_fmt(value):
        calls.append(value)
        if len(calls) == 3:  # inside the first CSV's rows
            raise ValueError("injected failure")
        return "%.17g" % value

    monkeypatch.setattr(trainer_mod, "_fmt", failing_fmt)
    with pytest.raises(ValueError, match="injected failure"):
        export_stats(record, tmp_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_best_series_value_respects_criterion():
    cfg = TrainerConfig(num_epochs=5, num_runs=1, optimizer="adam", lr=0.02,
                        seed=6)
    trainer = make_trainer(cfg)
    record = trainer.train()
    losses = record.series[("train", "loss")][0]
    snrs = record.series[("train", "snr")][0]
    assert best_series_value(record, "train", "loss") == min(losses)
    assert best_series_value(record, "train", "snr") == max(snrs)
