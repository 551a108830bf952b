"""Optimizers: update recurrences, state round-trips, bad input handling."""
import numpy as np
import pytest

from onnkit import checkpoint
from onnkit.autograd import Parameter
from onnkit.errors import CorruptState, NonFiniteGradient, UnknownOptimizer
from onnkit.optim import SGD, Adam, make_optimizer, restore_from_entries
from onnkit.tensor import Tensor


def make_param(value, name="p"):
    return Parameter(name, Tensor(value))


def test_sgd_momentum_recurrence():
    # lr=0.1, momentum=0.9, unit gradient:
    #   v1 = 1,   p1 = -0.1
    #   v2 = 1.9, p2 = -0.29
    p = make_param(0.0)
    opt = SGD(lr=0.1, momentum=0.9)
    g = {"p": Tensor(1.0)}
    opt.step([p], g)
    assert p.value.data == pytest.approx(-0.1)
    opt.step([p], g)
    assert p.value.data == pytest.approx(-0.29)
    opt.step([p], g)
    assert p.value.data == pytest.approx(-0.29 - 0.1 * (0.9 * 1.9 + 1.0))


def test_sgd_zero_momentum_is_plain_descent():
    p = make_param([1.0, 2.0])
    opt = SGD(lr=0.5, momentum=0.0)
    opt.step([p], {"p": Tensor([2.0, -2.0])})
    assert p.value.data.tolist() == [0.0, 3.0]


def test_adam_first_step_moves_by_learning_rate():
    for g0 in (3.0, -0.004, 120.0):
        p = make_param(1.0)
        opt = Adam(lr=0.001)
        opt.step([p], {"p": Tensor(g0)})
        assert p.value.data == pytest.approx(1.0 - 0.001 * np.sign(g0),
                                             abs=1e-6)


def test_adam_matches_reference_recurrence():
    rng = np.random.default_rng(8)
    grads = rng.standard_normal((6, 4))
    p = make_param(np.zeros(4))
    opt = Adam(lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)

    ref = np.zeros(4)
    m = np.zeros(4)
    v = np.zeros(4)
    for t, g in enumerate(grads, start=1):
        opt.step([p], {"p": Tensor(g)})
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mh = m / (1 - 0.9 ** t)
        vh = v / (1 - 0.999 ** t)
        ref = ref - 0.01 * mh / (np.sqrt(vh) + 1e-8)
        assert np.allclose(p.value.data, ref, rtol=0, atol=1e-15)


def test_missing_gradient_is_treated_as_zero():
    p = make_param(0.0)
    opt = SGD(lr=0.1, momentum=0.9)
    opt.step([p], {"p": Tensor(1.0)})
    opt.step([p], {})
    # velocity decays: v2 = 0.9, p2 = -0.1 - 0.09
    assert p.value.data == pytest.approx(-0.19)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_gradient_is_rejected(bad):
    p = make_param([0.0, 0.0])
    opt = SGD()
    with pytest.raises(NonFiniteGradient):
        opt.step([p], {"p": Tensor([1.0, bad])})


def test_unknown_optimizer_lists_supported_names():
    with pytest.raises(UnknownOptimizer) as exc:
        make_optimizer("cgd")
    msg = str(exc.value)
    assert "cgd" in msg and "sgd" in msg and "adam" in msg


def test_make_optimizer_passes_relevant_hyperparameters():
    opt = make_optimizer("sgd", lr=0.2, momentum=0.5, beta1=0.7)
    assert isinstance(opt, SGD)
    assert opt.lr == 0.2 and opt.momentum == 0.5
    opt = make_optimizer("adam", lr=0.05, beta2=0.99, momentum=0.1)
    assert isinstance(opt, Adam)
    assert opt.lr == 0.05 and opt.beta2 == 0.99


def test_scale_lr_compounds():
    opt = SGD(lr=1.0)
    opt.scale_lr(0.5)
    opt.scale_lr(0.5)
    assert opt.lr == 0.25


@pytest.mark.parametrize("name,hyper", [
    ("sgd", {"lr": 0.07, "momentum": 0.8}),
    ("adam", {"lr": 0.003, "beta1": 0.85, "beta2": 0.995, "eps": 1e-7}),
])
def test_state_round_trip_is_bitwise(name, hyper):
    rng = np.random.default_rng(21)
    grads = [Tensor(rng.standard_normal(5)) for _ in range(6)]

    pa = make_param(np.ones(5))
    oa = make_optimizer(name, **hyper)
    for g in grads[:3]:
        oa.step([pa], {"p": g})

    # the trainer's own path: archive entries out, decoded entries back in
    blob = checkpoint.encode(oa.state_entries())
    ob = restore_from_entries(checkpoint.decode(blob))
    pb = make_param(pa.value)

    for g in grads[3:]:
        oa.step([pa], {"p": g})
        ob.step([pb], {"p": g})
    assert np.array_equal(pa.value.data, pb.value.data)
    assert checkpoint.encode(oa.state_entries()) == checkpoint.encode(ob.state_entries())


def test_restore_rejects_incomplete_state():
    opt = Adam()
    opt.step([make_param(0.0)], {"p": Tensor(1.0)})
    entries = opt.state_entries()
    entries.pop("opt/step")
    with pytest.raises(CorruptState):
        Adam.from_entries(entries)
    with pytest.raises(CorruptState):
        SGD.from_entries({})
