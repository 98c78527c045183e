import numpy as np
import pytest

from zobench.fo import FOConfig, finite_diff_grad, fo_step, fo_train
from zobench.models import (Batch, BatchSampler, DataGenConfig, gen_data,
                            make_model, quadratic_bowl)
from zobench.params import ParamSet


def test_config_validation():
    with pytest.raises(ValueError):
        FOConfig(lr=-0.1)
    with pytest.raises(ValueError):
        FOConfig(optimizer="rmsprop")
    with pytest.raises(ValueError):
        FOConfig(beta1=1.0)
    with pytest.raises(ValueError):
        FOConfig(eps_adam=0)


def test_sgd_step_matches_hand_update():
    model = quadratic_bowl(np.array([1.0, 2.0, 3.0]))
    params = model.init(0)
    theta0 = params["theta"].copy()
    cfg = FOConfig(lr=0.1, optimizer="sgd")
    fo_step(model, params, None, cfg, {})
    expected = theta0 - 0.1 * (np.array([1.0, 2.0, 3.0]) * theta0)
    np.testing.assert_allclose(params["theta"], expected, rtol=0, atol=0)


def test_adam_first_step_magnitude():
    # with zero moments, the first Adam step is lr * sign(g) elementwise
    model = quadratic_bowl(np.ones(4))
    params = ParamSet([("theta", np.array([1.0, -2.0, 3.0, -4.0]))])
    cfg = FOConfig(lr=0.05, optimizer="adam")
    before = params["theta"].copy()
    fo_step(model, params, None, cfg, {})
    step = before - params["theta"]
    np.testing.assert_allclose(step, 0.05 * np.sign(before), rtol=1e-6)


def test_adam_state_persists():
    model = quadratic_bowl(np.ones(3))
    params = model.init(1)
    state = {}
    cfg = FOConfig(lr=0.01, optimizer="adam")
    fo_step(model, params, None, cfg, state)
    fo_step(model, params, None, cfg, state)
    assert state["t"] == 2
    assert set(state["m"]) == {"theta"}


def test_nonfinite_gradient_aborts_before_update():
    from zobench.models import Model
    model = Model(name="bad", loss=lambda p, b: 0.0,
                  grad=lambda p, b: ParamSet([("theta", np.array([np.nan]))]))
    params = ParamSet([("theta", np.array([1.0]))])
    with pytest.raises(ArithmeticError):
        fo_step(model, params, None, FOConfig(lr=0.1), {})
    assert params["theta"][0] == 1.0


def test_fo_train_converges_quadratic():
    model = quadratic_bowl(np.linspace(1, 2, 10))
    params = model.init(0)
    metrics = fo_train(model, lambda t: None, FOConfig(lr=0.1, steps=200), params)
    assert metrics[-1]["loss"] < metrics[0]["loss"] / 1e4
    assert all(m["forwards"] == 1 for m in metrics)


def test_fo_train_fits_logistic():
    cfg = DataGenConfig(task="logistic", dim=10, classes=3, n_train=256,
                        n_test=64, seed=0)
    model = make_model(cfg)
    tr, te = gen_data(cfg)
    params = model.init(0)
    sampler = BatchSampler(tr, 32, seed=0)
    fo_train(model, sampler.draw, FOConfig(lr=0.5, steps=300), params)
    from zobench.models import accuracy
    assert accuracy(model, params, te) > 0.9


def test_finite_diff_matches_analytic_quadratic():
    model = quadratic_bowl(np.linspace(1, 3, 6))
    params = model.init(2)
    num = finite_diff_grad(model, params, None, h=1e-6)
    ana = model.grad(params, None)
    np.testing.assert_allclose(num["theta"], ana["theta"], rtol=1e-6, atol=1e-8)


def test_finite_diff_requires_positive_h():
    model = quadratic_bowl(np.ones(2))
    with pytest.raises(ValueError):
        finite_diff_grad(model, model.init(0), None, h=0.0)


def test_finite_diff_leaves_params_unchanged():
    model = quadratic_bowl(np.ones(4))
    params = model.init(3)
    before = params.copy()
    finite_diff_grad(model, params, None, h=1e-6)
    assert params.equals_bitwise(before)
