import numpy as np
import pytest

from conftest import finite_diff_grad, layouts, reference_fo_step
from zobench.fo import FOConfig, fo_step, fo_train
from zobench.models import (Batch, BatchSampler, DataGenConfig,
                            entropy_objective, gen_data, make_model,
                            mlp_classifier, quadratic_bowl, seq_classifier)
from zobench.params import ParamSet
from zobench.tta import _masked_objective


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
    # two steps on one state equal the per-tensor reference's two steps
    model = quadratic_bowl(np.linspace(1, 3, 3))
    params = model.init(1)
    ref = params.copy()
    state, ref_state = {}, {}
    cfg = FOConfig(lr=0.01, optimizer="adam")
    for _ in range(2):
        fo_step(model, params, None, cfg, state)
        reference_fo_step(model.loss_and_grad(ref, None)[1], ref, cfg, ref_state)
    assert state["t"] == ref_state["t"] == 2
    assert params.equals_bitwise(ref)


def _fo_case(case):
    """(model, params, batch, root) for one layout of an FO step: ``root``
    is the set whose bytes the step changes, ``params`` or its parent."""
    if case == "wide":  # layer1.weight's 76,800 elements exceed CHUNK
        model, shape = mlp_classifier(300, 256, 3), (16, 300)
    else:
        model, shape = seq_classifier(4, 3, 3, hidden=5), (6, 4, 3)
    rng = np.random.default_rng(11)
    root = ParamSet([(n, a + 0.3 * rng.normal(size=a.shape))
                     for n, a in model.init(0).items()])
    batch = Batch(rng.normal(size=shape), rng.integers(0, 3, size=shape[0]))
    if case.startswith("f32"):
        root = ParamSet([(n, a.astype(np.float32)) for n, a in root.items()])
    if case == "f32":  # float32 inputs too, so the gradients are float32
        batch.inputs = batch.inputs.astype(np.float32)
    if case == "subset_gap":  # left out of params only: the gradients pack
        gapped = layouts(root)["subset_gap"]
        return model, gapped, batch, gapped
    if case == "masked_gap":  # feat.bias left out of params and gradients
        names = ["feat.weight", "norm.gain", "norm.bias"]
        masked = _masked_objective(entropy_objective(model), root, names)
        return masked, root.subset(names), Batch(batch.inputs), root
    return model, root, batch, root


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
@pytest.mark.parametrize("case", ["f64", "f32", "f32_f64_grads", "subset_gap",
                                  "masked_gap", "wide"])
def test_fo_step_matches_per_tensor_reference(optimizer, case):
    # the packed-buffer step gives the bytes of the per-tensor loop, over
    # float64 and float32 sets, gradients wider than the set, subsets
    # whose buffers have gaps, and a tensor cut into CHUNK pieces
    model, params, batch, root = _fo_case(case)
    ref_model, ref, ref_batch, ref_root = _fo_case(case)
    assert params.dtype == np.dtype(np.float32 if "f32" in case else np.float64)
    cfg = FOConfig(lr=0.05, optimizer=optimizer)
    state, ref_state = {}, {}
    for _ in range(3):
        loss = fo_step(model, params, batch, cfg, state)
        ref_loss, grads = ref_model.loss_and_grad(ref, ref_batch)
        reference_fo_step(grads, ref, cfg, ref_state)
        assert loss == ref_loss
        assert root.equals_bitwise(ref_root)
    assert not root.equals_bitwise(_fo_case(case)[3])


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
@pytest.mark.parametrize("task", ["mlp", "seq"])
def test_fo_train_runs_one_forward_per_step(optimizer, task, monkeypatch):
    cfg = DataGenConfig(task=task, dim=5, hidden=4, frames=4, feat_dim=3,
                        classes=3, n_train=32, seed=0)
    model = make_model(cfg)
    tr, _ = gen_data(cfg)
    forward, calls = model.core.forward, []

    def counted(params, x):
        calls.append(None)
        return forward(params, x)

    monkeypatch.setattr(model.core, "forward", counted)
    metrics = fo_train(model, BatchSampler(tr, 8, seed=0).draw,
                       FOConfig(lr=0.1, optimizer=optimizer, steps=7),
                       model.init(0))
    assert len(calls) == len(metrics) == 7


def test_nonfinite_gradient_aborts_before_update():
    from zobench.models import Model
    model = Model(name="bad", loss=lambda p, b: 0.0,
                  loss_and_grad=lambda p, b: (
                      0.0, ParamSet([("theta", np.array([np.nan]))])))
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
    ana = model.loss_and_grad(params, None)[1]
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
