import math
import warnings

import numpy as np
import pytest

from zobench import models
from zobench.fo import finite_diff_grad
from zobench.models import (Batch, BatchSampler, DataGenConfig, StreamSample,
                            accuracy, entropy_objective,
                            gen_data, gen_shifted_stream,
                            logistic_regression, make_model, mlp_classifier,
                            quadratic_bowl, sample_scores, seq_classifier)
from zobench.params import ParamSet


def test_quadratic_validation():
    with pytest.raises(ValueError):
        quadratic_bowl(np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        quadratic_bowl(np.ones((2, 2)))


def test_quadratic_loss_and_grad():
    model = quadratic_bowl(np.array([2.0, 4.0]), b=np.array([2.0, 4.0]))
    from zobench.params import ParamSet
    params = ParamSet([("theta", np.array([1.0, 1.0]))])
    # L = 0.5 (2 + 4) - (2 + 4) = -3 at theta = (1, 1), the minimizer
    assert model.loss(params, None) == -3.0
    np.testing.assert_array_equal(model.grad(params, None)["theta"], [0.0, 0.0])


def test_batch_validation():
    with pytest.raises(ValueError):
        Batch(np.zeros((3, 2)), np.zeros(2, dtype=int))
    b = Batch(np.zeros((3, 2)), np.zeros(3, dtype=int))
    assert len(b) == 3


@pytest.mark.parametrize("factory,shape", [
    (lambda: logistic_regression(6, 4), (5, 6)),
    (lambda: mlp_classifier(6, 5, 4), (5, 6)),
    (lambda: seq_classifier(3, 4, 4, hidden=5), (5, 3, 4)),
])
def test_untrained_loss_is_ln_classes(factory, shape):
    # zero-initialized heads give uniform predictions: CE = ln(classes)
    model = factory()
    params = model.init(0)
    rng = np.random.default_rng(0)
    batch = Batch(rng.normal(size=shape), rng.integers(0, 4, size=shape[0]))
    assert abs(model.loss(params, batch) - math.log(4)) < 1e-12


@pytest.mark.parametrize("factory,shape", [
    (lambda: logistic_regression(5, 3), (6, 5)),
    (lambda: mlp_classifier(5, 4, 3), (6, 5)),
    (lambda: seq_classifier(3, 4, 3, hidden=4), (6, 3, 4)),
])
def test_analytic_grad_matches_finite_differences(factory, shape):
    model = factory()
    params = model.init(1)
    # move off the zero-head saddle so gradients are informative
    for _, arr in params.items():
        arr += 0.05 * np.random.default_rng(2).normal(size=arr.shape)
    rng = np.random.default_rng(3)
    batch = Batch(rng.normal(size=shape), rng.integers(0, 3, size=shape[0]))
    ana = model.grad(params, batch)
    num = finite_diff_grad(model, params, batch, h=1e-6)
    for name, g in ana.items():
        scale = max(1.0, float(np.abs(num[name]).max()))
        np.testing.assert_allclose(g, num[name], rtol=1e-5,
                                   atol=1e-5 * scale)


def test_entropy_grad_matches_finite_differences():
    model = seq_classifier(3, 4, 3, hidden=4)
    params = model.init(1)
    for _, arr in params.items():
        arr += 0.05 * np.random.default_rng(2).normal(size=arr.shape)
    batch = Batch(np.random.default_rng(3).normal(size=(4, 3, 4)))
    obj = entropy_objective(model)
    ana = obj.grad(params, batch)
    num = finite_diff_grad(obj, params, batch, h=1e-6)
    for name, g in ana.items():
        np.testing.assert_allclose(g, num[name], rtol=1e-4, atol=1e-7)


def test_entropy_trivial_values():
    model = logistic_regression(4, 5)
    params = model.init(0)  # zero weights: uniform outputs
    batch = Batch(np.random.default_rng(0).normal(size=(8, 4)))
    assert abs(entropy_objective(model).loss(params, batch)
               - math.log(5)) < 1e-12
    # enormous weights: effectively one-hot outputs, entropy ~ 0
    params["weight"][:] = 1e4 * np.random.default_rng(1).normal(size=(4, 5))
    assert entropy_objective(model).loss(params, batch) < 1e-6


def test_entropy_rejects_labeled_batch():
    model = logistic_regression(4, 3)
    batch = Batch(np.zeros((2, 4)), np.zeros(2, dtype=int))
    with pytest.raises(ValueError):
        entropy_objective(model).loss(model.init(0), batch)


def test_seq_schema_groups():
    model = seq_classifier(4, 3, 2, hidden=6)
    names = model.init(0).names
    groups = {n.split(".")[0] for n in names}
    assert groups == {"feat", "norm", "head"}


def test_gen_data_deterministic():
    cfg = DataGenConfig(task="mlp", dim=6, classes=3, n_train=64, n_test=32,
                        seed=5)
    tr1, te1 = gen_data(cfg)
    tr2, te2 = gen_data(cfg)
    np.testing.assert_array_equal(tr1.inputs, tr2.inputs)
    np.testing.assert_array_equal(te1.labels, te2.labels)
    assert len(tr1) == 64 and len(te1) == 32


def test_gen_data_rejects_quadratic():
    with pytest.raises(ValueError):
        gen_data(DataGenConfig(task="quadratic"))


def test_sigma_zero_stream_is_bit_exact_clean():
    cfg = DataGenConfig(task="seq", frames=4, feat_dim=3, classes=2,
                        n_train=8, seed=1, noise_sigma=0.0)
    clean = gen_shifted_stream(cfg, 10)
    again = gen_shifted_stream(cfg, 10)
    for a, b in zip(clean, again):
        np.testing.assert_array_equal(a.inputs, b.inputs)
        assert a.label == b.label
    noisy_cfg = DataGenConfig(**{**cfg.__dict__, "noise_sigma": 1e-2})
    noisy = gen_shifted_stream(noisy_cfg, 10)
    assert not np.array_equal(clean[0].inputs, noisy[0].inputs)


def test_affine_shift_applied():
    cfg = DataGenConfig(task="seq", frames=4, feat_dim=3, classes=2,
                        n_train=8, seed=1)
    clean = gen_shifted_stream(cfg, 5)
    shifted_cfg = DataGenConfig(**{**cfg.__dict__, "shift_scale": 2.0,
                                   "shift_bias": 0.5})
    shifted = gen_shifted_stream(shifted_cfg, 5)
    for c, s in zip(clean, shifted):
        np.testing.assert_allclose(s.inputs, 2.0 * c.inputs + 0.5)


def test_negative_sigma_rejected():
    with pytest.raises(ValueError):
        DataGenConfig(noise_sigma=-0.1)


def test_stream_sample_batch_is_unlabeled():
    s = StreamSample(0, np.zeros((4, 3)), 1)
    b = s.batch()
    assert b.inputs.shape == (1, 4, 3) and b.labels is None


def test_batch_sampler_pure_in_index():
    cfg = DataGenConfig(task="logistic", dim=4, classes=2, n_train=32, seed=0)
    tr, _ = gen_data(cfg)
    sampler = BatchSampler(tr, 8, seed=3)
    a = sampler.draw(5)
    sampler.draw(6)
    b = sampler.draw(5)
    np.testing.assert_array_equal(a.inputs, b.inputs)


def test_sample_scores_flat_vs_frames():
    cfg = DataGenConfig(task="logistic", dim=4, classes=3, n_train=32, seed=0)
    model = make_model(cfg)
    tr, _ = gen_data(cfg)
    params = model.init(0)
    params["weight"][:] = np.random.default_rng(1).normal(size=(4, 3))
    scores = sample_scores(model, params, tr)
    assert set(np.unique(scores)) == {0.0, 1.0}
    hits = model.predict(params, tr).argmax(1) == tr.labels
    np.testing.assert_array_equal(scores, hits.astype(np.float64))

    scfg = DataGenConfig(task="seq", frames=8, feat_dim=4, classes=3,
                         n_train=16, seed=0)
    smodel = make_model(scfg)
    str_, _ = gen_data(scfg)
    fscores = sample_scores(smodel, smodel.init(0), str_)
    assert fscores.shape == (16,)
    assert np.all((0.0 <= fscores) & (fscores <= 1.0))
    # frame scores are multiples of 1/frames
    np.testing.assert_allclose(fscores * 8, np.round(fscores * 8), atol=1e-12)


def test_sample_scores_needs_a_core():
    model = quadratic_bowl(np.ones(3))
    batch = Batch(np.zeros((2, 3)), np.zeros(2, dtype=int))
    with pytest.raises(ValueError, match="no predictive distribution"):
        sample_scores(model, model.init(0), batch)


def test_accuracy_of_perfect_separation():
    cfg = DataGenConfig(task="logistic", dim=4, classes=2, n_train=64,
                        n_test=32, seed=0)
    model = make_model(cfg)
    tr, te = gen_data(cfg)
    from zobench.fo import FOConfig, fo_train
    params = model.init(0)
    fo_train(model, BatchSampler(tr, 16, seed=0).draw,
             FOConfig(lr=0.5, steps=200), params)
    assert accuracy(model, params, te) > 0.9


def test_make_model_unknown_task():
    with pytest.raises(ValueError):
        make_model(DataGenConfig(task="transformer"))


# The loss kernels as numpy's Python-level wrappers write them.  models.py
# calls the ufunc reductions directly; these must give the same bits.

def _ref_mean(a, axis=None, keepdims=False):
    return np.mean(a, axis=axis, keepdims=keepdims)


def _ref_softmax(scores):
    s = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(s)
    return e / e.sum(axis=1, keepdims=True)


def _ref_ce_from_scores(scores, labels):
    s = scores - scores.max(axis=1, keepdims=True)
    logz = np.log(np.exp(s).sum(axis=1))
    return float(np.mean(logz - s[np.arange(len(labels)), labels]))


def _ref_entropy_from_scores(scores):
    p = _ref_softmax(scores)
    logp = np.log(np.clip(p, 1e-300, None))
    return float(np.mean(-(p * logp).sum(axis=1)))


def _ref_entropy_dscores(scores):
    p = _ref_softmax(scores)
    logp = np.log(np.clip(p, 1e-300, None))
    h_row = -(p * logp).sum(axis=1, keepdims=True)
    return -p * (logp + h_row) / scores.shape[0]


def test_float32_entropy_with_a_vanishing_probability():
    # exp(-201) is 0 in float32, so a floor of 1e-300 gave log 0 = -inf and
    # 0 * -inf = nan in both the loss and its gradient
    scores = np.array([[0.0, -200.0, 1.0]], dtype=np.float32)
    wide = scores.astype(np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = models._entropy_from_scores(scores)
        d = models._entropy_dscores(scores)
    assert math.isfinite(h) and d.dtype == np.float32 and np.isfinite(d).all()
    assert h == pytest.approx(models._entropy_from_scores(wide), rel=1e-6)
    np.testing.assert_allclose(d, models._entropy_dscores(wide),
                               rtol=1e-6, atol=1e-9)


def _ref_hidden(self, params, x):
    a = np.tanh(x @ params["feat.weight"] + params["feat.bias"])
    mu = a.mean(axis=-1, keepdims=True)
    var = a.var(axis=-1, keepdims=True)
    std = np.sqrt(var + models._LN_EPS)
    xhat = (a - mu) / std
    y = params["norm.gain"] * xhat + params["norm.bias"]
    return a, xhat, std, y


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def _kernel_outputs(model, params, x, labels):
    """Every loss, gradient and score the kernels feed, in a fixed order."""
    labeled, unlabeled = Batch(x, labels), Batch(x)
    # Batch casts inputs to float64; reset them so float32 runs float32
    labeled.inputs = unlabeled.inputs = x
    ent = entropy_objective(model)
    return [model.loss(params, labeled), model.grad(params, labeled),
            ent.loss(params, unlabeled), ent.grad(params, unlabeled),
            sample_scores(model, params, labeled)]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_loss_kernels_match_numpy_reference(dtype, monkeypatch):
    rng = np.random.default_rng(23)
    a = rng.normal(size=(5, 7, 3)).astype(dtype)
    for axis in (None, 0, 1, -1):
        for keepdims in (False, True):
            assert _same_bits(models._mean(a, axis, keepdims),
                              np.mean(a, axis=axis, keepdims=keepdims))

    for trial in range(6):
        n = int(rng.integers(1, 9))
        frames = int(rng.integers(1, 33))
        scale = [1e-2, 1.0, 10.0][trial % 3]
        for model, shape in [
            (logistic_regression(5, 4), (n, 5)),
            (mlp_classifier(5, 6, 4), (n, 5)),
            (seq_classifier(frames, 5, 4, hidden=6), (n, frames, 5)),
        ]:
            # perturbed away from init, which has zero heads
            params = ParamSet([
                (name, (arr + 0.5 * rng.normal(size=arr.shape)).astype(dtype))
                for name, arr in model.init(trial).items()])
            x = (scale * rng.normal(size=shape)).astype(dtype)
            labels = rng.integers(0, 4, size=n)
            live = _kernel_outputs(model, params, x, labels)
            with monkeypatch.context() as m:
                for name, ref in [
                        ("_mean", _ref_mean), ("_softmax", _ref_softmax),
                        ("_ce_from_scores", _ref_ce_from_scores),
                        ("_entropy_from_scores", _ref_entropy_from_scores),
                        ("_entropy_dscores", _ref_entropy_dscores)]:
                    m.setattr(models, name, ref)
                m.setattr(models._SeqCore, "_hidden", _ref_hidden)
                ref = _kernel_outputs(model, params, x, labels)
            for got, want in zip(live, ref):
                if isinstance(got, ParamSet):
                    assert got.names == want.names
                    for name, arr in got.items():
                        assert _same_bits(arr, want[name]), (model.name, name)
                elif isinstance(got, float):
                    assert got == want, model.name
                else:
                    assert _same_bits(got, want), model.name
