import numpy as np
import pytest

from zobench.models import Batch, Model, quadratic_bowl
from zobench.params import ParamSet, apply_records
from zobench.samplers import FULL, PerturbSpec, SamplerKind, sample_for_tensor
from zobench.streams import GaussianStream
from zobench.zo import (CountingModel, NumericError, ZOConfig, derive_seed,
                        rge_proj_grad, train, zo_step)

D = 10


def bowl():
    return quadratic_bowl(np.ones(D))  # L = 0.5 ||theta||^2, grad = theta


def test_config_validation():
    with pytest.raises(ValueError):
        ZOConfig(epsilon=0)
    with pytest.raises(ValueError):
        ZOConfig(lr=-0.1)
    with pytest.raises(ValueError):
        ZOConfig(q=0)
    with pytest.raises(ValueError):
        ZOConfig(combine="median")
    with pytest.raises(ValueError):
        ZOConfig(batch_mode="stale")


def test_lr_effective():
    assert ZOConfig(lr=0.4, q=8, combine="accumulate").lr_effective == 0.4
    assert ZOConfig(lr=0.4, q=8, combine="mean").lr_effective == 0.05


def test_derive_seed_golden_and_range():
    assert derive_seed(0, 0, 0) == 2558736989570252433
    assert derive_seed(1, 2, 3) == 15020427595393229491
    seeds = {derive_seed(0, t, j) for t in range(50) for j in range(8)}
    assert len(seeds) == 400  # no collisions over a run's worth of queries
    assert all(0 <= s < 2 ** 64 for s in seeds)


def test_proj_grad_exact_on_quadratic():
    # L = 0.5||theta||^2: (L(t+ez) - L(t-ez)) / 2e = theta . z exactly in
    # real arithmetic, because the quadratic terms cancel
    model = bowl()
    params = model.init(3)
    theta = params["theta"].copy()
    for seed in range(20):
        spec = PerturbSpec(seed=seed, epsilon=1e-3)
        g, rec = rge_proj_grad(model, params, None, spec)
        z = sample_for_tensor(GaussianStream(seed, substream=0), (D,), FULL)
        expected = float(theta @ z)
        assert abs(g - expected) <= 1e-8 * max(1.0, abs(expected))
        assert rec.seed == seed and rec.proj_grad == g


def test_proj_grad_zero_for_constant_loss():
    model = Model(name="const", schema=None,
                  loss=lambda p, b: 4.2)
    params = ParamSet([("theta", np.ones(5))])
    g, _ = rge_proj_grad(model, params, None, PerturbSpec(seed=1, epsilon=1e-3))
    assert g == 0.0


def test_proj_grad_restores_params():
    model = bowl()
    params = model.init(0)
    before = params.copy()
    rge_proj_grad(model, params, None, PerturbSpec(seed=7, epsilon=1e-3))
    assert params.max_abs_diff(before) < 1e-12


def test_numeric_error_carries_seed_and_restores():
    calls = {"n": 0}

    def loss(p, b):
        calls["n"] += 1
        return float("nan") if calls["n"] == 1 else 0.0

    model = Model(name="nan", schema=None, loss=loss)
    params = ParamSet([("theta", np.ones(4))])
    before = params.copy()
    with pytest.raises(NumericError) as exc:
        rge_proj_grad(model, params, None, PerturbSpec(seed=123, epsilon=1e-3))
    assert exc.value.seed == 123
    # the perturb cycle completed before the raise: params restored
    assert params.max_abs_diff(before) < 1e-12


def test_estimator_is_unbiased_on_quadratic():
    # E[proj_grad * z] = grad for the quadratic; brute-force Monte Carlo
    model = bowl()
    params = model.init(1)
    theta = params["theta"].copy()
    n = 20_000
    acc = np.zeros(D)
    for seed in range(n):
        z = sample_for_tensor(GaussianStream(seed, substream=0), (D,), FULL)
        spec = PerturbSpec(seed=seed, epsilon=1e-3)
        g, _ = rge_proj_grad(model, params, None, spec)
        acc += g * z
    est = acc / n
    rel = np.linalg.norm(est - theta) / np.linalg.norm(theta)
    assert rel < 0.05


def test_apply_records_matches_manual():
    model = bowl()
    params = model.init(2)
    cfg = ZOConfig(epsilon=1e-3, lr=0.1, q=2, master_seed=5)
    rec = zo_step(model, params.copy(), lambda t, j: None, cfg, 0)

    manual = params.copy()
    for qrec in rec.queries:
        z = sample_for_tensor(GaussianStream(qrec.seed, substream=0), (D,), FULL)
        manual["theta"][:] -= cfg.lr * qrec.proj_grad * z

    replayed = params.copy()
    apply_records(replayed, [q.seed for q in rec.queries],
                  [q.proj_grad for q in rec.queries], -cfg.lr_effective,
                  cfg.epsilon, cfg.sampler)
    assert replayed.max_abs_diff(manual) < 1e-14


def test_accumulate_equals_mean_with_scaled_lr():
    # Accumulate(lr) and Mean(q * lr) are bit-identical for power-of-two q
    model = bowl()
    q, lr, steps = 8, 0.005, 100
    pa = model.init(4)
    pm = model.init(4)
    cfg_a = ZOConfig(epsilon=1e-3, lr=lr, q=q, steps=steps,
                     combine="accumulate", master_seed=11)
    cfg_m = ZOConfig(epsilon=1e-3, lr=q * lr, q=q, steps=steps,
                     combine="mean", master_seed=11)
    train(model, lambda i: None, cfg_a, pa)
    train(model, lambda i: None, cfg_m, pm)
    assert pa.equals_bitwise(pm)


def test_training_descends_on_quadratic():
    model = bowl()
    params = model.init(6)
    start = model.loss(params, None)
    cfg = ZOConfig(epsilon=1e-3, lr=0.05, q=8, steps=100, combine="mean",
                   master_seed=0)
    train(model, lambda i: None, cfg, params)
    end = model.loss(params, None)
    assert end < start / 100


def test_train_metrics_and_counting():
    model = CountingModel(bowl())
    params = model.init(0)
    cfg = ZOConfig(epsilon=1e-3, lr=0.01, q=3, steps=7, master_seed=1)
    records, metrics = train(model, lambda i: None, cfg, params)
    assert len(records) == 7 and len(metrics) == 7
    assert all(m["forwards"] == 2 * cfg.q for m in metrics)
    assert model.forward_count == 2 * cfg.q * cfg.steps
    assert all(len(r.queries) == cfg.q for r in records)


def test_fresh_vs_shared_batch_indexing():
    seen = []

    def batch_source(index):
        seen.append(index)
        return None

    model = bowl()
    cfg = ZOConfig(epsilon=1e-3, lr=0.01, q=2, steps=3, master_seed=0,
                   batch_mode="fresh")
    train(model, batch_source, cfg, model.init(0))
    assert seen == [0, 1, 2, 3, 4, 5]

    seen.clear()
    cfg = ZOConfig(epsilon=1e-3, lr=0.01, q=2, steps=3, master_seed=0,
                   batch_mode="shared")
    train(model, batch_source, cfg, model.init(0))
    assert seen == [0, 0, 1, 1, 2, 2]


def test_same_master_seed_reproduces_trajectory():
    model = bowl()
    cfg = ZOConfig(epsilon=1e-3, lr=0.01, q=2, steps=20, master_seed=9)
    p1 = model.init(0)
    p2 = model.init(0)
    train(model, lambda i: None, cfg, p1)
    train(model, lambda i: None, cfg, p2)
    assert p1.equals_bitwise(p2)


def test_lowrank_training_descends():
    model = quadratic_bowl(np.ones(48))

    # give the quadratic a 2-D parameter so the low-rank sampler engages
    def loss(p, b):
        return float(0.5 * np.sum(p["theta"] ** 2))

    m = Model(name="q2d", schema=None, loss=loss)
    params = ParamSet([("theta", GaussianStream(0).normal((8, 6)))])
    start = loss(params, None)
    cfg = ZOConfig(epsilon=1e-3, lr=0.02, q=4, steps=200, combine="mean",
                   sampler=SamplerKind.lowrank(2), master_seed=3)
    train(m, lambda i: None, cfg, params)
    assert loss(params, None) < start / 10


def test_config_integer_fields():
    with pytest.raises(TypeError):
        ZOConfig(q=2.5)
    with pytest.raises(TypeError):
        ZOConfig(steps="3")
    with pytest.raises(TypeError):
        ZOConfig(q=True)
    cfg = ZOConfig(q=np.int64(2), steps=np.int32(3))  # numpy ints still work
    assert cfg.lr_effective == cfg.lr


def test_partial_log_survives_aborted_run(tmp_path):
    from zobench.seedlog import SeedLogHeader, SeedLogWriter, read_log

    q, k = 3, 4
    inner = bowl()
    calls = []

    def loss(p, b):
        calls.append(None)
        # every loss of step k (0-based) and later is NaN
        return float("nan") if len(calls) > 2 * q * k else inner.loss(p, b)

    model = Model(name="nan-at-k", schema=None, loss=loss)
    params = inner.init(0)
    cfg = ZOConfig(epsilon=1e-3, lr=0.01, q=q, steps=10, master_seed=2)
    path = tmp_path / "run.zolog"
    writer = SeedLogWriter(path, SeedLogHeader.from_config(cfg, params.schema_hash))
    with pytest.raises(NumericError):
        train(model, lambda i: None, cfg, params, log_writer=writer)
    # the completed steps are on disk before the writer is finalized
    assert path.stat().st_size == 60 + 12 * k * q
    writer.finalize()
    assert len(read_log(path)) == k * q
