import itertools
import warnings

import numpy as np
import pytest

from conftest import reference_axpy
from zobench import zo
from zobench.models import Batch, Model, quadratic_bowl
from zobench.params import ParamSet, axpy
from zobench.samplers import FULL, SamplerKind, sample_for_tensor
from zobench.streams import GaussianStream
from zobench.seedlog import SeedLog, SeedLogHeader, replay, revert
from zobench.zo import (CountingModel, NumericError, QueryRecord, ZOConfig,
                        derive_seed, rge_proj_grad, train, zo_step)

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


def reference_derive_seed(master_seed, step, query):
    """derive_seed by its definition: three splitmix64 rounds, no memo."""
    m64 = 2**64 - 1

    def mix(x):
        x = (x + 0x9E3779B97F4A7C15) & m64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & m64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & m64
        return x ^ (x >> 31)

    return mix(mix(mix(int(master_seed) & m64) ^ int(step)) ^ int(query))


def test_derive_seed_memo_is_never_stale():
    # the step key is held for the last (master_seed, step) only: switch
    # masters, go back to earlier steps, and cross the 64-bit edges
    TOP = 2**64 - 1
    calls = [(3, 0, 0), (4, 0, 0), (3, 0, 1), (3, 1, 0), (3, 0, 2),
             (4, 0, 1), (4, 0, 1), (TOP, TOP, TOP), (TOP, TOP - 1, 0),
             (TOP, TOP, 0), (0, TOP, TOP), (TOP, 0, TOP), (3, 1, TOP),
             (np.int64(3), np.int32(1), np.uint8(2)), (3, 1, 2),
             (np.uint64(TOP), np.uint64(TOP), np.uint64(TOP)),
             (np.int64(4), 0, np.int64(1)), (3, 0, 0)]
    for _ in range(2):
        for call in calls:
            seed = derive_seed(*call)
            assert type(seed) is int, call
            assert seed == reference_derive_seed(*call), call


def test_derive_seed_mixes_each_step_key_once(monkeypatch):
    rounds = []
    mix = zo._splitmix64

    def counting(x):
        rounds.append(x)
        return mix(x)

    derive_seed(12, 0, 0)  # leaves another pair in the memo
    monkeypatch.setattr(zo, "_splitmix64", counting)
    q = 4
    seeds = [derive_seed(11, 7, j) for j in range(q)]
    assert len(rounds) == q + 2
    assert seeds == [reference_derive_seed(11, 7, j) for j in range(q)]
    derive_seed(11, 7, 0)
    assert len(rounds) == q + 3  # a repeated pair costs one round
    # a training run mixes each step's key once, then one round a query
    rounds.clear()
    model = bowl()
    cfg = ZOConfig(epsilon=1e-3, lr=0.01, q=3, steps=5, master_seed=13)
    train(model, lambda i: None, cfg, model.init(0))
    assert len(rounds) == cfg.steps * (cfg.q + 2)


@pytest.mark.parametrize("master_seed", [np.int64(5), np.uint64(5)],
                         ids=["int64", "uint64"])
def test_numpy_master_seed_trains_like_an_int(master_seed):
    def run(seed):
        model = bowl()
        params = model.init(0)
        cfg = ZOConfig(epsilon=1e-3, lr=0.01, q=2, steps=3, master_seed=seed)
        return train(model, lambda i: None, cfg, params)[0], params

    expected, expected_params = run(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records, params = run(master_seed)
    assert records == expected
    assert all(type(rec.seed) is int for rec in records)
    assert params.equals_bitwise(expected_params)


def test_proj_grad_exact_on_quadratic():
    # L = 0.5||theta||^2: (L(t+ez) - L(t-ez)) / 2e = theta . z exactly in
    # real arithmetic, because the quadratic terms cancel
    model = bowl()
    params = model.init(3)
    theta = params["theta"].copy()
    for seed in range(20):
        rec = rge_proj_grad(model, params, None, seed, 1e-3)
        g = rec.proj_grad
        z = sample_for_tensor(GaussianStream(seed, substream=0), (D,), FULL)
        expected = float(theta @ z)
        assert abs(g - expected) <= 1e-8 * max(1.0, abs(expected))
        assert rec.seed == seed and rec.proj_grad == g


def test_proj_grad_zero_for_constant_loss():
    model = Model(name="const", loss=lambda p, b: 4.2)
    params = ParamSet([("theta", np.ones(5))])
    g = rge_proj_grad(model, params, None, 1, 1e-3).proj_grad
    assert g == 0.0


def test_proj_grad_restores_params():
    # the probes are read-only: the parameters are never written
    model = bowl()
    params = model.init(0)
    before = params.copy()
    rge_proj_grad(model, params, None, 7, 1e-3)
    assert params.equals_bitwise(before)


def _probe_cases():
    """(name, loss of a probe, loss of a set, params, probed subset, batch)
    per probe read path."""
    from zobench.models import (BatchSampler, DataGenConfig, entropy_objective,
                                gen_data, gen_shifted_stream,
                                logistic_regression, make_model)
    from zobench.tta import AdaptMask, _masked_objective

    def labeled(model_cfg, batch=16):
        model = make_model(model_cfg)
        params = model.init(1)
        params._buf += 0.05 * np.random.default_rng(0).normal(
            size=params.num_elements())  # a head that is not all zeros
        return model, params, BatchSampler(gen_data(model_cfg)[0], batch,
                                           seed=0).draw(0)

    cases = []
    # layer1.weight is 300 x 257 (77,100 elements, above CHUNK): drawn in
    # pieces of 63 rows, its head whole; then one whose rows are wider
    # than PIECE, drawn in slices of a row
    for dim, hidden in ((300, 257), (5, 17_000)):
        model, params, batch = labeled(DataGenConfig(
            task="mlp", dim=dim, hidden=hidden, classes=3, n_train=64, seed=0))
        cases.append((f"mlp{dim}x{hidden}", model.loss, model.loss, params,
                      params, batch))
    logistic = logistic_regression(6, 3)
    _, lparams, lbatch = labeled(DataGenConfig(task="logistic", dim=6,
                                               classes=3, n_train=64, seed=0))
    cases.append(("logistic", logistic.loss, logistic.loss, lparams, lparams,
                  lbatch))
    quad = bowl()
    qparams = quad.init(2)
    cases.append(("quadratic", quad.loss, quad.loss, qparams, qparams, None))
    # a model that indexes a 2-D weight instead of multiplying it
    w = ParamSet([("w", np.linspace(-1.0, 1.0, 12).reshape(4, 3))])

    def indexed(p, b):
        return float(np.tanh(b @ p["w"]).sum())

    cases.append(("indexed", indexed, indexed, w, w,
                  np.linspace(0.5, 2.0, 8).reshape(2, 4)))
    # a model that multiplies a 1-D tensor: the probe builds it whole
    v = ParamSet([("v", np.linspace(-1.0, 1.0, 5))])

    def vector(p, b):
        return float(np.tanh(p.matmul(b, "v")).sum())

    cases.append(("vector", vector, vector, v, v,
                  np.linspace(0.5, 2.0, 15).reshape(3, 5)))
    # TTA: the masked seq subset's probe laid over the full set
    seq_cfg = DataGenConfig(task="seq", frames=6, feat_dim=5, classes=3,
                            hidden=7, n_train=32, seed=0)
    model, params, _ = labeled(seq_cfg)
    names = AdaptMask(["feat.*", "norm.*"]).resolve(params)
    sub = params.subset(names)
    sample = gen_shifted_stream(seq_cfg, 1)[0].batch()
    cases.append(("tta-seq", _masked_objective(model, params, names).loss,
                  entropy_objective(model).loss, params, sub, sample))
    return cases


@pytest.mark.parametrize("kind", [FULL, SamplerKind.lowrank(2, normalize=True)],
                         ids=["full", "lowrank2"])
def test_probes_match_an_axpy_reference(kind):
    # l+ and l- of the read-only probes agree with the losses of a copy
    # moved by axpy to +eps z and -eps z, and the probed set is untouched
    eps, seed = 1e-3, 11
    for name, loss, set_loss, params, probed, batch in _probe_cases():
        before = params.copy()
        with probed.probes(seed, eps, kind) as probes:
            got = [loss(probe, batch) for probe in probes]
        assert params.equals_bitwise(before), name
        for sign, value in zip((+1, -1), got):
            moved = params.copy()
            axpy(moved.subset(probed.names), sign * eps, seed, kind)
            want = set_loss(moved, batch)
            assert abs(value - want) <= 1e-12 * abs(want), (name, sign)


@pytest.mark.parametrize("epsilon", [0.0, -1e-3, float("nan"), float("inf")],
                         ids=["zero", "negative", "nan", "inf"])
def test_proj_grad_rejects_bad_epsilon(epsilon):
    model = bowl()
    params = model.init(0)
    before = params.copy()
    with pytest.raises(ValueError):
        rge_proj_grad(model, params, None, 7, epsilon)
    assert params.equals_bitwise(before)


def test_numeric_error_carries_seed_and_restores():
    calls = {"n": 0}

    def loss(p, b):
        calls["n"] += 1
        return float("nan") if calls["n"] == 1 else 0.0

    model = Model(name="nan", loss=loss)
    params = ParamSet([("theta", np.ones(4))])
    before = params.copy()
    with pytest.raises(NumericError) as exc:
        rge_proj_grad(model, params, None, 123, 1e-3)
    assert exc.value.seed == 123
    # the probes never wrote the parameters
    assert params.equals_bitwise(before)


@pytest.mark.parametrize("nan_call", [1, 2], ids=["plus", "minus"])
def test_numeric_error_at_q1_restores_and_skips_the_update(nan_call):
    # a non-finite loss aborts the step before its one write: the
    # parameters end bit-identical to their pre-step values
    inner = bowl()
    calls = []

    def loss(p, b):
        calls.append(None)
        return float("nan") if len(calls) == nan_call else inner.loss(p, b)

    model = Model(name="nan-q1", loss=loss)
    params = inner.init(0)
    cfg = ZOConfig(epsilon=1e-3, lr=0.1, q=1, steps=4, master_seed=5)
    seed = derive_seed(5, 3, 0)
    expected = params.copy()
    with pytest.raises(NumericError) as exc:
        zo_step(model, params, lambda i: None, cfg, 3)
    assert (exc.value.step, exc.value.query, exc.value.seed) == (3, 0, seed)
    assert len(calls) == 2
    assert params.equals_bitwise(expected)


def test_estimator_is_unbiased_on_quadratic():
    # E[proj_grad * z] = grad for the quadratic; brute-force Monte Carlo
    model = bowl()
    params = model.init(1)
    theta = params["theta"].copy()
    n = 20_000
    acc = np.zeros(D)
    for seed in range(n):
        z = sample_for_tensor(GaussianStream(seed, substream=0), (D,), FULL)
        g = rge_proj_grad(model, params, None, seed, 1e-3).proj_grad
        acc += g * z
    est = acc / n
    rel = np.linalg.norm(est - theta) / np.linalg.norm(theta)
    assert rel < 0.05


def test_replay_and_revert_match_reference_axpy():
    # a log's one axpy call, term by term and bit for bit: replay adds
    # -lr_eff * g_j * z_j in record order, revert +lr_eff * g_j * z_j in
    # reverse order
    rng = np.random.default_rng(0)
    for kind, dtype, q in itertools.product(
            [FULL, SamplerKind.lowrank(2, normalize=True)],
            [np.float64, np.float32], [1, 4]):
        start = ParamSet([("w", rng.normal(size=(4, 3)).astype(dtype)),
                          ("b", rng.normal(size=3).astype(dtype))])
        cfg = ZOConfig(epsilon=1e-3, lr=0.1, q=q, combine="mean",
                       master_seed=5, sampler=kind)
        header = SeedLogHeader.from_config(cfg, start.schema_hash,
                                           elem_width=start.dtype.itemsize)
        log = SeedLog.from_records(header, [
            QueryRecord(derive_seed(5, t, j), float(rng.normal()), 0.0, 0.0)
            for t in range(3) for j in range(q)])
        records = list(zip(log.seeds.tolist(), log.proj_grads.tolist()))
        lr_eff = cfg.lr_effective
        want = start.copy()
        for seed, g in records:
            reference_axpy(want, -lr_eff * g, seed, kind)
        rebuilt = replay(start, log)
        assert rebuilt.equals_bitwise(want), (kind, dtype, q)
        want = rebuilt.copy()
        for seed, g in reversed(records):
            reference_axpy(want, lr_eff * g, seed, kind)
        assert revert(rebuilt, log).equals_bitwise(want), (kind, dtype, q)


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
    assert len(records) == 7 * cfg.q and len(metrics) == 7
    assert all(m["forwards"] == 2 * cfg.q for m in metrics)
    assert model.forward_count == 2 * cfg.q * cfg.steps
    # flat in log order: step-major, query-minor
    assert [r.seed for r in records] == [derive_seed(1, t, j)
                                         for t in range(7) for j in range(3)]


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

    m = Model(name="q2d", loss=loss)
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
    for bad, error in ((-1, ValueError), (1.5, TypeError), (True, TypeError),
                       (2**64, ValueError)):
        with pytest.raises(error):
            ZOConfig(master_seed=bad)
    assert ZOConfig(master_seed=2**64 - 1).master_seed == 2**64 - 1
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

    model = Model(name="nan-at-k", loss=loss)
    params = inner.init(0)
    cfg = ZOConfig(epsilon=1e-3, lr=0.01, q=q, steps=10, master_seed=2)
    path = tmp_path / "run.zolog"
    writer = SeedLogWriter(path, SeedLogHeader.from_config(cfg, params.schema_hash))
    with pytest.raises(NumericError) as exc:
        train(model, lambda i: None, cfg, params, log_writer=writer)
    assert exc.value.step == 4
    assert exc.value.query == 0
    # the completed steps are on disk before the writer is finalized
    assert path.stat().st_size == 60 + 12 * k * q
    writer.finalize()
    assert len(read_log(path)) == k * q


def test_forwards_per_step():
    from zobench.fo import FOConfig

    assert ZOConfig(q=3).forwards_per_step == 6
    assert FOConfig().forwards_per_step == 1
    for cfg in (ZOConfig(), FOConfig()):
        with pytest.raises(AttributeError):  # derived, not a settable field
            cfg.forwards_per_step = 4


@pytest.mark.parametrize("q", [1, 2, 4])
def test_step_makes_one_axpy_call(monkeypatch, q):
    # the probes only read theta: a step's one write is stage 2's axpy
    # call, which finds theta bit-identical to its pre-step value.  The
    # quadratic's one tensor is indexed, so a query draws it once, and the
    # update once per query
    from zobench import params as params_mod, samplers

    calls, fills = [], []

    def counted_axpy(params, *args, **kwargs):
        calls.append(params.equals_bitwise(before))
        return real_axpy(params, *args, **kwargs)

    def counted_fill(*args, **kwargs):
        z = real_fill(*args, **kwargs)
        fills.append(z.size)
        return z

    real_axpy, real_fill = params_mod.axpy, samplers.gaussian_fill
    monkeypatch.setattr(params_mod, "axpy", counted_axpy)
    monkeypatch.setattr(samplers, "gaussian_fill", counted_fill)
    model = bowl()
    params = model.init(0)
    before = params.copy()
    cfg = ZOConfig(epsilon=1e-3, lr=0.01, q=q, master_seed=3)
    queries = zo_step(model, params, lambda i: None, cfg, 0)
    assert calls == [True]
    assert sum(fills) == 2 * q * params.num_elements()
    # with the bytes of one single call per query's update
    monkeypatch.undo()
    expected = model.init(0)
    for rec in queries:
        axpy(expected, -cfg.lr_effective * rec.proj_grad, rec.seed)
    assert params.equals_bitwise(expected)


_SLACK =65_536  # Python objects; measured ~9.5 KB on numpy 2.4


def _traced_peak(fn):
    """Most bytes tracemalloc saw live at once while ``fn`` ran, above
    what was live before; tracemalloc sees numpy's data allocations."""
    import tracemalloc

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _wide_mlp():
    """The 1.07M-parameter mlp 512-2048-10 (an 8 MB largest tensor)."""
    from zobench.models import DataGenConfig, make_model

    cfg = DataGenConfig(task="mlp", dim=512, hidden=2048, classes=10,
                        n_train=64, n_test=8, seed=0)
    return cfg, make_model(cfg)


def test_init_memory_is_the_set():
    # init lays out one zeroed buffer and draws each tensor into its
    # view: no drawn, scaled or packed copy of a tensor beside the set
    _, model = _wide_mlp()
    params = model.init(0)
    peak = _traced_peak(lambda: model.init(0))
    assert peak <= params.num_elements() * params.dtype.itemsize + _SLACK, peak


def test_mlp_loss_memory_is_one_hidden_activation():
    # the forward builds its batch x hidden activation in place, so a
    # loss holds one such array (and the batch x classes scores)
    from zobench.models import BatchSampler, gen_data

    cfg, model = _wide_mlp()
    params = model.init(0)
    batch = BatchSampler(gen_data(cfg)[0], 32, seed=0).draw(0)
    peak = _traced_peak(lambda: model.loss(params, batch))
    assert peak <= 1.5 * 32 * cfg.hidden * 8, peak


def test_zo_step_memory_is_one_forward_plus_a_chunk():
    # On the wide mlp a ZO step needs one forward's peak plus CHUNK
    # elements, where an FO SGD step holds a gradient the size of the
    # parameters.  The probes hold a forward and the kept eps (x @ z) of
    # layer1, one batch x hidden activation of CHUNK elements; the
    # update, after them, holds its CHUNK-element scratch, first
    # allocated here as each step starts from a fresh copy
    from zobench.fo import FOConfig, fo_step
    from zobench.models import BatchSampler, gen_data
    from zobench.params import CHUNK

    cfg, model = _wide_mlp()
    train_set, _ = gen_data(cfg)
    init = model.init(0)
    batch = BatchSampler(train_set, 32, seed=0).draw(0)

    forward = _traced_peak(lambda: model.loss(init, batch))
    for q in (1, 4):
        params = init.copy()
        step = _traced_peak(lambda: zo_step(model, params, lambda i: batch,
                                            ZOConfig(lr=0.01, q=q), 0))
        assert step <= forward + CHUNK * 8 + _SLACK, (q, step, forward)
    params = init.copy()
    sgd = _traced_peak(lambda: fo_step(model, params, batch, FOConfig(lr=0.01), {}))
    assert sgd >= params.num_elements() * params.dtype.itemsize


def test_train_memory_is_that_of_lone_steps():
    # A run peaks one CHUNK-element scratch above a lone step: the update
    # plan's scratch stays with the set after the first update, so every
    # later step's probes run beside it.  Four zo_step calls on a copy
    # peak the same way, and train, which leaves each update pending on
    # the worker while the next step's first product draws, draws that
    # product's pieces into the idle half of the same scratch
    from zobench.models import BatchSampler, gen_data

    cfg, model = _wide_mlp()
    source = BatchSampler(gen_data(cfg)[0], 32, seed=0).draw
    init = model.init(0)
    for q in (1, 4):
        config = ZOConfig(lr=0.01, q=q, steps=4)
        params = init.copy()
        run = _traced_peak(lambda: zo.train(model, source, config, params))
        params = init.copy()
        steps = _traced_peak(lambda: [zo_step(model, params, source, config, t)
                                      for t in range(4)])
        assert run <= steps + _SLACK, (q, run, steps)


def test_footprints_hold_in_a_fresh_process(tmp_path):
    # The memory tests above, run alone: in the full suite an earlier test
    # may already have made a one-off import or started a thread that a
    # step would otherwise make inside its traced window.
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(root / "tests" / "test_zo.py"), "-k", "memory"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("6 passed"), proc.stdout


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_fo_step_memory_is_one_gradient(optimizer):
    # the backward writes straight into one gradient set, so on the wide
    # mlp an SGD step, or an Adam step once its moments exist, holds that
    # set, the backward's activations (within two forwards' peak) and one
    # CHUNK-element piece of the update: no second copy of the gradient
    from zobench.fo import FOConfig, fo_step
    from zobench.models import BatchSampler, gen_data
    from zobench.params import CHUNK

    cfg, model = _wide_mlp()
    train_set, _ = gen_data(cfg)
    params = model.init(0)
    batch = BatchSampler(train_set, 32, seed=0).draw(0)
    forward = _traced_peak(lambda: model.loss(params, batch))
    config, state = FOConfig(lr=0.01, optimizer=optimizer), {}
    if optimizer == "adam":
        fo_step(model, params, batch, config, state)
    step = _traced_peak(lambda: fo_step(model, params, batch, config, state))
    grads = params.num_elements() * params.dtype.itemsize
    assert step <= grads + 2 * forward + CHUNK * 8 + _SLACK, (step, forward)


@pytest.mark.parametrize("helper", ["max_abs_diff", "equals_bitwise", "save",
                                    "to_bytes", "load"])
def test_whole_set_helper_works_in_one_chunk(helper, tmp_path):
    # on the wide mlp's 8 MB set a whole-set helper allocates at most one
    # CHUNK-element scratch, besides the set's bytes to_bytes and load return
    from zobench.params import CHUNK, ParamSet

    params = _wide_mlp()[1].init(0)
    other = params.copy()
    path = tmp_path / "wide.pset"
    if helper == "load":
        params.save(path)
    call = {"max_abs_diff": lambda: params.max_abs_diff(other),
            "equals_bitwise": lambda: params.equals_bitwise(other),
            "save": lambda: params.save(path),
            "to_bytes": params.to_bytes,
            "load": lambda: ParamSet.load(path)}[helper]
    result = (params.num_elements() * params.dtype.itemsize
              if helper in ("to_bytes", "load") else 0)
    peak = _traced_peak(call)
    assert peak <= result + CHUNK * 8 + _SLACK, peak
