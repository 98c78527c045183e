"""Acceptance suite: one test per advertised behavioral guarantee.

Each test prints a single PASS/FAIL line (to the real stdout, so the
lines survive pytest's capture) and then asserts.  Thresholds were
frozen after a one-time calibration run; see the comments on each test.
"""

import sys
import time

import numpy as np

import zobench as z

from conftest import ACCEPTANCE_LINES
from zobench.params import ParamSet
from zobench.samplers import (FULL, alloc_tracker, sample_for_tensor,
                              sample_lowrank)
from zobench.seedlog import HEADER_SIZE, SeedLogHeader, SeedLogWriter
from zobench.streams import GaussianStream
from zobench.tta import AdaptMask, TTAEpisodeConfig, run_stream
from zobench.zo import CountingModel, ZOConfig, rge_proj_grad, train, zo_step

D = 10


def _report(num: int, ok: bool, detail: str):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.stderr, flush=True)
    assert ok, line


# -- 1: estimator correctness ------------------------------------------------

def test_criterion_01_estimator_correctness():
    model = z.quadratic_bowl(np.ones(D))  # L = 0.5||t||^2, grad = t
    params = model.init(1)
    theta = params["theta"].copy()

    # per-draw: proj_grad equals theta . z to 1e-8 relative (quadratic
    # terms cancel analytically)
    per_draw_ok = True
    for seed in range(200):
        g = rge_proj_grad(model, params, None, seed, 1e-3).proj_grad
        zdir = sample_for_tensor(GaussianStream(seed, substream=0), (D,), FULL)
        expected = float(theta @ zdir)
        if abs(g - expected) > 1e-8 * max(1.0, abs(expected)):
            per_draw_ok = False
            break

    # Monte-Carlo mean of proj_grad * z over 1e5 seeds vs the true gradient,
    # per coordinate within 4 standard errors
    n = 100_000
    t0 = time.perf_counter()
    acc = np.zeros(D)
    acc2 = np.zeros(D)
    for seed in range(n):
        zdir = sample_for_tensor(GaussianStream(seed, substream=0), (D,), FULL)
        g = rge_proj_grad(model, params, None, seed, 1e-3).proj_grad
        gz = g * zdir
        acc += gz
        acc2 += gz * gz
    elapsed = time.perf_counter() - t0
    mean = acc / n
    se = np.sqrt((acc2 / n - mean ** 2) / n)
    in_band = np.all(np.abs(mean - theta) <= 4.0 * se)
    ok = per_draw_ok and bool(in_band) and elapsed < 10.0
    _report(1, ok, f"per-draw exact: {per_draw_ok}, MC mean within 4 SE: "
                   f"{bool(in_band)}, runtime {elapsed:.1f}s")


# -- 2: variance scaling ------------------------------------------------------

def test_criterion_02_variance_scaling():
    model = z.quadratic_bowl(np.ones(D))
    params = model.init(2)
    trials = 2000
    t0 = time.perf_counter()

    def estimate(q, trial):
        # Mean-mode q-RGE estimate vector at fixed theta
        ghat = np.zeros(D)
        for j in range(q):
            seed = z.derive_seed(17, trial, j * 131 + q)
            zdir = sample_for_tensor(GaussianStream(seed, substream=0),
                                     (D,), FULL)
            g = rge_proj_grad(model, params, None, seed, 1e-3).proj_grad
            ghat += g * zdir
        return ghat / q

    variances = {}
    for q in (1, 2, 4, 8):
        draws = np.array([estimate(q, t) for t in range(trials)])
        variances[q] = draws.var(axis=0, ddof=1)
    elapsed = time.perf_counter() - t0

    ratios = {q: variances[q] / variances[1] for q in (2, 4, 8)}
    ok = elapsed < 30.0
    detail = []
    for q in (2, 4, 8):
        lo, hi = 0.7 / q, 1.4 / q
        within = np.all((ratios[q] >= lo) & (ratios[q] <= hi))
        ok = ok and bool(within)
        detail.append(f"q={q}: var ratio in [{lo:.3f},{hi:.3f}]: {bool(within)}")
    _report(2, ok, "; ".join(detail) + f", runtime {elapsed:.1f}s")


# -- 3: two-stage fidelity ----------------------------------------------------

def test_criterion_03_two_stage_fidelity():
    cfg = z.DataGenConfig(task="mlp", dim=8, hidden=6, classes=3,
                          n_train=128, seed=0)
    model = z.make_model(cfg)
    tr, _ = z.gen_data(cfg)
    sampler = z.BatchSampler(tr, 16, seed=0)

    q, lr, steps = 8, 0.01, 100
    pa = model.init(3)
    pm = model.init(3)
    train(model, sampler.draw,
          ZOConfig(epsilon=1e-3, lr=lr, q=q, steps=steps,
                   combine="accumulate", master_seed=5), pa)
    train(model, sampler.draw,
          ZOConfig(epsilon=1e-3, lr=q * lr, q=q, steps=steps,
                   combine="mean", master_seed=5), pm)
    bit_identical = pa.equals_bitwise(pm)

    # in-place perturb cycle restores within 8 eps_mach (|theta| + eps |z|)
    params = model.init(4)
    before = params.copy()
    eps = 1e-3
    z.axpy(params, +eps, 21)
    z.axpy(params, -2 * eps, 21)
    z.axpy(params, +eps, 21)
    eps_mach = np.finfo(np.float64).eps
    cycle_ok = True
    for i, (name, arr) in enumerate(params.items()):
        zdir = sample_for_tensor(GaussianStream(21, substream=i),
                                 arr.shape, FULL)
        bound = 8 * eps_mach * (np.abs(before[name]) + eps * np.abs(zdir))
        if not np.all(np.abs(arr - before[name]) <= bound):
            cycle_ok = False
    ok = bit_identical and cycle_ok
    _report(3, ok, f"Accumulate(lr) == Mean(q*lr) over {steps} steps "
                   f"bit-identical: {bit_identical}, perturb cycle within "
                   f"8*eps_mach*(|theta|+eps|z|): {cycle_ok}")


# -- 4: low-rank sampler -------------------------------------------------------

def test_criterion_04_lowrank_sampler():
    rank_ok = True
    for seed in range(50):
        m, n, r = 24, 17, 4
        zdir = sample_lowrank(GaussianStream(seed), m, n, r)
        s = np.linalg.svd(zdir, compute_uv=False)
        if not np.all(s[min(r, m, n):] < 1e-10 * s[0]):
            rank_ok = False
            break

    # 1-D fallback: identical stream consumption to the full sampler
    kind = z.SamplerKind.lowrank(4)
    fallback_ok = True
    for seed in range(50):
        a = sample_for_tensor(GaussianStream(seed), (37,), kind)
        b = sample_for_tensor(GaussianStream(seed), (37,), FULL)
        if not np.array_equal(a, b):
            fallback_ok = False
            break
    ok = rank_ok and fallback_ok
    _report(4, ok, f"singular values beyond r below 1e-10 of max: {rank_ok}, "
                   f"1-D fallback equals full-Gaussian stream: {fallback_ok}")


# -- 5: seed-log storage claim ---------------------------------------------------

def test_criterion_05_seedlog_storage(tmp_path):
    path = tmp_path / "big.zolog"
    header = SeedLogHeader(master_seed=0, schema_hash=0, epsilon=1e-3,
                           lr=1e-2, q=4)
    n = 50_000
    with SeedLogWriter(path, header) as w:
        for i in range(n):
            w.append(i, 0.125)
    size = path.stat().st_size
    expected = HEADER_SIZE + 600_000
    ok = (size == expected) and (size < 1_048_576)
    _report(5, ok, f"50,000-record log is exactly {size} bytes "
                   f"(= {HEADER_SIZE} + 600,000), < 1,048,576: {size < 1_048_576}")


# -- 6: replay / revert ----------------------------------------------------------

def test_criterion_06_replay_revert(tmp_path):
    cfg = z.DataGenConfig(task="mlp", dim=20, hidden=16, classes=5,
                          n_train=256, seed=0)
    model = z.make_model(cfg)
    tr, _ = z.gen_data(cfg)
    params = model.init(0)
    initial = params.copy()
    zcfg = ZOConfig(epsilon=1e-3, lr=0.05, q=4, steps=1000, combine="mean",
                    master_seed=3)
    sampler = z.BatchSampler(tr, 16, seed=0)
    path = tmp_path / "run.zolog"
    header = SeedLogHeader.from_config(zcfg, params.schema_hash)
    with SeedLogWriter(path, header) as w:
        train(model, sampler.draw, zcfg, params, log_writer=w)

    log = z.read_log(path)
    replay_err = z.replay(initial, log).max_abs_diff(params)
    round_trip_err = z.revert(z.replay(initial, log), log).max_abs_diff(initial)
    ok = replay_err < 1e-6 and round_trip_err < 1e-6
    _report(6, ok, f"1000-step q=4 MLP: ||replayed - live||_inf = "
                   f"{replay_err:.2e} < 1e-6, ||revert(replay) - init||_inf = "
                   f"{round_trip_err:.2e} < 1e-6")


# -- 7: memory property -----------------------------------------------------------

def test_criterion_07_memory_property():
    # heterogeneous layer sizes; the bound is the largest parameter tensor
    # plus 64 bytes of scalars per query
    cfg = z.DataGenConfig(task="mlp", dim=40, hidden=12, classes=5,
                          n_train=128, seed=0)
    model = z.make_model(cfg)
    tr, _ = z.gen_data(cfg)
    params = model.init(0)
    sampler = z.BatchSampler(tr, 16, seed=0)
    q = 4
    zcfg = ZOConfig(epsilon=1e-3, lr=0.01, q=q, steps=1, master_seed=0)

    alloc_tracker.enabled = True
    alloc_tracker.reset()
    try:
        zo_step(model, params, sampler.draw, zcfg, 0)
        peak = alloc_tracker.peak
        leaked = alloc_tracker.active
    finally:
        alloc_tracker.enabled = False
        alloc_tracker.reset()

    bound = params.nbytes_largest() + 64 * q
    ok = (peak <= bound) and (leaked == 0)
    _report(7, ok, f"optimizer transient peak {peak} bytes <= largest tensor "
                   f"{params.nbytes_largest()} + 64q = {bound}; leak-free: "
                   f"{leaked == 0}")


# -- 8: query-number sweep (directional) --------------------------------------------

def test_criterion_08_query_sweep():
    # frozen after calibration: q=8-tuned lr on the MLP task at equal
    # budget 2qT = 1600 is 0.4 (grid {0.15 ... 0.5}); at that lr the
    # low-query runs are variance-limited and q=16 in accumulate mode is
    # an effective 16x step
    cfg = z.DataGenConfig(task="mlp", dim=20, hidden=16, classes=5,
                          n_train=512, n_test=128, seed=0)
    model = z.make_model(cfg)
    tr, _ = z.gen_data(cfg)
    budget, lr_star = 1600, 0.4
    full = z.Batch(tr.inputs, tr.labels)

    def final_loss(q, seed, combine):
        steps = budget // (2 * q)
        params = model.init(seed)
        sampler = z.BatchSampler(tr, 32, seed=seed)
        zcfg = ZOConfig(epsilon=1e-3, lr=lr_star, q=q, steps=steps,
                        combine=combine, master_seed=seed)
        try:
            train(model, sampler.draw, zcfg, params)
        except z.NumericError:
            return float("inf")
        loss = model.loss(params, full)
        return loss if np.isfinite(loss) else float("inf")

    seeds = range(10)
    med = {}
    for q, combine in [(1, "mean"), (8, "mean"), (16, "accumulate")]:
        med[(q, combine)] = float(np.median([final_loss(q, s, combine)
                                             for s in seeds]))
    q8, q1 = med[(8, "mean")], med[(1, "mean")]
    q16a = med[(16, "accumulate")]
    ok = (q8 <= q1) and (q16a >= q8)
    _report(8, ok, f"equal budget 2qT={budget}, 10 seeds, lr={lr_star}: "
                   f"median loss q=8 {q8:.4g} <= q=1 {q1:.4g}; "
                   f"q=16 accumulate {q16a:.4g} does not beat q=8")


# -- 9: TTA improves over zero-shot (directional) ------------------------------------

def test_criterion_09_tta_improvement():
    # frozen after calibration: 32-frame sequence task, sigma = 1e-2
    # stream, 250 samples, equal 160-forward budgets
    cfg = z.DataGenConfig(task="seq", frames=32, feat_dim=8, classes=4,
                          hidden=8, n_train=1024, n_test=512, seed=0)
    model = z.make_model(cfg)
    params = model.init(0)
    tr, _ = z.gen_data(cfg)
    z.fo_train(model, z.BatchSampler(tr, 32, seed=0).draw,
               z.FOConfig(lr=0.02, optimizer="adam", steps=600), params)

    stream_cfg = z.DataGenConfig(**{**cfg.__dict__, "noise_sigma": 1e-2})
    stream = z.gen_shifted_stream(stream_cfg, 250)
    mask = AdaptMask(["feat.*", "norm.*"])

    zo_cfg = TTAEpisodeConfig(
        steps=20, optimizer=ZOConfig(epsilon=1e-3, lr=1e-3, q=4, steps=20))
    agg_zo, _ = run_stream(model, params, stream, mask, zo_cfg, master_seed=7)

    fo_cfg = TTAEpisodeConfig(
        steps=160, optimizer=z.FOConfig(lr=0.01, optimizer="adam", steps=160))
    agg_fo, _ = run_stream(model, params, stream, mask, fo_cfg, master_seed=7)

    budgets_equal = (zo_cfg.forward_budget() == fo_cfg.forward_budget() == 160)
    zo_gain, zo_se = agg_zo["accuracy_gain"], agg_zo["accuracy_gain_se"]
    fo_gain, fo_se = agg_fo["accuracy_gain"], agg_fo["accuracy_gain_se"]
    zo_sig = zo_gain > 2.0 * zo_se
    fo_sig = fo_gain > 2.0 * fo_se
    ordering = zo_gain <= fo_gain
    ok = (budgets_equal and agg_zo["samples"] >= 200
          and zo_sig and fo_sig and ordering)
    _report(9, ok, f"sigma=1e-2, {agg_zo['samples']} samples, budget 160: "
                   f"ZO gain {zo_gain:+.4f} > 2 SE ({2 * zo_se:.4f}): {zo_sig}; "
                   f"FO gain {fo_gain:+.4f} > 2 SE: {fo_sig}; "
                   f"ZO <= FO: {ordering}")


# -- 10: equal-budget accounting --------------------------------------------------

def test_criterion_10_forward_accounting():
    cfg = z.DataGenConfig(task="logistic", dim=10, classes=3, n_train=128,
                          seed=0)
    model = z.make_model(cfg)
    tr, _ = z.gen_data(cfg)
    sampler = z.BatchSampler(tr, 16, seed=0)
    ok = True
    detail = []
    for q, steps in [(1, 50), (4, 25), (8, 10)]:
        counting = CountingModel(model)
        zcfg = ZOConfig(epsilon=1e-3, lr=0.05, q=q, steps=steps,
                        combine="mean", master_seed=0)
        _, metrics = train(counting, sampler.draw, zcfg, model.init(0))
        expected = 2 * q * steps
        reported = sum(m["forwards"] for m in metrics)
        exact = counting.forward_count == expected == reported
        ok = ok and exact
        detail.append(f"q={q},T={steps}: {counting.forward_count}=={expected}")
    _report(10, ok, "instrumented ZO forward counts are exactly 2qT: "
                    + "; ".join(detail))


# -- 11: full-run determinism ------------------------------------------------------

def test_criterion_11_full_run_determinism(tmp_path):
    from zobench.harness import parse_config, run as run_experiment

    train_raw = {
        "version": 1, "name": "det", "kind": "train",
        "model": {"task": "mlp", "dim": 8, "hidden": 6, "classes": 3},
        "data": {"n_train": 64, "n_test": 32, "batch_size": 16},
        "optimizer": {"type": "zo", "lr": 0.05, "q": 2, "steps": 15,
                      "epsilon": 1e-3, "combine": "mean"},
        "seeds": [0],
    }
    tta_raw = {
        "version": 1, "name": "dettta", "kind": "tta",
        "model": {"task": "seq", "frames": 6, "feat_dim": 4, "classes": 3,
                  "hidden": 6},
        "data": {"n_train": 64, "n_test": 32, "batch_size": 16,
                 "noise_sigma": 0.005},
        "optimizer": {"type": "zo", "lr": 0.001, "q": 2, "epsilon": 1e-3},
        "tta": {"steps": 2, "mask": ["feat.*", "norm.*"], "samples": 4,
                "pretrain": {"steps": 40, "lr": 0.05}},
        "seeds": [0],
    }
    ok = True
    detail = []
    for raw, rid in ((train_raw, "det-seed0"), (tta_raw, "dettta-seed0")):
        cfg = parse_config(raw)
        run_experiment(cfg, output_dir=str(tmp_path / "a"))
        run_experiment(cfg, output_dir=str(tmp_path / "b"))
        a = (tmp_path / "a" / f"{rid}.metrics.csv").read_bytes()
        b = (tmp_path / "b" / f"{rid}.metrics.csv").read_bytes()
        same = a == b
        ok = ok and same
        detail.append(f"{raw['kind']} metrics.csv byte-identical: {same}")
    _report(11, ok, "; ".join(detail))
