import time

import numpy as np
import pytest

from zobench.fo import FOConfig
from zobench.models import Batch, DataGenConfig, gen_shifted_stream, make_model
from zobench.tta import AdaptMask, TTAEpisodeConfig, adapt_sample, run_stream
from zobench.zo import ZOConfig


def seq_setup(frames=8, n=6, sigma=5e-3):
    cfg = DataGenConfig(task="seq", frames=frames, feat_dim=4, classes=3,
                        hidden=6, n_train=32, seed=0, noise_sigma=sigma)
    model = make_model(cfg)
    params = model.init(1)
    # nudge off the zero-head init so predictions are not uniform
    for _, arr in params.items():
        arr += 0.05 * np.random.default_rng(0).normal(size=arr.shape)
    stream = gen_shifted_stream(cfg, n)
    return model, params, stream


def zo_episode(steps=3, q=2, lr=1e-3):
    return TTAEpisodeConfig(
        steps=steps, optimizer=ZOConfig(epsilon=1e-3, lr=lr, q=q, steps=steps))


def test_mask_resolution():
    model, params, _ = seq_setup()
    mask = AdaptMask(["feat.*", "norm.*"])
    names = mask.resolve(params)
    assert names == ["feat.weight", "feat.bias", "norm.gain", "norm.bias"]


def test_empty_mask_rejected():
    model, params, _ = seq_setup()
    with pytest.raises(ValueError):
        AdaptMask(["conv.*"]).resolve(params)


def test_config_validation():
    with pytest.raises(ValueError):
        TTAEpisodeConfig(steps=0, optimizer=FOConfig())
    with pytest.raises(ValueError):
        TTAEpisodeConfig(steps=1, optimizer=FOConfig(), reset_mode="magic")
    with pytest.raises(ValueError):  # FO episodes leave no log to revert
        TTAEpisodeConfig(steps=1, optimizer=FOConfig(), reset_mode="revert")


def test_forward_budget():
    assert zo_episode(steps=5, q=4).forward_budget() == 40
    assert TTAEpisodeConfig(steps=7, optimizer=FOConfig()).forward_budget() == 7


def test_labeled_sample_rejected():
    model, params, stream = seq_setup()
    labeled = Batch(stream[0].inputs[None], np.array([stream[0].label]))
    with pytest.raises(ValueError):
        adapt_sample(model, params, labeled, AdaptMask(["feat.*"]),
                     zo_episode())


def test_mask_isolation_unmasked_bit_identical():
    model, params, stream = seq_setup()
    mask = AdaptMask(["feat.*", "norm.*"])
    adapted, log, _ = adapt_sample(model, params, stream[0].batch(), mask,
                                   zo_episode(lr=0.01), episode_seed=3)
    for name in ("head.weight", "head.bias"):
        np.testing.assert_array_equal(adapted[name], params[name])
    changed = any(not np.array_equal(adapted[n], params[n])
                  for n in mask.resolve(params))
    assert changed


def test_zero_lr_episode_changes_nothing():
    model, params, stream = seq_setup()
    mask = AdaptMask(["feat.*"])
    adapted, _, _ = adapt_sample(model, params, stream[0].batch(), mask,
                                 zo_episode(lr=0.0), episode_seed=3)
    # no updates are applied; only few-ulp residue from the perturb cycle
    assert adapted.max_abs_diff(params) < 1e-12
    np.testing.assert_array_equal(adapted["head.weight"], params["head.weight"])


def test_zo_episode_forward_count_is_2qk():
    model, params, stream = seq_setup()
    cfg = zo_episode(steps=4, q=3)
    _, _, metrics = adapt_sample(model, params, stream[0].batch(),
                                 AdaptMask(["feat.*"]), cfg, episode_seed=1)
    assert metrics["adapt_forwards"] == 2 * 3 * 4


def test_fo_episode_forward_count():
    model, params, stream = seq_setup()
    cfg = TTAEpisodeConfig(steps=5, optimizer=FOConfig(lr=1e-3,
                                                       optimizer="adam"))
    _, log, metrics = adapt_sample(model, params, stream[0].batch(),
                                   AdaptMask(["feat.*"]), cfg, episode_seed=1)
    assert log is None
    assert metrics["adapt_forwards"] == 5


def test_episode_log_replays_adaptation():
    from zobench.seedlog import replay
    model, params, stream = seq_setup()
    mask = AdaptMask(["feat.*", "norm.*"])
    adapted, log, _ = adapt_sample(model, params, stream[0].batch(), mask,
                                   zo_episode(lr=0.01), episode_seed=3)
    rebuilt = replay(params.subset(mask.resolve(params)), log)
    sub = adapted.subset(mask.resolve(adapted))
    # proj_grads are stored at float32 width, so replay is close, not exact
    assert rebuilt.max_abs_diff(sub) < 1e-6


def test_source_params_untouched_by_snapshot_episodes():
    model, params, stream = seq_setup()
    before = params.copy()
    adapt_sample(model, params, stream[0].batch(), AdaptMask(["feat.*"]),
                 zo_episode(lr=0.01), episode_seed=3)
    assert params.equals_bitwise(before)


def test_run_stream_aggregate_shape():
    model, params, stream = seq_setup(n=5)
    agg, eps = run_stream(model, params, stream, AdaptMask(["feat.*"]),
                          zo_episode(), master_seed=2)
    assert agg["samples"] == 5 and len(eps) == 5
    assert 0.0 <= agg["zero_shot_accuracy"] <= 1.0
    assert agg["forwards_per_episode"] == zo_episode().forward_budget()
    assert agg["total_adapt_forwards"] == 5 * zo_episode().forward_budget()
    for ep in eps:
        assert set(ep) >= {"sample_id", "zero_shot_score", "adapted_score",
                           "entropy_before", "entropy_after"}


def test_episodic_independence_under_permutation():
    model, params, stream = seq_setup(n=6)
    mask = AdaptMask(["feat.*", "norm.*"])
    cfg = zo_episode(lr=0.01)
    _, fwd = run_stream(model, params, stream, mask, cfg, master_seed=4)
    _, rev = run_stream(model, params, list(reversed(stream)), mask, cfg,
                        master_seed=4)
    by_id_fwd = {e["sample_id"]: e["adapted_score"] for e in fwd}
    by_id_rev = {e["sample_id"]: e["adapted_score"] for e in rev}
    assert by_id_fwd == by_id_rev


def test_revert_reset_matches_snapshot_reset():
    model, params, stream = seq_setup(n=6)
    mask = AdaptMask(["feat.*", "norm.*"])
    snap_cfg = zo_episode(lr=0.01)
    rev_cfg = TTAEpisodeConfig(steps=3, optimizer=snap_cfg.optimizer,
                               reset_mode="revert")
    source = params.copy()
    agg_snap, eps_snap = run_stream(model, params, stream, mask, snap_cfg,
                                    master_seed=4)
    agg_rev, eps_rev = run_stream(model, source, stream, mask, rev_cfg,
                                  master_seed=4)
    # revert-based reset drifts only within the replay tolerance
    assert source.max_abs_diff(params) < 1e-6
    for a, b in zip(eps_snap, eps_rev):
        assert abs(a["adapted_score"] - b["adapted_score"]) < 1e-9
        assert abs(a["entropy_after"] - b["entropy_after"]) < 1e-6


def test_adaptation_time_scales_linearly_in_steps():
    model, params, stream = seq_setup(n=1)
    mask = AdaptMask(["feat.*"])
    step_grid = [2, 4, 8, 16]
    configs = [zo_episode(steps=steps) for steps in step_grid]
    reps = [[] for _ in step_grid]
    # an untimed first episode keeps one-time costs out of the 2-step point
    adapt_sample(model, params, stream[0].batch(), mask, configs[0],
                 episode_seed=0)
    # each repetition visits every step count, so a burst of host load
    # lands on all grid points instead of inflating one of them
    for _ in range(5):
        for cfg, rep in zip(configs, reps):
            t0 = time.perf_counter()
            adapt_sample(model, params, stream[0].batch(), mask, cfg,
                         episode_seed=0)
            rep.append(time.perf_counter() - t0)
    times = [np.median(rep) for rep in reps]
    x = np.array(step_grid, dtype=float)
    y = np.array(times)
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    assert slope > 0
    assert r2 > 0.99


def test_mask_must_be_a_pattern_list():
    with pytest.raises(ValueError):
        AdaptMask("feat.*")  # would otherwise be split into characters


def test_zo_episode_runs_zo_train(monkeypatch):
    import zobench.zo as zo

    model, params, stream = seq_setup()
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[2])
        return real_train(*args, **kwargs)

    real_train = zo.train
    monkeypatch.setattr(zo, "train", spy)
    cfg = zo_episode(steps=3, q=2)
    _, log, metrics = adapt_sample(model, params, stream[0].batch(),
                                   AdaptMask(["feat.*"]), cfg, episode_seed=5)
    assert len(calls) == 1
    assert calls[0].steps == 3 and calls[0].master_seed == 5
    assert len(log) == 3 * 2
    assert not any("seconds" in key for key in metrics)


def test_stream_outputs_hold_no_wall_clock():
    model, params, stream = seq_setup(n=2)
    agg, eps = run_stream(model, params, stream, AdaptMask(["feat.*"]),
                          zo_episode(), master_seed=1)
    keys = set(agg).union(*eps)
    assert not any("seconds" in key for key in keys)
