import json
import os

import numpy as np
import pytest

from zobench.cli import main as cli_main
from zobench.harness import (ConfigError, compare, expand_grid, load_config,
                             parse_config, run)
from zobench.params import ParamSet
from zobench.seedlog import read_log, replay


def train_config(**kw):
    raw = {
        "version": 1,
        "name": "exp",
        "kind": "train",
        "model": {"task": "mlp", "dim": 6, "hidden": 5, "classes": 3},
        "data": {"n_train": 64, "n_test": 32, "batch_size": 16},
        "optimizer": {"type": "zo", "lr": 0.05, "q": 2, "steps": 12,
                      "epsilon": 1e-3, "combine": "mean"},
        "seeds": [0],
    }
    raw.update(kw)
    return raw


def tta_config(**kw):
    raw = {
        "version": 1,
        "name": "adapt",
        "kind": "tta",
        "model": {"task": "seq", "frames": 6, "feat_dim": 4, "classes": 3,
                  "hidden": 6},
        "data": {"n_train": 64, "n_test": 32, "batch_size": 16,
                 "noise_sigma": 0.005},
        "optimizer": {"type": "zo", "lr": 0.001, "q": 2, "epsilon": 1e-3},
        "tta": {"steps": 2, "mask": ["feat.*", "norm.*"], "samples": 4,
                "pretrain": {"steps": 40, "lr": 0.05}},
        "seeds": [0],
    }
    raw.update(kw)
    return raw


def test_parse_validation_errors():
    with pytest.raises(ConfigError):
        parse_config([])
    with pytest.raises(ConfigError):
        parse_config({"kind": "predict", "model": {"task": "mlp"},
                      "optimizer": {"type": "zo"}})
    with pytest.raises(ConfigError):
        parse_config(train_config(model={}))
    with pytest.raises(ConfigError):
        parse_config(train_config(optimizer={"type": "lbfgs"}))
    with pytest.raises(ConfigError):
        parse_config(train_config(sweep={"momentum": [0.9]}))
    with pytest.raises(ConfigError):
        parse_config(train_config(sweep={"q": []}))
    with pytest.raises(ConfigError):
        parse_config(train_config(seeds=[]))
    with pytest.raises(ConfigError):
        parse_config(train_config(kind="tta"))  # tta section missing
    with pytest.raises(ConfigError):
        parse_config(train_config(version=99))


def test_unknown_data_field_rejected(tmp_path):
    cfg = parse_config(train_config(data={"n_train": 64, "bogus": 1}))
    with pytest.raises(ConfigError):
        run(cfg, output_dir=str(tmp_path))


def test_expand_grid():
    cfg = parse_config(train_config(sweep={"q": [1, 2], "lr": [0.1]}))
    combos = expand_grid(cfg)
    labels = [label for label, _ in combos]
    assert labels == ["lr0.1-q1", "lr0.1-q2"]


def test_replicates_shorthand():
    cfg = parse_config({**train_config(), "seeds": None, "replicates": 3})
    assert cfg.seeds == [0, 1, 2]


def test_train_run_outputs(tmp_path):
    cfg = parse_config(train_config())
    summaries = run(cfg, output_dir=str(tmp_path))
    assert len(summaries) == 1
    s = summaries[0]
    assert s["optimizer_forwards"] == s["expected_forwards"] == 2 * 2 * 12
    rid = s["run_id"]
    for suffix in ("init.pset", "final.pset", "zolog", "metrics.csv",
                   "summary.json", "timings.json"):
        assert (tmp_path / f"{rid}.{suffix}").exists()
    # the seed log replays the run
    initial = ParamSet.load(tmp_path / f"{rid}.init.pset")
    final = ParamSet.load(tmp_path / f"{rid}.final.pset")
    log = read_log(tmp_path / f"{rid}.zolog")
    assert replay(initial, log).max_abs_diff(final) < 1e-6


def test_metrics_csv_is_byte_reproducible(tmp_path):
    cfg = parse_config(train_config())
    run(cfg, output_dir=str(tmp_path / "a"))
    run(cfg, output_dir=str(tmp_path / "b"))
    rid = "exp-seed0"
    a = (tmp_path / "a" / f"{rid}.metrics.csv").read_bytes()
    b = (tmp_path / "b" / f"{rid}.metrics.csv").read_bytes()
    assert a == b


def test_fo_train_run(tmp_path):
    cfg = parse_config(train_config(
        optimizer={"type": "adam", "lr": 0.05, "steps": 10}))
    s = run(cfg, output_dir=str(tmp_path))[0]
    assert s["optimizer_forwards"] == s["expected_forwards"] == 10
    assert not (tmp_path / f"{s['run_id']}.zolog").exists()


def test_sweep_with_forward_budget(tmp_path):
    cfg = parse_config(train_config(
        optimizer={"type": "zo", "lr": 0.05, "epsilon": 1e-3,
                   "combine": "mean", "steps": 0, "forward_budget": 96},
        sweep={"q": [1, 2, 4]}, seeds=[0, 1]))
    summaries = run(cfg, output_dir=str(tmp_path))
    assert len(summaries) == 6
    by_q = {s["q"]: s for s in summaries}
    # equal budget: 2 q T = 96 for every q
    for q in (1, 2, 4):
        assert by_q[q]["expected_forwards"] == 96
        assert by_q[q]["optimizer_forwards"] == 96
    table = (tmp_path / "sweep_table.csv").read_text()
    assert "exp-q1" in table and "exp-q4" in table
    assert "median" in table.splitlines()[0]


def test_fo_forward_budget_sets_steps(tmp_path):
    # an FO step costs one forward, so the budget is the step count
    cfg = parse_config(train_config(
        optimizer={"type": "sgd", "lr": 0.1, "forward_budget": 40}))
    s = run(cfg, output_dir=str(tmp_path))[0]
    assert s["steps"] == 40
    assert s["optimizer_forwards"] == s["expected_forwards"] == 40


@pytest.mark.parametrize("budget", [0, -4, 2.5, "40", True, None])
def test_forward_budget_must_be_positive_integer(budget):
    with pytest.raises(ConfigError, match="forward_budget"):
        parse_config(train_config(
            optimizer={"type": "zo", "lr": 0.05, "forward_budget": budget}))


def test_tta_rejects_forward_budget():
    # tta.steps sets the episode length; a budget would be dropped
    raw = tta_config()
    raw["optimizer"]["forward_budget"] = 40
    with pytest.raises(ConfigError, match="forward_budget"):
        parse_config(raw)


def test_quadratic_task_runs(tmp_path):
    cfg = parse_config(train_config(
        model={"task": "quadratic", "dim": 8}, data={},
        optimizer={"type": "zo", "lr": 0.05, "q": 4, "steps": 20,
                   "epsilon": 1e-3, "combine": "mean"}))
    s = run(cfg, output_dir=str(tmp_path))[0]
    assert s["final_loss"] < 10.0


def test_tta_run_outputs(tmp_path):
    raw = {
        "version": 1,
        "name": "adapt",
        "kind": "tta",
        "model": {"task": "seq", "frames": 6, "feat_dim": 4, "classes": 3,
                  "hidden": 6},
        "data": {"n_train": 64, "n_test": 32, "batch_size": 16,
                 "noise_sigma": 0.005},
        "optimizer": {"type": "zo", "lr": 0.001, "q": 2, "epsilon": 1e-3},
        "tta": {"steps": 2, "mask": ["feat.*", "norm.*"], "samples": 4,
                "pretrain": {"steps": 40, "lr": 0.05}},
        "seeds": [0],
    }
    cfg = parse_config(raw)
    s = run(cfg, output_dir=str(tmp_path))[0]
    assert s["kind"] == "tta"
    assert 0.0 <= s["adapted_accuracy"] <= 1.0
    assert s["forwards_per_episode"] == 2 * 2 * 2
    rid = s["run_id"]
    lines = (tmp_path / f"{rid}.episodes.jsonl").read_text().splitlines()
    assert len(lines) == 4
    ep = json.loads(lines[0])
    assert "adapt_seconds" not in ep  # wall clock stays out of data files
    timings = json.loads((tmp_path / f"{rid}.timings.json").read_text())
    assert set(timings) == {"run_id", "seconds"}


def test_compare_relative_percent(tmp_path):
    def fake_summary(d, run_id, value):
        os.makedirs(d, exist_ok=True)
        with open(os.path.join(d, f"{run_id}.summary.json"), "w") as fh:
            json.dump({"run_id": run_id, "final_loss": value}, fh)

    fake_summary(tmp_path / "r", "base-seed0", 2.0)
    fake_summary(tmp_path / "r", "base-seed1", 2.0)
    fake_summary(tmp_path / "r", "cand-seed0", 1.5)
    table = compare([str(tmp_path / "r")], baseline="base")
    rows = {r["group"]: r for r in table}
    assert rows["base"]["is_baseline"]
    assert rows["base"]["relative_pct"] == 0.0
    assert abs(rows["cand"]["relative_pct"] - (-25.0)) < 1e-9


def test_compare_unknown_baseline(tmp_path):
    os.makedirs(tmp_path / "r", exist_ok=True)
    with pytest.raises(ConfigError):
        compare([str(tmp_path / "r")], baseline="nope")


def test_cli_train_and_log_verbs(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(train_config()))
    out_dir = tmp_path / "out"
    assert cli_main(["train", "--config", str(cfg_path),
                     "--output-dir", str(out_dir)]) == 0
    rid = "exp-seed0"

    replayed = tmp_path / "replayed.pset"
    assert cli_main(["replay", "--log", str(out_dir / f"{rid}.zolog"),
                     "--params", str(out_dir / f"{rid}.init.pset"),
                     "--out", str(replayed)]) == 0
    final = ParamSet.load(out_dir / f"{rid}.final.pset")
    assert ParamSet.load(replayed).max_abs_diff(final) < 1e-6

    reverted = tmp_path / "reverted.pset"
    assert cli_main(["revert", "--log", str(out_dir / f"{rid}.zolog"),
                     "--params", str(replayed),
                     "--out", str(reverted)]) == 0
    initial = ParamSet.load(out_dir / f"{rid}.init.pset")
    assert ParamSet.load(reverted).max_abs_diff(initial) < 1e-6

    assert cli_main(["inspect", "--log", str(out_dir / f"{rid}.zolog")]) == 0
    captured = capsys.readouterr().out
    assert '"records": 24' in captured

    assert cli_main(["compare", str(out_dir), "--baseline", "exp"]) == 0


def test_cli_reports_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "train", "optimizer": {"type": "zo"}}))
    assert cli_main(["train", "--config", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("verb, kind", [("tta", "train"), ("train", "tta")])
def test_cli_rejects_config_of_other_kind(tmp_path, capsys, verb, kind):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(train_config(
        kind=kind, tta={"steps": 2, "mask": ["feat.*"]})))
    out_dir = tmp_path / "out"
    assert cli_main([verb, "--config", str(cfg_path),
                     "--output-dir", str(out_dir)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("corrupt", [
    lambda blob: blob[:-5],
    lambda blob: b"NOPE" + blob[4:],
    lambda blob: ParamSet([("x", np.zeros(3))]).to_bytes(),
], ids=["truncated", "bad_magic", "schema_mismatch"])
def test_cli_replay_rejects_bad_params_file(tmp_path, capsys, corrupt):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(train_config()))
    out_dir = tmp_path / "out"
    assert cli_main(["train", "--config", str(cfg_path),
                     "--output-dir", str(out_dir)]) == 0
    init = out_dir / "exp-seed0.init.pset"
    init.write_bytes(corrupt(init.read_bytes()))
    capsys.readouterr()
    assert cli_main(["replay", "--log", str(out_dir / "exp-seed0.zolog"),
                     "--params", str(init),
                     "--out", str(tmp_path / "r.pset")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["replay", "--log", "nope.zolog", "--params", "nope.pset",
     "--out", "x.pset"],
    ["revert", "--log", "nope.zolog", "--params", "nope.pset",
     "--out", "x.pset"],
    ["inspect", "--log", "nope.zolog"],
    ["train", "--config", "missing.json"],
    ["compare", "nodir", "--baseline", "exp"],
], ids=["replay", "revert", "inspect", "train", "compare"])
def test_cli_missing_file_exits_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert cli_main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("verb, raw", [
    ("train", '{"kind": "train",'),
    ("train", train_config(optimizer={"type": "zo", "lr": "abc"})),
    ("tta", tta_config(tta={"steps": "x", "mask": ["feat.*"]})),
    ("train", train_config(optimizer={"type": "zo", "q": 0, "steps": 2})),
    ("train", train_config(optimizer={"type": "zo", "momentum": 0.9})),
    ("train", train_config(model={"task": "banana"})),
    ("tta", tta_config(tta={"steps": 2, "mask": "feat.*"})),
    ("tta", tta_config(tta={"steps": 2, "mask": ["nope.*"]})),
    ("tta", tta_config(optimizer={"type": "adam", "lr": 0.01},
                       tta={"steps": 2, "mask": ["feat.*"],
                            "reset_mode": "revert"})),
    ("train", train_config(optimizer={"type": "zo", "steps": 2.5})),
    ("train", train_config(optimizer={"type": "zo", "q": 2.5, "steps": 2})),
    ("train", train_config(data={"n_train": "x"})),
    ("train", train_config(data={"batch_size": 0})),
    ("train", train_config(seeds=["a"])),
    ("tta", tta_config(tta={"steps": 2, "mask": ["feat.*"],
                            "pretrain": {"steps": "x"}})),
    ("train", train_config(optimizer={"type": "zo", "sampler": "lowrank",
                                      "rank": 0, "steps": 2})),
], ids=["invalid_json", "lr_string", "tta_steps_string", "q_zero",
        "unknown_optimizer_field", "unknown_task", "mask_string",
        "mask_matches_nothing", "fo_revert_reset", "steps_float", "q_float",
        "n_train_string", "batch_size_zero", "seed_string",
        "pretrain_steps_string", "lowrank_rank_zero"])
def test_cli_bad_config_value_exits_2(tmp_path, capsys, verb, raw):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(raw if isinstance(raw, str) else json.dumps(raw))
    out_dir = tmp_path / "out"
    assert cli_main([verb, "--config", str(cfg_path),
                     "--output-dir", str(out_dir)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not list(out_dir.glob("*"))


def test_bad_sweep_value_writes_no_file(tmp_path):
    cfg = parse_config(train_config(sweep={"q": [1, 0]}))
    out_dir = tmp_path / "out"
    with pytest.raises(ConfigError):
        run(cfg, output_dir=str(out_dir))
    assert not list(out_dir.glob("*"))


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(train_config()))
    cfg = load_config(path)
    assert cfg.name == "exp" and cfg.kind == "train"
