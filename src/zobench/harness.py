"""Experiment runner: config files in, CSV/JSON/seed-log files out.

A config file (JSON, versioned) fully determines an experiment up to the
replicate seed; rerunning with the same seed reproduces every numeric
output byte for byte.  Wall-clock measurements are therefore written to a
separate timings file, never into metrics.csv or the summaries.

Per run the harness writes:
    <run>.metrics.csv     one row per step (or per TTA episode)
    <run>.summary.json    final metrics and forward-pass accounting
    <run>.zolog           the seed log (ZO training runs)
    <run>.init.pset       initial parameters (for replay)
    <run>.final.pset      trained parameters
Sweeps additionally write sweep_table.csv aggregating across replicates.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .fo import FOConfig, fo_train
from .models import (Batch, BatchSampler, DataGenConfig, accuracy, gen_data,
                     gen_shifted_stream, make_model)
from .samplers import SamplerKind
from .seedlog import SeedLogHeader, SeedLogWriter
from .tta import AdaptMask, TTAEpisodeConfig, run_stream
from .zo import CountingModel, ZOConfig, train as zo_train

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "run", "compare"]

CONFIG_VERSION = 1

# sweep axis name -> (section, field)
_SWEEP_AXES = {
    "q": ("optimizer", "q"),
    "lr": ("optimizer", "lr"),
    "epsilon": ("optimizer", "epsilon"),
    "sampler": ("optimizer", "sampler"),
    "combine": ("optimizer", "combine"),
    "noise_sigma": ("data", "noise_sigma"),
}


class ConfigError(ValueError):
    """Invalid experiment config; the message carries the field path."""


def _require(cond, path, msg):
    if not cond:
        raise ConfigError(f"{path}: {msg}")


@dataclass
class ExperimentConfig:
    name: str
    kind: str                      # "train" | "tta"
    model: dict
    data: dict
    optimizer: dict
    tta: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    seeds: list = field(default_factory=lambda: [0])
    output_dir: str = "results"


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        raw = json.load(fh)
    return parse_config(raw)


def parse_config(raw: dict) -> ExperimentConfig:
    _require(isinstance(raw, dict), "<root>", "config must be a JSON object")
    _require(raw.get("version", CONFIG_VERSION) == CONFIG_VERSION,
             "version", f"expected {CONFIG_VERSION}")
    kind = raw.get("kind", "train")
    _require(kind in ("train", "tta"), "kind", "must be 'train' or 'tta'")
    model = raw.get("model", {})
    _require(isinstance(model, dict) and "task" in model,
             "model.task", "is required")
    opt = raw.get("optimizer", {})
    _require(isinstance(opt, dict) and "type" in opt,
             "optimizer.type", "is required")
    _require(opt["type"] in ("zo", "sgd", "adam"),
             "optimizer.type", "must be 'zo', 'sgd' or 'adam'")
    if "lr" in opt:
        _require(opt["lr"] > 0, "optimizer.lr", "must be positive")
    sweep = raw.get("sweep", {})
    for axis in sweep:
        _require(axis in _SWEEP_AXES, f"sweep.{axis}",
                 f"unknown axis; valid: {sorted(_SWEEP_AXES)}")
        _require(isinstance(sweep[axis], list) and sweep[axis],
                 f"sweep.{axis}", "must be a non-empty list")
    seeds = raw.get("seeds")
    if seeds is None:
        replicates = raw.get("replicates", 1)
        _require(isinstance(replicates, int) and replicates >= 1,
                 "replicates", "must be a positive integer")
        seeds = list(range(replicates))
    _require(isinstance(seeds, list) and seeds, "seeds", "must be non-empty")
    if kind == "tta":
        _require("tta" in raw, "tta", "section required for kind 'tta'")
        _require(raw["tta"].get("steps", 0) >= 1, "tta.steps", "must be >= 1")
        _require(raw["tta"].get("mask"), "tta.mask", "is required")
    return ExperimentConfig(
        name=raw.get("name", "experiment"), kind=kind, model=model,
        data=raw.get("data", {}), optimizer=opt, tta=raw.get("tta", {}),
        sweep=sweep, seeds=seeds,
        output_dir=raw.get("output_dir", "results"))


def _data_config(cfg: ExperimentConfig, overrides: dict) -> DataGenConfig:
    merged = {**cfg.model, **cfg.data}
    merged.pop("batch_size", None)
    for (section, name), value in overrides.items():
        if section == "data":
            merged[name] = value
    allowed = DataGenConfig.__dataclass_fields__
    unknown = set(merged) - set(allowed)
    _require(not unknown, "model/data", f"unknown fields {sorted(unknown)}")
    return DataGenConfig(**merged)


def _sampler_kind(spec, rank) -> SamplerKind:
    if isinstance(spec, SamplerKind):
        return spec
    if spec == "full":
        return SamplerKind.full()
    if spec == "lowrank":
        return SamplerKind.lowrank(rank or 4)
    raise ConfigError(f"optimizer.sampler: unknown sampler {spec!r}")


def _optimizer_config(cfg: ExperimentConfig, overrides: dict, seed: int):
    opt = dict(cfg.optimizer)
    for (section, name), value in overrides.items():
        if section == "optimizer":
            opt[name] = value
    kind = opt.pop("type")
    if kind == "zo":
        sampler = _sampler_kind(opt.pop("sampler", "full"), opt.pop("rank", 4))
        budget = opt.pop("forward_budget", None)
        zcfg = ZOConfig(sampler=sampler, master_seed=seed, **opt)
        if budget is not None:
            # equal-forward-budget sweeps: one step costs 2q forwards
            zcfg.steps = int(budget) // (2 * zcfg.q)
        return zcfg
    opt.pop("forward_budget", None)
    return FOConfig(optimizer=kind, **opt)


def expand_grid(cfg: ExperimentConfig):
    """All sweep-axis combinations as (label, overrides) pairs."""
    if not cfg.sweep:
        return [("", {})]
    axes = sorted(cfg.sweep)
    combos = []
    for values in itertools.product(*(cfg.sweep[a] for a in axes)):
        label = "-".join(f"{a}{v}" for a, v in zip(axes, values))
        overrides = {_SWEEP_AXES[a]: v for a, v in zip(axes, values)}
        combos.append((label, overrides))
    return combos


def _run_id(cfg: ExperimentConfig, label: str, seed: int) -> str:
    parts = [cfg.name]
    if label:
        parts.append(label)
    parts.append(f"seed{seed}")
    return "-".join(parts)


def _write_csv(path, fieldnames, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _write_run(outdir, run_id, seed, steps, summary, timings):
    """Write a run's metrics.csv, summary.json and timings.json.

    ``steps`` yields (step, loss, forwards) per training step or TTA
    episode; cum_forwards is their running total.  ``timings`` holds the
    wall-clock fields, which stay out of the byte-reproducible files.
    """
    rows, cum = [], 0
    for step, loss, forwards in steps:
        cum += forwards
        rows.append({"run_id": run_id, "seed": seed, "step": step,
                     "loss": repr(loss), "forwards": forwards,
                     "cum_forwards": cum})
    _write_csv(os.path.join(outdir, f"{run_id}.metrics.csv"),
               ["run_id", "seed", "step", "loss", "forwards", "cum_forwards"],
               rows)
    with open(os.path.join(outdir, f"{run_id}.summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    with open(os.path.join(outdir, f"{run_id}.timings.json"), "w") as fh:
        json.dump({"run_id": run_id, **timings}, fh, indent=2)


def _train_single(cfg, overrides, seed, outdir, run_id):
    data_cfg = _data_config(cfg, overrides)
    model = make_model(data_cfg)
    counting = CountingModel(model)
    params = model.init(seed)
    params.save(os.path.join(outdir, f"{run_id}.init.pset"))

    if data_cfg.task == "quadratic":
        batch_source = lambda index: None
        test = None
    else:
        train_set, test = gen_data(data_cfg)
        sampler = BatchSampler(train_set, cfg.data.get("batch_size", 24),
                               seed=seed)
        batch_source = sampler.draw

    opt = _optimizer_config(cfg, overrides, seed)
    summary = {}
    t0 = time.perf_counter()
    if isinstance(opt, ZOConfig):
        header = SeedLogHeader.from_config(opt, params.schema_hash)
        log_path = os.path.join(outdir, f"{run_id}.zolog")
        with SeedLogWriter(log_path, header) as writer:
            _, metrics = zo_train(counting, batch_source, opt, params,
                                  log_writer=writer)
        summary["optimizer_forwards"] = counting.forward_count
        summary["expected_forwards"] = 2 * opt.q * opt.steps
        summary["seed_log"] = os.path.basename(log_path)
    else:
        metrics = fo_train(counting, batch_source, opt, params)
        summary["optimizer_forwards"] = counting.forward_count
        summary["expected_forwards"] = opt.steps
    elapsed = time.perf_counter() - t0
    params.save(os.path.join(outdir, f"{run_id}.final.pset"))

    summary.update({
        "run_id": run_id, "kind": "train", "seed": seed,
        "task": data_cfg.task, "steps": len(metrics),
        "final_loss": metrics[-1]["loss"] if metrics else None,
    })
    if isinstance(opt, ZOConfig):
        summary.update({"q": opt.q, "lr": opt.lr, "epsilon": opt.epsilon,
                        "combine": opt.combine,
                        "sampler": opt.sampler.variant})
    else:
        summary.update({"optimizer": opt.optimizer, "lr": opt.lr})
    if test is not None:
        summary["eval_loss"] = float(model.loss(params, test))
        if model.predict is not None:
            summary["eval_accuracy"] = accuracy(model, params, test)
    _write_run(outdir, run_id, seed,
               [(m["step"], m["loss"], m["forwards"]) for m in metrics],
               summary, {"seconds": elapsed})
    return summary


def _pretrain_source(cfg, data_cfg, model, seed):
    spec = cfg.tta.get("pretrain", {})
    focfg = FOConfig(lr=spec.get("lr", 0.05),
                     optimizer=spec.get("optimizer", "adam"),
                     steps=spec.get("steps", 300))
    params = model.init(seed)
    train_set, _ = gen_data(data_cfg)
    sampler = BatchSampler(train_set, cfg.data.get("batch_size", 24), seed=seed)
    fo_train(model, sampler.draw, focfg, params)
    return params


def _tta_single(cfg, overrides, seed, outdir, run_id):
    data_cfg = _data_config(cfg, overrides)
    model = make_model(data_cfg)
    # source model is always trained on the clean distribution
    clean_cfg = DataGenConfig(**{**data_cfg.__dict__, "noise_sigma": 0.0,
                                 "shift_scale": 1.0, "shift_bias": 0.0})
    source_params = _pretrain_source(cfg, clean_cfg, model, seed)
    stream = gen_shifted_stream(data_cfg, cfg.tta.get("samples", 100))
    opt = _optimizer_config(cfg, overrides, seed)
    tta_cfg = TTAEpisodeConfig(steps=cfg.tta["steps"], optimizer=opt,
                               reset_mode=cfg.tta.get("reset_mode", "snapshot"))
    mask = AdaptMask(cfg.tta["mask"])
    t0 = time.perf_counter()
    aggregate, episodes = run_stream(model, source_params, stream, mask,
                                     tta_cfg, master_seed=seed)
    elapsed = time.perf_counter() - t0

    with open(os.path.join(outdir, f"{run_id}.episodes.jsonl"), "w") as fh:
        for ep in episodes:
            clean = {k: v for k, v in ep.items() if k != "adapt_seconds"}
            fh.write(json.dumps(clean, sort_keys=True) + "\n")
    summary = {
        "run_id": run_id, "kind": "tta", "seed": seed, "task": data_cfg.task,
        "noise_sigma": data_cfg.noise_sigma,
        "zero_shot_accuracy": aggregate["zero_shot_accuracy"],
        "adapted_accuracy": aggregate["adapted_accuracy"],
        "accuracy_gain": aggregate["accuracy_gain"],
        "accuracy_gain_se": aggregate["accuracy_gain_se"],
        "improved_fraction": aggregate["improved_fraction"],
        "samples": aggregate["samples"],
        "forwards_per_episode": aggregate["forwards_per_episode"],
        "total_adapt_forwards": aggregate["total_adapt_forwards"],
        "optimizer": "zo" if isinstance(opt, ZOConfig) else opt.optimizer,
    }
    _write_run(outdir, run_id, seed,
               [(ep["sample_id"], ep["entropy_after"], ep["adapt_forwards"])
                for ep in episodes],
               summary, {"seconds": elapsed,
                         "mean_adapt_seconds": aggregate["mean_adapt_seconds"]})
    return summary


def run(cfg: ExperimentConfig, output_dir=None) -> list:
    """Execute the full sweep grid x replicate seeds; returns summaries."""
    outdir = output_dir or cfg.output_dir
    os.makedirs(outdir, exist_ok=True)
    summaries = []
    single = _train_single if cfg.kind == "train" else _tta_single
    for label, overrides in expand_grid(cfg):
        for seed in cfg.seeds:
            run_id = _run_id(cfg, label, seed)
            summaries.append(single(cfg, overrides, seed, outdir, run_id))
    if cfg.sweep:
        _write_sweep_table(cfg, summaries, outdir)
    return summaries


def _group_key(run_id: str) -> str:
    head, _, tail = run_id.rpartition("-seed")
    return head if head else run_id


def _write_sweep_table(cfg, summaries, outdir):
    metric = "final_loss" if cfg.kind == "train" else "adapted_accuracy"
    groups = {}
    for s in summaries:
        groups.setdefault(_group_key(s["run_id"]), []).append(float(s[metric]))
    rows = []
    for name in sorted(groups):
        vals = np.array(groups[name])
        rows.append({"group": name, "metric": metric, "n": len(vals),
                     "mean": repr(float(vals.mean())),
                     "median": repr(float(np.median(vals))),
                     "sd": repr(float(vals.std(ddof=1)) if len(vals) > 1 else 0.0)})
    _write_csv(os.path.join(outdir, "sweep_table.csv"),
               ["group", "metric", "n", "mean", "median", "sd"], rows)


def _load_summaries(result_dirs):
    groups = {}
    for d in result_dirs:
        for fname in sorted(os.listdir(d)):
            if fname.endswith(".summary.json"):
                with open(os.path.join(d, fname)) as fh:
                    s = json.load(fh)
                groups.setdefault(_group_key(s["run_id"]), []).append(s)
    if not groups:
        raise ConfigError("no *.summary.json files found in the given dirs")
    return groups


def compare(result_dirs, baseline: str, metric: str = "final_loss") -> list:
    """Aggregate runs by group and report relative change vs the baseline.

    Relative change is (group_mean - baseline_mean) / baseline_mean in
    percent, negative meaning an improvement for loss-like metrics.
    """
    groups = _load_summaries(result_dirs)
    if baseline not in groups:
        raise ConfigError(
            f"baseline {baseline!r} not found; groups: {sorted(groups)}")

    def group_mean(name):
        vals = [float(s[metric]) for s in groups[name]]
        return float(np.mean(vals)), (float(np.std(vals, ddof=1))
                                      if len(vals) > 1 else 0.0), len(vals)

    base_mean, _, _ = group_mean(baseline)
    table = []
    for name in sorted(groups):
        mean, sd, n = group_mean(name)
        rel = 0.0 if base_mean == 0 else (mean - base_mean) / base_mean * 100.0
        table.append({"group": name, "metric": metric, "n": n, "mean": mean,
                      "sd": sd, "relative_pct": rel,
                      "is_baseline": name == baseline})
    return table
