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
from contextlib import contextmanager
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


def _is_positive(value, kind=(int, float)) -> bool:
    return isinstance(value, kind) and value is not True and value > 0


@contextmanager
def _config_errors(path):
    """Report a config object's own ValueError/TypeError as ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


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
    with open(path) as fh, _config_errors(path):   # e.g. invalid JSON
        return parse_config(json.load(fh))


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
        _require(_is_positive(opt["lr"]), "optimizer.lr", "must be positive")
    if "forward_budget" in opt:
        _require(kind == "train", "optimizer.forward_budget",
                 "applies to training only; tta.steps sets the episode")
        _require(_is_positive(opt["forward_budget"], int),
                 "optimizer.forward_budget", "must be a positive integer")
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
    for seed in seeds:
        _require(type(seed) is int and 0 <= seed < 2**64, "seeds",
                 f"{seed!r} is not an integer in [0, 2**64)")
    data = raw.get("data", {})
    _require(isinstance(data, dict), "data", "must be a JSON object")
    _require(_is_positive(data.get("batch_size", 24), int),
             "data.batch_size", "must be a positive integer")
    if kind == "tta":
        _require(isinstance(raw.get("tta"), dict), "tta", "section required")
        _require(_is_positive(raw["tta"].get("steps"), int), "tta.steps",
                 "must be an integer >= 1")
        _require(_is_positive(raw["tta"].get("samples", 100), int),
                 "tta.samples", "must be an integer >= 1")
        _require(raw["tta"].get("mask"), "tta.mask", "is required")
    return ExperimentConfig(
        name=raw.get("name", "experiment"), kind=kind, model=model,
        data=data, optimizer=opt, tta=raw.get("tta", {}),
        sweep=sweep, seeds=seeds,
        output_dir=raw.get("output_dir", "results"))


def _data_and_model(cfg: ExperimentConfig, overrides: dict):
    merged = {**cfg.model, **cfg.data}
    merged.pop("batch_size", None)
    for (section, name), value in overrides.items():
        if section == "data":
            merged[name] = value
    with _config_errors("model/data"):   # unknown fields too
        data_cfg = DataGenConfig(**merged)
        return data_cfg, make_model(data_cfg)


def _sampler_kind(spec, rank) -> SamplerKind:
    if isinstance(spec, SamplerKind):
        return spec
    if spec == "full":
        return SamplerKind.full()
    if spec == "lowrank":
        return SamplerKind.lowrank(rank)
    raise ConfigError(f"optimizer.sampler: unknown sampler {spec!r}")


def _optimizer_config(cfg: ExperimentConfig, overrides: dict, seed: int):
    opt = dict(cfg.optimizer)
    for (section, name), value in overrides.items():
        if section == "optimizer":
            opt[name] = value
    kind, budget = opt.pop("type"), opt.pop("forward_budget", None)
    with _config_errors("optimizer"):
        if kind == "zo":
            sampler = _sampler_kind(opt.pop("sampler", "full"),
                                    opt.pop("rank", 4))
            config = ZOConfig(sampler=sampler, master_seed=seed, **opt)
            step_forwards = 2 * config.q
        else:
            config = FOConfig(optimizer=kind, **opt)
            step_forwards = 1
    if budget is not None:
        # equal-forward-budget runs: the budget fixes the step count
        config.steps = budget // step_forwards
    return config


def expand_grid(cfg: ExperimentConfig):
    """All sweep-axis combinations as (label, overrides); ("", {}) if none."""
    axes = sorted(cfg.sweep)
    return [("-".join(f"{a}{v}" for a, v in zip(axes, values)),
             {_SWEEP_AXES[a]: v for a, v in zip(axes, values)})
            for values in itertools.product(*(cfg.sweep[a] for a in axes))]


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


def _train_single(cfg, seed, outdir, run_id, data_cfg, model, opt):
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

    summary = {}
    t0 = time.perf_counter()
    if isinstance(opt, ZOConfig):
        header = SeedLogHeader.from_config(opt, params.schema_hash)
        log_path = os.path.join(outdir, f"{run_id}.zolog")
        with SeedLogWriter(log_path, header) as writer:
            _, metrics = zo_train(counting, batch_source, opt, params,
                                  log_writer=writer)
        summary["expected_forwards"] = 2 * opt.q * opt.steps
        summary["seed_log"] = os.path.basename(log_path)
    else:
        metrics = fo_train(counting, batch_source, opt, params)
        summary["expected_forwards"] = opt.steps
    elapsed = time.perf_counter() - t0
    summary["optimizer_forwards"] = counting.forward_count
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


def _tta_single(cfg, seed, outdir, run_id, data_cfg, model, opt, tta_cfg,
                mask, pretrain):
    # source model is always trained on the clean distribution
    clean_cfg = DataGenConfig(**{**data_cfg.__dict__, "noise_sigma": 0.0,
                                 "shift_scale": 1.0, "shift_bias": 0.0})
    source_params = model.init(seed)
    train_set, _ = gen_data(clean_cfg)
    sampler = BatchSampler(train_set, cfg.data.get("batch_size", 24), seed=seed)
    fo_train(model, sampler.draw, pretrain, source_params)
    stream = gen_shifted_stream(data_cfg, cfg.tta.get("samples", 100))
    t0 = time.perf_counter()
    aggregate, episodes = run_stream(model, source_params, stream, mask,
                                     tta_cfg, master_seed=seed)
    elapsed = time.perf_counter() - t0

    with open(os.path.join(outdir, f"{run_id}.episodes.jsonl"), "w") as fh:
        for ep in episodes:
            fh.write(json.dumps(ep, sort_keys=True) + "\n")
    summary = {
        "run_id": run_id, "kind": "tta", "seed": seed, "task": data_cfg.task,
        "noise_sigma": data_cfg.noise_sigma, **aggregate,
        "optimizer": "zo" if isinstance(opt, ZOConfig) else opt.optimizer,
    }
    _write_run(outdir, run_id, seed,
               [(ep["sample_id"], ep["entropy_after"], ep["adapt_forwards"])
                for ep in episodes],
               summary, {"seconds": elapsed})
    return summary


def _build(cfg: ExperimentConfig, overrides: dict, seed: int) -> dict:
    """One run's config objects and model, checked before any run starts."""
    data_cfg, model = _data_and_model(cfg, overrides)
    built = {"data_cfg": data_cfg, "model": model,
             "opt": _optimizer_config(cfg, overrides, seed)}
    if cfg.kind == "tta":
        with _config_errors("tta"):
            built["tta_cfg"] = TTAEpisodeConfig(
                steps=cfg.tta["steps"], optimizer=built["opt"],
                reset_mode=cfg.tta.get("reset_mode", "snapshot"))
        with _config_errors("tta.mask"):
            built["mask"] = AdaptMask(cfg.tta["mask"])
            built["mask"].resolve(model.init(seed))
        with _config_errors("tta.pretrain"):
            built["pretrain"] = FOConfig(**{"lr": 0.05, "optimizer": "adam",
                                            "steps": 300,
                                            **cfg.tta.get("pretrain", {})})
    return built


def run(cfg: ExperimentConfig, output_dir=None) -> list:
    """Execute the full sweep grid x replicate seeds; returns summaries.

    Every run's config is built first, so a bad value anywhere in the
    grid raises ConfigError before any file is written.
    """
    outdir = output_dir or cfg.output_dir
    single = _train_single if cfg.kind == "train" else _tta_single
    runs = [(_run_id(cfg, label, seed), seed, _build(cfg, overrides, seed))
            for label, overrides in expand_grid(cfg) for seed in cfg.seeds]
    os.makedirs(outdir, exist_ok=True)
    summaries = [single(cfg, seed, outdir, run_id, **built)
                 for run_id, seed, built in runs]
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
