"""Episodic test-time adaptation on unlabeled samples.

Each sample is adapted independently from the source model: only the
parameters matched by the adaptation mask (e.g. ``feat.*`` and
``norm.*``) are updated, by minimizing the predictive entropy with
either the zeroth-order optimizer or first-order Adam/SGD.  A ZO
episode is one ``zo.train`` run, the loop training uses, and emits a
seed log scoped to the masked parameters, so ``reset_mode="revert"`` can
recover the source state by reverting the log instead of keeping a
snapshot.  Episodes report seed-determined values only, no timings.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from . import zo as _zo
from .fo import FOConfig, fo_step
from .models import Batch, Model, entropy_objective, sample_scores
from .params import ParamSet
from .seedlog import SeedLog, SeedLogHeader, revert as revert_log
from .streams import check_int
# zo_step stays a module attribute: bench/spans.py wraps it by this name.
from .zo import CountingModel, ZOConfig, derive_seed, zo_step  # noqa: F401

__all__ = ["AdaptMask", "TTAEpisodeConfig", "adapt_sample", "run_stream"]


@dataclass(frozen=True)
class AdaptMask:
    """Glob patterns over parameter names selecting what may be adapted."""

    patterns: tuple

    def __init__(self, patterns):
        if isinstance(patterns, str):
            raise ValueError(f"mask must be a list of patterns, not {patterns!r}")
        object.__setattr__(self, "patterns", tuple(patterns))

    def resolve(self, params: ParamSet) -> list:
        names = [n for n in params.names
                 if any(fnmatch.fnmatchcase(n, pat) for pat in self.patterns)]
        if not names:
            raise ValueError(f"mask {self.patterns} matches no parameters")
        return names


@dataclass
class TTAEpisodeConfig:
    steps: int
    optimizer: Union[ZOConfig, FOConfig]
    reset_mode: str = "snapshot"    # "snapshot" | "revert" (ZO only)

    def __post_init__(self):
        check_int("steps", self.steps, 1)
        if self.reset_mode not in ("snapshot", "revert"):
            raise ValueError(f"unknown reset mode {self.reset_mode!r}")
        if self.reset_mode == "revert" and isinstance(self.optimizer, FOConfig):
            raise ValueError("revert resets need a ZO optimizer's seed log")

    def forward_budget(self) -> int:
        """Loss evaluations one episode spends on adaptation."""
        if isinstance(self.optimizer, ZOConfig):
            return 2 * self.optimizer.q * self.steps
        return self.steps


def _masked_objective(model: Model, full_params: ParamSet, mask_names):
    """Entropy objective seen through the masked parameter subset.

    The subset shares storage with ``full_params``: the optimizer mutates
    the subset, the forward pass reads the full set, and the unmasked
    tensors are never touched.
    """
    obj = entropy_objective(model)

    def loss(sub_params, batch):
        return obj.loss(full_params, batch)

    def grad(sub_params, batch):
        return obj.grad(full_params, batch).subset(mask_names)

    return Model(name=obj.name + "-masked", schema=None, loss=loss, grad=grad)


def adapt_sample(model: Model, source_params: ParamSet, sample: Batch,
                 mask: AdaptMask, config: TTAEpisodeConfig, episode_seed: int = 0,
                 work_params: ParamSet = None):
    """Adapt one unlabeled sample; returns (params, episode log, metrics).

    A ZO episode is one ``zo.train`` run seeded by ``episode_seed``, whose
    records are the episode log; an FO episode runs ``fo_step`` and its
    log is None.  When ``work_params`` is given the episode mutates it in
    place (the revert-based reset path); otherwise it runs on a private
    copy of the source parameters.
    """
    if sample.labels is not None:
        raise ValueError("adaptation samples must be unlabeled")
    params = work_params if work_params is not None else source_params.copy()
    mask_names = mask.resolve(params)
    sub = params.subset(mask_names)
    masked = _masked_objective(model, params, mask_names)
    objective = CountingModel(masked)

    entropy_before = float(masked.loss(sub, sample))
    if isinstance(config.optimizer, ZOConfig):
        episode_cfg = replace(config.optimizer, master_seed=episode_seed,
                              steps=config.steps)
        records, _ = _zo.train(objective, lambda index: sample, episode_cfg,
                               sub)
        header = SeedLogHeader.from_config(episode_cfg, sub.schema_hash)
        log = SeedLog.from_records(header, records)
    else:
        state: dict = {}
        for _ in range(config.steps):
            objective.forward_count += 1  # FO budget is counted per loss eval
            fo_step(objective, sub, sample, config.optimizer, state)
        log = None

    metrics = {
        "entropy_before": entropy_before,
        "entropy_after": float(masked.loss(sub, sample)),
        "adapt_forwards": objective.forward_count,
        "steps": config.steps,
    }
    return params, log, metrics


def run_stream(model: Model, source_params: ParamSet, stream, mask: AdaptMask,
               config: TTAEpisodeConfig, master_seed: int = 0):
    """Adapt every sample in the stream episodically; aggregate accuracy.

    Per-sample accuracy follows ``sample_scores``: flat classifiers score
    0/1, the sequence classifier scores the fraction of correct frames
    (the token-accuracy analog).  Returns (aggregate dict, per-episode
    records); episode records are flat dicts, one per sample, suitable
    for line-delimited output.
    """
    episodes = []
    use_revert = config.reset_mode == "revert"
    work = source_params if use_revert else None
    if use_revert:
        mask_names = mask.resolve(source_params)
        sub = source_params.subset(mask_names)
    for sample in stream:
        batch_eval = Batch(sample.inputs[None, ...],
                           np.array([sample.label]))
        zero_score = float(sample_scores(model, source_params, batch_eval)[0])
        episode_seed = derive_seed(master_seed, sample.sample_id, 0)
        adapted, log, metrics = adapt_sample(
            model, source_params, sample.batch(), mask, config,
            episode_seed=episode_seed, work_params=work)
        adapt_score = float(sample_scores(model, adapted, batch_eval)[0])
        if use_revert:
            restored = revert_log(sub, log)
            for name in mask_names:
                np.copyto(sub[name], restored[name])
        episodes.append({
            "sample_id": sample.sample_id,
            "zero_shot_score": zero_score,
            "adapted_score": adapt_score,
            "entropy_before": metrics["entropy_before"],
            "entropy_after": metrics["entropy_after"],
            "adapt_forwards": metrics["adapt_forwards"],
        })
    n = len(episodes)
    zero_scores = np.array([ep["zero_shot_score"] for ep in episodes])
    adapt_scores = np.array([ep["adapted_score"] for ep in episodes])
    gains = adapt_scores - zero_scores
    gain_se = (float(gains.std(ddof=1) / np.sqrt(n)) if n > 1 else float("nan"))
    aggregate = {
        "samples": n,
        "zero_shot_accuracy": float(np.mean(zero_scores)) if n else float("nan"),
        "adapted_accuracy": float(np.mean(adapt_scores)) if n else float("nan"),
        "accuracy_gain": float(gains.mean()) if n else float("nan"),
        "accuracy_gain_se": gain_se,
        "improved_fraction": float(np.mean(gains > 0)) if n else float("nan"),
        "total_adapt_forwards": sum(ep["adapt_forwards"] for ep in episodes),
        "forwards_per_episode": config.forward_budget(),
    }
    return aggregate, episodes
