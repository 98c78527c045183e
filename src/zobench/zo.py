"""Two-stage zeroth-order SGD with seed-replay updates.

One training step runs in two stages.  Stage 1 estimates q projected
gradients: for each query, the parameters are perturbed in place by
+eps*z, evaluated, moved to -eps*z, evaluated, and restored, yielding
g = (l_plus - l_minus) / (2 eps).  Only the seed and the scalar g are
kept.  Stage 2 regenerates each z from its seed and applies
theta -= lr_eff * g * z through :func:`zobench.params.apply_records`, the
same kernel that seed-log replay and revert run.

Every perturbation and update goes through ``params.axpy``, looked up on
the module at call time, so a wrapper installed there sees every call.

Query estimates are combined either by plain accumulation (the default:
each query contributes lr * g, so the effective step grows with q) or by
averaging (each query contributes lr * g / q).  Accumulation with lr is
bit-identical to averaging with q * lr whenever q * lr is exact in
floating point (any power-of-two q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import params as _params
from .params import ParamSet
from .samplers import FULL, PerturbSpec, SamplerKind
from .streams import check_int

__all__ = [
    "ZOConfig", "StepRecord", "QueryRecord", "NumericError",
    "derive_seed", "rge_proj_grad", "zo_step", "train",
    "CountingModel",
]

_M64 = (1 << 64) - 1


class NumericError(ArithmeticError):
    """A forward pass returned a non-finite loss.

    Carries the perturbation seed so the failure is reproducible; the
    failing step leaves the parameters at their pre-step values.
    """

    def __init__(self, message: str, seed: int):
        super().__init__(message)
        self.seed = seed


@dataclass
class ZOConfig:
    epsilon: float = 1e-3
    lr: float = 1e-2
    q: int = 1
    steps: int = 100
    sampler: SamplerKind = FULL
    combine: str = "accumulate"     # "accumulate" | "mean"
    batch_mode: str = "fresh"       # "fresh" (per query) | "shared" (per step)
    master_seed: int = 0

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.lr < 0:
            raise ValueError("lr must be non-negative")
        check_int("q", self.q, 1)
        check_int("steps", self.steps, 0)
        if self.combine not in ("accumulate", "mean"):
            raise ValueError(f"unknown combine mode {self.combine!r}")
        if self.batch_mode not in ("fresh", "shared"):
            raise ValueError(f"unknown batch mode {self.batch_mode!r}")

    @property
    def lr_effective(self) -> float:
        """Per-query update coefficient before the projected gradient."""
        return self.lr if self.combine == "accumulate" else self.lr / self.q


@dataclass
class QueryRecord:
    seed: int
    proj_grad: float
    loss_plus: float
    loss_minus: float


@dataclass
class StepRecord:
    step: int
    queries: list  # [QueryRecord]


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def derive_seed(master_seed: int, step: int, query: int) -> int:
    """Deterministic per-query seed from (master_seed, step, query).

    splitmix64 mixing: full-run trajectories are reproducible from the
    master seed alone and recorded seed logs stay portable.
    """
    return _splitmix64(_splitmix64(_splitmix64(master_seed & _M64) ^ step) ^ query)


def rge_proj_grad(model, params: ParamSet, batch, spec: PerturbSpec):
    """One paired-forward projected-gradient estimate.

    Returns (proj_grad, QueryRecord).  The parameters go through the
    in-place +eps / -2 eps / +eps cycle and end within a few ulps of where
    they started, whatever the losses come out to.
    """
    eps = spec.epsilon
    _params.axpy(params, +eps, spec)
    loss_plus = float(model.loss(params, batch))
    _params.axpy(params, -2.0 * eps, spec)
    loss_minus = float(model.loss(params, batch))
    _params.axpy(params, +eps, spec)
    if not (math.isfinite(loss_plus) and math.isfinite(loss_minus)):
        raise NumericError(
            f"non-finite loss under perturbation seed {spec.seed} "
            f"(l+={loss_plus}, l-={loss_minus})", seed=spec.seed)
    g = (loss_plus - loss_minus) / (2.0 * eps)
    return g, QueryRecord(seed=spec.seed, proj_grad=g, loss_plus=loss_plus,
                          loss_minus=loss_minus)


def zo_step(model, params: ParamSet, batch_source: Callable, config: ZOConfig,
            t: int) -> StepRecord:
    """One full step: q paired-forward estimates, then q seed-replay updates.

    ``batch_source(t, j)`` supplies the batch for query j of step t; the
    shared batch mode is handled by the caller fixing j.  On a non-finite
    loss the step aborts with the parameters already restored and no
    updates applied.
    """
    queries = []
    for j in range(config.q):
        seed = derive_seed(config.master_seed, t, j)
        spec = PerturbSpec(seed, config.epsilon, config.sampler)
        batch = batch_source(t, j)
        _, rec = rge_proj_grad(model, params, batch, spec)
        queries.append(rec)
    _params.apply_records(params, [rec.seed for rec in queries],
                          [rec.proj_grad for rec in queries],
                          -config.lr_effective, config.epsilon, config.sampler)
    return StepRecord(step=t, queries=queries)


class CountingModel:
    """Model wrapper counting loss evaluations (the forward-pass budget)."""

    def __init__(self, model):
        self._model = model
        self.forward_count = 0

    def __getattr__(self, name):
        return getattr(self._model, name)

    def loss(self, params, batch):
        self.forward_count += 1
        return self._model.loss(params, batch)


def train(model, batch_source: Callable, config: ZOConfig, params: ParamSet,
          log_writer=None):
    """Run the full step budget; returns (step records, per-step metrics).

    ``batch_source(index)`` must be a pure function of its index.  Fresh
    batch mode uses index t * q + j; shared mode uses index t for every
    query of step t.  The per-step loss metric is the mean of
    (l_plus + l_minus) / 2 over the step's queries, so a step costs
    exactly 2 q forward passes, nothing more.

    If ``log_writer`` is given, each completed step is appended and
    flushed, so a partial log survives an aborted run.
    """
    records, metrics = [], []
    for t in range(config.steps):
        if config.batch_mode == "fresh":
            source = lambda tt, jj: batch_source(tt * config.q + jj)
        else:
            source = lambda tt, jj: batch_source(tt)
        record = zo_step(model, params, source, config, t)
        records.append(record)
        if log_writer is not None:
            for rec in record.queries:
                log_writer.append(rec.seed, rec.proj_grad)
            log_writer.flush()
        loss_proxy = float(np.mean([(rec.loss_plus + rec.loss_minus) / 2.0
                                    for rec in record.queries]))
        metrics.append({
            "step": t,
            "loss": loss_proxy,
            "forwards": 2 * config.q,
        })
    return records, metrics
