"""Two-stage zeroth-order SGD with seed-replay updates.

One training step runs in two stages.  Stage 1 estimates q projected
gradients: for each query, the model evaluates two read-only probes of
the parameters, theta + eps*z and theta - eps*z (``ParamSet.probes``),
yielding g = (l_plus - l_minus) / (2 eps); theta is not written.  Only
the seed and the scalar g are kept: ``train`` returns them as
QueryRecords flat in log order, step-major and query-minor, as a seed
log stores them.  Stage 2 regenerates each z from its seed and the
sampler kind and applies theta -= lr_eff * g * z in one ``axpy`` call,
one term per query, the same kernel and call form with which
:func:`zobench.seedlog.replay` and ``revert`` apply a log.  So theta
changes only through the terms replay applies, and eps sizes the probes
only: replay and revert never read it.

Every update goes through ``params.axpy``, looked up on the module at
call time, so a wrapper installed there sees every call.  On a set above
``params.CHUNK`` elements, where the machine has a second CPU, a probe's
product with a wide weight takes two threads: ``zobench.params``' worker
thread draws z piece by piece while the calling thread multiplies.  ``train`` then holds numpy's OpenBLAS at one
thread, as ``params._one_blas_thread`` decides, so its busy-waiting
worker leaves the second CPU to the worker's draws and updates: inside
``train`` stage 2 of step t runs on the worker, as one job, during step
t + 1's first product, which draws z on the calling thread and needs no
theta; the first read of theta waits for it.  Nothing else reads the set
inside ``train``: ``batch_source`` and ``log_writer`` never do.

Query estimates are combined either by plain accumulation (the default:
each query contributes lr * g, so the effective step grows with q) or by
averaging (each query contributes lr * g / q).  Accumulation with lr is
bit-identical to averaging with q * lr whenever q * lr is exact in
floating point (any power-of-two q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import index as _index
from typing import Callable

import numpy as np

from . import params as _params
from .params import ParamSet
from .samplers import FULL, SamplerKind
from .streams import check_int, check_real

__all__ = [
    "ZOConfig", "QueryRecord", "NumericError",
    "derive_seed", "rge_proj_grad", "zo_step", "train",
    "CountingModel",
]

_M64 = (1 << 64) - 1


class NumericError(ArithmeticError):
    """A forward pass returned a non-finite loss.

    Carries the perturbation seed, and the step and query that
    ``zo_step`` fills in, so the failure is reproducible; the probes
    never write the parameters, so the failing step leaves them
    bit-identical to their pre-step values.  ``train`` adds
    the completed steps' records, in log order, as ``records``.
    """

    def __init__(self, message: str, seed: int):
        super().__init__(message)
        self.seed = seed
        self.step = self.query = self.records = None


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
        check_real("epsilon", self.epsilon)
        check_real("lr", self.lr)
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.lr < 0:
            raise ValueError("lr must be non-negative")
        check_int("q", self.q, 1, 2**32)  # a u32 in the log header
        check_int("steps", self.steps, 0)
        check_int("master_seed", self.master_seed, 0, 2**64)
        if self.combine not in ("accumulate", "mean"):
            raise ValueError(f"unknown combine mode {self.combine!r}")
        if self.batch_mode not in ("fresh", "shared"):
            raise ValueError(f"unknown batch mode {self.batch_mode!r}")

    @property
    def lr_effective(self) -> float:
        """Per-query update coefficient before the projected gradient."""
        return self.lr if self.combine == "accumulate" else self.lr / self.q

    @property
    def forwards_per_step(self) -> int:
        """Loss evaluations per step: a +eps and a -eps probe per query."""
        return 2 * self.q


@dataclass
class QueryRecord:
    seed: int
    proj_grad: float
    loss_plus: float
    loss_minus: float


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


@lru_cache(maxsize=1)
def _step_key(master_seed: int, step: int) -> int:
    return _splitmix64(_splitmix64(master_seed & _M64) ^ step)


def derive_seed(master_seed: int, step: int, query: int) -> int:
    """Deterministic per-query seed from (master_seed, step, query).

    splitmix64 mixing: full-run trajectories are reproducible from the
    master seed alone and recorded seed logs stay portable.  The step
    key, two rounds over (master_seed, step), is computed once per step
    and held for the last pair only, so a step's q queries cost q + 2
    rounds.  Numpy integers give the Python-int seeds Python ints give.
    """
    key = _step_key(_index(master_seed), _index(step))
    return _splitmix64(key ^ _index(query))


def rge_proj_grad(model, params: ParamSet, batch, seed: int, epsilon: float,
                  kind: SamplerKind = FULL) -> QueryRecord:
    """One paired-forward projected-gradient estimate along z(seed, kind).

    Returns the QueryRecord; its ``proj_grad`` is the estimate.  The
    model's ``loss`` runs once on each of the read-only probes theta +
    eps * z and theta - eps * z (``ParamSet.probes``), so the parameters
    are never written, whatever the losses come out to.  Raises
    ValueError unless epsilon is a finite positive number, and
    NumericError if either loss is non-finite.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    with params.probes(seed, epsilon, kind) as (plus, minus):
        loss_plus = float(model.loss(plus, batch))
        loss_minus = float(model.loss(minus, batch))
        if not (math.isfinite(loss_plus) and math.isfinite(loss_minus)):
            raise NumericError(
                f"non-finite loss under perturbation seed {seed} "
                f"(l+={loss_plus}, l-={loss_minus})", seed=seed)
    g = (loss_plus - loss_minus) / (2.0 * epsilon)
    return QueryRecord(seed=seed, proj_grad=g, loss_plus=loss_plus,
                       loss_minus=loss_minus)


def zo_step(model, params: ParamSet, batch_source: Callable, config: ZOConfig,
            t: int) -> list:
    """One full step: q paired-forward estimates, then q seed-replay updates.

    Query j of step t perturbs along ``derive_seed(master_seed, t, j)``
    and evaluates ``batch_source(t * q + j)`` in fresh batch mode, or
    ``batch_source(t)`` for every query in shared mode.  Returns the q
    QueryRecords in query order.  On a non-finite loss the step aborts
    before its update, the parameters unwritten.

    Stage 2 is the step's one write: one ``axpy`` call over seeds ``[s_1,
    ..., s_q]`` with coefficients ``-lr_eff * g_j``, the terms replay
    applies for the step's records.
    """
    q = config.q
    queries = []
    for j in range(q):
        seed = derive_seed(config.master_seed, t, j)
        batch = batch_source(t * q + j if config.batch_mode == "fresh" else t)
        try:
            rec = rge_proj_grad(model, params, batch, seed, config.epsilon,
                                config.sampler)
        except NumericError as exc:
            exc.step, exc.query = t, j
            raise
        queries.append(rec)
    lr_eff = config.lr_effective
    _params.axpy(params, [-lr_eff * rec.proj_grad for rec in queries],
                 [rec.seed for rec in queries], config.sampler)
    return queries


class CountingModel:
    """Model wrapper counting forward passes (the budget): one per
    ``loss`` call, and one per ``loss_and_grad`` call, which takes the
    loss and the gradient from a single forward."""

    def __init__(self, model):
        self._model = model
        self.forward_count = 0

    def __getattr__(self, name):
        return getattr(self._model, name)

    def loss(self, params, batch):
        self.forward_count += 1
        return self._model.loss(params, batch)

    def loss_and_grad(self, params, batch):
        self.forward_count += 1
        return self._model.loss_and_grad(params, batch)


def train(model, batch_source: Callable, config: ZOConfig, params: ParamSet,
          log_writer=None):
    """Run the full step budget; returns (records in log order, metrics).

    ``batch_source(index)`` must be a pure function of its index; see
    ``zo_step`` for the index each query reads.  The per-step loss metric
    is the mean of (l_plus + l_minus) / 2 over the step's queries, so a
    step costs exactly 2 q forward passes, nothing more.

    If ``log_writer`` is given, each completed step is appended and
    flushed, so a partial log survives an aborted run.

    On a set that may use ``zobench.params``' worker thread, the run
    holds numpy's OpenBLAS at one thread and restores the caller's count
    on every exit; ``zobench.params`` decides both.  Stage 2 of step t
    then runs on the worker during step t + 1's first product, and every
    exit waits for it, so the set is whole when ``train`` returns or
    raises.  ``batch_source`` and ``log_writer`` must not read the set:
    they run while an update may be pending.
    """
    records, metrics = [], []
    with _params._one_blas_thread(params):
        for t in range(config.steps):
            try:
                queries = zo_step(model, params, batch_source, config, t)
            except NumericError as exc:
                exc.records = records
                raise
            records.extend(queries)
            if log_writer is not None:
                for rec in queries:
                    log_writer.append(rec.seed, rec.proj_grad)
                log_writer.flush()
            loss_proxy = float(np.mean([(rec.loss_plus + rec.loss_minus) / 2.0
                                        for rec in queries]))
            metrics.append({
                "step": t,
                "loss": loss_proxy,
                "forwards": config.forwards_per_step,
            })
    return records, metrics

