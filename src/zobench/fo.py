"""First-order baselines (SGD, Adam) and a finite-difference gradient oracle.

These exist as the comparison arm for every zeroth-order experiment and
as the independent check on the models' analytic gradients.  They share
the seed derivation and batch sampling of the ZO path, so a comparison
run differs only in the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ParamSet
from .streams import check_int, check_real

__all__ = ["FOConfig", "fo_step", "fo_train", "finite_diff_grad"]


@dataclass
class FOConfig:
    lr: float = 1e-2
    optimizer: str = "sgd"          # "sgd" | "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8
    steps: int = 100

    def __post_init__(self):
        for name in ("lr", "beta1", "beta2", "eps_adam"):
            check_real(name, getattr(self, name))
        if self.lr < 0:
            raise ValueError("lr must be non-negative")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("betas must lie in (0, 1)")
        if self.eps_adam <= 0:
            raise ValueError("eps_adam must be positive")
        check_int("steps", self.steps, 0)

    @property
    def forwards_per_step(self) -> int:
        """Forward budget charged per step: one, whatever the gradient costs."""
        return 1


def fo_step(model, params: ParamSet, batch, config: FOConfig, state: dict):
    """One SGD or Adam update from the model's analytic gradient.

    ``state`` persists Adam moments across steps; pass the same dict for
    the whole run.  Non-finite gradients abort before touching params.
    """
    grads = model.grad(params, batch)
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise ArithmeticError(f"non-finite gradient for {name!r}")
    if config.optimizer == "sgd":
        for (name, p), (_, g) in zip(params.items(), grads.items()):
            p -= config.lr * g
        return
    # Adam with bias correction
    t = state.get("t", 0) + 1
    state["t"] = t
    m = state.setdefault("m", {})
    v = state.setdefault("v", {})
    b1, b2 = config.beta1, config.beta2
    for (name, p), (_, g) in zip(params.items(), grads.items()):
        mi = m.get(name)
        vi = v.get(name)
        if mi is None:
            mi = np.zeros_like(p)
            vi = np.zeros_like(p)
        mi = b1 * mi + (1 - b1) * g
        vi = b2 * vi + (1 - b2) * g * g
        m[name], v[name] = mi, vi
        mhat = mi / (1 - b1 ** t)
        vhat = vi / (1 - b2 ** t)
        p -= config.lr * mhat / (np.sqrt(vhat) + config.eps_adam)


def fo_train(model, batch_source, config: FOConfig, params: ParamSet):
    """Run the step budget; returns per-step metrics (loss evaluated once)."""
    state: dict = {}
    metrics = []
    for t in range(config.steps):
        batch = batch_source(t)
        loss = float(model.loss(params, batch))
        fo_step(model, params, batch, config, state)
        metrics.append({"step": t, "loss": loss,
                        "forwards": config.forwards_per_step})
    return metrics


def finite_diff_grad(model, params: ParamSet, batch, h: float) -> ParamSet:
    """Central-difference gradient, element by element.

    Deliberately brute force: this is the oracle the analytic gradients
    are judged against, so it shares no code with them.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    out = []
    for name, p in params.items():
        g = np.zeros_like(p)
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + h
            lp = model.loss(params, batch)
            flat_p[i] = orig - h
            lm = model.loss(params, batch)
            flat_p[i] = orig
            flat_g[i] = (lp - lm) / (2.0 * h)
        out.append((name, g))
    return ParamSet(out)
