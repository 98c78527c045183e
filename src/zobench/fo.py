"""First-order baselines (SGD, Adam).

These exist as the comparison arm for every zeroth-order experiment.
They share the seed derivation and batch sampling of the ZO path, so a
comparison run differs only in the optimizer.  The finite-difference
oracle that checks the models' analytic gradients is a test helper,
``finite_diff_grad`` in ``tests/conftest.py``.

A step is one forward: ``fo_step`` takes the loss and the gradient from
one ``model.loss_and_grad`` call and returns that loss, which is what
``fo_train`` records.  Both optimizers are element-wise, so a step walks
the packed parameter and gradient buffers in pieces of at most
:data:`~zobench.params.CHUNK` elements, with Adam's moments as two flat
arrays beside them, rather than tensor by tensor; each element goes
through the operations of the per-tensor update in the same order, so
the bytes are the same.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ParamSet
from .streams import check_int, check_real

__all__ = ["FOConfig", "fo_step", "fo_train"]


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
        """Forwards per step: one, the ``loss_and_grad`` call."""
        return 1


def fo_step(model, params: ParamSet, batch, config: FOConfig,
            state: dict) -> float:
    """One SGD or Adam update from ``model.loss_and_grad``; returns the
    loss, taken at the parameters before the update.

    ``state`` persists Adam's step count ``"t"`` and its moments ``"m"``
    and ``"v"``, flat arrays over the set's elements in iteration order;
    pass the same dict for the whole run.  A non-finite gradient aborts,
    naming its tensor, before any parameter is touched.
    """
    loss, grads = model.loss_and_grad(params, batch)
    pieces = list(params._piece_pairs(grads))
    if not all(np.isfinite(g).all() for _, g in pieces):
        name = next(n for n, g in grads.items() if not np.isfinite(g).all())
        raise ArithmeticError(f"non-finite gradient for {name!r}")
    lr = config.lr
    if config.optimizer == "sgd":
        for p, g in pieces:
            p -= lr * g
        return loss
    # Adam with bias correction
    t = state["t"] = state.get("t", 0) + 1
    if "m" not in state:
        dtype = np.result_type(params.dtype, grads.dtype)
        state["m"] = np.zeros(params.num_elements(), dtype)
        state["v"] = np.zeros_like(state["m"])
    b1, b2 = config.beta1, config.beta2
    c1, c2 = 1 - b1 ** t, 1 - b2 ** t
    lo = 0
    for p, g in pieces:
        m, v = state["m"][lo:lo + g.size], state["v"][lo:lo + g.size]
        lo += g.size
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        p -= lr * (m / c1) / (np.sqrt(v / c2) + config.eps_adam)
    return loss


def fo_train(model, batch_source, config: FOConfig, params: ParamSet):
    """Run the step budget; returns per-step metrics (loss evaluated once,
    by the step's one forward, before its update)."""
    state: dict = {}
    metrics = []
    for t in range(config.steps):
        loss = fo_step(model, params, batch_source(t), config, state)
        metrics.append({"step": t, "loss": float(loss),
                        "forwards": config.forwards_per_step})
    return metrics
