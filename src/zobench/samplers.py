"""Perturbation direction samplers.

Two ways to draw the random direction z for a tensor, both pure functions
of (seed, shape, kind):

* full: elementwise standard Gaussian, z ~ N(0, I).
* low-rank: z = U @ W.T with U (m x r) and W (n x r) standard Gaussian,
  so every draw has rank <= r.  Entry variance is r (unnormalized); pass
  ``normalize=True`` to SamplerKind for unit entry variance.

Tensors that are not genuinely 2-D (vectors, or matrices with a singleton
leading dim) fall back to full Gaussian sampling under the low-rank kind.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .streams import GaussianStream, gaussian_fill

__all__ = [
    "SamplerKind",
    "FULL",
    "PerturbSpec",
    "sample_full",
    "sample_lowrank",
    "sample_for_tensor",
    "alloc_tracker",
]


class AllocationTracker:
    """Byte counter for transient arrays on the optimizer's hot path.

    Sampler and update code report allocations and releases here so tests
    can assert the peak transient footprint of a step (the desk-scale
    stand-in for training-at-inference-memory).  Not thread safe; reset
    before each measured region.
    """

    def __init__(self):
        self.active = 0
        self.peak = 0
        self.enabled = False

    def reset(self):
        self.active = 0
        self.peak = 0

    def alloc(self, nbytes: int):
        if self.enabled:
            self.active += int(nbytes)
            if self.active > self.peak:
                self.peak = self.active

    def free(self, nbytes: int):
        if self.enabled:
            self.active -= int(nbytes)


alloc_tracker = AllocationTracker()


@dataclass(frozen=True)
class SamplerKind:
    """Which perturbation distribution to use.

    variant "full" ignores rank; variant "lowrank" requires rank >= 1.
    """

    variant: str = "full"
    rank: int = 0
    normalize: bool = False

    def __post_init__(self):
        if self.variant not in ("full", "lowrank"):
            raise ValueError(f"unknown sampler variant {self.variant!r}")
        if self.variant == "lowrank" and self.rank < 1:
            raise ValueError("lowrank sampler requires rank >= 1")

    @staticmethod
    def full() -> "SamplerKind":
        return SamplerKind("full")

    @staticmethod
    def lowrank(rank: int, normalize: bool = False) -> "SamplerKind":
        return SamplerKind("lowrank", rank=operator.index(rank),
                           normalize=normalize)


FULL = SamplerKind.full()


@dataclass(frozen=True)
class PerturbSpec:
    """Everything needed to regenerate one perturbation direction z.

    Storing this (12 bytes of it, really: the seed plus a scalar) instead
    of z itself is the whole trick behind seed-replay checkpoints.
    """

    seed: int
    epsilon: float
    kind: SamplerKind = FULL

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


def sample_full(stream: GaussianStream, shape, dtype=np.float64) -> np.ndarray:
    """Elementwise standard-Gaussian direction."""
    z = gaussian_fill(stream, shape, dtype=dtype)
    alloc_tracker.alloc(z.nbytes)
    return z


def sample_lowrank(stream: GaussianStream, m: int, n: int, r: int,
                   dtype=np.float64, normalize: bool = False) -> np.ndarray:
    """Rank-limited direction z = U @ W.T, U (m x r'), W (n x r').

    r' = min(r, m, n).  Entries have variance r' unless ``normalize`` is
    set, in which case z is scaled by 1/sqrt(r') for unit entry variance.
    U is drawn before W, each in row-major order.
    """
    m, n, r = int(m), int(n), int(r)
    if m < 1 or n < 1 or r < 1:
        raise ValueError(f"m, n, r must be >= 1, got ({m}, {n}, {r})")
    r_eff = min(r, m, n)
    u = gaussian_fill(stream, (m, r_eff), dtype=dtype)
    alloc_tracker.alloc(u.nbytes)
    w = gaussian_fill(stream, (n, r_eff), dtype=dtype)
    alloc_tracker.alloc(w.nbytes)
    z = u @ w.T
    alloc_tracker.alloc(z.nbytes)
    alloc_tracker.free(u.nbytes)
    alloc_tracker.free(w.nbytes)
    if normalize:
        z /= np.sqrt(r_eff, dtype=dtype)
    return z


def _wants_lowrank(shape, kind: SamplerKind) -> bool:
    return (kind.variant == "lowrank" and len(shape) >= 2
            and shape[0] > 1 and shape[1] > 1)


def sample_for_tensor(stream: GaussianStream, shape, kind: SamplerKind,
                      dtype=np.float64) -> np.ndarray:
    """Draw a direction for one tensor, dispatching on shape and kind.

    Low-rank sampling applies to the first two dims; tensors of rank > 2
    are treated as a stack of (shape[0] x shape[1]) matrices over the
    trailing dims, each slice getting its own factors in trailing-index
    order.  1-D tensors and singleton-dim matrices fall back to the full
    Gaussian, drawn from the same stream.
    """
    dims = tuple(int(s) for s in shape)
    if not _wants_lowrank(dims, kind):
        return sample_full(stream, dims, dtype=dtype)
    m, n = dims[0], dims[1]
    if len(dims) == 2:
        return sample_lowrank(stream, m, n, kind.rank, dtype=dtype,
                              normalize=kind.normalize)
    trailing = int(np.prod(dims[2:]))
    z = np.empty(dims, dtype=dtype)
    alloc_tracker.alloc(z.nbytes)
    flat = z.reshape(m, n, trailing)
    for idx in range(trailing):
        zi = sample_lowrank(stream, m, n, kind.rank, dtype=dtype,
                            normalize=kind.normalize)
        flat[:, :, idx] = zi
        alloc_tracker.free(zi.nbytes)
    return z
