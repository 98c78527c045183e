"""Perturbation direction samplers.

Two ways to draw the random direction z for a tensor, both pure functions
of (seed, shape, kind); epsilon only scales z, so it never names one:

* full: elementwise standard Gaussian, z ~ N(0, I), drawn by
  :func:`~zobench.streams.gaussian_fill`.
* low-rank: z = U @ W.T with U (m x r) and W (n x r) standard Gaussian,
  so every draw has rank <= r.  Entry variance is r (unnormalized); pass
  ``normalize=True`` to SamplerKind for unit entry variance.

Tensors that are not genuinely 2-D (scalars, vectors, or matrices with a
singleton leading dim) fall back to full Gaussian sampling under the
low-rank kind.  Each draw reports its transients to ``alloc_tracker`` and
frees them before it returns.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .streams import GaussianStream, check_int, gaussian_fill

__all__ = [
    "SamplerKind",
    "FULL",
    "sample_lowrank",
    "sample_for_tensor",
    "alloc_tracker",
]


class AllocationTracker:
    """Byte counter for transient arrays on the optimizer's hot path.

    Sampler and update code report allocations and releases here so tests
    can assert the peak transient footprint of a step (the desk-scale
    stand-in for training-at-inference-memory).  It counts transients
    only: a call reports the scratch it works in and frees it before it
    returns, so ``active`` is 0 between calls, and an array a call returns
    is the caller's, not a transient.  ``axpy`` reports its scratch at its
    entry and exit, although the scratch itself lives with the ParamSet
    from its first call on; a probe pair reports each piece of z it draws
    while it draws it, and the eps z_i it keeps for both probes until its
    ``with`` block ends.  Not thread safe; reset before each measured
    region.
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

    variant "full" takes no rank and no normalize; variant "lowrank"
    requires 1 <= rank < 2**32.
    """

    variant: str = "full"
    rank: int = 0
    normalize: bool = False

    def __post_init__(self):
        if self.variant not in ("full", "lowrank"):
            raise ValueError(f"unknown sampler variant {self.variant!r}")
        if self.variant == "lowrank":
            check_int("rank", self.rank, 1, 2**32)  # a u32 in the log header
        if self.variant == "full" and (self.rank != 0 or self.normalize):
            raise ValueError("full sampler takes no rank or normalize")

    @staticmethod
    def lowrank(rank: int, normalize: bool = False) -> "SamplerKind":
        check_int("rank", rank, 1)
        return SamplerKind("lowrank", rank=operator.index(rank),
                           normalize=normalize)


FULL = SamplerKind()


def sample_lowrank(stream: GaussianStream, m: int, n: int, r: int,
                   dtype=np.float64, normalize: bool = False,
                   out=None) -> np.ndarray:
    """Rank-limited direction z = U @ W.T, U (m x r'), W (n x r').

    r' = min(r, m, n).  Entries have variance r' unless ``normalize`` is
    set, in which case z is scaled by 1/sqrt(r') for unit entry variance.
    U is drawn before W, each in row-major order.  z is written to
    ``out`` (C-contiguous, m x n) if given.
    """
    m, n, r = int(m), int(n), int(r)
    if m < 1 or n < 1 or r < 1:
        raise ValueError(f"m, n, r must be >= 1, got ({m}, {n}, {r})")
    r_eff = min(r, m, n)
    u = gaussian_fill(stream, (m, r_eff), dtype=dtype)
    w = gaussian_fill(stream, (n, r_eff), dtype=dtype)
    factors = u.nbytes + w.nbytes
    alloc_tracker.alloc(factors)
    z = np.matmul(u, w.T, out=out)
    alloc_tracker.free(factors)
    if normalize:
        z /= np.sqrt(r_eff, dtype=dtype)
    return z


def sample_for_tensor(stream: GaussianStream, shape, kind: SamplerKind,
                      dtype=np.float64, out=None) -> np.ndarray:
    """Draw a direction for one tensor, dispatching on shape and kind.

    Low-rank sampling applies to the first two dims; tensors of rank > 2
    are treated as a stack of (shape[0] x shape[1]) matrices over the
    trailing dims, each slice getting its own factors in trailing-index
    order, drawn into one (shape[0] x shape[1]) scratch.  Scalars, 1-D
    tensors and singleton-dim matrices fall back to the full Gaussian,
    drawn from the same stream.  The direction is written to ``out``
    (C-contiguous, of ``shape``) if given.
    """
    dims = tuple(map(int, shape))
    if kind.variant == "full" or len(dims) < 2 or min(dims[:2]) <= 1:
        return gaussian_fill(stream, dims, dtype, out)
    m, n = dims[0], dims[1]
    if len(dims) == 2:
        return sample_lowrank(stream, m, n, kind.rank, dtype=dtype,
                              normalize=kind.normalize, out=out)
    trailing = int(np.prod(dims[2:]))
    z = np.empty(dims, dtype=dtype) if out is None else out
    flat = z.reshape(m, n, trailing)
    scratch = np.empty((m, n), dtype=dtype)
    alloc_tracker.alloc(scratch.nbytes)
    for idx in range(trailing):
        flat[:, :, idx] = sample_lowrank(stream, m, n, kind.rank, dtype=dtype,
                                         normalize=kind.normalize, out=scratch)
    alloc_tracker.free(scratch.nbytes)
    return z
