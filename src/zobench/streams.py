"""Deterministic Gaussian sample streams.

All randomness in the library flows through :class:`GaussianStream`, which
wraps numpy's Philox counter-based bit generator.  Philox is keyed, so a
(seed, substream) pair fully determines the sample sequence; there is no
global RNG state anywhere.  Standard normals are produced by numpy's
ziggurat implementation, whose stream is pinned by numpy's stream
compatibility policy.  Seed logs are portable across machines running the
same numpy major version; the golden-value test in tests/test_streams.py
guards against silent stream changes.

Building a stream is expensive for what it does: ``Philox(key=...)``
first builds an OS-entropy ``SeedSequence`` that the key then overrides,
which is most of the 10-20 µs a construction costs.  Seed regeneration
needs one stream per tensor per update, so the hot paths do not build
streams.  They call :func:`thread_stream`, which rekeys one stream per
thread instead: Philox is counter-based, so setting its state to
(key=[seed, substream], counter=0, empty buffer) restarts exactly the
stream a fresh ``GaussianStream(seed, substream)`` would produce (Salmon
et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11).
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["GaussianStream", "gaussian_fill", "thread_stream"]

_U64 = np.uint64
_ZEROS4 = np.zeros(4, dtype=_U64)


def check_int(name: str, value, low: int) -> None:
    """Raise unless ``value`` is an integer (numpy's too) >= ``low``."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def _check_seed(seed) -> int:
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


class GaussianStream:
    """A reproducible stream of i.i.d. standard-normal samples.

    ``substream`` selects an independent stream under the same seed (it is
    the second word of the Philox key).  Perturbation code gives each
    parameter tensor its own substream, indexed by position in the
    ParamSet, so a tensor's perturbation depends only on (seed, index) and
    never on how many samples earlier tensors consumed.
    """

    def __init__(self, seed: int, substream: int = 0):
        self.seed = _check_seed(seed)
        self.substream = int(substream)
        self._key = np.array([self.seed, self.substream], dtype=_U64)
        self._gen = np.random.Generator(np.random.Philox(key=self._key))
        # Philox's state setter copies these values, so one dict serves
        # every rekey; only _key's two words change between them.
        self._state = {"bit_generator": "Philox",
                       "state": {"counter": _ZEROS4, "key": self._key},
                       "buffer": _ZEROS4, "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0}

    def rekey(self, seed: int, substream: int = 0) -> "GaussianStream":
        """Restart this stream as ``GaussianStream(seed, substream)`` would.

        Sets the Philox key to [seed, substream], the counter to 0 and
        empties both the 64-bit and the 32-bit buffers, so the samples that
        follow are bit-identical to a freshly built stream's.
        """
        self.seed = _check_seed(seed)
        self.substream = int(substream)
        self._key[0] = self.seed
        self._key[1] = self.substream
        self._gen.bit_generator.state = self._state
        return self

    def normal(self, shape, dtype=np.float64) -> np.ndarray:
        """Draw a tensor of standard normals, advancing the stream."""
        return self._gen.standard_normal(shape, dtype=dtype)

    def integers(self, low: int, high: int, size=None):
        """Draw uniform integers in [low, high); used for batch indexing."""
        return self._gen.integers(low, high, size=size)

    def __repr__(self):  # pragma: no cover
        return f"GaussianStream(seed={self.seed}, substream={self.substream})"


_local = threading.local()


def thread_stream(seed: int, substream: int = 0) -> GaussianStream:
    """The calling thread's stream, rekeyed to (seed, substream).

    Every call on a thread returns the same object, so the stream is only
    valid until that thread's next call; draw from it straight away.
    Build a ``GaussianStream`` for a stream that must outlive the call.
    """
    stream = getattr(_local, "stream", None)
    if stream is None:
        stream = _local.stream = GaussianStream(0)
    return stream.rekey(seed, substream)


def gaussian_fill(stream: GaussianStream, shape, dtype=np.float64) -> np.ndarray:
    """Fill a tensor of the given shape with standard normals from `stream`.

    Samples are laid out in row-major (C) order.  Empty shapes and
    non-positive dimensions are rejected: a perturbation of nothing is
    always a caller bug.
    """
    dims = tuple(int(s) for s in shape)
    if len(dims) == 0:
        raise ValueError("shape must have at least one dimension")
    if any(d < 1 for d in dims):
        raise ValueError(f"all dimensions must be >= 1, got {dims}")
    return stream.normal(dims, dtype=dtype)
