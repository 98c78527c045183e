"""Deterministic Gaussian sample streams.

All randomness in the library flows through :class:`GaussianStream`, which
wraps numpy's Philox counter-based bit generator.  Philox is keyed, so a
(seed, substream) pair fully determines the sample sequence; there is no
global RNG state anywhere.  Standard normals come from numpy's ziggurat
``Generator.standard_normal``, whose stream numpy's RNG policy (NEP 19)
does not promise to keep across releases.  So a seed log replays bit for
bit under the numpy whose values ``test_golden_values_pin_the_generator``
(tests/test_streams.py) pins; ROADMAP item W is a log that checks its
own replay.

Building a stream costs ~11 µs, mostly the ``SeedSequence`` hashing that
a new ``Philox`` runs before the rekey overrides its whole state (one
fixed ``SeedSequence`` is shared, so no OS entropy is read), and seed
regeneration draws from one substream per tensor per update, filling
each tensor's slice of the update kernel's one scratch array.  So the hot
paths call :func:`thread_stream`, which rekeys one stream per thread
instead, and then :meth:`GaussianStream.restart` per tensor, which skips
the seed check: Philox is counter-based, so setting its state to
(key=[seed, substream], counter=0, empty buffer) restarts exactly the
stream a fresh ``GaussianStream(seed, substream)`` would produce (Salmon
et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11).  The
state is set from Python ints and tuples in ~0.8 µs; given numpy ``uint64``
arrays, the setter reads each word as a numpy scalar and takes ~3.3 µs
(2 cores, Python 3.11, numpy 2.4).
"""

from __future__ import annotations

import math
import numbers
import threading

import numpy as np

__all__ = ["GaussianStream", "gaussian_fill", "thread_stream"]

_ZEROS4 = (0, 0, 0, 0)
# seeds every new Philox, whose state the rekey then sets in full: one
# built for Philox(key=...) would read OS entropy, twice the cost
_UNUSED_SEED = np.random.SeedSequence(0)
_BOOLS = (bool, np.bool_)   # a JSON true is not the number 1


def check_int(name: str, value, low: int = None, high: int = None) -> None:
    """Raise unless ``value`` is an integer (numpy's too) in [low, high).

    A float or a bool raises TypeError, even one with an integral value;
    a bound left None is not checked.
    """
    if isinstance(value, _BOOLS) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if high is not None and value >= high:
        raise ValueError(f"{name} must be below {high}, got {value}")


def check_real(name: str, value) -> None:
    """Raise unless ``value`` is a finite real number (numpy's too)."""
    if isinstance(value, _BOOLS) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def check_u64(name: str, value) -> int:
    """``value`` as an int, if :func:`check_int` passes it in [0, 2**64).

    A Philox key word: a seed or a substream.  An in-range int takes a
    fast path with the same outcome.
    """
    if type(value) is int and 0 <= value < 2**64:
        return value
    check_int(name, value, 0, 2**64)
    return int(value)


class GaussianStream:
    """A reproducible stream of i.i.d. standard-normal samples.

    ``substream`` selects an independent stream under the same seed (it is
    the second word of the Philox key).  Perturbation code gives each
    parameter tensor its own substream, indexed by position in the
    ParamSet, so a tensor's perturbation depends only on (seed, index) and
    never on how many samples earlier tensors consumed.  Both are
    integers in [0, 2**64), checked by :func:`check_int`'s rule, so a
    float seed raises instead of naming the stream of its integer part.
    """

    def __init__(self, seed: int, substream: int = 0):
        # keyed by the rekey below, which sets the whole state
        self._gen = np.random.Generator(np.random.Philox(_UNUSED_SEED))
        # Philox's state setter copies these values, so one dict serves
        # every rekey; only the key tuple changes between them.
        self._state = {"bit_generator": "Philox",
                       "state": {"counter": _ZEROS4, "key": None},
                       "buffer": _ZEROS4, "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0}
        self.rekey(seed, substream)

    def rekey(self, seed: int, substream: int = 0) -> "GaussianStream":
        """Restart this stream as ``GaussianStream(seed, substream)`` would.

        Sets the Philox key to [seed, substream], the counter to 0 and
        empties both the 64-bit and the 32-bit buffers, so the samples that
        follow are bit-identical to a freshly built stream's.  Checks both
        words as the constructor does, then makes one state assignment
        from Python ints: ~0.8 µs.
        """
        self.seed = check_u64("seed", seed)
        return self.restart(check_u64("substream", substream))

    def restart(self, substream: int) -> "GaussianStream":
        """``rekey(self.seed, substream)`` without checking the seed again."""
        self.substream = substream
        self._state["state"]["key"] = (self.seed, substream)
        self._gen.bit_generator.state = self._state
        return self

    def normal(self, shape, dtype=np.float64, out=None) -> np.ndarray:
        """Draw a tensor of standard normals (into ``out`` if given)."""
        return self._gen.standard_normal(shape, dtype=dtype, out=out)

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


def gaussian_fill(stream: GaussianStream, shape, dtype=np.float64,
                  out=None) -> np.ndarray:
    """Fill a tensor of the given shape with standard normals from `stream`.

    Samples are laid out in row-major (C) order, so filling a flat slice
    of n elements gives the same values as any shape of n elements.  A
    scalar, shape ``()``, is one draw: the stream's first value.
    Non-positive dimensions are rejected: a perturbation of nothing is
    always a caller bug.  With ``out`` (of ``dtype``) the samples go into
    that array, which is returned; ``shape=None`` then skips the shape
    check, which the update kernel's flat slices need not repeat per
    tensor.
    """
    if shape is None and out is not None:  # the generator, one frame fewer
        return stream._gen.standard_normal(None, dtype, out)
    dims = tuple(map(int, shape))
    if min(dims, default=1) < 1:
        raise ValueError(f"all dimensions must be >= 1, got {dims}")
    return stream.normal(dims, dtype=dtype, out=out)
