"""Named parameter tensors and in-place seeded perturbation.

A ParamSet is an ordered, named collection of dense float arrays.  The
iteration order is fixed at construction and is load-bearing: the i-th
tensor always draws its perturbation from substream i of the seed, so
regenerating z from a stored seed reproduces exactly the same update.

perturb_inplace / axpy never hold more than one tensor-sized temporary at
a time; that temporary is what bounds the optimizer's transient memory.
They draw z from the calling thread's rekeyed stream (see
:func:`zobench.streams.thread_stream`), never from a newly built one.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .samplers import PerturbSpec, alloc_tracker, sample_for_tensor
# GaussianStream stays a module attribute: bench/spans.py wraps it by this name.
from .streams import GaussianStream, thread_stream  # noqa: F401

__all__ = ["ParamSet", "SchemaMismatchError", "perturb_inplace", "axpy"]

_MAGIC = b"ZOPS"
_VERSION = 1
_SUPPORTED_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))


class SchemaMismatchError(ValueError):
    """Raised when a ParamSet does not match the schema an operation expects."""


class ParamSet:
    """Ordered, named collection of dense real tensors.

    All tensors share one element width (float64 by default).  Names are
    unique; arrays are C-contiguous.  ``copy=False`` shares the caller's
    arrays, which is how masked views are built.
    """

    def __init__(self, entries, copy: bool = True):
        seen = set()
        self._entries: list[tuple[str, np.ndarray]] = []
        for name, arr in entries:
            if name in seen:
                raise ValueError(f"duplicate parameter name {name!r}")
            seen.add(name)
            arr = np.asarray(arr)
            if arr.dtype not in _SUPPORTED_DTYPES:
                arr = arr.astype(np.float64)
            elif copy:
                arr = arr.copy()
            if arr.size == 0:
                raise ValueError(f"parameter {name!r} is empty")
            if not arr.flags.c_contiguous:
                arr = np.ascontiguousarray(arr)
            self._entries.append((str(name), arr))
        if not self._entries:
            raise ValueError("ParamSet must contain at least one tensor")
        widths = {arr.dtype.itemsize for _, arr in self._entries}
        if len(widths) > 1:
            raise ValueError("all tensors in a ParamSet must share one element width")
        self._schema_hash = _schema_hash(self._entries)

    # -- schema ----------------------------------------------------------

    @property
    def schema_hash(self) -> int:
        return self._schema_hash

    @property
    def names(self) -> list[str]:
        return [n for n, _ in self._entries]

    @property
    def dtype(self):
        return self._entries[0][1].dtype

    def items(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)

    def __getitem__(self, name: str) -> np.ndarray:
        for n, arr in self._entries:
            if n == name:
                return arr
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(n == name for n, _ in self._entries)

    def check_schema(self, schema_hash: int):
        if self._schema_hash != schema_hash:
            raise SchemaMismatchError(
                f"ParamSet schema {self._schema_hash:#018x} does not match "
                f"expected {schema_hash:#018x}")

    # -- views and copies --------------------------------------------------

    def copy(self) -> "ParamSet":
        return ParamSet(self._entries, copy=True)

    def subset(self, names) -> "ParamSet":
        """A ParamSet over a subset of entries, sharing storage with self.

        Mutating the subset mutates this set.  Order follows this set's
        iteration order, not the order of ``names``.
        """
        wanted = set(names)
        missing = wanted - set(self.names)
        if missing:
            raise KeyError(f"unknown parameter names: {sorted(missing)}")
        picked = [(n, a) for n, a in self._entries if n in wanted]
        return ParamSet(picked, copy=False)

    # -- numerics ----------------------------------------------------------

    def num_elements(self) -> int:
        return sum(arr.size for _, arr in self._entries)

    def nbytes_largest(self) -> int:
        return max(arr.nbytes for _, arr in self._entries)

    def max_abs_diff(self, other: "ParamSet") -> float:
        self.check_schema(other.schema_hash)
        return max(float(np.max(np.abs(a - b)))
                   for (_, a), (_, b) in zip(self._entries, other._entries))

    def equals_bitwise(self, other: "ParamSet") -> bool:
        if self._schema_hash != other.schema_hash:
            return False
        return all(np.array_equal(a, b)
                   for (_, a), (_, b) in zip(self._entries, other._entries))

    def assert_finite(self):
        for name, arr in self._entries:
            if not np.all(np.isfinite(arr)):
                raise FloatingPointError(f"non-finite values in parameter {name!r}")

    # -- serialization -----------------------------------------------------

    def save(self, path):
        """Write the fixed binary container (little-endian, uncompressed)."""
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    def to_bytes(self) -> bytes:
        out = bytearray()
        out += _MAGIC
        out += struct.pack("<HBI", _VERSION, self.dtype.itemsize,
                           len(self._entries))
        for name, arr in self._entries:
            nb = name.encode("utf-8")
            out += struct.pack("<H", len(nb))
            out += nb
            out += struct.pack("<B", arr.ndim)
            out += struct.pack(f"<{arr.ndim}I", *arr.shape)
            out += arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
        return bytes(out)

    @classmethod
    def load(cls, path) -> "ParamSet":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ParamSet":
        if blob[:4] != _MAGIC:
            raise ValueError("not a ParamSet file (bad magic)")
        version, width, count = struct.unpack_from("<HBI", blob, 4)
        if version != _VERSION:
            raise ValueError(f"unsupported ParamSet version {version}")
        dtype = np.dtype(f"<f{width}")
        off = 4 + 7
        entries = []
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", blob, off)
            off += 2
            name = blob[off:off + nlen].decode("utf-8")
            off += nlen
            (rank,) = struct.unpack_from("<B", blob, off)
            off += 1
            shape = struct.unpack_from(f"<{rank}I", blob, off)
            off += 4 * rank
            n = int(np.prod(shape))
            arr = np.frombuffer(blob, dtype=dtype, count=n, offset=off)
            off += n * width
            entries.append((name, arr.reshape(shape).astype(dtype.newbyteorder("="))))
        if off != len(blob):
            raise ValueError("trailing bytes in ParamSet file")
        return cls(entries, copy=False)

    def __repr__(self):  # pragma: no cover
        inner = ", ".join(f"{n}{list(a.shape)}" for n, a in self._entries)
        return f"ParamSet({inner})"


def _schema_hash(entries) -> int:
    h = hashlib.blake2b(digest_size=8)
    for name, arr in entries:
        h.update(name.encode("utf-8"))
        h.update(b"\x00")
        h.update(struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
        h.update(struct.pack("<B", arr.dtype.itemsize))
    return int.from_bytes(h.digest(), "little")


def axpy(params: ParamSet, coeff: float, spec: PerturbSpec):
    """params += coeff * z(spec), tensor by tensor, in place.

    Tensor i draws z_i from substream i of spec.seed, so the update is a
    pure function of (spec, schema, coeff).  Only one z_i exists at a
    time; it is scaled in place before the add, so the peak temporary is
    exactly one tensor's worth of floats.

    Each z_i comes from the calling thread's one stream, rekeyed to
    (spec.seed, i), not from a new ``GaussianStream``: building one costs
    an OS-entropy ``SeedSequence`` per tensor per update, several times
    the rekey.  The samples are bit-identical either way, and threads
    never share a stream, so concurrent calls on separate ParamSets are
    safe.
    """
    coeff = float(coeff)
    if coeff == 0.0:
        return
    for i, (name, arr) in enumerate(params.items()):
        z = sample_for_tensor(thread_stream(spec.seed, i), arr.shape,
                              spec.kind, dtype=arr.dtype)
        z *= coeff
        arr += z
        alloc_tracker.free(z.nbytes)
        del z


def perturb_inplace(params: ParamSet, scale: float, spec: PerturbSpec):
    """Shift every tensor by scale * z(spec), in place.

    The paired-forward cycle is perturb(+eps), perturb(-2*eps),
    perturb(+eps), which returns each element to its original value up to
    a few ulps.  scale=0 is a bit-exact no-op.
    """
    axpy(params, scale, spec)
