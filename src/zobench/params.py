"""Named parameter tensors and in-place seeded perturbation.

A ParamSet is an ordered, named collection of dense float arrays.  The
iteration order is fixed at construction and is load-bearing: the i-th
tensor always draws its perturbation from substream i of the seed, so
regenerating z from a stored seed reproduces exactly the same update.

Every set is one packed 1-D buffer plus a layout of (name, offset,
shape) entries; its tensors are views into that buffer.  A subset keeps
the parent's buffer and only the selected entries.  Each set plans once
how its tensors group into runs: tensors whose offsets follow on from
each other, at most the largest tensor's size per run.

axpy is the one update kernel: the perturbation cycle calls it directly,
and apply_records hands it a batch's (seed, proj_grad) records in one
call, one term per record, for stage-2 updates, seed-log replay and
revert alike; a term's tuple of coefficients applies each in turn from
one draw of z, which is how a q=1 step's last restore and its update
share a regeneration.  A direction is named by (seed, kind) alone;
epsilon only sets the coefficient.  axpy's one temporary, set up once
per call, is a scratch array of the largest tensor's size (rounded up to
even when a term has two coefficients, whose z and scaled copy take half
each), which is what bounds the optimizer's transient memory: each
term's z is drawn into it run by run, then scaled and added once per run
and coefficient.  It draws z from the calling thread's rekeyed stream (see
:func:`zobench.streams.thread_stream`), never from a newly built one.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np

from . import samplers
from .samplers import FULL, SamplerKind, alloc_tracker, sample_for_tensor
# GaussianStream stays a module attribute: bench/spans.py wraps it by this name.
from .streams import GaussianStream, thread_stream  # noqa: F401

__all__ = ["ParamSet", "SchemaMismatchError", "ParamSetFormatError", "axpy",
           "apply_records"]

_MAGIC = b"ZOPS"
_VERSION = 1
_SUPPORTED_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))


class SchemaMismatchError(ValueError):
    """Raised when a ParamSet does not match the schema an operation expects."""


class ParamSetFormatError(ValueError):
    """Malformed, truncated or version-incompatible ParamSet data."""


class ParamSet:
    """Ordered, named collection of dense real tensors.

    All tensors share one element width (float64 by default) and names
    are unique.  ``ParamSet(entries)`` copies the tensors into one new
    buffer in iteration order, C order within each tensor, so strided
    input packs too.  :meth:`copy` and :meth:`from_bytes` pack the same
    way; :meth:`subset` shares the buffer.
    """

    def __init__(self, entries):
        arrays: dict[str, np.ndarray] = {}
        for name, arr in entries:
            name = str(name)
            if name in arrays:
                raise ValueError(f"duplicate parameter name {name!r}")
            arr = np.asarray(arr)
            if arr.dtype not in _SUPPORTED_DTYPES:
                arr = arr.astype(np.float64)
            if arr.size == 0:
                raise ValueError(f"parameter {name!r} is empty")
            arrays[name] = arr
        if not arrays:
            raise ValueError("ParamSet must contain at least one tensor")
        if len({arr.dtype.itemsize for arr in arrays.values()}) > 1:
            raise ValueError("all tensors in a ParamSet must share one element width")
        buf = np.empty(sum(arr.size for arr in arrays.values()),
                       next(iter(arrays.values())).dtype)
        layout, index, off = [], {}, 0
        for name, arr in arrays.items():
            index[name] = buf[off:off + arr.size].reshape(arr.shape)
            index[name][...] = arr
            layout.append((name, off, arr.shape))
            off += arr.size
        self._view(buf, layout, index)

    def _view(self, buf, layout, index) -> "ParamSet":
        """Set this set's state: ``index`` maps each name in ``layout``, a
        list of ``(name, offset, shape)``, to its view of the 1-D ``buf``."""
        self._buf, self._layout, self._index = buf, layout, index
        self._largest = max(arr.size for arr in self._index.values())
        # built on first use
        self._runs = self._half_runs = self._schema_hash = None
        return self

    # -- schema ----------------------------------------------------------

    @property
    def schema_hash(self) -> int:
        if self._schema_hash is None:
            self._schema_hash = _schema_hash(self.items())
        return self._schema_hash

    @property
    def names(self) -> list[str]:
        return list(self._index)

    @property
    def dtype(self):
        return self._buf.dtype

    def items(self):
        return iter(self._index.items())

    def __len__(self):
        return len(self._layout)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._index[name]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def check_schema(self, schema_hash: int):
        if self.schema_hash != schema_hash:
            raise SchemaMismatchError(
                f"ParamSet schema {self.schema_hash:#018x} does not match "
                f"expected {schema_hash:#018x}")

    # -- views and copies --------------------------------------------------

    def copy(self) -> "ParamSet":
        return ParamSet(self.items())

    def subset(self, names) -> "ParamSet":
        """A ParamSet over a subset of entries, sharing storage with self.

        Mutating the subset mutates this set.  Order follows this set's
        iteration order, not the order of ``names``.
        """
        wanted = set(names)
        missing = wanted - self._index.keys()
        if missing:
            raise KeyError(f"unknown parameter names: {sorted(missing)}")
        layout = [entry for entry in self._layout if entry[0] in wanted]
        index = {name: self._index[name] for name, _, _ in layout}
        return ParamSet.__new__(ParamSet)._view(self._buf, layout, index)

    def runs(self):
        """The update plan: ``(flat, size, parts)`` per run of tensors.

        A run is a maximal sequence of tensors, in iteration order, each
        starting in the buffer where the one before it stops, holding at
        most as many elements as the largest tensor; ``flat`` is a 1-D
        view over it.  ``parts`` gives each tensor's ``(index, start,
        stop, shape)`` within the run.  A subset's tensors on either side
        of a left-out one fall in separate runs.  Built once per set.
        """
        if self._runs is None:
            self._runs = self._plan(self._largest)
        return self._runs

    def half_runs(self):
        """:meth:`runs` capped at half the largest tensor, rounded up.

        A tensor above the cap is cut into pieces of the cap's size; a
        piece after its tensor's first has index 0 in ``parts``, like
        tensor 0, as its draw goes on from the piece before it.  Built
        once per set.
        """
        if self._half_runs is None:
            self._half_runs = self._plan((self._largest + 1) // 2)
        return self._half_runs

    def _plan(self, cap):
        runs, parts = [], []
        for i, (_, start, shape) in enumerate(self._layout):
            end = start + math.prod(shape)
            for lo in range(start, end, cap):
                hi = min(lo + cap, end)
                if not (parts and lo == stop and hi - first <= cap):
                    if parts:
                        runs.append((self._buf[first:stop], stop - first, tuple(parts)))
                    first, parts = lo, []
                stop = hi
                parts.append((i if lo == start else 0, lo - first, hi - first, shape))
        runs.append((self._buf[first:stop], stop - first, tuple(parts)))
        return runs

    # -- numerics ----------------------------------------------------------

    def num_elements(self) -> int:
        return sum(arr.size for arr in self._index.values())

    def nbytes_largest(self) -> int:
        return self._largest * self.dtype.itemsize

    def max_abs_diff(self, other: "ParamSet") -> float:
        self.check_schema(other.schema_hash)
        return max(float(np.max(np.abs(a - b)))
                   for a, b in zip(self._index.values(), other._index.values()))

    def equals_bitwise(self, other: "ParamSet") -> bool:
        if self.schema_hash != other.schema_hash:
            return False
        return all(np.array_equal(a, b)
                   for a, b in zip(self._index.values(), other._index.values()))

    # -- serialization -----------------------------------------------------

    def save(self, path):
        """Write the fixed binary container (little-endian, uncompressed)."""
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    def to_bytes(self) -> bytes:
        out = bytearray()
        out += _MAGIC
        out += struct.pack("<HBI", _VERSION, self.dtype.itemsize,
                           len(self._layout))
        for name, arr in self.items():
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
        """Decode a container; every malformed blob raises ParamSetFormatError.

        Each field's length is checked before it is unpacked, so a
        truncated or overwritten file never reaches ``struct`` or numpy
        with too few bytes.
        """
        view = memoryview(blob)
        off = 0

        def take(n):
            nonlocal off
            if off + n > len(view):
                raise ParamSetFormatError("truncated ParamSet data")
            off += n
            return view[off - n:off]

        if take(4) != _MAGIC:
            raise ParamSetFormatError("not a ParamSet file (bad magic)")
        version, width, count = struct.unpack("<HBI", take(7))
        if version != _VERSION:
            raise ParamSetFormatError(f"unsupported ParamSet version {version}")
        if width not in (4, 8):
            raise ParamSetFormatError(f"unsupported element width {width}")
        dtype = np.dtype(f"<f{width}")
        entries = []
        for _ in range(count):
            (nlen,) = struct.unpack("<H", take(2))
            name = bytes(take(nlen))
            (rank,) = struct.unpack("<B", take(1))
            shape = struct.unpack(f"<{rank}I", take(4 * rank))
            n = math.prod(shape)
            if n == 0:
                raise ParamSetFormatError("empty tensor in ParamSet data")
            arr = np.frombuffer(take(n * width), dtype=dtype)
            entries.append((name, arr.reshape(shape)))
        if off != len(view):
            raise ParamSetFormatError("trailing bytes in ParamSet file")
        try:
            return cls([(name.decode("utf-8"), arr) for name, arr in entries])
        except ValueError as exc:  # bad UTF-8, duplicate name, no tensors
            raise ParamSetFormatError(f"invalid ParamSet data: {exc}") from exc

    def __repr__(self):  # pragma: no cover
        inner = ", ".join(f"{n}{list(a.shape)}" for n, a in self.items())
        return f"ParamSet({inner})"


def _schema_hash(entries) -> int:
    h = hashlib.blake2b(digest_size=8)
    for name, arr in entries:
        h.update(name.encode("utf-8"))
        h.update(b"\x00")
        h.update(struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
        h.update(struct.pack("<B", arr.dtype.itemsize))
    return int.from_bytes(h.digest(), "little")


def axpy(params: ParamSet, coeff: float | tuple | list, seed: int | list,
         kind: SamplerKind = FULL):
    """params += coeff * z(seed, kind), run by run, in place.

    Tensor i draws z_i from substream i of ``seed``, so the update is a
    pure function of (seed, kind, schema, coeff).  Storing the seed (12
    bytes with its proj_grad) instead of z itself is the whole trick
    behind seed-replay checkpoints.

    One scratch array of the largest tensor's size is the whole
    transient.  For each run of adjacent tensors (:meth:`ParamSet.runs`)
    every z_i is drawn into its slice of the scratch, then the run is
    scaled once and added once.  Both are element-wise, so the result is
    bit-identical to scaling and adding tensor by tensor.

    ``coeff`` and ``seed`` may also be lists, one term per seed:
    ``axpy(params, [c_1, ..., c_n], [s_1, ..., s_n])`` has the bytes of
    n calls in order.  A term's coefficient, or ``coeff`` itself with one
    seed, may be a tuple (c1, c2, ...): params += c1 * z, then += c2 * z,
    and so on, from one draw of z.  A 0.0 is skipped; a term of zeros
    draws nothing.  Every seed is checked before the first write, and
    the scratch, the stream and the runs' slices of the scratch are set
    up once per call.  Under the full kind, a term of two or more
    coefficients keeps z and its scaled copy in the scratch side by side,
    so the whole call runs on :meth:`ParamSet.half_runs` with a scratch
    of the largest tensor's size rounded up to even, a larger tensor
    drawn piece by piece from its one stream.  A low-rank z is a matmul
    per tensor that cannot be cut, so it is drawn once per coefficient.

    Each z_i comes from the calling thread's one stream, restarted at
    (seed, i), not from a new ``GaussianStream``: building one costs an
    OS-entropy ``SeedSequence``, several times the restart.  Threads
    never share a stream, so concurrent calls on separate ParamSets are
    safe.
    """
    if type(coeff) in (tuple, list):
        return _axpy_terms(params, coeff, seed, kind)
    coeff = float(coeff)
    if coeff == 0.0:
        return
    stream = thread_stream(seed)
    dtype = params.dtype
    scratch = np.empty(params._largest, dtype)
    alloc_tracker.alloc(scratch.nbytes)
    full = kind.variant == "full"
    for run, size, parts in params.runs():
        z = scratch[:size]
        for i, start, stop, shape in parts:
            if i:  # thread_stream keyed substream 0, and 0 comes first
                stream.restart(i)
            if full:  # looked up here so bench/spans.py can wrap it
                samplers.gaussian_fill(stream, None, dtype, out=z[start:stop])
            else:
                sample_for_tensor(stream, shape, kind, dtype,
                                  out=z[start:stop].reshape(shape))
        z *= coeff
        run += z
    alloc_tracker.free(scratch.nbytes)


def _axpy_terms(params: ParamSet, coeffs, seeds, kind: SamplerKind):
    """axpy over a list of terms, or over one term with a tuple coeff."""
    if type(coeffs) is tuple:
        coeffs, seeds = [coeffs], [seeds]
    full = kind.variant == "full"
    terms, paired = [], False
    for seed, cs in zip(seeds, coeffs, strict=True):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        if type(cs) is not tuple:
            cs = float(cs)
            if cs != 0.0:
                terms.append((seed, (cs,)))
            continue
        cs = [c for c in map(float, cs) if c != 0.0]
        if not full:  # one draw per coefficient
            terms += [(seed, (c,)) for c in cs]
        elif cs:
            terms.append((seed, cs))
            paired = paired or len(cs) > 1
    if not terms:
        return
    dtype = params.dtype
    if paired:  # z and its scaled copy
        half = (params._largest + 1) // 2
        plan, scratch = params.half_runs(), np.empty(2 * half, dtype)
    else:  # each coefficient scales z in place
        half, plan = 0, params.runs()
        scratch = np.empty(params._largest, dtype)
    alloc_tracker.alloc(scratch.nbytes)
    views = []
    for run, size, parts in plan:
        # scaled in place, cz is z itself, which spares numpy an overlap check
        z = scratch[:size]
        cz = scratch[half:half + size] if half else z
        outs = [(i, scratch[start:stop] if full
                 else scratch[start:stop].reshape(shape))
                for i, start, stop, shape in parts]
        views.append((run, z, cz, outs))
    fill = samplers.gaussian_fill  # looked up here so bench/spans.py can wrap it
    stream = thread_stream(terms[0][0])
    for seed, cs in terms:
        stream.seed = seed  # checked above: restart needs no second check
        stream.restart(0)
        for run, z, cz, outs in views:
            for i, out in outs:
                if i:  # 0: tensor 0, or a piece going on with its tensor's draw
                    stream.restart(i)
                if full:
                    fill(stream, None, dtype, out)
                else:
                    sample_for_tensor(stream, out.shape, kind, dtype, out)
            for c in cs:
                np.multiply(z, c, cz)
                run += cz
    alloc_tracker.free(scratch.nbytes)


def apply_records(params: ParamSet, seeds, proj_grads, coeff: float,
                  kind: SamplerKind):
    """params += coeff * g_j * z(seed_j, kind) for each record j, in order.

    Live stage-2 updates pass coeff = -lr_eff, replay the same over a
    log's records, and revert passes the records reversed with +lr_eff.
    All records go to one ``axpy`` call, looked up at call time, one term
    per record: its scratch of the largest tensor's size is allocated
    once per batch, not once per record, and a bad seed anywhere raises
    before any write.  Arrays are read as Python scalars: the same
    values, cheaper to convert.
    """
    seeds = seeds.tolist() if isinstance(seeds, np.ndarray) else seeds
    pgs = proj_grads.tolist() if isinstance(proj_grads, np.ndarray) else proj_grads
    axpy(params, [coeff * float(g) for g in pgs], seeds, kind)
