"""Named parameter tensors and in-place seeded perturbation.

A ParamSet is an ordered, named collection of dense float arrays.  The
iteration order is fixed at construction and is load-bearing: the i-th
tensor always draws its perturbation from substream i of the seed, so
regenerating z from a stored seed reproduces exactly the same update.

Every set is one packed 1-D buffer plus a layout of (name, offset,
shape) entries; its tensors are views into that buffer.  A subset keeps
the parent's buffer and only the selected entries.  A set plans how its
tensors group into runs: tensors whose offsets follow on from each
other, at most :data:`CHUNK` elements per run under the full kind, a
tensor above that drawn piece by piece from its one stream.

axpy is the one update kernel, with one body: the perturbation cycle
calls it with one coefficient and one seed, and stage-2 updates, seed-log
replay and revert with a list of terms, one per (seed, proj_grad)
record, one call per step or log; a term's tuple of coefficients applies
each in turn from one draw of z, which is how a q=1 step's last restore
and its update share a regeneration.  A direction is named by
(seed, kind) alone; epsilon only sets the coefficient.  axpy's one
temporary is a scratch array that lives with the set, built on first
use with the views onto it: under the full kind it holds at most CHUNK
elements whatever the model's size (512 KB of float64), which is what
bounds the optimizer's transient memory.  Each term's z is drawn into it
run by run, then scaled and added once per run and coefficient.  The
scratch makes a set single-writer: one set must not be updated from two
threads at once, while separate sets, subsets and copies each have
their own.  z comes from the calling thread's rekeyed stream (see
:func:`zobench.streams.thread_stream`), never from a newly built one.

The whole-set helpers keep the same bound: ``max_abs_diff`` and
``equals_bitwise`` walk the tensors in CHUNK-element pieces through one
scratch of at most CHUNK elements per call, ``save`` writes each
tensor's slice of the buffer straight to the file, and ``to_bytes``
allocates nothing the size of the set but its result.  Every new
buffer is laid out, zeroed, by :meth:`ParamSet.from_shapes`: the
constructor and ``copy`` copy their tensors into it, ``zeros`` hands it
to a backward, a model's ``init`` draws each tensor into its view, and
``load`` and ``from_bytes`` share one decoder, which reads each
tensor's bytes straight into it.  None of them allocates anything else
the set's size.
"""

from __future__ import annotations

import hashlib
import io
import math
import struct

import numpy as np

from . import samplers
from .samplers import FULL, SamplerKind, alloc_tracker, sample_for_tensor
# GaussianStream stays a module attribute: bench/spans.py wraps it by this name.
from .streams import GaussianStream, check_u64, thread_stream  # noqa: F401

__all__ = ["ParamSet", "SchemaMismatchError", "ParamSetFormatError", "axpy",
           "CHUNK"]

# Elements per run of the full kind's update plan, and so the most its
# scratch holds: 512 KB of float64 stays in a 2 MB L2 cache between a
# run's fill, scale and add.  Fills are prefix-consistent, so the cap
# changes no byte of any update.
CHUNK = 2 ** 16

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
    input packs too; an integer tensor is cast to float64, while a
    complex or bool one raises TypeError.  :meth:`copy` and
    :meth:`from_bytes` pack the same way, into the layout
    :meth:`from_shapes` builds; :meth:`subset` shares the buffer.
    """

    def __init__(self, entries):
        arrays = []
        for name, arr in entries:
            arr = np.asarray(arr)
            if arr.dtype.kind in "bc":  # astype would drop the imaginary part
                raise TypeError(f"parameter {name!r} must be real, got {arr.dtype}")
            arrays.append((name, arr if arr.dtype in _SUPPORTED_DTYPES
                           else arr.astype(np.float64)))
        if len({arr.dtype.itemsize for _, arr in arrays}) > 1:
            raise ValueError("all tensors in a ParamSet must share one element width")
        self._lay_out([(name, arr.shape) for name, arr in arrays],
                      arrays[0][1].dtype if arrays else np.float64)
        for (_, arr), view in zip(arrays, self._index.values()):
            view[...] = arr

    @classmethod
    def from_shapes(cls, shapes, dtype=np.float64) -> "ParamSet":
        """A set of zeros of ``dtype`` laid out from ``(name, shape)``
        pairs, in order, in one ``np.zeros`` buffer.

        The one layout every set is built with: the constructor copies
        its tensors into it, a model's ``init`` draws each tensor
        straight into its view, :meth:`zeros` gives a backward its
        gradient and the decoder reads each tensor's bytes into it.
        Raises ValueError for a duplicate name, an empty tensor or no
        tensors, before anything is allocated.
        """
        return cls.__new__(cls)._lay_out(shapes, dtype)

    def zeros(self, dtype) -> "ParamSet":
        """A new set of zeros of ``dtype`` with this set's names and shapes,
        packed in iteration order: a backward writes its gradient into it."""
        return ParamSet.from_shapes(
            ((name, arr.shape) for name, arr in self.items()), dtype)

    def _lay_out(self, shapes, dtype) -> "ParamSet":
        """View this set onto one new zeroed buffer of ``dtype`` that lays
        out ``shapes``, ``(name, shape)`` pairs, in order."""
        layout, off = {}, 0
        for name, shape in shapes:
            name, shape = str(name), tuple(shape)
            if name in layout:
                raise ValueError(f"duplicate parameter name {name!r}")
            if min(shape, default=1) < 1:
                raise ValueError(f"parameter {name!r} is empty")
            layout[name] = (name, off, shape)
            off += math.prod(shape)
        if not layout:
            raise ValueError("ParamSet must contain at least one tensor")
        buf = np.zeros(off, dtype)
        index = {name: buf[start:start + math.prod(shape)].reshape(shape)
                 for name, start, shape in layout.values()}
        return self._view(buf, list(layout.values()), index)

    def _view(self, buf, layout, index) -> "ParamSet":
        """Set this set's state: ``index`` maps each name in ``layout``, a
        list of ``(name, offset, shape)``, to its view of the 1-D ``buf``."""
        self._buf, self._layout, self._index = buf, layout, index
        self._largest = max(arr.size for arr in self._index.values())
        # built on first use: axpy's plans by (full kind, paired), and
        # the scratch the full kind's two plans share
        self._plans, self._scratch, self._schema_hash = {}, None, None
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
        iteration order, not the order of ``names``.  An unknown name
        raises KeyError and an empty selection ValueError.
        """
        wanted = set(names)
        missing = wanted - self._index.keys()
        if missing:
            raise KeyError(f"unknown parameter names: {sorted(missing)}")
        layout = [entry for entry in self._layout if entry[0] in wanted]
        if not layout:
            raise ValueError("subset of an empty selection of names: a "
                             "ParamSet must contain at least one tensor")
        index = {name: self._index[name] for name, _, _ in layout}
        return ParamSet.__new__(ParamSet)._view(self._buf, layout, index)

    def runs(self):
        """The full kind's plan: ``(flat, size, parts)`` per run of tensors.

        A run is a maximal sequence of tensors, in iteration order, each
        starting in the buffer where the one before it stops, holding at
        most ``min(largest tensor, CHUNK)`` elements; ``flat`` is a 1-D
        view over it.  ``parts`` gives each tensor's ``(index, start,
        stop, shape)`` within the run.  A tensor above the cap is cut
        into pieces of the cap's size; a piece after its tensor's first
        has index 0, like tensor 0, as its draw goes on from the piece
        before it.  A subset's tensors on either side of a left-out one
        fall in separate runs.
        """
        return self._plan(min(self._largest, CHUNK))

    def half_runs(self):
        """:meth:`runs` capped at half the largest tensor, rounded up, and
        at half of CHUNK: a paired term's z and its scaled copy share the
        scratch."""
        return self._plan(min((self._largest + 1) // 2, CHUNK // 2))

    def _update_plan(self, full: bool, paired: bool):
        """axpy's ``(nbytes, views)`` for a kind family, built once.

        ``views`` holds ``(run, z, cz, outs)`` per run: ``z`` and ``cz``
        are the scratch's views for the run's draw and its scaled copy,
        one array unless ``paired``, and ``outs`` each part's ``(index,
        slice of z)``, shaped as its tensor for a low-rank draw.
        ``nbytes`` is the scratch a call works in.  The full kind's
        scratch, ``min(largest, CHUNK)`` elements rounded up to even,
        serves both of its plans; a low-rank z is one matmul per tensor
        that cannot be cut, so that plan has a scratch of the largest
        tensor's size.
        """
        plan = self._plans.get((full, paired))
        if plan is not None:
            return plan
        if full:
            if self._scratch is None:
                size = min(self._largest + self._largest % 2, CHUNK)
                self._scratch = np.empty(size, self.dtype)
            scratch = self._scratch
            runs = self.half_runs() if paired else self.runs()
        else:
            scratch = np.empty(self._largest, self.dtype)
            runs = self._plan(self._largest)
        half = scratch.size // 2 if paired else 0
        views = []
        for run, size, parts in runs:
            outs = tuple((i, scratch[start:stop] if full
                          else scratch[start:stop].reshape(shape))
                         for i, start, stop, shape in parts)
            # scaled in place, cz is z itself, which spares numpy an overlap check
            z = scratch[:size]
            views.append((run, z, scratch[half:half + size] if half else z, outs))
        used = scratch.size if paired else max(size for _, size, _ in runs)
        plan = self._plans[(full, paired)] = (used * self.dtype.itemsize,
                                              tuple(views))
        return plan

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
        """The largest ``|self - other|`` over every element, as a float.

        Raises :class:`SchemaMismatchError` unless the schemas match.
        A NaN difference anywhere (a NaN in either set, or the same
        infinity in both) gives ``nan``; any other infinite difference
        gives ``inf``.  Signed zeros differ by 0.0.  The differences are
        taken in ``CHUNK``-element pieces, in one scratch of at most
        ``CHUNK`` elements of the set's dtype, whatever the set's size.
        """
        self.check_schema(other.schema_hash)
        scratch, worst = np.empty(min(self.num_elements(), CHUNK), self.dtype), 0.0
        for a, b in self._piece_pairs(other):
            diff = np.subtract(a, b, scratch[:a.size])
            largest = float(np.abs(diff, diff).max())
            if math.isnan(largest):  # max() would drop it against a number
                return largest
            worst = max(worst, largest)
        return worst

    def equals_bitwise(self, other: "ParamSet") -> bool:
        """True when ``other`` has this schema and the same bits.

        Elements compare as unsigned integers of their width, so
        ``+0.0`` and ``-0.0`` differ and a NaN equals a NaN with the same
        payload: two sets are equal exactly when their :meth:`to_bytes`
        are.  The comparison runs in ``CHUNK``-element pieces into one
        boolean scratch of at most ``CHUNK`` elements and stops at the
        first piece that differs.
        """
        if self.schema_hash != other.schema_hash:
            return False
        uint = np.dtype(f"u{self.dtype.itemsize}")
        same = np.empty(min(self.num_elements(), CHUNK), bool)
        return all(np.equal(a.view(uint), b.view(uint), same[:a.size]).all()
                   for a, b in self._piece_pairs(other))

    def _piece_pairs(self, other: "ParamSet"):
        """Flat views of self and of ``other``, whose tensors match self's
        in order and size, as ``(self piece, other piece)`` in iteration
        order.  Tensors that follow on from each other in both buffers
        merge into one span, and each span is cut into pieces of at most
        ``CHUNK`` elements; a tensor left out of either set between two
        kept ones ends a span."""
        spans = []
        for (_, mine, shape), (_, theirs, _) in zip(self._layout, other._layout):
            size = math.prod(shape)
            if spans and mine - spans[-1][0] == theirs - spans[-1][1] == spans[-1][2]:
                spans[-1][2] += size
            else:
                spans.append([mine, theirs, size])
        for mine, theirs, size in spans:
            for lo in range(0, size, CHUNK):
                hi = min(lo + CHUNK, size)
                yield (self._buf[mine + lo:mine + hi],
                       other._buf[theirs + lo:theirs + hi])

    # -- serialization -----------------------------------------------------

    def save(self, path):
        """Write the fixed binary container (little-endian, uncompressed).

        The pieces of :meth:`to_bytes` go straight to the file, so saving
        copies no tensor.
        """
        with open(path, "wb") as fh:
            fh.writelines(self._container())

    def to_bytes(self) -> bytes:
        """The container :meth:`save` writes, joined once: the result is
        the one allocation the size of the set."""
        return b"".join(self._container())

    def _container(self):
        """The container's bytes in order: the header, then per tensor
        its name, rank and shape, and a memoryview of its slice of the
        buffer (converted to little-endian only on a big-endian host)."""
        yield _MAGIC + struct.pack("<HBI", _VERSION, self.dtype.itemsize,
                                   len(self._layout))
        little = self.dtype.newbyteorder("<")
        for name, off, shape in self._layout:
            nb = name.encode("utf-8")
            yield struct.pack(f"<H{len(nb)}sB{len(shape)}I",
                              len(nb), nb, len(shape), *shape)
            flat = self._buf[off:off + math.prod(shape)]
            yield memoryview(flat.astype(little, copy=False))

    @classmethod
    def load(cls, path) -> "ParamSet":
        """Decode the file :meth:`save` writes, as :meth:`from_bytes`
        does; each tensor is read straight into the new set's buffer, so
        the set is the one allocation its size."""
        with open(path, "rb") as fh:
            return cls._decode(fh)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ParamSet":
        """Decode a container; every malformed blob raises ParamSetFormatError.

        Each field's length is checked before it is unpacked, so a
        truncated or overwritten file never reaches ``struct`` or numpy
        with too few bytes.
        """
        return cls._decode(io.BytesIO(blob))

    @classmethod
    def _decode(cls, fh) -> "ParamSet":
        """The decoder behind :meth:`load` and :meth:`from_bytes`, over a
        seekable binary file: one pass checks every header and skips the
        data, then each tensor's data is read into its slice of the new
        set's buffer."""
        end = fh.seek(0, io.SEEK_END)
        fh.seek(0)

        def check(n):  # n bytes follow
            if fh.tell() + n > end:
                raise ParamSetFormatError("truncated ParamSet data")
            return n

        def take(n):
            return fh.read(check(n))

        if take(4) != _MAGIC:
            raise ParamSetFormatError("not a ParamSet file (bad magic)")
        version, width, count = struct.unpack("<HBI", take(7))
        if version != _VERSION:
            raise ParamSetFormatError(f"unsupported ParamSet version {version}")
        if width not in (4, 8):
            raise ParamSetFormatError(f"unsupported element width {width}")
        entries = []  # (name, shape, position of the data in fh)
        for _ in range(count):
            (nlen,) = struct.unpack("<H", take(2))
            name = take(nlen)
            (rank,) = struct.unpack("<B", take(1))
            shape = struct.unpack(f"<{rank}I", take(4 * rank))
            entries.append((name, shape, fh.tell()))
            fh.seek(check(math.prod(shape) * width), io.SEEK_CUR)
        if fh.tell() != end:
            raise ParamSetFormatError("trailing bytes in ParamSet file")
        try:
            params = cls.from_shapes([(name.decode("utf-8"), shape)
                                      for name, shape, _ in entries],
                                     np.dtype(f"f{width}"))
        except ValueError as exc:  # bad UTF-8, duplicate name, empty tensor, none
            raise ParamSetFormatError(f"invalid ParamSet data: {exc}") from exc
        for (_, _, pos), (_, arr) in zip(entries, params.items()):
            fh.seek(pos)
            if fh.readinto(arr) != arr.nbytes:
                raise ParamSetFormatError("truncated ParamSet data")
        if params.dtype != params.dtype.newbyteorder("<"):  # big-endian host
            params._buf.byteswap(inplace=True)
        return params

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


def axpy(params: ParamSet, coeff: float | list, seed: int | list,
         kind: SamplerKind = FULL):
    """params += coeff * z(seed, kind), run by run, in place.

    Tensor i draws z_i from substream i of ``seed``, so the update is a
    pure function of (seed, kind, schema, coeff).  Storing the seed (12
    bytes with its proj_grad) instead of z itself is the whole trick
    behind seed-replay checkpoints.

    Two input forms: ``axpy(params, c, seed)`` with a float ``c``, and
    ``axpy(params, [c_1, ..., c_n], [s_1, ..., s_n])``, one term per
    seed, with the bytes of n single calls in order.  A term's
    coefficient may be a tuple (c1, c2, ...): params += c1 * z, then
    += c2 * z, and so on, from one draw of z, with the bytes of one call
    per coefficient.  A 0.0 is skipped; a term of zeros draws nothing.
    The single form is the one-term case of the list form.

    Every seed is checked, by :func:`~zobench.streams.check_u64`, before
    the first write.  The call then runs on the set's update plan
    (``ParamSet._update_plan``), built on the set's first call of each
    kind family and kept with the set: a scratch array, the whole
    transient, and the views onto it, so a call slices and allocates
    nothing.  For each run of adjacent tensors (:meth:`ParamSet.runs`)
    every z_i is drawn into its slice of the scratch, then the run is
    scaled once and added once per coefficient.  Both are element-wise,
    so the result is bit-identical to scaling and adding tensor by
    tensor.  Under the full kind the scratch holds ``min(largest tensor,
    CHUNK)`` elements, rounded up to even, and a larger tensor is drawn
    piece by piece from its one stream; a term of two or more
    coefficients keeps z and its scaled copy in the scratch side by
    side, so the whole call runs on :meth:`ParamSet.half_runs`.  A
    low-rank z is a matmul per tensor that cannot be cut, so its scratch
    is the largest tensor's size, and it is drawn once per coefficient.

    Each z_i comes from the calling thread's one stream, restarted at
    (seed, i), not from a new ``GaussianStream``: building one costs
    ``SeedSequence`` hashing, several times the restart.  Threads never
    share a stream, but the scratch lives with the set: concurrent calls
    are safe on separate sets, subsets and copies, never on one set.
    """
    if type(coeff) is not list:
        coeff, seed = (float(coeff),), (seed,)
    elif len(seed) != len(coeff):
        raise ValueError(f"{len(coeff)} coefficients for {len(seed)} seeds")
    full = kind.variant == "full"
    terms, paired = [], False
    for s, cs in zip(seed, coeff):
        s = check_u64("seed", s)
        if type(cs) is not tuple:
            cs = float(cs)
            if cs != 0.0:
                terms.append((s, (cs,)))
            continue
        cs = [c for c in map(float, cs) if c != 0.0]
        if not full:  # one draw per coefficient
            terms += [(s, (c,)) for c in cs]
        elif cs:
            terms.append((s, cs))
            paired = paired or len(cs) > 1
    if not terms:
        return
    nbytes, views = params._update_plan(full, paired)
    alloc_tracker.alloc(nbytes)
    dtype = params.dtype
    fill = samplers.gaussian_fill  # looked up here so bench/spans.py can wrap it
    stream = thread_stream(terms[0][0])  # keyed (seed, 0) for the first term
    for k, (s, cs) in enumerate(terms):
        if k:  # s was checked above: restart needs no second check
            stream.seed = s
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
    alloc_tracker.free(nbytes)
