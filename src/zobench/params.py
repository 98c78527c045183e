"""Named parameter tensors, seeded updates and read-only probes.

A ParamSet is an ordered, named collection of dense float arrays.  The
iteration order is fixed at construction and is load-bearing: the i-th
tensor always draws its perturbation from substream i of the seed, so
regenerating z from a stored seed reproduces exactly the same update.

Every set is one packed 1-D buffer plus a layout of (name, offset,
shape) entries; its tensors are views into that buffer.  A subset keeps
the parent's buffer and only the selected entries.

Every draw of z goes through its kind's one hook, :func:`_sampler`:
whether z_i can start mid-tensor, and the call that writes part of z_i.
A set plans how its tensors group into runs: tensors whose offsets
follow on from each other, at most :data:`CHUNK` elements per run when
z can be cut, a tensor above that drawn piece by piece from its stream.

axpy is the one update kernel and the only writer of a set's tensors:
stage-2 updates, seed-log replay and revert call it with a list of
(seed, coefficient) terms, one call per step or log.  A direction is
named by (seed, kind) alone; epsilon only sets the coefficient.  Its one
temporary is a scratch array that lives with the set's update plan:
when z can be cut it holds at most CHUNK elements whatever the model's
size (512 KB of float64), which bounds the optimizer's transient
memory.  So one set must not be updated from two threads at once.

A set above CHUNK elements may use the module's one worker thread,
where the machine has a second CPU and numpy's OpenBLAS is found, so
that ``zo.train`` can hold OpenBLAS at one thread meanwhile, through
``_one_blas_thread``.  Such a set's plan for cut z has its runs, of at
most CHUNK / 2 elements, in the second half of its scratch, and the
first half spare.  Inside ``zo.train`` axpy hands those runs to the
worker as one job and returns at once: the update is left pending while
the next step's first probe draws into the spare half.  A probe's
``probe[name]``, its ``matmul`` before it multiplies theta, the set's
next ``axpy`` and the end of the run settle it.  Elsewhere (a lone step,
replay, revert) the calling thread adds the same runs.  Fills are
prefix-consistent, so every element gets the same additions in the same
order however the runs fall, and no byte moves.  The worker is built
when such a set is laid out, so no step is the first to start it.

A query perturbs nothing in place: :meth:`ParamSet.probes` gives two
read-only :class:`Probe` views, theta + eps z and theta - eps z, with
the z axpy adds.  A probe builds a tensor the model indexes,
``params[name]``, from eps z_i drawn once for both probes, and answers
``params.matmul(x, name)`` with ``x @ theta_i`` plus or minus ``eps (x
@ z_i)``, never building the weight.  A small weight's product is drawn
whole and kept for the other probe.  A larger one's z is drawn in
pieces of at most :data:`PIECE` elements, and the pair shares one ``x @
theta_i``: the first probe to ask makes both results, in place, and
keeps the other probe's for it while x is the same array.  On a set
that may use the worker, the worker thread draws those pieces, into two
buffers in turn, while the calling thread multiplies each one drawn,
unless an update is pending: then the calling thread draws them into
the update plan's spare half.  Either way the pieces, their products
and the order they are added in are the one-thread loop's, and each
result is the same sum or difference.  A probe's transients are those
pieces and the kept eps z_i; its products are activations, like the
forward's.

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

import ctypes
import glob
import hashlib
import io
import math
import os
import struct
import threading
import weakref
from contextlib import closing, contextmanager
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import samplers
from .samplers import FULL, SamplerKind, alloc_tracker, sample_for_tensor
# GaussianStream stays a module attribute: bench/spans.py wraps it by this name.
from .streams import GaussianStream, check_u64, thread_stream  # noqa: F401

__all__ = ["ParamSet", "Probe", "SchemaMismatchError", "ParamSetFormatError",
           "axpy", "CHUNK"]

# Elements per run of the full kind's update plan, and so the most its
# scratch holds: 512 KB of float64 stays in a 2 MB L2 cache between a
# run's fill, scale and add.  Fills are prefix-consistent, so the cap
# changes no byte of any update.
CHUNK = 2 ** 16
# A probe draws the z of a weight it multiplies in pieces of at most PIECE
# elements: whole rows, at most PIECE_ROWS of them (so a narrow weight's
# pieces stay small), or a slice of one row wider than PIECE.  Its partial
# products go through one scratch of at most PIECE elements too, so a
# product costs two 128 KB buffers of float64 beside its result, which is
# an activation, and three on a set that may use the worker, where the
# worker thread draws each piece into one of two while the caller
# multiplies the other.
PIECE = 2 ** 14
PIECE_ROWS = 256
# The first of a probe pair to multiply a pieced weight makes both probes'
# results from one x @ theta, in place, through a scratch of at most PAIR
# elements: 16 KB of float64 beside the two results, which are activations.
PAIR = 2 ** 11

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
        # the substream each tensor draws its z from: its place in the set
        self._position = {name: i for i, (name, _, _) in enumerate(layout)}
        self._largest = max(arr.size for arr in self._index.values())
        # axpy's plan per answer of _sampler's cuts, built on first use
        self._plans, self._schema_hash = {}, None
        # whether a cut update and a pieced product may use the worker
        self._threaded = self.num_elements() > CHUNK and _can_thread()
        # whether axpy may leave an update on the worker (inside zo.train),
        # and the job it left, if any (see axpy)
        self._defer, self._pending = False, None
        if self._threaded:  # the pool starts here, not in a step
            _worker()
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

    def __getitem__(self, name: str) -> np.ndarray:
        return self._index[name]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def check_schema(self, schema_hash: int):
        if self.schema_hash != schema_hash:
            raise SchemaMismatchError(
                f"ParamSet schema {self.schema_hash:#018x} does not match "
                f"expected {schema_hash:#018x}")

    def matmul(self, x, name: str) -> np.ndarray:
        """``x @ self[name]``: how a model reads a weight it multiplies.

        A :class:`Probe` answers the same call without building its
        perturbed tensor.  A model that only indexes ``params[name]``
        works on a probe too; the probe then builds that tensor per call.
        """
        return x @ self._index[name]

    def over(self, base: "ParamSet") -> "ParamSet":
        """This set's tensors as read through ``base``, a set that holds
        them (one this set is a subset of): ``base`` itself, since the two
        share storage.  A :class:`Probe` lays its perturbation over it."""
        return base

    def probes(self, seed: int, epsilon: float, kind: SamplerKind = FULL):
        """The read-only pair ``(theta + eps z, theta - eps z)``, z = z(seed, kind).

        Use as ``with params.probes(seed, eps, kind) as (plus, minus):``.
        Both are :class:`Probe` views over one query's draws, valid inside
        the block; this set is never written.  z is the one ``axpy`` adds:
        tensor i from substream i of ``seed``.
        """
        return _Draws(self, check_u64("seed", seed), float(epsilon), kind)

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

    def _update_plan(self, cuts):
        """axpy's ``(nbytes, views, spare)`` for a kind's :func:`_sampler`
        ``cuts``, built once.

        The plan owns its scratch, of ``nbytes``: ``min(largest, CHUNK)``
        elements when z is cut, else the largest tensor's size.  ``views``
        holds ``(run, z, outs)`` per run of :meth:`_plan`: ``z`` is the
        scratch's view for the run's draw and ``outs`` each part's
        ``(index, slice of z)``, shaped as its tensor when drawn whole.
        On a set that may use the worker a cut plan's runs, of at most
        half the scratch, lie in its second half, whichever thread adds
        them, and the first half is ``spare``: a probe's pieces borrow it
        while the update is pending.  Otherwise ``spare`` is empty.
        """
        plan = self._plans.get(cuts)
        if plan is None:
            scratch = np.empty(min(self._largest, CHUNK) if cuts
                               else self._largest, self.dtype)
            half = scratch.size // 2 if cuts and self._threaded else 0
            runs = scratch[half:2 * half] if half else scratch
            plan = self._plans[cuts] = (scratch.nbytes, self._views(runs, cuts),
                                        scratch[:half])
        return plan

    def _settle(self):
        """Wait for the update ``axpy`` left on the worker, in the cut
        plan's runs.  Nothing is left pending, and the worker's error is
        raised here, once."""
        job, self._pending = self._pending, None
        try:
            job.result()
        finally:
            alloc_tracker.free(self._plans[True][0])

    def _views(self, scratch, cuts):
        """``(run, z, outs)`` per run of :meth:`_plan` over ``scratch``."""
        return tuple(
            (run, scratch[:size],
             tuple((i, scratch[start:stop] if cuts
                    else scratch[start:stop].reshape(shape))
                   for i, start, stop, shape in parts))
            for run, size, parts in self._plan(scratch.size))

    def _plan(self, cap):
        """``(flat, size, parts)`` per run of at most ``cap`` elements, in
        iteration order: tensors that follow on in the buffer, ``flat`` a
        1-D view over them, a tensor above ``cap`` cut into pieces.
        ``parts`` gives each piece's ``(index, start, stop, shape)`` in
        the run; a piece after its tensor's first has index 0, like
        tensor 0, as its draw goes on from the piece before it."""
        runs, parts = [], []
        for i, (_, start, shape) in enumerate(self._layout):
            size = math.prod(shape)
            for off in range(0, size, cap):
                lo, hi = start + off, start + min(off + cap, size)
                if not (parts and lo == stop and hi - head <= cap):
                    if parts:
                        runs.append((self._buf[head:stop], stop - head, tuple(parts)))
                    head, parts = lo, []
                stop = hi
                parts.append((i if off == 0 else 0, lo - head, hi - head, shape))
        runs.append((self._buf[head:stop], stop - head, tuple(parts)))
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


class Probe:
    """A read-only view of ``theta + sign * eps * z(seed, kind)``.

    :meth:`ParamSet.probes` builds one per sign over one query's draws; a
    model reads it as it reads a ParamSet, and the set is never written.
    ``probe[name]`` builds the tensor new, theta_i + eps z_i or theta_i -
    eps z_i, from an eps z_i drawn once per query and kept for the other
    probe.  ``probe.matmul(x, name)`` never builds a 2-D weight: it
    returns ``x @ theta_i`` plus or minus ``eps (x @ z_i)``, the product
    drawn first.  A weight drawn in pieces shares ``x @ theta_i`` with
    the other probe, which is handed its result, made with this one's,
    while x is the same array; a weight drawn whole keeps ``eps (x @
    z_i)`` for it instead.  A probe laid :meth:`over` a larger set reads
    that set's other tensors unperturbed.  A model reads a probe through
    these three calls only.
    """

    def __init__(self, draws: "_Draws", sign: int, base: ParamSet):
        self._draws, self._sign, self._base = draws, sign, base
        self._probed = draws.params._index  # the perturbed tensors, by name

    def __getitem__(self, name: str) -> np.ndarray:
        theta = self._probed.get(name)
        if theta is None:
            return self._base[name]
        ez = self._draws.scaled(name, theta)
        return theta + ez if self._sign > 0 else theta - ez

    def matmul(self, x, name: str) -> np.ndarray:
        """``x @ theta_i`` plus or minus ``eps (x @ z_i)``, an array the
        caller may write to: :meth:`_Draws.pair`'s for a weight drawn in
        pieces, else made here from the kept product."""
        theta = self._probed.get(name)
        if theta is None:
            return self._base.matmul(x, name)
        x = np.asanyarray(x)
        if theta.ndim != 2 or x.ndim == 0 or x.shape[-1] != len(theta):
            return x @ self[name]
        draws = self._draws
        if draws.cuts and (theta.size > PIECE or len(theta) > PIECE_ROWS):
            return draws.pair(x, name, theta, self._sign)
        # the product first: its draw buffers are freed before y exists
        ez = draws.product(x, name, theta)
        y = x @ theta
        return np.add(y, ez, y) if self._sign > 0 else np.subtract(y, ez, y)

    def over(self, base: ParamSet) -> "Probe":
        """This probe's perturbation laid over ``base``, a set that holds
        the probed tensors (one the probed set is a subset of)."""
        return Probe(self._draws, self._sign, base)


class _Draws:
    """One query's draws of eps z(seed, kind) over ``params``, shared by
    its two probes, and the context that hands them out.

    ``scaled`` keeps eps z_i per indexed tensor.  ``product`` keeps eps
    (x @ z_i) per weight it draws whole; for a weight it draws in pieces,
    ``pair`` keeps the other probe's result instead, with that probe's
    sign.  Either is kept with a weak reference to x, so a freed input,
    or a new array in its place, is never taken for it.  Each
    draw comes from the calling thread's stream restarted at (seed, i),
    as ``axpy``'s does.  The kept eps z_i are reported to
    ``alloc_tracker`` until the context exits, a product's z while it is
    drawn; the products themselves are activations.  Each draw a probe
    makes before it reads theta settles an update ``axpy`` left pending
    on the set: ``scaled`` before it draws, ``product`` after, so the
    product's draw, into the update plan's spare half, overlaps the
    update.  A kept draw has been through that, for its query.
    """

    def __init__(self, params: ParamSet, seed: int, epsilon: float,
                 kind: SamplerKind):
        self.params, self.seed, self.eps = params, seed, epsilon
        self.cuts, self.fill = _sampler(kind)
        self._scaled, self._products, self._paired, self._kept = {}, {}, {}, 0

    def __enter__(self):
        return Probe(self, +1, self.params), Probe(self, -1, self.params)

    def __exit__(self, *exc):
        alloc_tracker.free(self._kept)
        self._scaled, self._products, self._paired, self._kept = {}, {}, {}, 0

    def _draw(self, name: str, z: np.ndarray) -> np.ndarray:
        """z_i of tensor ``name``, drawn whole into ``z`` (of its shape)."""
        i = self.params._position[name]
        self.fill(thread_stream(self.seed, i), None, z.dtype, z)
        return z

    def scaled(self, name: str, theta: np.ndarray) -> np.ndarray:
        ez = self._scaled.get(name)
        if ez is None:
            if self.params._pending is not None:  # theta is read next
                self.params._settle()
            ez = self._draw(name, np.empty(theta.shape, theta.dtype))
            ez *= self.eps
            self._scaled[name] = ez
            self._kept += ez.nbytes
            alloc_tracker.alloc(ez.nbytes)
        return ez

    def product(self, x: np.ndarray, name: str, theta: np.ndarray) -> np.ndarray:
        kept = self._products.get(name)
        if kept is not None and kept[0]() is x:
            return kept[1]
        rows, cols = theta.shape
        x2 = x if x.ndim == 2 else x.reshape(-1, rows)
        pieced = self.cuts and (theta.size > PIECE or rows > PIECE_ROWS)
        if pieced:
            ez = self._pieced_product(name, x2, rows, cols, theta.dtype)
        else:  # one piece, or a z that cannot be cut: drawn whole
            z = np.empty(theta.shape, theta.dtype)
            alloc_tracker.alloc(z.nbytes)
            ez = x2 @ self._draw(name, z)
            alloc_tracker.free(z.nbytes)
        ez *= self.eps
        if x.ndim != 2:
            ez = ez.reshape(x.shape[:-1] + (cols,))
        if not pieced:  # a pieced product becomes the pair's results
            self._products[name] = (weakref.ref(x), ez)
        if self.params._pending is not None:  # x @ theta is next
            self.params._settle()
        return ez

    def pair(self, x: np.ndarray, name: str, theta: np.ndarray,
             sign: int) -> np.ndarray:
        """``x @ theta_i + sign * eps (x @ z_i)`` for a weight whose
        product is drawn in pieces, with one ``x @ theta_i`` per pair.

        The first probe to ask draws eps (x @ z_i) by :meth:`product`,
        then multiplies ``y = x @ theta_i``, and turns the two in place
        into ``y + eps (x @ z_i)`` and ``y - eps (x @ z_i)``, PAIR
        elements at a time through one scratch: its own result and the
        other probe's, kept with a weak reference to x and that probe's
        sign.  The other probe, asking with the same array, is handed it,
        popped, so the caller may write to it.  Any other call (another
        x, the same sign again, a freed x) computes its own.
        """
        kept = self._paired.pop(name, None)
        if kept is not None and kept[0]() is x and kept[1] == sign:
            return kept[2]
        ez = self.product(x, name, theta)
        y = x @ theta
        # y and ez become the plus and minus results; both are new, so
        # these are views
        plus, minus = y.reshape(-1), ez.reshape(-1)
        scratch = np.empty(min(plus.size, PAIR), plus.dtype)
        for lo in range(0, plus.size, PAIR):
            yb, eb = plus[lo:lo + PAIR], minus[lo:lo + PAIR]
            diff = np.subtract(yb, eb, scratch[:yb.size])
            np.add(yb, eb, yb)
            eb[...] = diff
        mine, other = (y, ez) if sign > 0 else (ez, y)
        self._paired[name] = (weakref.ref(x), -sign, other)
        return mine

    def _pieced_product(self, name: str, x2: np.ndarray, rows: int,
                        cols: int, dtype) -> np.ndarray:
        """``x2 @ z_i`` for a ``rows x cols`` weight whose z can be cut.

        z_i is drawn in stream order by the kind's fill, in pieces of at
        most :data:`PIECE` elements: at most :data:`PIECE_ROWS` whole
        rows, or a slice of one row wider than ``PIECE``.  Each piece's
        product is added to the result a block of result rows at a time,
        through one scratch of at most ``PIECE`` elements.  On a set that
        may use the worker, the module's worker thread draws the pieces
        (:meth:`_drawn_ahead`) while this thread multiplies them, unless
        an update is pending: then this thread draws them into the update
        plan's spare half, when a piece fits there.  Each piece gets the
        same values and the same products in the same order either way.
        """
        step = max(1, min(rows, PIECE_ROWS, PIECE // cols))
        width = min(cols, PIECE)
        # (first row, first column, rows, columns) per piece, in stream order
        pieces = [(r0, c0, min(step, rows - r0), min(width, cols - c0))
                  for r0 in range(0, rows, step) for c0 in range(0, cols, width)]
        m, block = x2.shape[0], max(1, PIECE // width)
        out = np.zeros((m, cols), np.result_type(x2, dtype))
        partial = np.empty(min(m, block) * width, out.dtype)
        pending = self.params._pending is not None
        # no draw job queues behind an update
        ahead = self.params._threaded and not pending
        spare = self.params._plans[True][2] if pending else ()
        if len(spare) >= step * width:  # counted with the update's scratch
            z, nbytes = spare[:step * width].reshape(1, -1), 0
        else:
            z = np.empty((1 + ahead, step * width), dtype)
            nbytes = z.nbytes
        alloc_tracker.alloc(nbytes)
        drawn = (self._drawn_ahead if ahead else self._drawn)(name, pieces, z)
        with closing(drawn):
            for (r0, c0, h, w), flat in drawn:
                xp, zp = x2[:, r0:r0 + h], flat.reshape(h, w)
                for i0 in range(0, m, block):
                    xb = xp[i0:i0 + block]
                    out[i0:i0 + block, c0:c0 + w] += np.matmul(
                        xb, zp, out=partial[:len(xb) * w].reshape(len(xb), w))
        alloc_tracker.free(nbytes)
        return out

    def _drawn(self, name: str, pieces, z: np.ndarray):
        """``(piece, z)`` per piece of ``name``'s z, in order: each drawn
        on the calling thread into ``z[k % len(z)]``, k its index."""
        stream = thread_stream(self.seed, self.params._position[name])
        for k, piece in enumerate(pieces):
            _, _, h, w = piece
            flat = z[k % len(z), :h * w]
            self.fill(stream, None, flat.dtype, flat)
            yield piece, flat

    def _drawn_ahead(self, name: str, pieces, z: np.ndarray):
        """:meth:`_drawn`'s pieces, drawn by the module's worker thread into
        ``z[0]`` and ``z[1]`` in turn, at most two ahead of the caller.

        ``filled`` hands a drawn piece to the caller, through ``ready``;
        ``free`` hands its buffer back once the caller asks for the next.
        A worker's error reaches the caller when it next asks; the caller's
        error, or closing this early, sets ``stop``, which ends the worker
        before its next piece.  Either way the worker has ended before
        this returns.
        """
        free, filled, stop = threading.Semaphore(2), threading.Semaphore(0), []
        draws, ready = self._drawn(name, pieces, z), []

        def draw():
            try:
                for _ in pieces:
                    free.acquire()
                    if stop:
                        return
                    ready.append(next(draws))
                    filled.release()
            finally:  # one more, with nothing ready if a draw failed
                filled.release()

        job = _worker().submit(draw)
        try:
            for k in range(len(pieces)):
                if k:  # piece k - 1 is multiplied: its buffer is free
                    free.release()
                filled.acquire()
                if not ready:  # the worker failed: job.result() raises it
                    break
                yield ready.pop(0)
        finally:
            stop.append(True)
            free.release()
            job.result()


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
    seed, with the bytes of n single calls in order.  The single form is
    the one-term case of the list form.  A coefficient is a float; a
    tuple raises TypeError.  A 0.0 is skipped, and every other term
    draws its own z, even when the term before it has the same seed.

    Every seed is checked, by :func:`~zobench.streams.check_u64`, before
    the first write.  The call then runs on the set's update plan for
    the kind (``ParamSet._update_plan``), built once and kept with the
    set: a scratch array, the whole transient, and the views onto it, so
    a call slices and allocates nothing.  For each term and each run of
    adjacent tensors every z_i is drawn, by the kind's :func:`_sampler`
    fill, into its slice of the scratch, then the run is scaled and
    added once.  Both are element-wise, so the result is bit-identical
    to scaling and adding tensor by tensor.

    Each z_i comes from the calling thread's one stream, restarted at
    (seed, i), not from a new ``GaussianStream``: building one costs
    ``SeedSequence`` hashing, several times the restart.  Threads never
    share a stream, but the scratch lives with the set: concurrent calls
    are safe on separate sets, subsets and copies, never on one set.

    Inside ``zo.train`` (the window ``_one_blas_thread`` opens, on a
    set that may use the worker) a cut call hands the plan's runs to the
    module's worker thread as one job and returns at once, the update
    left pending until the set is next read (see the module docstring
    and ``ParamSet._settle``); the calling thread reports the whole
    scratch to ``alloc_tracker``, as when it adds the runs itself.
    """
    if params._pending is not None:  # the last update first
        params._settle()
    if type(coeff) is not list:
        coeff, seed = [coeff], [seed]
    elif len(seed) != len(coeff):
        raise ValueError(f"{len(coeff)} coefficients for {len(seed)} seeds")
    terms = []  # (seed, coefficient), the 0.0s left out
    for s, c in zip(seed, coeff):
        s, c = check_u64("seed", s), float(c)
        if c != 0.0:
            terms.append((s, c))
    if not terms:
        return
    cuts, fill = _sampler(kind)
    nbytes, views, _ = params._update_plan(cuts)
    alloc_tracker.alloc(nbytes)
    if cuts and params._defer:
        params._pending = _worker().submit(_add_terms, views, terms, fill,
                                           params.dtype)
    else:
        _add_terms(views, terms, fill, params.dtype)
        alloc_tracker.free(nbytes)


def _add_terms(views, terms, fill, dtype):
    """Add every ``(seed, coefficient)`` term, in order, over the runs of
    ``views``, each tensor or piece drawn by ``fill`` (see
    :func:`_sampler`) from tensor 0 of its seed on."""
    stream = thread_stream(terms[0][0])  # keyed (seed, 0) for the first term
    for k, (s, c) in enumerate(terms):
        if k:  # s was checked above: restart needs no second check
            stream.seed = s
            stream.restart(0)
        for run, z, outs in views:
            for i, out in outs:
                if i:  # 0: tensor 0, or a piece going on with its draw
                    stream.restart(i)
                fill(stream, None, dtype, out)
            np.multiply(z, c, z)
            run += z


def _sampler(kind: SamplerKind):
    """``(cuts, fill)``: how ``kind`` draws z, the one place this module
    asks which kind it is.

    ``cuts``: whether z_i can start mid-tensor.  The full kind's can,
    from its stream; a low-rank z_i is a matmul, drawn whole.
    ``fill(stream, None, dtype, out)`` writes elements [pos, pos +
    out.size) of z_i into ``out``, ``stream`` being restarted at (seed,
    i) and gone on to pos: pos = 0 and ``out`` of the tensor's shape
    unless z is cut.  The full kind's fill is ``samplers.gaussian_fill``,
    looked up per call so bench/spans.py can wrap it.
    """
    if kind.variant == "full":
        return True, samplers.gaussian_fill
    return False, lambda stream, _, dtype, out: sample_for_tensor(
        stream, out.shape, kind, dtype, out)


@lru_cache(maxsize=1)
def _can_thread() -> bool:
    """Whether a set above CHUNK elements may use the worker thread
    beside the calling one: the machine has a second CPU, and numpy's
    OpenBLAS is found, so ``zo.train`` can hold it at one thread
    meanwhile (its busy-waiting worker would take the second CPU)."""
    return (os.cpu_count() or 1) > 1 and _openblas_threads() is not None


@lru_cache(maxsize=1)
def _openblas_threads():
    """``(get, set)``, ctypes functions for the thread count of the
    OpenBLAS bundled with numpy, or None when none is found.  The lookup
    is bench/run.py's ``_blas_threads``."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*.so*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            put = getattr(lib, name.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


# runs holding OpenBLAS at one thread, and the count the last one restores:
# the count is the process's, so overlapping runs must share one hold
_blas_lock = threading.Lock()
_blas_hold = [0, None]


@contextmanager
def _one_blas_thread(params: ParamSet):
    """Hold numpy's OpenBLAS at one thread while the block runs, if
    ``params`` is a set that may use the worker, and restore the caller's
    count on every exit.  Meanwhile ``axpy`` may leave the set's update
    pending on the worker; every exit settles it."""
    blas = _openblas_threads() if params._threaded else None
    if blas is None:
        yield
        return
    get, put = blas
    with _blas_lock:
        if not _blas_hold[0]:
            _blas_hold[1] = get()
            put(1)
        _blas_hold[0] += 1
    params._defer = True
    try:
        yield
    finally:
        params._defer = False
        with _blas_lock:
            _blas_hold[0] -= 1
            if not _blas_hold[0]:
                put(_blas_hold[1])
        if params._pending is not None:
            params._settle()


def _worker():
    """The pool of one worker thread that runs a pending update and draws
    a pieced product's z, built when the first set that may use it is
    laid out: only such a set imports ``concurrent.futures`` (and
    ``logging`` with it), and no step's first probe starts a thread."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(max_workers=1,
                                       thread_name_prefix="zobench-axpy")
        return _pool


def _forget_pool():
    """No pool yet: a forked child has none of its parent's threads."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


_forget_pool()
os.register_at_fork(after_in_child=_forget_pool)
