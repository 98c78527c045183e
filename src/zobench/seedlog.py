"""Seed-log checkpoints: a training run as (seed, projected gradient) pairs.

A `.zolog` file is a fixed 60-byte little-endian header followed by
fixed-width records in execution order (step-major, query-minor).  The
default record is 12 bytes (u64 seed + f32 projected gradient), so a
50,000-record checkpoint is 600,060 bytes: far under a megabyte no
matter how large the model is.  Replaying the records onto the initial
parameters reconstructs the trained model; replaying them in reverse
with negated coefficients reverts an adapted model to its source state.

Layout (all little-endian):

    offset  size  field
    0       4     magic  b"ZOSL"
    4       2     format version (u16) = 1
    6       1     parameter element width in bytes (u8: 4 or 8)
    7       1     proj_grad storage width in bytes (u8: 4 or 8)
    8       1     sampler variant (u8: 0 full, 1 low-rank)
    9       1     combine mode (u8: 0 accumulate, 1 mean)
    10      2     flags (u16): bit 0 SamplerKind.normalize, other bits 0
                  (was reserved = 0, so older logs read unchanged)
    12      4     low-rank rank (u32, 0 for full)
    16      4     queries per step q (u32)
    20      8     master seed (u64)
    28      8     parameter schema hash (u64)
    36      8     perturbation scale epsilon (f64)
    44      8     learning rate (f64)
    52      8     record count (u64)
    60      --    records: seed (u64) + proj_grad (f32 or f64), as
                  ``SeedLogHeader.record_dtype`` defines them for the
                  reader, the writer and in-memory logs
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from . import params as _params
from .params import ParamSet
from .samplers import FULL, SamplerKind
from .streams import check_int
from .zo import ZOConfig

__all__ = [
    "SeedLogHeader", "SeedLog", "SeedLogWriter", "LogFormatError",
    "HEADER_SIZE", "read_log", "replay", "revert", "inspect",
]

MAGIC = b"ZOSL"
VERSION = 1
HEADER_SIZE = 60
_HEADER_FMT = "<4sHBBBBHIIQQddQ"
assert struct.calcsize(_HEADER_FMT) == HEADER_SIZE

# the header's sampler and combine codes index these
_SAMPLERS = ("full", "lowrank")
_COMBINES = ("accumulate", "mean")
_FLAG_NORMALIZE = 1


class LogFormatError(ValueError):
    """Corrupt, truncated, or version-incompatible seed-log data."""


@dataclass(frozen=True)
class SeedLogHeader:
    master_seed: int
    schema_hash: int
    epsilon: float
    lr: float
    q: int
    combine: str = "accumulate"
    sampler: SamplerKind = FULL
    elem_width: int = 8
    pg_width: int = 4
    record_count: int = 0

    def __post_init__(self):
        """Check every field ``pack`` writes, so a written header reads back."""
        if self.elem_width not in (4, 8) or self.pg_width not in (4, 8):
            raise ValueError("element and proj_grad widths must be 4 or 8 bytes")
        self.to_config()  # epsilon, lr, q, master_seed and combine
        for name in ("schema_hash", "record_count"):
            check_int(name, getattr(self, name), 0, 2**64)

    @property
    def record_dtype(self) -> np.dtype:
        """One record: u64 seed, then proj_grad at ``pg_width`` bytes."""
        return np.dtype([("seed", "<u8"), ("pg", f"<f{self.pg_width}")])

    @property
    def record_size(self) -> int:
        return self.record_dtype.itemsize

    @staticmethod
    def from_config(config: ZOConfig, schema_hash: int,
                    elem_width: int = 8, pg_width: int = 4) -> "SeedLogHeader":
        return SeedLogHeader(
            master_seed=config.master_seed, schema_hash=schema_hash,
            epsilon=config.epsilon, lr=config.lr, q=config.q,
            combine=config.combine, sampler=config.sampler,
            elem_width=elem_width, pg_width=pg_width)

    def to_config(self) -> ZOConfig:
        return ZOConfig(epsilon=self.epsilon, lr=self.lr, q=self.q,
                        sampler=self.sampler, combine=self.combine,
                        master_seed=self.master_seed, steps=0)

    def pack(self) -> bytes:
        return struct.pack(
            _HEADER_FMT, MAGIC, VERSION, self.elem_width, self.pg_width,
            _SAMPLERS.index(self.sampler.variant),
            _COMBINES.index(self.combine), int(self.sampler.normalize),
            self.sampler.rank, self.q, self.master_seed, self.schema_hash,
            self.epsilon, self.lr, self.record_count)

    @staticmethod
    def unpack(blob: bytes) -> "SeedLogHeader":
        if len(blob) < HEADER_SIZE:
            raise LogFormatError("truncated header")
        (magic, version, elem_w, pg_w, sampler_code, combine_code, flags,
         rank, q, master_seed, schema_hash, epsilon, lr,
         count) = struct.unpack_from(_HEADER_FMT, blob, 0)
        if magic != MAGIC:
            raise LogFormatError("not a seed log (bad magic)")
        if version != VERSION:
            raise LogFormatError(f"unsupported seed-log version {version}")
        if sampler_code >= len(_SAMPLERS):
            raise LogFormatError("invalid sampler descriptor in header")
        if combine_code >= len(_COMBINES):
            raise LogFormatError("invalid combine mode in header")
        if flags & ~_FLAG_NORMALIZE:
            raise LogFormatError(f"unknown header flags {flags:#06x}")
        try:  # a full kind with a rank or normalize set is invalid too
            kind = SamplerKind(_SAMPLERS[sampler_code], rank,
                               bool(flags & _FLAG_NORMALIZE))
            return SeedLogHeader(
                master_seed=master_seed, schema_hash=schema_hash,
                epsilon=epsilon, lr=lr, q=q, combine=_COMBINES[combine_code],
                sampler=kind, elem_width=elem_w, pg_width=pg_w,
                record_count=count)
        except (TypeError, ValueError) as exc:
            raise LogFormatError(f"invalid header: {exc}") from exc


@dataclass
class SeedLog:
    """An in-memory seed log: header plus (seed, proj_grad) records."""

    header: SeedLogHeader
    seeds: np.ndarray        # u64, shape (N,)
    proj_grads: np.ndarray   # f32 or f64, shape (N,)

    def __len__(self):
        return len(self.seeds)

    @staticmethod
    def from_records(header: SeedLogHeader, records) -> "SeedLog":
        """The log of ``records``, QueryRecords flat in log order, which
        refuses a record as :meth:`SeedLogWriter.append` does."""
        record = _record_struct(header)
        rec = np.frombuffer(b"".join([_pack(record, r.seed, r.proj_grad)
                                      for r in records]), header.record_dtype)
        return SeedLog(replace(header, record_count=len(rec)),
                       rec["seed"].copy(), rec["pg"].copy())


def _record_struct(header: SeedLogHeader) -> struct.Struct:
    """``header.record_dtype``'s layout, the seed as "Q": struct packs
    numpy's u8 char, "L", in 4 bytes under "<"."""
    return struct.Struct("<Q" + header.record_dtype["pg"].char)


def _pack(record: struct.Struct, seed: int, proj_grad: float) -> bytes:
    """One record's bytes, or the error :meth:`SeedLogWriter.append`
    names for a record it refuses."""
    if type(seed) is not int:  # struct.pack checks the range
        check_int("seed", seed)
    g = float(proj_grad)
    if not math.isfinite(g):  # struct packs NaN and inf silently
        raise ValueError("proj_grad must be finite")
    try:
        return record.pack(int(seed), g)
    except struct.error as exc:  # the only packing error a seed raises
        raise OverflowError("seed must be a 64-bit unsigned "
                            f"integer, got {seed}") from exc
    except OverflowError as exc:  # g beyond float32's range
        raise ValueError(f"proj_grad {g} overflows a "
                         f"{record.size - 8}-byte float") from exc


class SeedLogWriter:
    """Streaming writer: header first, then fixed-width records in order;
    the records appended since the last ``flush`` reach the file together
    or not at all, so a log flushed once per step holds whole steps."""

    def __init__(self, path, header: SeedLogHeader):
        self.header = header
        self._fh = open(path, "wb")
        self._fh.write(replace(header, record_count=0).pack())
        self._count = 0
        self._pending = bytearray()
        self._record = _record_struct(header)

    def append(self, seed: int, proj_grad: float):
        """Hold one record for the next flush; a refused one drops them all.

        A seed that is not an integer (a float or a bool, by
        :func:`~zobench.streams.check_int`'s rule) raises TypeError, and
        one outside [0, 2**64) OverflowError; a proj_grad that is not
        finite, or is not finite at ``pg_width``, raises ValueError.
        """
        if self._fh.closed:
            raise LogFormatError("append after finalize")
        try:
            self._pending += _pack(self._record, seed, proj_grad)
        except BaseException:  # a refused record drops the held ones
            self._pending.clear()
            raise

    def flush(self):
        """Write the records held since the last flush, then flush the file.

        After ``finalize`` this raises LogFormatError, as ``append`` does.
        """
        if self._fh.closed:
            raise LogFormatError("flush after finalize")
        self._fh.write(self._pending)
        self._count += len(self._pending) // self._record.size
        self._pending.clear()
        self._fh.flush()

    def finalize(self):
        """Write the held records, patch the count into the header, close."""
        if self._fh.closed:
            return
        self.flush()
        self._fh.seek(0)
        self._fh.write(replace(self.header, record_count=self._count).pack())
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.finalize()


def read_log(path) -> SeedLog:
    with open(path, "rb") as fh:
        blob = fh.read()
    header = SeedLogHeader.unpack(blob)
    n, rest = divmod(len(blob) - HEADER_SIZE, header.record_size)
    if rest:
        raise LogFormatError("truncated record section")
    if header.record_count and n != header.record_count:
        raise LogFormatError(
            f"header promises {header.record_count} records, file has {n}")
    # decoded in place: a copy of the record section would double the peak
    rec = np.frombuffer(blob, dtype=header.record_dtype, offset=HEADER_SIZE)
    if not np.isfinite(rec["pg"]).all():
        raise LogFormatError("non-finite proj_grad in record section")
    return SeedLog(replace(header, record_count=n),
                   rec["seed"].copy(), rec["pg"].copy())


def replay(initial_params: ParamSet, log: SeedLog) -> ParamSet:
    """Reconstruct trained parameters from the initial ones plus the log."""
    return _apply_log(initial_params, log, reverse=False)


def revert(adapted_params: ParamSet, log: SeedLog) -> ParamSet:
    """Undo the log: apply records in reverse order with negated coefficient."""
    return _apply_log(adapted_params, log, reverse=True)


def _apply_log(start: ParamSet, log: SeedLog, reverse: bool) -> ParamSet:
    """``start`` copied, then one ``params.axpy`` term per record: in order
    at -lr_eff * g, as stage 2 applies them, or reversed at +lr_eff * g."""
    h = log.header
    start.check_schema(h.schema_hash)
    params = start.copy()
    lr_eff = h.to_config().lr_effective
    coeff, step = (lr_eff, -1) if reverse else (-lr_eff, 1)
    _params.axpy(params, [coeff * g for g in log.proj_grads[::step].tolist()],
                 log.seeds[::step].tolist(), h.sampler)
    return params


def inspect(path) -> dict:
    """Header fields plus record-count and proj_grad summary statistics."""
    log = read_log(path)
    h = log.header
    pgs = log.proj_grads.astype(np.float64)
    summary = {
        "version": VERSION,
        "records": len(log),
        "q": h.q,
        "steps": len(log) // max(1, h.q),
        "master_seed": h.master_seed,
        "schema_hash": f"{h.schema_hash:#018x}",
        "epsilon": h.epsilon,
        "lr": h.lr,
        "combine": h.combine,
        "sampler": h.sampler.variant,
        "rank": h.sampler.rank,
        "normalize": h.sampler.normalize,
        "elem_width": h.elem_width,
        "pg_width": h.pg_width,
        "file_bytes": HEADER_SIZE + len(log) * h.record_size,
    }
    if len(log):
        summary.update({
            "proj_grad_mean": float(pgs.mean()),
            "proj_grad_mean_abs": float(np.abs(pgs).mean()),
            "proj_grad_std": float(pgs.std()),
            "proj_grad_max_abs": float(np.abs(pgs).max()),
        })
    return summary
