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
                  reader and in-memory logs; the writer packs the same
                  bytes with one ``struct.Struct`` per width
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .params import ParamSet, apply_records
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

# one record per pg_width, packed as record_dtype lays it out
_RECORD_STRUCTS = {4: struct.Struct("<Qf"), 8: struct.Struct("<Qd")}
_SAMPLER_CODES = {"full": 0, "lowrank": 1}
_COMBINE_CODES = {"accumulate": 0, "mean": 1}
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
            _SAMPLER_CODES[self.sampler.variant],
            _COMBINE_CODES[self.combine], int(self.sampler.normalize),
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
        variants = {v: k for k, v in _SAMPLER_CODES.items()}
        combines = {v: k for k, v in _COMBINE_CODES.items()}
        if sampler_code not in variants:
            raise LogFormatError("invalid sampler descriptor in header")
        if combine_code not in combines:
            raise LogFormatError("invalid combine mode in header")
        if flags & ~_FLAG_NORMALIZE:
            raise LogFormatError(f"unknown header flags {flags:#06x}")
        try:  # a full kind with a rank or normalize set is invalid too
            kind = SamplerKind(variants[sampler_code], rank,
                               bool(flags & _FLAG_NORMALIZE))
            return SeedLogHeader(
                master_seed=master_seed, schema_hash=schema_hash,
                epsilon=epsilon, lr=lr, q=q, combine=combines[combine_code],
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
        """The log of ``records``, QueryRecords flat in log order."""
        dtype = header.record_dtype
        seeds = np.array([rec.seed for rec in records], dtype=dtype["seed"])
        pgs = np.array([rec.proj_grad for rec in records], dtype=dtype["pg"])
        return SeedLog(replace(header, record_count=len(seeds)), seeds, pgs)


class SeedLogWriter:
    """Streaming writer: header first, then fixed-width records in order."""

    def __init__(self, path, header: SeedLogHeader):
        self.header = header
        self._fh = open(path, "wb")
        self._fh.write(replace(header, record_count=0).pack())
        self._count = 0
        self._finalized = False
        self._record = _RECORD_STRUCTS[header.pg_width]

    def append(self, seed: int, proj_grad: float):
        """Write one record; a bad seed or proj_grad writes nothing.

        A seed outside [0, 2**64) raises OverflowError; a proj_grad that
        is not finite, or is not finite at ``pg_width``, raises ValueError.
        """
        if self._finalized:
            raise LogFormatError("append after finalize")
        g = float(proj_grad)
        if not math.isfinite(g):  # struct packs NaN and inf silently
            raise ValueError("proj_grad must be finite")
        try:
            record = self._record.pack(int(seed), g)
        except struct.error as exc:  # the only packing error a seed can raise
            raise OverflowError(
                f"seed must be a 64-bit unsigned integer, got {seed}") from exc
        except OverflowError as exc:  # g beyond float32's range
            raise ValueError(f"proj_grad {g} overflows a "
                             f"{self.header.pg_width}-byte float") from exc
        self._fh.write(record)
        self._count += 1

    def flush(self):
        self._fh.flush()

    def finalize(self):
        """Patch the record count into the header and close the file."""
        if self._finalized:
            return
        self._fh.flush()
        self._fh.seek(0)
        self._fh.write(replace(self.header, record_count=self._count).pack())
        self._fh.close()
        self._finalized = True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.finalize()


def read_log(path) -> SeedLog:
    with open(path, "rb") as fh:
        blob = fh.read()
    header = SeedLogHeader.unpack(blob)
    body = blob[HEADER_SIZE:]
    if len(body) % header.record_size != 0:
        raise LogFormatError("truncated record section")
    n = len(body) // header.record_size
    if header.record_count and n != header.record_count:
        raise LogFormatError(
            f"header promises {header.record_count} records, file has {n}")
    rec = np.frombuffer(body, dtype=header.record_dtype)
    if not np.isfinite(rec["pg"]).all():
        raise LogFormatError("non-finite proj_grad in record section")
    return SeedLog(replace(header, record_count=n),
                   rec["seed"].copy(), rec["pg"].copy())


def replay(initial_params: ParamSet, log: SeedLog) -> ParamSet:
    """Reconstruct trained parameters from the initial ones plus the log."""
    initial_params.check_schema(log.header.schema_hash)
    params = initial_params.copy()
    h = log.header
    apply_records(params, log.seeds, log.proj_grads,
                  -h.to_config().lr_effective, h.sampler)
    return params


def revert(adapted_params: ParamSet, log: SeedLog) -> ParamSet:
    """Undo the log: apply records in reverse order with negated coefficient."""
    adapted_params.check_schema(log.header.schema_hash)
    params = adapted_params.copy()
    h = log.header
    apply_records(params, log.seeds[::-1], log.proj_grads[::-1],
                  +h.to_config().lr_effective, h.sampler)
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
