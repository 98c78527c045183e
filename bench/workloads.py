"""The benchmark's four workloads, driven through zobench's public API.

Load is closed-loop from one process: each step, record slice or episode
starts when the previous one ends.  Every timing is taken here, from
outside the library; the library's own timings (``forward_seconds``,
``metrics["seconds"]``) are never read.  Library calls are looked up
through their module at call time (``zo.train``, ``seedlog.replay``) so
that the traced run's shims see them.

Each workload has ``setup()`` (timed as ``setup_s``), ``warmup()``,
``run(rec, deadline)`` and ``report(rec)``.  ``run`` repeats a fixed unit
of work (a training run, a stream, a log slice) until the deadline and
checks every repeat; a failed check or a raised error marks that repeat's
operations failed.
"""

from __future__ import annotations

import contextlib
import os
import sys
import traceback
from dataclasses import replace
from time import perf_counter

import numpy as np

from zobench import (AdaptMask, BatchSampler, DataGenConfig, FOConfig, SeedLog,
                     SeedLogHeader, SeedLogWriter, TTAEpisodeConfig, ZOConfig,
                     derive_seed, fo_train, gen_data, gen_shifted_stream,
                     make_model, seedlog, tta, zo)

TOL = 1e-6          # criterion 06: replay and revert round trips
HEADER_BYTES = 60   # seed-log header; a record is 12 bytes (u64 + f32)
RECORD_BYTES = 12
BATCH = 32


class CheckFailed(Exception):
    """A benchmark correctness check did not hold."""


def _python_kernel(buf):
    """Generator construction, tiny fills and interpreter work."""
    z = buf[:64]
    for i in range(20):
        gen = np.random.Generator(np.random.Philox(
            key=np.array([i, 7], dtype=np.uint64)))
        gen.standard_normal(out=z)
        z *= 0.5
        z += 1.0
        sum(range(100))


def _memory_kernel(buf):
    """A 2 MB Gaussian fill, scaled and shifted in place."""
    gen = np.random.Generator(np.random.Philox(
        key=np.array([1, 7], dtype=np.uint64)))
    gen.standard_normal(out=buf)
    buf *= 0.5
    buf += 1.0


# (kernel, its best-of-3 time in seconds on an idle 2-core development
# machine, seconds between probes).  Each workload uses the kernel that
# shares its bottleneck: interpreter and rekey overhead, or memory-bound fill.
PYTHON_BOUND = (_python_kernel, 0.27e-3, 0.1)
MEMORY_BOUND = (_memory_kernel, 4.2e-3, 0.5)


class Speed:
    """Converts wall time on a shared machine to reference-speed time.

    On a shared host, neighbours slow every process down by up to 2x for
    seconds at a time, so wall-clock medians of whole runs do not repeat.
    A fixed numpy kernel that does not touch zobench is timed (best of 3)
    between ops, at most once per period; a wall time measured after it is
    multiplied by ``reference / kernel time``.  The result reads as the
    time the op would take with the machine as fast as on the idle
    development machine, and a change to zobench moves it as it moves the
    wall time.
    """

    def __init__(self, kernel, reference, period):
        self.kernel, self.reference, self.period = kernel, reference, period
        # kernels write here, so probing allocates nothing that could move
        # the workload's peak RSS
        self._buf = np.empty(1 << 18)
        self.factor = 1.0
        self.kernel_s: list[float] = []
        self._due = 0.0

    def _time_kernel(self):
        t0 = perf_counter()
        self.kernel(self._buf)
        return perf_counter() - t0

    def update(self) -> bool:
        """Probe the machine if a period has passed; True if it did."""
        if perf_counter() < self._due:
            return False
        best = min(self._time_kernel() for _ in range(3))
        self.kernel_s.append(best)
        self.factor = self.reference / best
        self._due = perf_counter() + self.period
        return True


class Recorder:
    """Op times and failure counts for one measurement phase.

    ``wall`` holds each op's wall time, ``times`` the same at reference
    speed (see :class:`Speed`; equal to ``wall`` without one), ``parts``
    optional per-op components at reference speed.
    """

    def __init__(self, tracer, speed=None):
        self.tracer, self.speed = tracer, speed
        self.wall: list[float] = []
        self.times: list[float] = []
        self.parts: list[tuple] = []
        self.attempted = 0
        self.failed = 0
        self._last = None

    def add(self, seconds, *parts):
        factor = self.speed.factor if self.speed else 1.0
        self.wall.append(seconds)
        self.times.append(seconds * factor)
        if parts:
            self.parts.append(tuple(p * factor for p in parts))

    def probe(self):
        """Probe machine speed between ops if due; True if it did."""
        return self.speed is not None and self.speed.update()

    def mark(self):
        """An op starts now; the previous one, if open, ends."""
        now = perf_counter()
        if self._last is not None:
            self.add(now - self._last)
        if self.probe():
            now = perf_counter()
        self._last = now
        self.tracer.op_id += 1

    def stop(self):
        """The open op ends now."""
        if self._last is not None:
            self.add(perf_counter() - self._last)
        self._last = None

    @contextlib.contextmanager
    def ops(self, n: int):
        """Count ``n`` attempted ops; mark all ``n`` failed on any error."""
        self.attempted += n
        try:
            yield
        except Exception:  # the run goes on; the failure is counted
            traceback.print_exc(file=sys.stderr)
            self.failed += n
            self._last = None

    @staticmethod
    def quantiles_ms(times, q=(50, 75, 90)):
        return tuple(float(v) for v in
                     np.percentile(np.asarray(times) * 1e3, q))


def _mlp_data(seed, dim, hidden, classes):
    cfg = DataGenConfig(task="mlp", dim=dim, hidden=hidden, classes=classes,
                        n_train=512, n_test=256, seed=seed)
    model = make_model(cfg)
    train_set, test_set = gen_data(cfg)
    return model, train_set, test_set


class Train:
    """``zo.train`` on an mlp with fresh batches, streaming a seed log.

    One op is one step, timed as the gap between successive batch draws
    for query 0.  One repeat is a whole ``steps``-step run from the same
    initial parameters, so every repeat must end bit-identical.
    """

    def __init__(self, seed, workdir, tracer, *, dim, hidden, classes, q, lr,
                 steps, speed_kernel=PYTHON_BOUND):
        self.seed, self.tracer = seed, tracer
        self.speed_kernel = speed_kernel
        self.shape = (dim, hidden, classes)
        self.q, self.lr, self.steps = q, lr, steps
        self.path = os.path.join(workdir, f"train-{seed}.zolog")

    def setup(self):
        self.model, train_set, self.test_set = _mlp_data(self.seed, *self.shape)
        self.sampler = BatchSampler(train_set, BATCH, seed=self.seed)
        self.init = self.model.init(self.seed)
        self.config = ZOConfig(epsilon=1e-3, lr=self.lr, q=self.q,
                               steps=self.steps, combine="mean",
                               master_seed=self.seed)
        self.header = SeedLogHeader.from_config(self.config,
                                                self.init.schema_hash)
        self.reference = None   # (params, loss) after the first repeat
        self.final_loss = float("nan")
        self.bytes_per_record = 0.0
        self.forwards_per_op = 2 * self.q
        self.transient_bound = self.init.nbytes_largest() + 64 * self.q

    def warmup(self):
        zo.train(self.model, self.sampler.draw, replace(self.config, steps=2),
                 self.init.copy())

    def run(self, rec, deadline):
        while perf_counter() < deadline:
            self.repeat(rec)

    def repeat(self, rec):
        q = self.q

        def batch_source(index):
            if index % q == 0:
                rec.mark()
            return self.sampler.draw(index)

        with rec.ops(self.steps):
            with self.tracer.paused():
                params = self.init.copy()
            with SeedLogWriter(self.path, self.header) as writer:
                zo.train(self.model, batch_source, self.config, params,
                         log_writer=writer)
                rec.stop()
            log = seedlog.read_log(self.path)
            with self.tracer.paused():
                self.verify(params, log)

    def verify(self, params, log):
        records = self.q * self.steps
        size = os.path.getsize(self.path)
        if size != HEADER_BYTES + RECORD_BYTES * records or len(log) != records:
            raise CheckFailed(f"log of {len(log)} records is {size} bytes; "
                              f"expected {records} records")
        self.bytes_per_record = (size - HEADER_BYTES) / records
        loss = float(self.model.loss(params, self.test_set))
        if self.reference is None:
            self.reference = (params, loss)
            rebuilt = seedlog.replay(self.init, log)
            err = rebuilt.max_abs_diff(params)
            if not err <= TOL:
                raise CheckFailed(f"replay differs from the live run by {err}")
            err = seedlog.revert(rebuilt, log).max_abs_diff(self.init)
            if not err <= TOL:
                raise CheckFailed(f"revert(replay) differs from init by {err}")
        elif not (params.equals_bitwise(self.reference[0])
                  and loss == self.reference[1]):
            raise CheckFailed(f"repeat ended at loss {loss!r}, "
                              f"first repeat at {self.reference[1]!r}")
        self.final_loss = loss

    def report(self, rec):
        p50, p90 = rec.quantiles_ms(rec.times, (50, 90))
        return [("step_ms_p50", p50, "ms"), ("step_ms_p90", p90, "ms"),
                ("final_loss", self.final_loss, "nats")]


SMALL = dict(dim=20, hidden=16, classes=4, q=4, lr=0.05)


class Checkpoint:
    """Replay and revert over a 50,000-record log of the train-small schema.

    The log is synthesized: seeds as training derives them, proj_grads
    drawn at the scale of a real run's (never zero, since ``axpy`` skips a
    zero coefficient).  Training 50,000 records would take most of a run.
    A real 50-step run is trained in set-up as well and its log is checked
    against the live parameters.  One op replays one fixed-size slice onto
    the initial parameters and reverts it again.
    """

    RECORDS = 50_000
    SLICE = 128
    speed_kernel = PYTHON_BOUND

    def __init__(self, seed, workdir, tracer):
        self.seed, self.tracer = seed, tracer
        self.path = os.path.join(workdir, f"checkpoint-{seed}.zolog")
        self.real = Train(seed, workdir, tracer, steps=50, **SMALL)

    def setup(self):
        real = self.real
        real.setup()
        self.real_rec = Recorder(self.tracer)
        real.repeat(self.real_rec)
        self.model, self.init = real.model, real.init
        scale = float(np.std(seedlog.read_log(real.path).proj_grads))
        rng = np.random.default_rng(self.seed)
        pgs = rng.normal(0.0, scale, self.RECORDS).astype(np.float32)
        pgs[pgs == 0] = scale
        with SeedLogWriter(self.path, real.header) as writer:
            for i, g in enumerate(pgs.tolist()):
                writer.append(derive_seed(self.seed, i // real.q, i % real.q), g)
        self.next_slice = 0
        self.bytes_per_record = 0.0
        self.forwards_per_op = 0
        self.transient_bound = real.transient_bound

    def warmup(self):
        part = self._slice(seedlog.read_log(self.path), 0)
        seedlog.revert(seedlog.replay(self.init, part), part)

    def _slice(self, log, start):
        k = self.SLICE
        return SeedLog(replace(log.header, record_count=k),
                       log.seeds[start:start + k],
                       log.proj_grads[start:start + k])

    def run(self, rec, deadline):
        rec.attempted += self.real_rec.attempted
        rec.failed += self.real_rec.failed
        self.real_rec = Recorder(self.tracer)   # count the real run once
        with rec.ops(1):
            log = seedlog.read_log(self.path)
            size = os.path.getsize(self.path)
            if size != HEADER_BYTES + RECORD_BYTES * self.RECORDS:
                raise CheckFailed(f"{self.RECORDS}-record log is {size} bytes")
            self.bytes_per_record = (size - HEADER_BYTES) / len(log)
        slices = self.RECORDS // self.SLICE
        while perf_counter() < deadline:
            part = self._slice(log, self.next_slice % slices * self.SLICE)
            self.next_slice += 1
            self.tracer.op_id += 1
            rec.probe()
            with rec.ops(1):
                t0 = perf_counter()
                rebuilt = seedlog.replay(self.init, part)
                t1 = perf_counter()
                back = seedlog.revert(rebuilt, part)
                t2 = perf_counter()
                rec.add(t2 - t0, t1 - t0, t2 - t1)
                with self.tracer.paused():
                    err = back.max_abs_diff(self.init)
                if not err <= TOL:
                    raise CheckFailed(f"revert(replay) differs from init by {err}")

    def report(self, rec):
        replay_s, revert_s = np.median(np.asarray(rec.parts), axis=0)
        per_record = 1e6 / self.SLICE
        return [("replay_us_per_record", replay_s * per_record, "us"),
                ("revert_us_per_record", revert_s * per_record, "us")]


class TTASeq:
    """``tta.run_stream`` on the criterion-09 set-up with revert resets.

    One op is one episode, timed as the gap between successive pulls from
    the stream iterator.  One repeat is the whole stream from a pristine
    copy of the pretrained parameters, so every repeat must reach the same
    adapted accuracy.
    """

    SAMPLES = 100
    speed_kernel = PYTHON_BOUND

    def __init__(self, seed, workdir, tracer):
        self.seed, self.tracer = seed, tracer

    def setup(self):
        cfg = DataGenConfig(task="seq", frames=32, feat_dim=8, classes=4,
                            hidden=8, n_train=1024, n_test=512, seed=self.seed)
        self.model = make_model(cfg)
        self.source = self.model.init(self.seed)
        train_set, _ = gen_data(cfg)
        fo_train(self.model, BatchSampler(train_set, BATCH, seed=self.seed).draw,
                 FOConfig(lr=0.02, optimizer="adam", steps=600), self.source)
        self.stream = gen_shifted_stream(replace(cfg, noise_sigma=1e-2),
                                         self.SAMPLES)
        self.mask = AdaptMask(["feat.*", "norm.*"])
        zcfg = ZOConfig(epsilon=1e-3, lr=1e-3, q=4, steps=20)
        self.config = TTAEpisodeConfig(steps=20, optimizer=zcfg,
                                       reset_mode="revert")
        self.accuracy = None
        self.drift = 0.0
        self.bytes_per_record = 0.0
        # two entropy evaluations per episode sit outside the ZO budget
        self.forwards_per_op = self.config.forward_budget() + 2
        masked = self.source.subset(self.mask.resolve(self.source))
        self.transient_bound = masked.nbytes_largest() + 64 * zcfg.q

    def warmup(self):
        tta.run_stream(self.model, self.source.copy(), self.stream[:2],
                       self.mask, self.config, master_seed=self.seed)

    def run(self, rec, deadline):
        while perf_counter() < deadline:
            with self.tracer.paused():
                params = self.source.copy()

            def pulls():
                for sample in self.stream:
                    rec.mark()
                    yield sample
                rec.stop()

            with rec.ops(self.SAMPLES):
                agg, _ = tta.run_stream(self.model, params, pulls(), self.mask,
                                        self.config, master_seed=self.seed)
                with self.tracer.paused():
                    self.drift = max(self.drift,
                                     params.max_abs_diff(self.source))
                acc = agg["adapted_accuracy"]
                if self.accuracy is None:
                    self.accuracy = acc
                elif acc != self.accuracy:
                    raise CheckFailed(f"adapted accuracy {acc!r} on a repeat, "
                                      f"{self.accuracy!r} on the first")

    def report(self, rec):
        p50, p90 = rec.quantiles_ms(rec.times, (50, 90))
        return [("episode_ms_p50", p50, "ms"), ("episode_ms_p90", p90, "ms"),
                ("adapted_accuracy", self.accuracy, "frac")]


def make(name, seed, workdir, tracer):
    if name == "train-small":
        return Train(seed, workdir, tracer, steps=200, **SMALL)
    if name == "train-wide":
        return Train(seed, workdir, tracer, steps=20, dim=512, hidden=2048,
                     classes=10, q=1, lr=1e-5, speed_kernel=MEMORY_BOUND)
    if name == "checkpoint":
        return Checkpoint(seed, workdir, tracer)
    if name == "tta-seq":
        return TTASeq(seed, workdir, tracer)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("train-small", "train-wide", "checkpoint", "tta-seq")
