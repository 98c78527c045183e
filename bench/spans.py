"""In-memory span recording for the traced benchmark run.

A span is (name, start, end, parent, op id, size).  Spans come from shims
that this module installs around zobench's public functions for the
traced phase only; the library itself is never edited.  A shim has to
replace the name where the caller looks it up (``zobench.params.axpy``,
not ``zobench.axpy``), because the library's modules import each other's
functions by name.
"""

from __future__ import annotations

import contextlib
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    """Collects spans while ``recording`` is true; shims pass through otherwise."""

    def __init__(self):
        self.names: list[str] = []
        self.kind = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.size = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.op_id = 0
        self.recording = False
        self._stack = [-1]
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def wrap(self, name: str, fn, size=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``size(result)`` may give a work count for the span (elements
        filled, records read).  The op id is taken when the span ends, so a
        span belongs to the op that was current when its work finished.
        """
        if name not in self.names:
            self.names.append(name)
        kid = self.names.index(name)

        def shim(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            i = len(self.t0)
            self.kind.append(kid)
            self.parent.append(self._stack[-1])
            self.op.append(-1)
            self.size.append(0)
            self.t1.append(0.0)
            self._stack.append(i)
            self.t0.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.t1[i] = perf_counter()
                self._stack.pop()
                self.op[i] = self.op_id
            if size is not None:
                self.size[i] = size(out)
            return out

        return shim

    def replace(self, owner, attr: str, new):
        """Set ``owner.attr`` to ``new`` until :meth:`unpatch`."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch(self, owner, attr: str, name: str, size=None):
        """Replace ``owner.attr`` by a span shim until :meth:`unpatch`."""
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr), size))

    def unpatch(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    @contextlib.contextmanager
    def paused(self):
        """Suspend recording, e.g. around correctness checks between ops."""
        was, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = was

    # -- results ---------------------------------------------------------

    def _arrays(self):
        return (np.frombuffer(self.kind, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.t0), np.frombuffer(self.t1),
                np.frombuffer(self.size, dtype=np.int64))

    def summary(self) -> dict:
        """Per span name: count, total and self seconds, summed size.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the benchmark is one thread.
        ``root_*`` repeat total and self time over spans without a parent.
        """
        kind, parent, t0, t1, size = self._arrays()
        n, k = len(kind), len(self.names)
        dur = t1 - t0
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=n)
        own = dur - covered
        count = np.bincount(kind, minlength=k)
        total = np.bincount(kind, weights=dur, minlength=k)
        selfs = np.bincount(kind, weights=own, minlength=k)
        sizes = np.bincount(kind, weights=size.astype(np.float64), minlength=k)
        root = ~child
        root_total = np.bincount(kind[root], weights=dur[root], minlength=k)
        root_self = np.bincount(kind[root], weights=own[root], minlength=k)
        return {name: {"count": int(count[i]), "total_s": float(total[i]),
                       "self_s": float(selfs[i]), "size": float(sizes[i]),
                       "root_total_s": float(root_total[i]),
                       "root_self_s": float(root_self[i])}
                for i, name in enumerate(self.names)}

    def save(self, path):
        kind, parent, t0, t1, size = self._arrays()
        np.savez(path, names=np.array(self.names), kind=kind, parent=parent,
                 t0=t0, t1=t1, op=np.frombuffer(self.op, dtype=np.int32),
                 size=size)


def install(tracer: Tracer, model):
    """Shim every public zobench entry point the workloads reach.

    ``model`` is the workload's model object, whose ``loss`` the training
    loop looks up on the instance.
    """
    from zobench import models, params, samplers, seedlog, tta, zo

    p = tracer.patch
    p(model, "loss", "models.loss")
    for mod in (params, models):
        p(mod, "GaussianStream", "streams.rekey")
    p(samplers, "gaussian_fill", "streams.fill", size=lambda z: z.size)
    p(params, "sample_for_tensor", "samplers.sample")
    p(params, "axpy", "params.axpy")
    p(params.ParamSet, "copy", "params.copy")
    p(models.BatchSampler, "draw", "models.batch_draw")
    p(zo, "rge_proj_grad", "zo.proj_grad")
    for mod in (zo, tta):
        p(mod, "zo_step", "zo.step")
    p(zo, "train", "zo.train")
    p(seedlog.SeedLogWriter, "append", "seedlog.append")
    p(seedlog.SeedLogWriter, "flush", "seedlog.flush")
    p(seedlog, "read_log", "seedlog.read", size=len)
    p(seedlog, "replay", "seedlog.replay")
    p(seedlog, "revert", "seedlog.revert")
    p(tta, "run_stream", "tta.run_stream")
    p(tta, "adapt_sample", "tta.adapt")
    p(tta, "sample_scores", "tta.score")
    # the episode reset is revert_log plus a copy back; the inner span
    # keeps revert's own time under seedlog.revert on every workload
    tracer.replace(tta, "revert_log", tracer.wrap(
        "tta.reset", tracer.wrap("seedlog.revert", tta.revert_log)))
    # TTA evaluates entropy_objective(model).loss, not model.loss
    objective = tta.entropy_objective

    def traced_objective(model):
        obj = objective(model)
        obj.loss = tracer.wrap("models.loss", obj.loss)
        return obj

    tracer.replace(tta, "entropy_objective", traced_objective)
