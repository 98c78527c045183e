"""The traced benchmark runs and still finds the library calls it wraps.

bench/spans.py patches names such as ``zobench.params.axpy`` where their
callers look them up; a refactor that moves a call site leaves the shim
unseen and the per-layer counts wrong.  The counts pinned here (``axpy``
calls, Gaussian elements filled and the transient peak, per op) repeat
exactly from run to run.  One short traced run per
workload catches that here (about 3 s each; train-wide's 1.07M-parameter
set-up and steps take about 7 s, and tta-seq's set-up and each run are
whole 100-episode streams, about 12 s).  ``axpy`` takes a batch of
records in one call, so replay, revert and each step's update count
once: a ZO step writes theta once, and a tta-seq episode makes 20
steps' calls and its revert reset's one.  Each update term fills the
whole set once.  A query's probes draw a tensor the model indexes once,
and a weight it multiplies once per distinct input array: once for a
first layer, whose input is the batch, twice for a head, whose input
differs between the probes.  So on the mlp (404 elements, 64 in its
head's weight) a train-small step (q=4) fills 4 * (404 + 64) + 4 * 404
= 3,488 elements, a train-wide step (q=1, 20,480 in the head's weight)
2 * 1,071,114 + 20,480 = 2,162,708, a checkpoint op (replay and revert
of 128 records) 256 * 404 = 103,424, and a tta-seq episode, whose
masked 88 elements hold no head, 80 * 88 for its probes, 80 * 88 for its
updates and 80 * 88 for its reset: 21,120.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# per-op axpy calls, Gaussian elements filled and transient peak bytes,
# by workload
PER_OP = {
    "checkpoint": (2, 103_424, 2_560),
    "train-small": (1, 3_488, 2_560),
    "tta-seq": (21, 21_120, 512),
    "train-wide": (1, 2_162_708, 524_288),
}


# the case ids are kept from earlier layouts of this table
@pytest.mark.parametrize("workload, loss_per_op", [
    pytest.param("checkpoint", 0, id="checkpoint-256-0"),
    pytest.param("train-small", 8, id="train-small-16-8"),
    pytest.param("tta-seq", 162, id="tta-seq-400-162"),
    pytest.param("train-wide", 2, id="train-wide-3-2"),
])
def test_traced_bench_run(tmp_path, workload, loss_per_op):
    axpy_per_op, fills_per_op, transient_bytes = PER_OP[workload]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         workload, "--seed", "601", "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["params.axpy.count"]["value"] == axpy_per_op
    assert metrics["models.loss.count"]["value"] == loss_per_op
    # a kernel that bypasses the fill shim or grows its scratch shows here
    assert metrics["streams.fill.elems"]["value"] == fills_per_op
    assert metrics["params.transient_peak_bytes"]["value"] == transient_bytes
