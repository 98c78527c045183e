"""The traced benchmark runs and still finds the library calls it wraps.

bench/spans.py patches names such as ``zobench.params.axpy`` where their
callers look them up; a refactor that moves a call site leaves the shim
unseen and the per-layer counts wrong.  The counts pinned here (``axpy``
calls, Gaussian elements filled and the transient peak, per op) repeat
exactly from run to run.  One short traced run per
workload catches that here (about 3 s each; train-wide's 1.07M-parameter
set-up and steps take about 7 s, and tta-seq's set-up and each run are
whole 100-episode streams, about 12 s).  A case id's middle number is
the draws of z per op: each draw fills the whole set once, so the pinned
fill count is draws times the set's size.  ``axpy`` takes a batch of
records in one call, so replay, revert and each q > 1 stage-2 update
count once; train-wide's q=1 step draws z three times, its last restore
and its update sharing one call.
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
    "train-small": (13, 6_464, 2_560),
    "tta-seq": (261, 35_200, 512),
    "train-wide": (3, 3_213_342, 8_388_608),
}


@pytest.mark.parametrize("workload, draws_per_op, loss_per_op", [
    ("checkpoint", 256, 0),
    ("train-small", 16, 8),
    ("tta-seq", 400, 162),
    ("train-wide", 3, 2),
])
def test_traced_bench_run(tmp_path, workload, draws_per_op, loss_per_op):
    axpy_per_op, fill_elems_per_op, transient_bytes = PER_OP[workload]
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
    assert metrics["streams.fill.elems"]["value"] == fill_elems_per_op, (
        f"expected {draws_per_op} draws of z per op")
    assert metrics["params.transient_peak_bytes"]["value"] == transient_bytes
