"""The traced benchmark runs and still finds the library calls it wraps.

bench/spans.py patches names such as ``zobench.params.axpy`` where their
callers look them up; a refactor that moves a call site leaves the shim
unseen and the per-layer counts wrong.  The counts pinned here (``axpy``
calls, Gaussian elements filled and the transient peak, per op) repeat
exactly from run to run.  One short traced run per
workload catches that here (about 3 s each; train-wide's 1.07M-parameter
set-up and steps take about 7 s, and tta-seq's set-up and each run are
whole 100-episode streams, about 12 s).  Each draw of z fills the whole
set once, so the pinned fill count is the draws of z per op times the
set's size.  ``axpy`` takes a batch of records in one call, so replay,
revert and each stage-2 update count once.  A ZO step makes 3q calls
and draws z 4q - 1 times: each query's +eps / -2 eps / +eps cycle, the
last query's +eps folded into its update term, then one draw per
query's update.  So a checkpoint op (replay and revert of 128 records)
draws z 256 times, a train-small step (q=4) 15 times, a train-wide step
(q=1) 3 times and a tta-seq episode (20 steps at q=4) 300, plus the 80
of its revert reset.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# per-op axpy calls, draws of z, set size and transient peak bytes, by
# workload
PER_OP = {
    "checkpoint": (2, 256, 404, 2_560),
    "train-small": (12, 15, 404, 2_560),
    "tta-seq": (241, 380, 88, 512),
    "train-wide": (3, 3, 1_071_114, 524_288),
}


# the case ids are kept from earlier layouts of this table
@pytest.mark.parametrize("workload, loss_per_op", [
    pytest.param("checkpoint", 0, id="checkpoint-256-0"),
    pytest.param("train-small", 8, id="train-small-16-8"),
    pytest.param("tta-seq", 162, id="tta-seq-400-162"),
    pytest.param("train-wide", 2, id="train-wide-3-2"),
])
def test_traced_bench_run(tmp_path, workload, loss_per_op):
    axpy_per_op, draws_per_op, set_size, transient_bytes = PER_OP[workload]
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
    assert metrics["streams.fill.elems"]["value"] == draws_per_op * set_size, (
        f"expected {draws_per_op} draws of z per op")
    assert metrics["params.transient_peak_bytes"]["value"] == transient_bytes
