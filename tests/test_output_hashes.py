"""Every byte-reproducible file of tests/output_hashes.py's runs repeats.

Criterion 11 compares two metrics.csv files; this covers every artifact
of fourteen configs (logs, parameter files, summaries, episode records and
sweep tables) and each seed log's replay and revert, the listing a
refactor diffs against its parent tree.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def listing(out):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "output_hashes.py"), str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_output_hashes_repeat(tmp_path):
    first = listing(tmp_path / "a")
    assert listing(tmp_path / "b") == first
    assert len(first) == 169
    assert not any(line.endswith(".timings.json") for line in first)
