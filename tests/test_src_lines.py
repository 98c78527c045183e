"""tests/src_lines.py prints src/'s two line counts, as ROADMAP.md quotes them."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_src_lines_prints_two_counts():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "src_lines.py"),
         str(ROOT / "src")], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    total, code = map(int, proc.stdout.split())
    assert 0 < code < total
