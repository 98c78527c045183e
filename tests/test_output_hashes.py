"""Every byte-reproducible file of tests/output_hashes.py's runs repeats.

Criterion 11 compares two metrics.csv files; this covers every artifact
of twenty-eight configs (logs, parameter files, summaries, episode records and
sweep tables) and each seed log's replay and revert, the listing a
refactor diffs against its parent tree; ``--against`` prints only what
differs from an older listing.
"""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def listing(out, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "output_hashes.py"), str(out),
         *args], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_output_hashes_repeat(tmp_path):
    first = listing(tmp_path / "a")
    assert listing(tmp_path / "b") == first
    assert len(first) == 303
    assert not any(line.endswith(".timings.json") for line in first)


def test_against_prints_only_changed_lines(tmp_path):
    # one hash altered, one line missing and one extra line in the old
    # listing: exactly those three show, then a count per config
    first = listing(tmp_path / "a")
    extra = "f" * 64 + "  det/gone.csv"
    old = tmp_path / "old.txt"
    old.write_text("\n".join(["0" * 64 + first[0][64:], *first[2:], extra]))
    got = listing(tmp_path / "b", "--against", str(old))

    def config(line):
        return line.split("  ", 1)[1].split("/")[0]

    totals = Counter(map(config, first + [extra]))
    hits = Counter(map(config, [first[0], first[1], extra]))
    assert got == [first[0], first[1], "removed  det/gone.csv"] + [
        f"# {name}: {hits[name]} of {n} lines changed"
        for name, n in sorted(totals.items())]
