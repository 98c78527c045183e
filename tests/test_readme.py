"""The README's Python examples run as written, in order."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 2
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the seed-replay example: replay rebuilds the run, revert undoes it
    assert namespace["rebuilt"].max_abs_diff(namespace["params"]) <= 1e-6
    assert (namespace["restored"].max_abs_diff(namespace["initial_params"])
            <= 1e-6)
