"""Print the line counts of a source tree that ROADMAP.md quotes.

Usage:
    python tests/src_lines.py [DIR]

Prints two integers on one line: the number of lines of every ``*.py``
file under DIR (``src/`` by default), and the number of those lines
that are not blank, not a ``#`` comment and not part of a docstring.
A docstring is the string that opens a module, class or function body,
as ``ast`` finds it.
"""

import ast
import sys
from pathlib import Path

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counts(root: Path) -> tuple[int, int]:
    total = code = 0
    for path in sorted(root.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        doc = set()
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, _DOCUMENTED)
                    and ast.get_docstring(node, clean=False) is not None):
                first = node.body[0]
                doc.update(range(first.lineno, first.end_lineno + 1))
        total += len(lines)
        code += sum(1 for n, line in enumerate(lines, 1)
                    if line.strip() and not line.strip().startswith("#")
                    and n not in doc)
    return total, code


if __name__ == "__main__":
    default = Path(__file__).resolve().parents[1] / "src"
    print(*counts(Path(sys.argv[1]) if len(sys.argv) > 1 else default))
