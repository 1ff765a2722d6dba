"""Line counts of the `dgtime` package, module by module.

    python tools/srclines.py [DIR]

For each module in DIR (default `src/dgtime`) it prints the total lines and
the code lines, then their sums.  Code lines are the non-blank lines that
are neither a `#` comment nor part of a docstring (the string that opens a
module, a class or a function).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers (1-based) covered by the docstrings in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    lines = source.splitlines()
    docs = docstring_lines(ast.parse(source))
    code = sum(1 for i, line in enumerate(lines, 1)
               if line.strip() and not line.strip().startswith("#") and i not in docs)
    return len(lines), code


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    folder = Path(argv[0]) if argv else ROOT / "src" / "dgtime"
    total = code = 0
    for path in sorted(folder.glob("*.py")):
        n, c = count(path.read_text())
        total, code = total + n, code + c
        print(f"{path.name:<16} {n:>6} {c:>6}")
    print(f"{'total':<16} {total:>6} {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
