"""`tools/srclines.py` counts total lines and code lines per module.

Code lines are the non-blank lines that are neither a `#` comment nor part
of a module, class or function docstring; a string that is not a docstring
is code.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "srclines.py"

SYNTHETIC = '''"""Module docstring,
over two lines."""

# a comment
import math


class Shape:
    """Class docstring."""

    sides = 4  # a trailing comment keeps the line code

    def area(self):
        """Method docstring
        over two lines.
        """
        note = """a string that is
        not a docstring"""
        return math.pi


def f():
    return 1
'''


def _load():
    spec = importlib.util.spec_from_file_location("srclines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_skips_blanks_comments_and_docstrings():
    # code: import, class, sides, def area, note (2 lines), return, def f, return
    assert _load().count(SYNTHETIC) == (len(SYNTHETIC.splitlines()), 9)


def test_main_prints_each_module_and_the_sums(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SYNTHETIC)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n\nx = 1\n')
    assert _load().main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    total = len(SYNTHETIC.splitlines())
    assert rows == [["a.py", str(total), "9"], ["b.py", "3", "1"],
                    ["total", str(total + 3), "10"]]
