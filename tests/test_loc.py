from __future__ import annotations

import contextlib
import importlib.util
import io
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "loc.py"

_MODULE = '''"""A module docstring,
over two lines."""

# A comment line.
import math  # a trailing comment leaves a code line


class Box:
    """A class docstring."""

    size = 2


def area(r):
    """A function docstring,

    with a blank line inside it.
    """
    text = """a string that is
not a docstring"""
    return (
        math.pi * r * r
    )
'''


def test_counts_code_lines_of_a_small_module(tmp_path):
    spec = importlib.util.spec_from_file_location("loc", SCRIPT)
    loc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loc)
    # import, class, size, def, the two lines of text, and the three of return.
    assert loc.code_lines(_MODULE) == 9
    (tmp_path / "shapes.py").write_text(_MODULE)
    (tmp_path / "__init__.py").write_text('"""Docstring only."""\n')
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert loc.main([str(tmp_path)]) == 0
    assert out.getvalue() == "__init__      0\nshapes        9\ntotal         9\n"
