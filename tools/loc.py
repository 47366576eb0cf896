"""Code lines per module of the fanodescent package.

A code line is a non-blank line that is neither a comment nor part of a
docstring: the string that opens a module, class or function body.  The
script prints one count per module of ``src/fanodescent`` (or of the
package directory given) and their total.

Usage (standard library only):

    python tools/loc.py [PACKAGE_DIR]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

DEFAULT_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fanodescent"


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by every docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python ``source``."""
    docstrings = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (
            tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
            tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
        ):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def counts(package: Path) -> dict[str, int]:
    """Code lines per module of ``package``, by file name."""
    return {
        path.stem: code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    package = Path(argv[0]) if argv else DEFAULT_PACKAGE
    per_module = counts(package)
    width = max(map(len, per_module), default=0)
    for name, n in per_module.items():
        print(f"{name:<{width}}  {n:>5}")
    print(f"{'total':<{width}}  {sum(per_module.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
