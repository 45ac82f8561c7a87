"""Count the code lines of the `earring` package, one way for every change.

    python tests/code_lines.py [PACKAGE_DIR]

A line holds code when a token other than a comment sits on it.  Blank
lines, comment lines and the lines of docstrings (module, class and
function) do not count; a line that ends in a comment after code does.
Prints the count of each module of PACKAGE_DIR (default `src/earring`
next to this file's directory) and the total.  Standard library only;
pytest does not collect it, since its name does not start with `test`.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set:
    """The line numbers of every docstring in the module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of lines of the file that hold code."""
    source = path.read_text(encoding="utf-8")
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source, str(path))))


def main(argv: list) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "earring"
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{path.name:16} {n:6,}")
    print(f"{'total':16} {total:6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
