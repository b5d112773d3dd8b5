"""Count total lines and code lines of Python files.

A code line is a line that holds a token other than a comment, a newline,
an indent or dedent, or a docstring (a statement that is only a string).
Blank lines, comment lines and docstring lines are therefore not code;
every line of a statement that spans several lines is.

    python tests/linecount.py [path ...]

prints "total code path" for each file, then for each directory its sum,
for src/helmdd when no path is given.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def count(source: str) -> tuple:
    """(total lines, code lines) of Python source text."""
    docstrings = [
        ((node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    ]
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or any(lo <= tok.start < hi for lo, hi in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv=None) -> int:
    paths = [Path(p) for p in (argv or ["src/helmdd"])]
    for path in paths:
        files = sorted(path.glob("*.py")) if path.is_dir() else [path]
        totals = [0, 0]
        for f in files:
            lines, code = count(f.read_text())
            totals[0] += lines
            totals[1] += code
            print(f"{lines:6d} {code:6d} {f}")
        if path.is_dir():
            print(f"{totals[0]:6d} {totals[1]:6d} {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
