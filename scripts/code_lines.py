"""Count the code lines of the myobench package, module by module.

A code line is a source line that holds at least one token other than a
comment, and that is not part of a docstring (the string literal that opens
a module, class or function body). Blank lines, comment-only lines and
docstring lines are not counted; a statement spread over several lines
counts each line it covers.

    python scripts/code_lines.py            # src/myobench
    python scripts/code_lines.py PATH...    # other files or directories

Prints one line per module and the total.
"""
from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "myobench"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(line for line in range(token.start[0], token.end[0] + 1)
                         if line not in skip)
    return len(lines)


def main(argv: list[str]) -> int:
    roots = [Path(arg) for arg in argv] or [PACKAGE]
    files = sorted(f for root in roots
                   for f in (root.rglob("*.py") if root.is_dir() else [root]))
    total = 0
    for path in files:
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {os.path.relpath(path)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
