"""Count code lines in Python sources: blanks, comments and docstrings left out.

A line counts when a token other than a comment, a docstring or layout
(newlines, indentation) starts or continues on it, so a statement split over
three lines counts three times. Docstrings are the string literals `ast`
finds as the first statement of a module, class or function.

Usage: python3 tools/code_lines.py PATH [PATH ...]
Prints the count per file and the total over every `*.py` under each PATH.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Iterator, List, Set, Tuple

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree: ast.AST) -> Set[Tuple[int, int]]:
    """(line, column) where each docstring literal begins."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                starts.add((body[0].value.lineno, body[0].value.col_offset))
    return starts


def count_source(source: str) -> int:
    """Code lines of one module's source text."""
    docstrings = _docstring_starts(ast.parse(source))
    lines: Set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def python_files(path: Path) -> Iterator[Path]:
    if path.is_file():
        yield path
    else:
        yield from sorted(path.rglob("*.py"))


def main(argv: List[str]) -> int:
    if not argv:
        print("usage: python3 tools/code_lines.py PATH [PATH ...]", file=sys.stderr)
        return 2
    total = 0
    for arg in argv:
        for path in python_files(Path(arg)):
            n = count_source(path.read_text(encoding="utf-8"))
            print(f"{n:6d}  {path}")
            total += n
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
