"""Count the code lines of each module of ``src/semidim`` and in total.

A code line holds at least one token that is not a comment, a line break or
an indent, and lies outside every docstring (of a module, class or function,
as ``ast`` finds them).  Run from anywhere: ``python tools/code_lines.py``.
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "semidim"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set:
    """The lines of every docstring in ``source``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    lines = {row for tok in tokens if tok.type not in LAYOUT for row in range(tok.start[0], tok.end[0] + 1)}
    return len(lines - docstring_lines(source))


def main() -> None:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
