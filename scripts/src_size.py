#!/usr/bin/env python3
"""Size of the library: lines, code lines and public names of ``src/splitquat``.

Prints three counts, one per line, for the checkout the script lives in:

* ``lines``: all lines of ``src/splitquat/*.py``;
* ``code_lines``: those lines less blank lines, comment lines (found by
  :mod:`tokenize`) and the lines of module, class and function
  docstrings (found by :mod:`ast`);
* ``public_names``: ``len(splitquat.__all__)``.

::

    python3 scripts/src_size.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Tokens that are no code: a line holding only these is blank or a comment.
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}

#: The nodes that can have a docstring.
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """Lines that hold a token of code and are not part of a docstring."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstring = node.body[0]
            lines.difference_update(range(docstring.lineno, docstring.end_lineno + 1))
    return len(lines)


def sizes() -> dict:
    """The three counts, by name."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import splitquat

    sources = [path.read_text() for path in sorted((SRC / "splitquat").glob("*.py"))]
    return {
        "lines": sum(len(source.splitlines()) for source in sources),
        "code_lines": sum(map(code_lines, sources)),
        "public_names": len(splitquat.__all__),
    }


def main() -> None:
    for name, count in sizes().items():
        print(name, count)


if __name__ == "__main__":
    main()
