#!/usr/bin/env python3
"""Count the code lines of Python sources.

A line counts when it holds a token other than a comment, NL, NEWLINE,
INDENT, DEDENT or ENDMARKER, and lies outside every module, class and
function docstring. A token that spans lines, such as a triple-quoted
string, holds each of them. So blank lines, comment lines and docstrings
do not count.

Usage::

    python tools/code_lines.py                  # src/cellless
    python tools/code_lines.py src/cellless/radio_metrics.py tools
    python tools/code_lines.py src/cellless/radio_metrics.py::Evaluator.least_powers

Prints each file's count and the total; a directory counts its ``*.py``
files, recursively. ``FILE::QUALNAME`` counts the code lines of one
function or class of ``FILE``, its decorators included and its
docstrings left out, named by its dotted path from the module.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Token types that make no line a code line.
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers spanned by the module, class and function
    docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_line_numbers(source: str) -> set:
    """The numbers of the code lines in the Python ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return lines - docstring_lines(ast.parse(source))


def code_lines(source: str) -> int:
    """The number of code lines in the Python ``source``."""
    return len(code_line_numbers(source))


def definition_lines(source: str, qualname: str) -> int:
    """The number of code lines of the function or class ``qualname``
    (dotted, as ``Evaluator.least_powers``) in the Python ``source``, from
    its first decorator to its last line. Raises ``LookupError`` when no
    such definition exists."""
    scope = ast.parse(source)
    for name in qualname.split("."):
        scope = next((node for node in ast.iter_child_nodes(scope)
                      if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                      and node.name == name), None)
        if scope is None:
            raise LookupError(f"no definition {qualname!r}")
    first = min([scope.lineno] + [d.lineno for d in scope.decorator_list])
    return len(code_line_numbers(source) & set(range(first, scope.end_lineno + 1)))


def python_files(paths) -> list:
    """``paths``, each directory replaced by its ``*.py`` files, sorted."""
    files = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", default=[str(ROOT / "src" / "cellless")],
                        help="files, directories or FILE::QUALNAME (default: src/cellless)")
    args = parser.parse_args(argv)
    total = 0
    for arg in args.paths:
        path, _, qualname = arg.partition("::")
        for file in python_files([path]):
            source = file.read_text(encoding="utf-8")
            try:
                count = definition_lines(source, qualname) if qualname else code_lines(source)
            except LookupError as err:
                parser.error(f"{file}: {err}")
            total += count
            print(f"{count:6d} {file}{'::' + qualname if qualname else ''}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
