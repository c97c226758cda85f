"""Line counts of the package source, the two size numbers ROADMAP aim 2
tracks.

    python3 scripts/src_lines.py

Prints the `wc -l` total of `src/abc_eqf/*.py` and the number of code
lines among them: non-blank lines that are neither `#` comment lines nor
part of a module, class or function docstring.  Run from any directory.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "abc_eqf"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def counts(path: Path) -> tuple[int, int]:
    """(all lines, code lines) of one source file."""
    text = path.read_text()
    lines = text.splitlines()
    doc = docstring_lines(ast.parse(text))
    code = sum(1 for i, line in enumerate(lines, start=1)
               if line.strip() and not line.lstrip().startswith("#") and i not in doc)
    return len(lines), code


def main() -> None:
    total = code = 0
    for path in sorted(SRC.glob("*.py")):
        n_all, n_code = counts(path)
        total += n_all
        code += n_code
    print(f"wc -l src/abc_eqf/*.py: {total}")
    print(f"code lines (non-blank, not comments or docstrings): {code}")


if __name__ == "__main__":
    main()
