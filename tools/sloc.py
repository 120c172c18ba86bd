"""Source size report: total lines and docstring lines of each module of
src/bgwtau, their sum, and the same two sums over tests/*.py.

    python tools/sloc.py

Total lines are `wc -l` lines.  Docstring lines are the lines spanned by
the docstrings of modules, classes and functions (the string that is a
body's first statement), read with the standard library's ast.  The
report never fails: it exits 0 whatever the numbers.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counts(path: Path) -> tuple[int, int]:
    """(total lines, docstring lines) of one Python file."""
    text = path.read_text(encoding="utf-8")
    doc = 0
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                doc += first.end_lineno - first.lineno + 1
    return text.count("\n"), doc


def main() -> int:
    rows = [(str(p.relative_to(ROOT)), *counts(p))
            for p in sorted((ROOT / "src" / "bgwtau").glob("*.py"))]
    tests = [counts(p) for p in sorted((ROOT / "tests").glob("*.py"))]
    rows.append(("src/bgwtau total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    rows.append(("tests total", sum(t for t, _ in tests), sum(d for _, d in tests)))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'file':<{width}}  {'lines':>6}  {'docstring':>9}")
    for name, total, doc in rows:
        print(f"{name:<{width}}  {total:>6}  {doc:>9}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
