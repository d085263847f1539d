#!/usr/bin/env python3
"""Size of each module of the package: total lines and code lines.

Code lines leave out blank lines, comment lines and docstrings (the first
string statement of a module, class or function, found with ``ast``); a line
with code and a trailing comment counts as code.  One row per module, then
the totals:

    python scripts/code_lines.py            # src/orlicz
    python scripts/code_lines.py path/to/package
"""

from __future__ import annotations

import argparse
import ast
import os
import sys

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "orlicz")
DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source: str) -> tuple[int, int]:
    """``(total lines, code lines)`` of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOC_OWNERS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = source.splitlines()
    code = sum(1 for n, line in enumerate(lines, 1)
               if n not in docstrings and line.strip() and not line.lstrip().startswith("#"))
    return len(lines), code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("package", nargs="?", default=PACKAGE,
                        help="directory of .py modules (default: src/orlicz)")
    args = parser.parse_args()
    names = sorted(n for n in os.listdir(args.package) if n.endswith(".py"))
    if not names:
        print(f"error: no .py modules in {args.package}", file=sys.stderr)
        return 2
    rows = []
    for name in names:
        with open(os.path.join(args.package, name), encoding="utf-8") as handle:
            rows.append((name, *count(handle.read())))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<18}{'lines':>7}{'code':>7}")
    for name, total, code in rows:
        print(f"{name:<18}{total:>7}{code:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
