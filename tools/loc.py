"""Count the source lines and defaulted parameters of the grassgeo package.

    python3 tools/loc.py

Prints one row per module of src/grassgeo (its non-blank lines and its
defaulted parameters) and a total row.  A defaulted parameter is a
positional or keyword-only parameter with a default, counted on the AST of
every function and lambda.
"""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "grassgeo"


def count(path: Path) -> tuple[int, int]:
    """Non-blank lines and defaulted parameters of one source file."""
    text = path.read_text()
    lines = sum(1 for line in text.splitlines() if line.strip())
    defaults = 0
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            defaults += len(node.args.defaults)
            defaults += sum(d is not None for d in node.args.kw_defaults)
    return lines, defaults


def main() -> int:
    print(f"{'module':<14} {'lines':>6} {'defaults':>9}")
    total_lines = total_defaults = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines, defaults = count(path)
        total_lines += lines
        total_defaults += defaults
        print(f"{path.name:<14} {lines:>6} {defaults:>9}")
    print(f"{'total':<14} {total_lines:>6} {total_defaults:>9}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
