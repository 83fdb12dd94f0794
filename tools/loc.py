"""Count the source lines, defaulted parameters and AST nodes of the grassgeo package.

    python3 tools/loc.py

Prints one row per module of src/grassgeo (its non-blank lines, its
defaulted parameters and its AST nodes), a total row, and an exp0-path row
summing the modules a first `grassgeo.exp0` imports (EXP0_PATH).  A
defaulted parameter is a positional or keyword-only parameter with a
default, counted on the AST of every function and lambda.  The node count
tracks what importing a module from source costs: the interpreter compiles
its AST, and a docstring is two nodes whatever its length.
"""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "grassgeo"
EXP0_PATH = ("errors.py", "kernel.py", "manifold.py")


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


def nodes(path: Path) -> int:
    """AST nodes of one source file."""
    return sum(1 for _ in ast.walk(ast.parse(path.read_text())))


def main() -> int:
    print(f"{'module':<14} {'lines':>6} {'defaults':>9} {'nodes':>7}")
    rows = {path.name: (*count(path), nodes(path)) for path in sorted(PACKAGE.glob("*.py"))}
    for name, row in rows.items():
        print(f"{name:<14} {row[0]:>6} {row[1]:>9} {row[2]:>7}")
    for label, names in (("total", rows), ("exp0-path", EXP0_PATH)):
        lines, defaults, size = (sum(rows[name][i] for name in names) for i in range(3))
        print(f"{label:<14} {lines:>6} {defaults:>9} {size:>7}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
