"""Count the source lines and defaulted parameters of the grassgeo package.

    python3 tools/loc.py

Prints one row per module of src/grassgeo (its non-blank lines and its
defaulted parameters) and a total row.  A defaulted parameter is a
positional or keyword-only parameter with a default, counted on the AST of
every function and lambda, or a field of a @dataclass class with a default:
an annotated assignment in its body, unless it is field(init=False).
"""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "grassgeo"


def _name(node: ast.expr) -> str | None:
    """The name a decorator or call refers to: f, m.f, f(...) and m.f(...) give f."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _init_field(value: ast.expr) -> bool:
    """False for field(..., init=False, ...), a dataclass field that its
    __init__ does not take; True for any other default."""
    return not (isinstance(value, ast.Call) and _name(value) == "field" and any(
        kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
        for kw in value.keywords))


def count(path: Path) -> tuple[int, int]:
    """Non-blank lines and defaulted parameters of one source file."""
    text = path.read_text()
    lines = sum(1 for line in text.splitlines() if line.strip())
    defaults = 0
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            defaults += len(node.args.defaults)
            defaults += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
                _name(d) == "dataclass" for d in node.decorator_list):
            defaults += sum(isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                            and _init_field(stmt.value) for stmt in node.body)
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
