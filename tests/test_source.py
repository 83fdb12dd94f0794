import ast
import importlib.util
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "grassgeo"
TOOL = ROOT / "tools" / "loc.py"


def _mentions(node):
    """The names a statement uses: Name ids, Attribute attrs and imported
    names.  Strings, docstrings included, mention nothing."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            out.update(alias.name for alias in sub.names)
    return out


def test_every_private_helper_is_used_outside_its_definition():
    # a module-level private function or class that nothing else in the
    # package names is dead code; a decorated one counts as used, because
    # its decorator registers it
    stmts = [stmt for path in sorted(PACKAGE.glob("*.py"))
             for stmt in ast.parse(path.read_text()).body]
    mentions = [_mentions(stmt) for stmt in stmts]
    helpers = [(i, stmt.name) for i, stmt in enumerate(stmts)
               if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and stmt.name.startswith("_") and not stmt.name.startswith("__")
               and not stmt.decorator_list]
    assert len(helpers) > 20
    unused = [name for i, name in helpers
              if not any(name in used for j, used in enumerate(mentions) if j != i)]
    assert unused == []


def test_no_comparison_reads_a_signature_string():
    # what differs between the compact space and its dual is read from the
    # signature records of manifold, never by comparing the tag
    tags = ("compact", "noncompact")
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Compare)
             and any(isinstance(sub, ast.Constant) and sub.value in tags
                     for operand in (node.left, *node.comparators)
                     for sub in ast.walk(operand))]
    assert found == []


def _scopes_calling(tree, name):
    """The dotted scope (classes and functions) around each call of name."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and name in _mentions(child.func):
                found.append(".".join(scope))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            walk(child, scope + (child.name,) if named else scope)

    walk(tree, ())
    return found


def test_signature_tags_are_checked_only_where_they_enter():
    # a chart point or tangent checks its tag when it is built and keeps the
    # signature record every route reads; the scan alone takes a bare tag
    sites = [f"{path.stem}:{scope}"
             for path in sorted(PACKAGE.glob("*.py"))
             for scope in _scopes_calling(ast.parse(path.read_text()), "_check_signature")]
    assert sites == ["manifold:_Factored.__init__", "verify:scan_conjugate"]


# numpy.linalg's factorizations; norm is not one
FACTORIZATIONS = ("svd", "det", "slogdet", "solve", "inv", "qr", "eigh", "lstsq")
# the gufuncs of numpy.linalg._umath_linalg that kernel binds, by name
LAPACK_GUFUNCS = ("svd_s", "svd", "det", "solve", "qr_r_raw", "qr_reduced", "eigh_lo")


def test_factorizations_run_only_in_the_kernel_lapack_layer():
    # every factorization of the package runs on kernel's gufunc bindings:
    # no module calls a numpy.linalg factorization or imports one by name,
    # and only kernel imports numpy.linalg's gufunc module
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if (isinstance(node, ast.Attribute) and node.attr in FACTORIZATIONS
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
                found.append(f"{where} linalg.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and "linalg" in (node.module or ""):
                if path.name != "kernel.py" or node.module != "numpy.linalg._umath_linalg":
                    found.append(f"{where} from {node.module}")
            elif isinstance(node, ast.Import):
                found += [f"{where} import {alias.name}" for alias in node.names
                          if "linalg" in alias.name]
    assert found == []


def test_kernel_binds_each_lapack_gufunc():
    from numpy.linalg import _umath_linalg

    from grassgeo import kernel
    for name in LAPACK_GUFUNCS:
        assert getattr(kernel, f"_lapack_{name}") is getattr(_umath_linalg, name), name


def test_kernel_import_names_the_numpy_floor_when_a_gufunc_is_missing():
    # numpy 1.x names its gufuncs otherwise (svd_n_s, qr_r_raw_m, ...)
    code = ("import sys; import numpy.linalg._umath_linalg as g; del g.qr_r_raw; "
            f"sys.path.insert(0, {str(ROOT / 'src')!r}); import grassgeo.kernel")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode != 0
    last = done.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError: grassgeo needs numpy>=2.0"), last
    assert "qr_r_raw" in last


def test_loc_tool_counts_every_module(tmp_path):
    done = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    header, *rows, total, path = [line.split() for line in done.stdout.splitlines()]
    assert header == ["module", "lines", "defaults", "nodes"]
    assert [row[0] for row in rows] == sorted(p.name for p in PACKAGE.glob("*.py"))
    for name, lines, _, nodes in rows:
        text = (PACKAGE / name).read_text()
        assert int(lines) == sum(1 for line in text.splitlines() if line.strip())
        assert int(nodes) == sum(1 for _ in ast.walk(ast.parse(text)))
    assert total == ["total", *(str(sum(int(row[i]) for row in rows)) for i in (1, 2, 3))]
    # the modules a first grassgeo.exp0 imports
    first = [row for row in rows if row[0] in ("errors.py", "kernel.py", "manifold.py")]
    assert len(first) == 3
    assert path == ["exp0-path", *(str(sum(int(row[i]) for row in first)) for i in (1, 2, 3))]

    spec = importlib.util.spec_from_file_location("loc", TOOL)
    loc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loc)
    sample = tmp_path / "sample.py"
    sample.write_text("def f(a, b=1, *args, c=2, d, **kw):\n\n"
                      "    return lambda x=0: x\n   \nclass K:\n    y: int = 3\n")
    # b, c and x have defaults; a class attribute is not a parameter
    assert loc.count(sample) == (4, 3)
