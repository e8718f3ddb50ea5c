"""Properties of the package source itself."""

import ast
from pathlib import Path

import momentforge


def test_no_assert_statements():
    """`python -O` strips assert statements, so checks in the package must
    raise explicitly."""
    found = []
    for path in sorted(Path(momentforge.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def imports_of(package: str, modules=("*",)) -> list:
    """(module file:line, top-level package) for every import statement of
    the given package modules that names `package`."""
    found = []
    root = Path(momentforge.__file__).parent
    paths = sorted(p for m in modules for p in root.glob(f"{m}.py"))
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == package]
    return found


def test_no_scipy_imports():
    """The package depends on numpy alone."""
    assert imports_of("scipy") == []


def test_exact_layers_import_no_numpy():
    """ratlin and hamclass decide everything on exact data; floats live
    only in the sampling layers."""
    assert imports_of("numpy", ("ratlin", "hamclass")) == []
