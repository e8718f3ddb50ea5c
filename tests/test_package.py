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


def test_no_scipy_imports():
    """The package depends on numpy alone."""
    found = []
    for path in sorted(Path(momentforge.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []
