"""Properties of the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import momentforge


def package_nodes():
    """(module file, node) for every syntax node of the package."""
    for path in sorted(Path(momentforge.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            yield path.name, node


def test_no_assert_statements():
    """`python -O` strips assert statements, so checks in the package must
    raise explicitly."""
    assert [f"{name}:{node.lineno}" for name, node in package_nodes()
            if isinstance(node, ast.Assert)] == []


def test_no_tolerance_literals():
    """The package compares exactly: no float literal in (0, 1e-3), the
    range of absolute tolerances, is left in it."""
    assert [f"{name}:{node.lineno}" for name, node in package_nodes()
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0 < node.value < 1e-3] == []


def test_no_environment_reads():
    """Every input is a flag or a scenario key: no module reads os.environ
    or calls os.getenv."""
    readers = {"environ", "environb", "getenv", "getenvb"}
    assert [f"{name}:{node.lineno}" for name, node in package_nodes()
            if isinstance(node, ast.Attribute) and node.attr in readers
            or isinstance(node, ast.ImportFrom) and node.module == "os"
            and readers & {alias.name for alias in node.names}] == []


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
    """Every module but sample decides on exact data; numpy, and the floats
    and lattice numerators with it, live only in the sampling module."""
    assert {at.split(":")[0] for at in imports_of("numpy")} == {"sample.py"}


def test_exact_kernels_import_no_fractions():
    """ratlin computes on integer numerators over one denominator, the one
    exact matrix type past the parser; Fractions are built only where the
    CLI renders a value."""
    assert imports_of("fractions", ("ratlin",)) == []


def test_only_the_form_constructor_scales_rationals():
    """ratlin._scaled, which reads Fraction rows into integer numerators,
    is referenced only in geom, where the form constructor takes caller
    rows; every other exact matrix is a pair (N, d) already."""
    users = {name for name, node in package_nodes()
             if isinstance(node, ast.Name) and node.id == "_scaled"
             or isinstance(node, ast.Attribute) and node.attr == "_scaled"}
    assert users == {"geom.py"}


def test_exact_subcommands_load_no_numpy():
    """The subcommands that sample nothing run without loading numpy."""
    code = ("import sys; from momentforge import cli; "
            "status = cli.main([sys.argv[1], '--scenario', 's2xt2_reduce']); "
            "print(status, 'numpy' in sys.modules)")
    src = str(Path(momentforge.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get(
               "PYTHONPATH", "")])}
    for cmd in ("classify", "integralize", "equivariance", "betti",
                "reduce"):
        proc = subprocess.run([sys.executable, "-c", code, cmd], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.stdout.splitlines()[-1] == "0 False", (cmd, proc.stderr)


def test_every_public_name_is_used():
    """No test-only code in the package: every public function, class and
    method is referenced (as a name, an attribute or an import) by the
    package itself or by the acceptance gate."""
    root = Path(momentforge.__file__).parent
    defined = {}
    used = set()
    sources = sorted(root.glob("*.py"))
    sources.append(Path(__file__).parent / "test_acceptance.py")
    for path in sources:
        tree = ast.parse(path.read_text())
        if path.parent == root:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined[f"{path.stem}.{node.name}"] = node.name
                if isinstance(node, ast.ClassDef):
                    defined.update(
                        (f"{path.stem}.{node.name}.{item.name}", item.name)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = sorted(qual for qual, name in defined.items()
                    if not name.startswith("_") and name not in used)
    assert unused == []
