"""The mutation probe's own rules: which statements it deletes, that every
site mutates, how `--since` reads a diff, how a child is capped, and that
EQUIVALENT is live.  Nothing here runs a mutant."""

import ast
import importlib.util
import signal
import subprocess
import sys
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent / "mutation_probe.py"
spec = importlib.util.spec_from_file_location("mutation_probe", PATH)
probe = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = probe    # dataclasses look their module up
spec.loader.exec_module(probe)

TOY = '''"""Module docstring."""
import math
LIMIT = 3


def lone(x):
    return x


def pair(x):
    """Docstring."""
    import os
    y = x + 1
    return y


class Point:
    """Docstring."""
    x: int
    y: int = 0

    def norm(self):
        """Docstring."""
        return math.hypot(self.x, self.y)


def branches(x):
    if x:
        a = 1
        b = 2
    else:
        a = 3
    for i in range(x):
        def inner():
            return i
        x -= i
    try:
        x = 1 / x
        x += 1
    except ZeroDivisionError:
        x = 0
        raise
    return (a, b,
            x)
'''


def deleted_sites(text):
    """The statement sites of text."""
    return [s for s in probe.sites("toy", text) if s.family == "statement"]


def deleted(text=TOY):
    """(line, stripped first line, op) of every statement site of text."""
    return [(s.line, s.source, s.op) for s in deleted_sites(text)]


def test_statement_sites_follow_the_skip_rules():
    """Module-level statements, docstrings, imports, defs and classes are
    never sites, nor is a body of one statement besides its docstring
    (lone, norm, the else branch, inner); every other statement is,
    nested ones included."""
    assert deleted() == [
        (13, "y = x + 1", "delete"),
        (14, "return y", "delete"),
        (19, "x: int", "delete"),
        (20, "y: int = 0", "delete"),
        (28, "if x:", "delete"),
        (29, "a = 1", "delete"),
        (30, "b = 2", "delete"),
        (33, "for i in range(x):", "delete"),
        (36, "x -= i", "delete"),
        (37, "try:", "delete"),
        (38, "x = 1 / x", "delete"),
        (39, "x += 1", "delete"),
        (41, "x = 0", "delete"),
        (42, "raise", "delete"),
        (43, "return (a, b,", "delete"),
    ]


def test_a_statement_site_spans_its_lines_and_becomes_pass():
    site = deleted_sites(TOY)[-1]
    assert (site.line, site.last, site.family) == (43, 44, "statement")
    mutant = probe.mutate(site, TOY)
    assert mutant.rstrip().endswith("raise\n    pass")


def test_equal_lines_are_numbered():
    text = "def f(x):\n    x += 1\n    x += 1\n    return x\n"
    assert [s.op for s in deleted_sites(text)] == [
        "delete", "delete #2", "delete"]


@pytest.mark.parametrize("module", probe.MODULES)
def test_every_site_mutates_to_new_parseable_source(module):
    """Each site of both families gives source that parses and differs
    from the module's own (both read back through ast.unparse)."""
    text = (probe.PACKAGE / f"{module}.py").read_text()
    original = ast.unparse(ast.parse(text)) + "\n"
    found = probe.sites(module, text)
    assert {s.family for s in found} == set(probe.FAMILIES)
    for site in found:
        mutant = probe.mutate(site, text)
        ast.parse(mutant)
        assert mutant != original, site.name


DIFF = """diff --git a/src/momentforge/toy.py b/src/momentforge/toy.py
index 1111111..2222222 100644
--- a/src/momentforge/toy.py
+++ b/src/momentforge/toy.py
@@ -11,0 +12 @@ def pair(x):
+    import os
@@ -28 +29 @@ def branches(x):
-        a = 0
+        a = 1
@@ -43 +44 @@ def branches(x):
-            y)
+            x)
diff --git a/tests/test_toy.py b/tests/test_toy.py
--- a/tests/test_toy.py
+++ b/tests/test_toy.py
@@ -1 +1 @@
-a = 1
+a = 2
"""


def test_since_picks_the_sites_on_added_lines(monkeypatch):
    """The diff adds line 12 (an import, no site) and changes line 29 and
    the last line of a two-line return; the test file is no module.  A
    statement site is picked when any of its lines changed: `if x:`
    (lines 28-32), `a = 1` and the return on lines 43-44; so is the
    constant on line 29, and no other site."""
    monkeypatch.setattr(probe, "MODULES", probe.MODULES + ("toy",))
    changed = probe.changed_lines(DIFF)
    assert changed == {"toy": {12, 29, 44}}
    todo = probe.sites("toy", TOY)
    picked = probe.touched(todo, changed)
    assert [(s.line, s.op) for s in picked] == [
        (28, "delete"), (29, "delete"), (29, "1->2"), (43, "delete")]
    assert probe.touched(todo, {}) == []


def test_context_lines_are_not_changes(monkeypatch):
    """A diff with context counts only its + lines."""
    monkeypatch.setattr(probe, "MODULES", probe.MODULES + ("toy",))
    diff = ("diff --git a/src/momentforge/toy.py b/src/momentforge/toy.py\n"
            "--- a/src/momentforge/toy.py\n+++ b/src/momentforge/toy.py\n"
            "@@ -12,3 +12,4 @@\n     y = x + 1\n-    return y\n"
            "+    z = y\n+    return z\n \n")
    assert probe.changed_lines(diff) == {"toy": {13, 14}}


def test_a_child_is_ended_by_its_cpu_cap():
    """A mutant's suite is capped in CPU time, which other load on the
    machine does not use up: a busy loop under a 1 s cap is killed, and a
    child inside its cap exits as its code says."""
    busy = subprocess.run(probe.limited("while True: pass", 1), timeout=60)
    assert busy.returncode == -signal.SIGKILL
    done = subprocess.run(probe.limited("raise SystemExit(3)", 1), timeout=60)
    assert done.returncode == 3


def test_every_equivalence_entry_names_a_live_site():
    assert probe.check() == []
