"""Mutation probe: every line in src/momentforge must be able to fail a test.

A site is one place where one of six operators applies.  Five form the
expression family, which asks how a line computes:

* swap a binary `+` and `-`;
* swap a comparison with its neighbour (`<` `<=`, `>` `>=`, `==` `!=`,
  `is` `is not`, `in` `not in`);
* swap `and` and `or`;
* raise an int constant with |v| <= 10 by one;
* drop a unary `-` or `not`.

The sixth, the statement family, asks whether a line is needed at all: it
replaces one statement with `pass` (statement deletion, Deng, Offutt and
Li 2013).  It applies to each statement of a function, method, class or
branch body that holds two or more statements besides its docstring, and
skips docstrings, imports, `def` and `class` statements and every
statement at module level.

Each mutant runs on its own copy of src/, in a temporary working directory,
with a fixed hash seed and `--hypothesis-seed=0`, under a cap of 60 s of
CPU time and 2 GiB of address space, both set inside the child, and a
600 s wall-clock backstop for a child that blocks; a mutant that hits
either limit counts as killed.  CPU time, unlike wall time, does not grow
with other load on the machine (the whole suite takes about 13 s of it).
It first runs the golden and acceptance tests and its module's test
files, stopping at the first failure; a mutant that survives them
is re-run against the whole suite before it counts as a survivor.  A
survivor is resolved by a test that kills it, by deleting the code, or by
an entry in EQUIVALENT below with a one-line reason.

    python tests/mutation_probe.py                  # every site, 2 workers
    python tests/mutation_probe.py --module ratlin  # one module's sites
    python tests/mutation_probe.py --since origin/main
    python tests/mutation_probe.py --check          # EQUIVALENT is live

`--since REV` probes only the sites, of both families, on the lines that
`git diff REV -- src/` adds or changes; a statement site counts as
changed when any of its lines is.  The full run takes about 45 minutes on
two workers, 21 of them for the statement family.  It prints, per module
and family, the sites, the killed and the survivors, and each survivor as
`module:line op` with its source line; it exits 1 when a survivor is not
listed as equivalent, or a listed one is killed.  EQUIVALENT names a site
by its module, its stripped (first) source line and its operator (`#k`
for the k-th site with that line and operator), so moving a line changes
no entry.  `--check` runs no test: it exits 1 when an entry no longer
names a live site.

Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
PACKAGE = SRC / "momentforge"
MODULES = ("cli", "ratlin", "sample", "geom", "convex", "moment",
           "reduction", "equiv", "hamclass")
# every mutant runs these first, then its module's own files
FIRST = ("test_golden.py", "test_acceptance.py")
OWN = {"sample": ("test_moment.py", "test_convex.py", "test_geom.py")}
CPU_S = 60
WALL_S = 600
MEMORY_CAP = 2 * 2 ** 30
WORKERS = 2
FAMILIES = ("expression", "statement")

# (module, stripped source line, operator) -> why the mutant cannot change
# behaviour
EQUIVALENT = {
    ("cli", "if torus_dim else ((), 1)", "1->2"):
        ("with no torus the spheres are scaled by den and the form divides "
         "them by den again, so any positive den reads one form"),
    ("ratlin", "for c in range(len(a[0]) if a else 0):", "0->1 #2"):
        "an empty a has no rows, so its one column finds no pivot",
    ("ratlin", "if h[r][c] < 0:", "<-><="):
        "the pivot h[r][c] is nonzero",
    ("ratlin", "if h[r][c] < 0:", "0->1"):
        "the pivot h[r][c] is a nonzero integer, so < 1 is < 0",
    ("sample", "self.head = np.empty((0, 0))", "0->1 #2"):
        ("a head of no rows bins nothing and is replaced, not read, by the "
         "table, whatever its width"),
    ("sample", "top = int(abs(nums).max(initial=0))", "0->1"):
        ("top only picks the dtype, and it is 0 only when every numerator is "
         "0, which any dtype pairs exactly"),
    ("sample", "dtype = exact_dtype(2 * res * e * max(spans))", "2->3"):
        ("a larger bound only picks Python ints sooner; the centres, and so "
         "the mask, are exact either way"),
    ("sample", "step = max(1, CELL_BLOCK_ENTRIES // c)", "1->2"):
        "a block size: the mask is the same for any positive step",
    ("sample", "width = (len(str(top)) + 1) // 2", "1->2"):
        ("an extra leading pair holds index 0, two NULs, which the final "
         "translate deletes"),
    ("sample", "step = max(1, TABLE_BLOCK_ENTRIES // a.shape[1])", "1->2"):
        "a block size: the bytes are the same for any positive step",
    ("sample", "if top < 2 ** 32:", "delete"):
        ("the uint32 cast only picks a faster dtype for the same quotients "
         "of magnitudes below 2^32"),
    ("convex", "sign = -1 if next(x for x in cof if x) < 0 else 1", "<-><="):
        "the first nonzero entry of cof is nonzero",
    ("convex", "sign = -1 if next(x for x in cof if x) < 0 else 1", "0->1"):
        "the first nonzero entry of cof is a nonzero integer, so < 1 is < 0",
    ("moment",
     "return 1 if p[manifold.sphere_offset(f) + 1] < 0 else -1",
     "<-><="):
        ("a rotated sphere's height is -1 or 1 (_require_fixed); an unrotated "
         "one has weight 0 and mu1 slope 0 at either orientation"),
    ("moment",
     "return 1 if p[manifold.sphere_offset(f) + 1] < 0 else -1",
     "0->1"):
        "as <-><= above: -1 < 1 and not 1 < 1 on a rotated sphere",
}


_SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add,
         ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
         ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
         ast.And: ast.Or, ast.Or: ast.And}
_TEXT = {ast.Add: "+", ast.Sub: "-", ast.Lt: "<", ast.LtE: "<=",
         ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
         ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
         ast.NotIn: "not in", ast.And: "and", ast.Or: "or",
         ast.USub: "-", ast.Not: "not"}


@dataclass(frozen=True)
class Site:
    module: str
    line: int
    op: str
    source: str    # the stripped source line
    index: int     # the node's position in ast.walk order
    slot: int      # which operator of a comparison
    last: int      # the site's last line: a statement's may be past line

    @property
    def name(self) -> str:
        return f"{self.module}:{self.line} {self.op}"

    @property
    def family(self) -> str:
        return "statement" if self.op.startswith("delete") else "expression"

    @property
    def key(self) -> tuple:
        """The site's EQUIVALENT key, which no line number enters."""
        return self.module, self.source, self.op


def _op_line(node, slot: int) -> int:
    """The line of the operator itself: the line after the operand before
    it ends, when the operand after it starts on a later line (this code
    breaks lines before binary operators)."""
    if isinstance(node, ast.BinOp):
        before, after = node.left, node.right
    elif isinstance(node, ast.Compare):
        before = node.left if slot == 0 else node.comparators[slot - 1]
        after = node.comparators[slot]
    elif isinstance(node, ast.BoolOp):
        before, after = node.values[0], node.values[1]
    else:
        return node.lineno
    return after.lineno if after.lineno > before.end_lineno else \
        before.end_lineno


def _swap(op) -> str:
    return f"{_TEXT[type(op)]}->{_TEXT[_SWAP[type(op)]]}"


_KEPT = (ast.Import, ast.ImportFrom, ast.FunctionDef, ast.AsyncFunctionDef,
         ast.ClassDef)


def _docstring(node) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _statements(tree):
    """The statements that may become `pass`: those of every body below
    module level that holds two or more statements besides docstrings,
    but for docstrings, imports, defs and classes."""
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            body = getattr(node, field, None)
            if isinstance(node, ast.Module) or not isinstance(body, list):
                continue
            body = [s for s in body if not _docstring(s)]
            if len(body) >= 2:
                yield from (s for s in body if not isinstance(s, _KEPT))


def _candidates(tree):
    """(walk index, node, slot, op text) for every site of a module."""
    deletable = set(map(id, _statements(tree)))
    for index, node in enumerate(ast.walk(tree)):
        if id(node) in deletable:
            yield index, node, 0, "delete"
        elif isinstance(node, ast.BoolOp) or isinstance(
                node, ast.BinOp) and type(node.op) in (ast.Add, ast.Sub):
            yield index, node, 0, _swap(node.op)
        elif isinstance(node, ast.Compare):
            for slot, op in enumerate(node.ops):
                yield index, node, slot, _swap(op)
        elif isinstance(node, ast.UnaryOp) and type(node.op) in (ast.USub,
                                                                ast.Not):
            yield index, node, 0, f"drop {_TEXT[type(node.op)]}"
        elif (isinstance(node, ast.Constant) and type(node.value) is int
              and abs(node.value) <= 10):
            yield index, node, 0, f"{node.value}->{node.value + 1}"


def _source(module: str) -> str:
    return (PACKAGE / f"{module}.py").read_text()


def sites(module: str, text: str | None = None) -> list:
    """The module's sites (text: its source, read from the package by
    default) in source order; the k-th site with the same source line text
    and operator, k > 1, gets a #k suffix."""
    text = _source(module) if text is None else text
    lines = text.splitlines()
    found = []
    for index, node, slot, op in _candidates(ast.parse(text)):
        line = _op_line(node, slot)
        last = node.end_lineno if op == "delete" else line
        found.append((line, node.col_offset, index, slot, op, last))
    out, seen = [], {}
    for line, _, index, slot, op, last in sorted(found):
        source = lines[line - 1].strip()
        k = seen[source, op] = seen.get((source, op), 0) + 1
        out.append(Site(module, line, op if k == 1 else f"{op} #{k}",
                        source, index, slot, last))
    return out


def mutate(site: Site, text: str | None = None) -> str:
    """The module's source (text, or the package's) with the site's
    operator applied."""
    tree = ast.parse(_source(site.module) if text is None else text)
    # ast.walk's order, stopped at the target, with each node's parent
    todo = deque([(tree, None)])
    for _ in range(site.index + 1):
        target, parent = todo.popleft()
        todo.extend((child, target) for child in ast.iter_child_nodes(target))
    if isinstance(target, (ast.BinOp, ast.BoolOp)):
        target.op = _SWAP[type(target.op)]()
    elif isinstance(target, ast.Compare):
        target.ops[site.slot] = _SWAP[type(target.ops[site.slot])]()
    elif isinstance(target, ast.Constant):
        target.value += 1
    else:    # a dropped unary operator's operand, or pass, takes its place
        new = ast.Pass() if isinstance(target, ast.stmt) else target.operand
        for field, value in ast.iter_fields(parent):
            if value is target:
                setattr(parent, field, new)
            elif isinstance(value, list) and target in value:
                value[value.index(target)] = new
    return ast.unparse(tree) + "\n"


def limited(code: str, cpu_s: int, memory: int = MEMORY_CAP) -> list:
    """The command that runs code in a Python child capped at memory bytes
    of address space and cpu_s seconds of CPU time, at which the kernel
    kills it, with no core file.  The caps are set in the child
    itself: a preexec_fn is not safe while the pool's other thread runs."""
    caps = (("RLIMIT_AS", memory), ("RLIMIT_CPU", cpu_s),
            ("RLIMIT_CORE", 0))
    return [sys.executable, "-c", "import resource\n" + "".join(
        f"resource.setrlimit(resource.{name}, ({v}, {v}))\n"
        for name, v in caps) + code]


def run_tests(module: str | None, source: str | None, files) -> bool:
    """Whether the test files pass on a copy of src/ in which module reads
    source (module None: the copy is unchanged but for a round trip
    through ast.unparse of every module).  A child ended by a limit
    fails."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns(
            "__pycache__", "*.egg-info"))
        for name in MODULES if module is None else ():
            path = src / "momentforge" / f"{name}.py"
            path.write_text(ast.unparse(ast.parse(path.read_text())) + "\n")
        if module is not None:
            (src / "momentforge" / f"{module}.py").write_text(source)
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0",
               "PYTHONDONTWRITEBYTECODE": "1", "OMP_NUM_THREADS": "1"}
        cmd = limited("import sys, pytest; "
                      "sys.exit(pytest.main(sys.argv[1:]))", CPU_S) + [
            "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0",
            *[str(TESTS / f) for f in files]]
        proc = subprocess.Popen(cmd, cwd=tmp, env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL,
                                start_new_session=True)
        try:
            return proc.wait(timeout=WALL_S) == 0
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return False


def all_test_files() -> list:
    """Every test file but the probe's own, which reads the package, not
    the mutant's copy, and so can kill no mutant."""
    return sorted(p.name for p in TESTS.glob("test_*.py")
                  if p.name != "test_mutation_probe.py")


def survives(site: Site) -> bool:
    """Whether the mutant passes its first files and then the suite."""
    source = mutate(site)
    first = list(FIRST) + [f for f in OWN.get(
        site.module, (f"test_{site.module}.py",)) if f not in FIRST]
    return (run_tests(site.module, source, first)
            and run_tests(site.module, source, all_test_files()))


def check() -> list:
    """The EQUIVALENT entries that name no live site."""
    live = {s.key for m in MODULES for s in sites(m)}
    return [key for key in EQUIVALENT if key not in live]


def changed_lines(diff: str) -> dict:
    """{module: the new-side line numbers that a unified diff adds or
    changes in it}, for the package modules the diff touches."""
    out, module, line = {}, None, None
    for text in diff.splitlines():
        if text.startswith("diff --git "):
            path = Path(text.rsplit(" b/", 1)[-1])
            module = path.stem if path.parent == Path("src/momentforge") \
                and path.stem in MODULES else None
            line = None
        elif module is None:
            continue
        elif text.startswith("@@ "):
            line = int(re.match(r"@@ -\S+ \+(\d+)", text)[1])
        elif line is None:
            continue    # a file header: ---, +++, mode or index lines
        elif text.startswith("+"):
            out.setdefault(module, set()).add(line)
            line += 1
        elif text.startswith(" "):
            line += 1
    return out


def touched(todo: list, changed: dict) -> list:
    """The sites with at least one line in changed (see changed_lines)."""
    return [s for s in todo
            if changed.get(s.module, set()).intersection(
                range(s.line, s.last + 1))]


def git_diff(rev: str) -> str:
    """`git diff REV -- src/`, with no context lines, from the repository
    root; an unknown REV raises CalledProcessError."""
    return subprocess.run(["git", "diff", "-U0", rev, "--", "src/"],
                          cwd=TESTS.parent, capture_output=True, text=True,
                          check=True).stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--module", action="append", choices=MODULES,
                        help="probe only this module (repeatable)")
    parser.add_argument("--since", metavar="REV",
                        help="probe only the sites on lines that `git diff "
                             "REV -- src/` adds or changes")
    parser.add_argument("--check", action="store_true",
                        help="only check that EQUIVALENT names live sites")
    args = parser.parse_args(argv)

    if args.check:
        stale = check()
        for key in stale:
            print(f"stale equivalence entry: {key}")
        print(f"{len(EQUIVALENT)} equivalence entries, {len(stale)} stale")
        return 1 if stale else 0

    modules = args.module or MODULES
    todo = [s for m in modules for s in sites(m)]
    if args.since:
        try:
            todo = touched(todo, changed_lines(git_diff(args.since)))
        except subprocess.CalledProcessError as exc:
            print(f"git diff {args.since} failed: {exc.stderr.strip()}")
            return 2
        print(f"{len(todo)} sites on lines changed since {args.since}")
    if not todo:
        return 0
    if not run_tests(None, None, all_test_files()):
        print("the unmutated copy fails the suite; nothing probed")
        return 2

    done = []

    def probe(site):
        alive = survives(site)
        done.append(site)
        print(f"[{len(done)}/{len(todo)}] {site.name}: "
              f"{'survived' if alive else 'killed'}", file=sys.stderr,
              flush=True)
        return alive

    with ThreadPoolExecutor(WORKERS) as pool:
        survived = dict(zip(todo, pool.map(probe, todo)))
    bad = 0
    print(f"{'module':<10} {'family':<10} {'sites':>5} {'killed':>6} "
          f"{'survived':>8} {'listed':>6}")
    for m in modules:
        for family in FAMILIES:
            mine = [s for s in todo if s.module == m and s.family == family]
            if not mine:
                continue
            alive = [s for s in mine if survived[s]]
            listed = [s for s in alive if s.key in EQUIVALENT]
            print(f"{m:<10} {family:<10} {len(mine):>5} "
                  f"{len(mine) - len(alive):>6} {len(alive):>8} "
                  f"{len(listed):>6}")
    for s, alive in survived.items():
        if alive and s.key not in EQUIVALENT:
            bad += 1
            print(f"SURVIVED {s.name}\t{s.source}")
        elif alive:
            print(f"listed   {s.name}\t{s.source}")
        elif s.key in EQUIVALENT:
            bad += 1
            print(f"KILLED but listed as equivalent: {s.name}\t{s.source}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
