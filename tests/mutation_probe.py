"""Mutation probe: every line in src/momentforge must be able to fail a test.

A site is one place where one of five operators applies:

* swap a binary `+` and `-`;
* swap a comparison with its neighbour (`<` `<=`, `>` `>=`, `==` `!=`,
  `is` `is not`, `in` `not in`);
* swap `and` and `or`;
* raise an int constant with |v| <= 10 by one;
* drop a unary `-` or `not`.

Each mutant runs on its own copy of src/, in a temporary working directory,
with a fixed hash seed and `--hypothesis-seed=0`, under a 60 s timeout (a
timeout counts as killed) and a 2 GiB address-space cap set inside the
child.  It first runs the golden and acceptance tests and its module's
test files, stopping at the first failure; a mutant that survives them
is re-run against the whole suite before it counts as a survivor.  A
survivor is resolved by a test that kills it, by deleting the code, or by
an entry in EQUIVALENT below with a one-line reason.

    python tests/mutation_probe.py                  # every site, 2 workers
    python tests/mutation_probe.py --module ratlin  # one module's sites
    python tests/mutation_probe.py --check          # EQUIVALENT is live

The full run takes about an hour of CPU, 30 to 45 minutes on two workers.
It prints, per module, the sites, the killed and the survivors, and each
survivor as `module:line op` with its source line; it exits 1 when a
survivor is not listed as equivalent, or a listed one is killed.
EQUIVALENT names a site by its module, its stripped source line and its
operator (`#k` for the k-th site with that line and operator), so moving
a line changes no entry.  `--check` runs no test: it exits 1 when an
entry no longer names a live site.

Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
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
TIMEOUT_S = 60
MEMORY_CAP = 2 * 2 ** 30
WORKERS = 2

# (module, stripped source line, operator) -> why the mutant cannot change
# behaviour
EQUIVALENT = {
    ("cli", "if torus_dim else ((), 1)", "1->2"):
        ("with no torus the spheres are scaled by den and the form divides "
         "them by den again, so any positive den reads one form"),
    ("ratlin", "for c in range(len(a[0]) if a else 0):", "0->1 #2"):
        "an empty a has no rows, so the first column breaks at r == rows",
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

    @property
    def name(self) -> str:
        return f"{self.module}:{self.line} {self.op}"

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


def _candidates(tree):
    """(walk index, node, slot, op text) for every site of a module."""
    for index, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.BoolOp) or isinstance(
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


def sites(module: str) -> list:
    """The module's sites in source order; the k-th site with the same
    source line text and operator, k > 1, gets a #k suffix."""
    text = (PACKAGE / f"{module}.py").read_text()
    lines = text.splitlines()
    found = []
    for index, node, slot, op in _candidates(ast.parse(text)):
        line = _op_line(node, slot)
        found.append((line, node.col_offset, index, slot, op))
    out, seen = [], {}
    for line, _, index, slot, op in sorted(found):
        source = lines[line - 1].strip()
        k = seen[source, op] = seen.get((source, op), 0) + 1
        out.append(Site(module, line, op if k == 1 else f"{op} #{k}",
                        source, index, slot))
    return out


def mutate(site: Site) -> str:
    """The module's source with the site's operator applied."""
    tree = ast.parse((PACKAGE / f"{site.module}.py").read_text())
    parents = {}
    for index, node in enumerate(ast.walk(tree)):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
        if index == site.index:
            target = node
    if isinstance(target, (ast.BinOp, ast.BoolOp)):
        target.op = _SWAP[type(target.op)]()
    elif isinstance(target, ast.Compare):
        target.ops[site.slot] = _SWAP[type(target.ops[site.slot])]()
    elif isinstance(target, ast.Constant):
        target.value += 1
    else:    # a dropped unary operator: its operand takes its place
        parent = parents[target]
        for field, value in ast.iter_fields(parent):
            if value is target:
                setattr(parent, field, target.operand)
            elif isinstance(value, list) and target in value:
                value[value.index(target)] = target.operand
    return ast.unparse(ast.fix_missing_locations(tree)) + "\n"


def run_tests(module: str | None, source: str | None, files) -> bool:
    """Whether the test files pass on a copy of src/ in which module reads
    source (module None: the copy is unchanged but for a round trip
    through ast.unparse of every module).  A timeout is a failure."""
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
        # the cap is set in the child itself: a preexec_fn is not safe
        # while the pool's other thread runs
        cmd = [sys.executable, "-c",
               "import resource, sys, pytest; resource.setrlimit("
               f"resource.RLIMIT_AS, ({MEMORY_CAP}, {MEMORY_CAP})); "
               "sys.exit(pytest.main(sys.argv[1:]))",
               "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0",
               *[str(TESTS / f) for f in files]]
        proc = subprocess.Popen(cmd, cwd=tmp, env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL,
                                start_new_session=True)
        try:
            return proc.wait(timeout=TIMEOUT_S) == 0
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return False


def all_test_files() -> list:
    return sorted(p.name for p in TESTS.glob("test_*.py"))


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--module", action="append", choices=MODULES,
                        help="probe only this module (repeatable)")
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
    print(f"{'module':<10} {'sites':>5} {'killed':>6} {'survived':>8} "
          f"{'listed':>6}")
    for m in modules:
        mine = [s for s in todo if s.module == m]
        if not mine:
            continue
        alive = [s for s in mine if survived[s]]
        listed = [s for s in alive if s.key in EQUIVALENT]
        print(f"{m:<10} {len(mine):>5} {len(mine) - len(alive):>6} "
              f"{len(alive):>8} {len(listed):>6}")
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
