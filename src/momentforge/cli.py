"""Batch driver: scenario files in, deterministic reports and CSV tables
out.

Scenario files are INI text with one section per concern, read by
_read_ini; see the bundled files under momentforge/scenarios for the format.
Exit codes: 0 success, 1 a check failed, 2 configuration error.  The seed
precedence is flag > scenario file > 0.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from pathlib import Path

from . import convex, equiv, geom, hamclass, moment as moment_mod, reduction
from .geom import ActionSpec, ProductManifold


class ConfigError(Exception):
    """A bad input or an over-budget request: exit 2.  Raised from inside a
    stage, it carries the report of the stages that completed, with the
    stage recorded as a failed `within_budget` key."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def _too_long(where: str) -> ConfigError:
    """str's ValueError on an int of more digits than it prints, which no
    parse-time bound rules out: Smith invariants grow with the input."""
    return ConfigError(f"{where}: a value has more than "
                       f"{sys.get_int_max_str_digits()} digits to print")


def _fractions(rows, d: int) -> list:
    """The exact rows rows / d as report values: ints, and a Fraction only
    where d does not divide the numerator."""
    return [[x // d if x % d == 0 else Fraction(x, d) for x in row]
            for row in rows]


# ---------------------------------------------------------------------------
# scenario parsing

@dataclass
class Scenario:
    path: str
    manifold: ProductManifold
    action: ActionSpec
    max_denominator: int
    seed: int
    samples: int
    coverage_samples: int
    grid: int
    checks: tuple
    reduce_indices: tuple = ()
    reduce_values: tuple = ()
    expect: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return Path(self.path).stem


# what Fraction(token) accepts (Python 3.11 on), spaces aside
_TOKEN = re.compile(r"([-+]?)(?=\d|\.\d)(\d*|\d+(?:_\d+)*)(?:/(\d+(?:_\d+)*)"
                    r"|(?:\.(\d*|\d+(?:_\d+)*))?(?:[eE]([-+]?\d+(?:_\d+)*))?)")


def _number(token: str, where: str) -> tuple:
    """A scenario number as (numerator, denominator): an integer, a decimal
    (its |exponent| <= 4300, checked before 10 ** e is built) or p/q, with
    a finite float value.  That caps it at 309 digits: Python prints no
    int of more than 4300 digits.  A plain integer or decimal skips the
    regex."""
    try:    # AttributeError: no match, so no groups
        whole, _, frac = token.partition(".")
        unsigned = whole[1:] if whole[:1] in ("+", "-") else whole
        if (unsigned + frac).isdecimal():    # the digits \d and int read
            n, d = int(whole + frac), 10 ** len(frac)
        else:
            sign, whole, den, frac, exp = _TOKEN.fullmatch(token).groups()
            frac, e = frac or "", int(exp or 0)
            if abs(e) > 4300:
                raise ConfigError(f"{where}: {token!r} has |exponent| > 4300")
            n = int(sign + (whole + frac or "0")) * 10 ** max(e, 0)
            d = int(den or 10 ** len(frac.replace("_", ""))) \
                * 10 ** max(-e, 0)
        n / d    # OverflowError past the float range, ZeroDivisionError
    except (AttributeError, ArithmeticError, ValueError) as exc:
        raise ConfigError(f"{where}: {token!r} is not a finite "
                          "number") from exc
    return n, d


def _parse_matrix(text: str, where: str) -> tuple:
    """Rows of exact numbers as (N, d), integer rows over one denominator;
    a ragged matrix is rejected here, so no kernel re-checks a shape."""
    rows = [[_number(x, where) for x in chunk.split()]
            for chunk in text.split(";") if chunk.strip()]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ConfigError(f"{where}: ragged matrix")
    d = math.lcm(*[d for row in rows for _, d in row])
    return [[n * (d // e) for n, e in row] for row in rows], d


def _parse_generators(text: str, torus_dim: int, n_spheres: int,
                      where: str):
    translations, rotations = [], []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "|" not in chunk:
            raise ConfigError(f"{where}: generator {chunk!r} needs a '|' "
                              "between translations and rotations")
        left, right = chunk.split("|", 1)
        try:
            v = [int(x) for x in left.split()]
            s = [int(x) for x in right.split()]
        except ValueError as exc:
            raise ConfigError(f"{where}: bad integer in {chunk!r}") from exc
        if len(v) != torus_dim:
            raise ConfigError(f"{where}: expected {torus_dim} translation "
                              f"entries in {chunk!r}")
        if len(s) != n_spheres:
            raise ConfigError(f"{where}: expected {n_spheres} rotation "
                              f"speeds in {chunk!r}")
        translations.append(tuple(v))
        rotations.append(tuple(s))
    if not translations:
        raise ConfigError(f"{where}: no generators")
    return tuple(translations), tuple(rotations)


def _read_ini(text: str, path) -> dict:
    """The scenario file as {section: {key: value}}, in one pass: [section]
    headers, `key = value` lines (keys lower-cased, both sides stripped),
    full-line # and ; comments, and continuation lines, indented past
    their key's line, which join its value with newlines (a blank line
    inside a value is kept, trailing ones are not).  Nothing is
    interpolated, and # or ; after a value is part of it.  A duplicate
    section or key, a key before any section, a line that is neither, and
    a [DEFAULT] section raise ConfigError with the line number."""
    sections, values, key = {}, None, None
    for number, line in enumerate(text.split("\n"), 1):
        stripped = line.strip()
        if not stripped or stripped[0] in "#;":
            if not stripped and key is not None:
                values[key] += "\n"
            continue
        depth = len(line) - len(line.lstrip())
        if key is not None and depth > indent:
            values[key] += "\n" + stripped
            continue
        indent, where = depth, f"{path}: line {number}:"
        if stripped[0] == "[":
            name, key = stripped[1:-1], None
            if stripped[-1] != "]" or not name:
                raise ConfigError(f"{where} a section header is [name] "
                                  f"alone on its line, not {stripped!r}")
            if name == "DEFAULT":
                raise ConfigError(f"{where} a [DEFAULT] section is not "
                                  "supported")
            if name in sections:
                raise ConfigError(f"{where} section [{name}] appears twice")
            values = sections[name] = {}
            continue
        key, eq, value = stripped.partition("=")
        key = key.rstrip().lower()
        if not eq or not key:
            raise ConfigError(f"{where} expected 'key = value', not "
                              f"{stripped!r}")
        if values is None:
            raise ConfigError(f"{where} key {key!r} comes before any "
                              "[section] header")
        if key in values:
            raise ConfigError(f"{where} [{name}] {key} appears twice")
        values[key] = value.lstrip()
    return {name: {k: v.rstrip() for k, v in keys.items()}
            for name, keys in sections.items()}


# [pipeline] key -> (default, minimum)
_PIPELINE = {"seed": (0, 0), "max_denominator": (64, 1),
             "samples": (1000, 1), "coverage_samples": (20000, 1),
             "grid": (50, 1)}
# [expect] key -> whether its value is a matrix (else an integer)
_EXPECT = {"c": False, "r": False, "k": False, "z": True,
           "omega_prime_torus": True}


def load_scenario(path, *, seed=None, sign=None,
                  max_denominator=None) -> Scenario:
    """Parse a scenario file into exact data, raising ConfigError at the
    first bad key: the manifold, the action, the checks, [reduce], then
    the [expect] and [pipeline] keys, each through its key table.  The
    seed, sign and max_denominator arguments override the file; the seed
    is resolved flag > file > 0."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from exc
    ini = _read_ini(text, path)

    def get(section, key, default=None):
        return ini.get(section, {}).get(key, default)

    def need(section, key):
        value = get(section, key)
        if value is None:
            raise ConfigError(f"{path}: missing [{section}] {key}")
        return value

    def integer(section, key, default=None, minimum=None, value=None):
        """The key as an integer, or value when an override is given, at
        least minimum when one is given."""
        if value is None:
            try:
                value = int(get(section, key, default))
            except ValueError as exc:
                raise ConfigError(f"{path}: [{section}] {key} not an "
                                  "integer") from exc
        if minimum is not None and value < minimum:
            bound = "non-negative" if minimum == 0 else f"at least {minimum}"
            raise ConfigError(f"{path}: {key} must be {bound}, got {value}")
        return value

    torus_dim = integer("manifold", "torus_dim", 0, 0)
    omega, den = _parse_matrix(need("manifold", "torus_omega"),
                               f"{path} [manifold] torus_omega") \
        if torus_dim else ((), 1)
    if len(omega) != torus_dim:
        raise ConfigError(f"{path}: torus_omega is not "
                          f"{torus_dim}x{torus_dim}")
    where = f"{path} [manifold] spheres"
    spheres = [Fraction(*_number(x, where)) * den
               for x in get("manifold", "spheres", "").split()]
    try:
        manifold = ProductManifold(omega, spheres, den)
    except ValueError as exc:
        raise ConfigError(f"{path}: [manifold] {exc}") from exc

    translations, rotations = _parse_generators(
        need("action", "generators"), torus_dim, len(spheres),
        f"{path} [action] generators")
    sign_text = sign or get("action", "sign", "plus")
    if sign_text not in ("plus", "minus"):
        raise ConfigError(f"{path}: sign must be 'plus' or 'minus'")
    try:
        action = ActionSpec(translations, rotations,
                            1 if sign_text == "plus" else -1)
    except ValueError as exc:
        raise ConfigError(f"{path}: [action] {exc}") from exc

    checks = tuple((get("checks", "run")
                    or "classify integralize moment equivariance convexity "
                       "betti").split())
    for check in checks:
        if check not in CHECK_ORDER:
            raise ConfigError(f"{path}: unknown check {check!r}")

    reduce_indices: tuple = ()
    reduce_values: tuple = ()
    if "reduce" in ini:
        try:
            reduce_indices = tuple(
                int(x) for x in need("reduce", "generators").split())
        except ValueError as exc:
            raise ConfigError(f"{path}: [reduce] {exc}") from exc
        reduce_values = tuple(
            Fraction(*_number(x, f"{path} [reduce] values"))
            for x in need("reduce", "values").split())
        if len(reduce_indices) != len(reduce_values):
            raise ConfigError(f"{path}: [reduce] needs one value per "
                              "generator")
        if len(set(reduce_indices)) != len(reduce_indices):
            raise ConfigError(f"{path}: [reduce] a generator is listed "
                              "twice")
        for idx in reduce_indices:
            if not 0 <= idx < action.r_total:
                raise ConfigError(f"{path}: [reduce] generator {idx} out of "
                                  f"range (0..{action.r_total - 1})")
            if any(action.translations[idx]):
                raise ConfigError(f"{path}: [reduce] generator {idx} "
                                  "translates the torus; only sphere "
                                  "rotations can be reduced")

    expect = {}
    if "expect" in ini:
        for key, raw in ini["expect"].items():
            if key not in _EXPECT:
                raise ConfigError(f"{path}: unknown expectation {key!r}")
            if key == "omega_prime_torus" and not torus_dim:
                raise ConfigError(f"{path}: [expect] omega_prime_torus "
                                  "needs a torus factor (torus_dim = 0)")
            expect[key] = _fractions(*_parse_matrix(
                raw, f"{path} [expect] {key}")) if _EXPECT[key] \
                else integer("expect", key)

    overrides = {"seed": seed, "max_denominator": max_denominator}
    pipeline = {}
    for key, (default, minimum) in _PIPELINE.items():
        pipeline[key] = integer("pipeline", key, default, minimum,
                                overrides.get(key))

    return Scenario(path=str(path), manifold=manifold,
                    action=action, checks=checks,
                    reduce_indices=reduce_indices,
                    reduce_values=reduce_values, expect=expect, **pipeline)


def bundled_scenario_path(name: str):
    ref = resources.files("momentforge") / "scenarios" / f"{name}.ini"
    if not ref.is_file():
        raise ConfigError(f"no bundled scenario named {name!r}")
    return ref


# ---------------------------------------------------------------------------
# report

@dataclass
class Report:
    scenario: str
    provenance: dict
    sections: dict = field(default_factory=dict)   # check -> ordered dict
    matrices: list = field(default_factory=list)   # (name, rows)
    samples: tuple = None                          # (header, numerators)
    coverage: object = None                        # sample.CoverageReport
    stream: object = None                          # sample.Stream of the op
    failures: list = field(default_factory=list)
    _text: str = field(default=None, init=False, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return not self.failures

    def add(self, check: str, key: str, value):
        self.sections.setdefault(check, {})[key] = value
        self._text = None

    def matrix(self, name: str, rows):
        self.matrices.append((name, [list(r) for r in rows]))

    def require(self, check: str, key: str, ok: bool):
        self.add(check, key, bool(ok))
        if not ok:
            self.failures.append(f"{check}.{key}")

    def render(self) -> str:
        """The text report, built once until add or require changes it (it
        holds no matrix)."""
        if self._text is not None:
            return self._text
        lines = [f"scenario = {self.scenario}"]
        for key in sorted(self.provenance):
            lines.append(f"{key} = {_fmt(self.provenance[key])}")
        for check in self.sections:
            lines += ["", f"[{check}]"]
            for key, value in self.sections[check].items():
                try:
                    lines.append(f"{key} = {_fmt(value)}")
                except ValueError as exc:
                    raise _too_long(f"report key [{check}] {key}") from exc
        lines += ["", f"overall = {'pass' if self.passed else 'FAIL'}"]
        if self.failures:
            lines.append("failures = " + ", ".join(self.failures))
        self._text = "\n".join(lines) + "\n"
        return self._text


def emit_report(report: Report, out_dir) -> list:
    """Write the structured text report plus the three CSV tables; returns
    the written paths.  Bytes are a pure function of the report: the
    sample table holds integers, its denominators in the header, and is
    streamed into its file in blocks of rows (sample.table_blocks)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def write(name, data: bytes, blocks=()):
        p = out / name
        with p.open("wb") as f:
            f.write(data)
            f.writelines(blocks)
        written.append(p)

    write("report.txt", report.render().encode())
    if report.samples is not None:
        from . import sample
        header, rows = report.samples
        try:
            write("moment_samples.csv", (",".join(header) + "\n").encode(),
                  sample.table_blocks(rows))
        except ValueError as exc:    # the Python-int table alone
            raise _too_long("moment_samples.csv") from exc
    rows = ["grid_resolution,n_counted_cells,n_hit_cells,fraction,"
            "empty_cell_witnesses"]
    if report.coverage is not None:
        cov = report.coverage
        rows.append(f"{cov.grid_resolution},{cov.n_counted_cells},"
                    f"{cov.n_hit_cells},{_fmt(cov.fraction)},"
                    + " ".join(str(e) for e in cov.empty_cells))
    write("coverage.csv", ("\n".join(rows) + "\n").encode())
    rows = ["name,i,j,value"]
    for name, mat in report.matrices:
        try:
            rows += [f"{name},{i},{j},{v!s}" for i, r in enumerate(mat)
                     for j, v in enumerate(r)]
        except ValueError as exc:
            raise _too_long(f"matrix {name}") from exc
    write("matrices.csv", ("\n".join(rows) + "\n").encode())
    return written


# ---------------------------------------------------------------------------
# pipeline

def run_scenario(scenario: Scenario, requested=None) -> Report:
    """Run the prelude, then every STAGES entry that the request (by
    default the scenario's checks) names, in table order.  The prelude
    classifies the action and integralizes the form; its moment is what
    every stage reads, so a failed integralization ends the run there.
    Before it, each sample count of a stage that will run is budgeted:
    the count times the manifold's dim must fit geom.MAX_SAMPLE_ENTRIES.
    Deterministic for a fixed (scenario, seed)."""
    wanted = requested or scenario.checks
    dim = scenario.manifold.dim
    for stage, key in (("moment", "samples"),
                       ("convexity", "coverage_samples")):
        value = getattr(scenario, key)
        if stage in wanted and value * dim > geom.MAX_SAMPLE_ENTRIES:
            raise ConfigError(f"{scenario.path}: {key} = {value} needs "
                              f"{value * dim} sample entries (dim {dim}), "
                              "above the budget of "
                              f"{geom.MAX_SAMPLE_ENTRIES}")
    report = Report(scenario.name, {
        "seed": scenario.seed,
        "sign": "plus" if scenario.action.sign == 1 else "minus",
        "max_denominator": scenario.max_denominator,
        "samples": scenario.samples,
        "grid": scenario.grid,
    })
    mom = _prelude(report, scenario)
    for stage, run in STAGES.items():
        if mom is not None and stage in wanted:
            run(report, scenario, mom)
    return report


def _expect(report, scenario, check: str, key: str, observed, name=None):
    """Require the observed integer or matrix to equal the scenario's
    [expect] key, when it sets one."""
    if key in scenario.expect:
        report.require(check, f"{name or key}_matches_expected",
                       observed == scenario.expect[key])


def _prelude(report, scenario):
    """Classify the action and integralize the form.  Returns the moment
    of the integral form, or None when rounding breaks the form at every
    denominator bound."""
    M, A = scenario.manifold, scenario.action
    p = hamclass.period_matrix(A, M)
    cls = hamclass.classify_action(p)
    report.add("classify", "c", cls.c)
    report.add("classify", "r", cls.r)
    report.add("classify", "b1", M.b1)
    diag = A.effectiveness_diagonal()
    report.add("classify", "effective", diag[:A.r_total] == [1] * A.r_total)
    report.add("classify", "effectiveness_diagonal", diag)
    report.matrix("period_matrix", _fractions(*p))
    report.matrix("hamiltonian_basis", cls.hamiltonian_basis)
    report.matrix("complement_generators", cls.complement_generators)
    _expect(report, scenario, "classify", "c", cls.c)
    _expect(report, scenario, "classify", "r", cls.r)
    try:
        result = hamclass.integralize_with_retry(M, scenario.max_denominator)
    except hamclass.RoundingBrokeNondegeneracy as exc:
        report.add("integralize", "error", f"{type(exc).__name__}: {exc}")
        report.require("integralize", "converged", False)
        return None
    omega_prime = result.omega_prime
    report.add("integralize", "k", result.k)
    report.add("integralize", "max_deviation", result.max_deviation)
    report.add("integralize", "q", list(result.q))
    torus = _fractions(omega_prime.torus, omega_prime.den)
    if torus:
        report.matrix("omega_prime_torus", torus)
    report.matrix("omega_prime_spheres",
                  _fractions([omega_prime.sphere_coeffs], omega_prime.den))
    _expect(report, scenario, "integralize", "k", result.k)
    _expect(report, scenario, "integralize", "omega_prime_torus", torus,
            "omega_prime")
    return moment_mod.generalized_moment(A, omega_prime, cls)


def _run_moment(report, scenario, mom):
    from . import sample
    report.add("moment", "c", mom.c)
    report.add("moment", "r", mom.r)
    report.matrix("mu2_covectors", mom.torus_covectors)
    report.stream = sample.Stream(mom.omega_prime, scenario.seed)
    report.samples = report.stream.table(mom, scenario.samples)
    if mom.r:
        # the straight lift minus the one shifted by the loop e_0: exactly
        # -<covector, e_0>, an integer, as the torus slots are integral
        report.add("moment", "path_difference",
                   -mom.torus_covectors[0][0])
    for i, cov in enumerate(mom.torus_covectors):
        report.add("moment", f"fiber_components_{i}",
                   moment_mod.fiber_connected_factorization(cov))


def _run_equivariance(report, scenario, mom):
    z = equiv.cocycle_matrix(mom)
    report.matrix("cocycle", z)
    _expect(report, scenario, "equivariance", "z", z)
    iso = equiv.isotropic_orbit_test(mom.action, mom.covectors)
    eq = equiv.exact_equivariance(mom, z, iso)
    report.add("equivariance", "max_mu2_error", eq.max_mu2_error)
    report.add("equivariance", "max_mu1_invariance_error",
               eq.max_mu1_invariance_error)
    report.require("equivariance", "equivariant", eq.passed)
    nat = equiv.natural_equivariance(mom, z, iso)
    report.add("equivariance", "has_fixed_points", nat.has_fixed_points)
    report.add("equivariance", "orbits_isotropic", nat.orbits_isotropic)
    report.add("equivariance", "naturally_equivariant",
               nat.naturally_equivariant)
    free = equiv.local_freeness_check(mom, z)
    report.add("equivariance", "z_rank", free.z_rank)
    report.add("equivariance", "local_freeness", free.note)


def _run_convexity(report, scenario, mom):
    from . import sample
    grid, c, r = scenario.grid, mom.c, mom.r
    cells = grid ** (c + r)
    if cells > sample.MAX_COVERAGE_CELLS:
        _over_budget(report, "convexity",
                     f"grid = {grid} with c = {c}, r = {r} needs {cells} "
                     "coverage cells, above the budget of "
                     f"{sample.MAX_COVERAGE_CELLS}")
    g = len(convex.pole_generators(mom))
    if 2 ** g > convex.MAX_POLES:
        _over_budget(report, "convexity",
                     f"{g} spheres enter mu1, so the polytope has 2^{g} "
                     f"pole images, above the budget of {convex.MAX_POLES}")
    polytope = convex.moment_polytope(mom)
    report.add("convexity", "hull_vertices",
               _fractions(polytope.vertices, polytope.den))
    cov = sample.product_coverage_check(
        mom, polytope, scenario.grid, scenario.coverage_samples,
        report.stream or sample.Stream(mom.omega_prime, scenario.seed))
    report.add("convexity", "coverage_fraction", cov.fraction)
    report.require("convexity", "coverage_ok", cov.fraction >= 0.99)
    report.coverage = cov
    if mom.r:
        lift = convex.cycle_lift(mom)
        report.add("convexity", "cycle_direction", list(lift.direction))
        report.add("convexity", "cycle_winding", lift.winding)


def _over_budget(report, check: str, why: str):
    """Stop the run at a stage whose request exceeds a budget; the report
    keeps the stages that completed."""
    report.require(check, "within_budget", False)
    raise ConfigError(f"{check}: {why}", report)


def _run_betti(report, scenario, mom):
    rep = convex.betti_bound_check(mom)
    report.add("betti", "rank", rep.rank)
    report.add("betti", "r", rep.r)
    report.add("betti", "b1", rep.b1)
    report.add("betti", "equality", rep.equality)


def _run_reduce(report, scenario, mom):
    """Stage-wise reduction: one generator at a time, each stage required
    to be free and regular."""
    original = list(range(mom.action.r_total))
    for stage, (idx, val) in enumerate(zip(scenario.reduce_indices,
                                           scenario.reduce_values)):
        try:
            reduced = reduction.reduce_at(mom, original.index(idx), val)
        except reduction.NotFree:
            report.require("reduce", f"stage{stage}_free", False)
            break
        except reduction.NotRegular:
            report.require("reduce", f"stage{stage}_regular", False)
            break
        report.require("reduce", f"stage{stage}_regular", True)
        report.add("reduce", f"stage{stage}_dimension",
                   reduced.omega_prime.dim)
        report.add("reduce", f"stage{stage}_heredity_applicable",
                   reduction.heredity_check(reduced).applicable)
        original = [j for j in original if j != idx]
        mom = reduced


# the stages after the prelude, in the order they run; each takes
# (report, scenario, moment) and calls the library through its modules
STAGES = {"moment": _run_moment, "equivariance": _run_equivariance,
          "convexity": _run_convexity, "betti": _run_betti,
          "reduce": _run_reduce}
CHECK_ORDER = ("classify", "integralize", *STAGES)


# ---------------------------------------------------------------------------
# entry point

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="momentforge",
        description="construct and verify generalized moment maps on "
                    "products of flat tori and spheres")
    parser.add_argument("command", choices=CHECK_ORDER + ("all",))
    parser.add_argument("--scenario", required=True,
                        help="bundled scenario name or path to an .ini file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="report directory")
    parser.add_argument("--sign", choices=("plus", "minus"), default=None)
    parser.add_argument("--max-denominator", type=int, default=None,
                        help="bound on k, the common denominator of the "
                             "rounded form's class")
    args = parser.parse_args(argv)

    try:
        path = Path(args.scenario)
        if not path.is_file():
            path = bundled_scenario_path(args.scenario)
        scenario = load_scenario(path, seed=args.seed, sign=args.sign,
                                 max_denominator=args.max_denominator)
        requested = None if args.command == "all" else (args.command,)
        report = run_scenario(scenario, requested)
        status = 0 if report.passed else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        if exc.report is None:
            return 2
        report, status = exc.report, 2
    try:
        sys.stdout.write(report.render())
        if args.out:
            try:
                emit_report(report, args.out)
            except OSError as exc:
                raise ConfigError(f"cannot write {args.out}: {exc}") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
