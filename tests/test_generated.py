"""Generated scenarios as a regression suite: small random INI files over the
manifold universe, run through `momentforge all` twice.

Every input must end in exit 0, 1 or 2 without a traceback, exit 2 exactly
when it was drawn invalid, two runs must write the same bytes, and a report
must split the acting torus completely, c + r = r_total, as the draw's
[expect] c and r, computed from the drawn translations, say.  Where it has a
[betti] section, the circle covectors have rank r and r <= b1: the rank
argument that makes the circle part onto.  Where it writes a cocycle matrix,
Z is the pairing of the complement fields under omega_prime.  On a valid
draw, equiv's torus-slot products equal the dense ones over the orbit matrix
G, and the zeros that make them equal hold.  A valid draw is run again under
a unimodular change of generator basis and a permutation of its spheres, and
every report key that names a property of the action, not of its basis, must
not change."""

import contextlib
import io
import re
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from momentforge import cli, equiv, geom, hamclass

from momentforge.geom import ProductForm

from conftest import (dense_equivariance, determinantal_divisor,
                      fraction_rank, fractions, pairing, scenario_moment)


def _negated(token: str) -> str:
    return token[1:] if token.startswith("-") else "-" + token


def _pfaffian(a) -> Fraction:
    """The Pfaffian of an antisymmetric matrix of even order, expanded
    along its first row."""
    if not a:
        return Fraction(1)
    rest = range(1, len(a))
    return sum((-1) ** (j + 1) * a[0][j] * _pfaffian(
        [[a[k][l] for l in rest if l != j] for k in rest if k != j])
        for j in rest)


@st.composite
def scenario_texts(draw):
    """T^m x (S^2)^n with m in {0, 2, 4} and n <= 3 (n >= 1 when m = 0), a
    torus form of integer, decimal or p/q entries whose lower triangle
    negates the upper one as text, 1-3 integer generators and an optional
    [reduce] of an ordered subset of the generators, one level each. Each
    draw carries [expect] c and r from its construction: with the torus
    block nondegenerate a combination is Hamiltonian iff its translation
    vanishes, so r is the rank over Q of the drawn translation rows and c =
    r_total - r. Returns the text, the generators as (translation, speeds)
    pairs, the sign and whether the draw is invalid on purpose: a
    degenerate torus form (a zero Pfaffian of the drawn tokens), a trivial
    generator, or a [reduce] generator that translates the torus. Those are
    valid draws, which must end in exit 2."""
    m = draw(st.sampled_from((0, 2, 4)))
    n = draw(st.integers(1 if m == 0 else 0, 3))
    kind = draw(st.sampled_from(("integer", "decimal", "fraction")))
    number = {
        "integer": st.integers(-5, 5).map(str),
        "decimal": st.floats(-2, 2, allow_nan=False).map(repr),
        "fraction": st.builds("{}/{}".format, st.integers(-9, 9),
                              st.integers(1, 9)),
    }[kind]
    lines = ["[manifold]", f"torus_dim = {m}"]
    invalid = False
    if m:
        rows = [["0"] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                rows[i][j] = draw(number)
                rows[j][i] = _negated(rows[i][j])
        lines.append("torus_omega = " + " ; ".join(map(" ".join, rows)))
        invalid = _pfaffian([[Fraction(x) for x in row]
                             for row in rows]) == 0
    if n:
        area = st.sampled_from(("1", "2", "0.5", "0.7", "3/2", "1e-1"))
        lines.append("spheres = " + " ".join(draw(area) for _ in range(n)))
    ints = st.integers(-2, 2)
    gens = [([draw(ints) for _ in range(m)], [draw(ints) for _ in range(n)])
            for _ in range(draw(st.integers(1, 3)))]
    invalid |= any(not any(v + s) for v, s in gens)
    sign = draw(st.sampled_from((1, -1)))
    lines += ["[action]", "generators = " + " ; ".join(
                  " ".join(map(str, v)) + " | " + " ".join(map(str, s))
                  for v, s in gens),
              "sign = " + ("plus" if sign == 1 else "minus"),
              "[pipeline]",
              f"max_denominator = {draw(st.sampled_from((1, 4, 64)))}",
              f"seed = {draw(st.integers(0, 9))}", "samples = 50",
              "coverage_samples = 500", "grid = 4"]
    r = fraction_rank([v for v, _ in gens])
    lines += ["[expect]", f"c = {len(gens) - r}", f"r = {r}"]
    if n and draw(st.booleans()):
        order = draw(st.permutations(range(len(gens))))
        order = order[:draw(st.integers(1, len(gens)))]
        level = st.sampled_from(("0", "1/3", "-0.5", "1"))
        lines += ["[reduce]", "generators = " + " ".join(map(str, order)),
                  "values = " + " ".join(draw(level) for _ in order)]
        invalid |= any(any(gens[i][0]) for i in order)
    return "\n".join(lines) + "\n", gens, sign, invalid


def _run(path: Path, out: Path) -> tuple:
    """cli.main on the scenario: exit code, stdout, stderr, and the bytes
    of every file written under out."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = cli.main(["all", "--scenario", str(path), "--out", str(out)])
    files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))}
    return code, stdout.getvalue(), stderr.getvalue(), files


def _matrices(csv: bytes) -> dict:
    """matrices.csv, written row by row, as {name: rows of Fractions}."""
    out = {}
    for line in csv.decode().splitlines()[1:]:
        name, i, _, value = line.split(",")
        rows = out.setdefault(name, [])
        if int(i) == len(rows):
            rows.append([])
        rows[-1].append(Fraction(value))
    return out


def _cocycle_oracle(matrices: dict, gens: list, sign: int) -> list:
    """Z[i][j] = sign omega'(u_i, u_j) for the rows u of H G: H the
    written complement generators, G the orbit matrix of the drawn
    generators (the translation, then (speed, 0) per sphere) and omega'
    the written omega_prime, paired by the conftest oracle."""
    form = ProductForm(matrices.get("omega_prime_torus"),
                       matrices.get("omega_prime_spheres", [()])[0])
    orbits = [list(v) + [x for speed in s for x in (speed, 0)]
              for v, s in gens]
    hg = [[sum(h * row[k] for h, row in zip(hs, orbits))
           for k in range(form.dim)]
          for hs in matrices["complement_generators"]]
    return [[sign * pairing(form, form, u, w) for w in hg] for u in hg]


def _assert_dense_products(sc):
    """equiv's products, which read the torus slots alone, equal the
    dense_equivariance oracle over every slot of G, and every field
    covector, so mu1 and mu2 too, is 0 on every theta slot, which is
    where G holds the speeds."""
    try:
        mom = scenario_moment(sc)
    except hamclass.RoundingBrokeNondegeneracy:
        return
    form = mom.omega_prime
    thetas = [form.sphere_offset(f) for f in range(form.n_spheres)]
    for nums, _ in (geom.field_covectors(sc.action, sc.manifold),
                    mom.covectors, mom.mu1, mom.mu2):
        assert not any(row[k] for row in nums for k in thetas)
    oracle = dense_equivariance(mom)
    z = equiv.cocycle_matrix(mom)
    iso = equiv.isotropic_orbit_test(mom.action, mom.covectors)
    exact = equiv.exact_equivariance(mom, z, iso)
    natural = equiv.natural_equivariance(mom, z, iso)
    assert z == oracle.cocycle
    assert fractions(iso.pairings) == oracle.pairings
    assert exact.max_mu2_error == oracle.max_mu2_error
    assert exact.max_mu1_invariance_error \
        == oracle.max_mu1_invariance_error
    assert natural.max_mu2_invariance_error \
        == oracle.max_mu2_invariance_error


@st.composite
def basis_changes(draw, r: int, n: int) -> tuple:
    """A unimodular row operation on r generators, as its r x r matrix:
    a swap of two rows, a negation of one, or ± one row added to another;
    and a permutation of n spheres."""
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    i, j = draw(st.permutations(range(r)))[:2] if r > 1 else (0, None)
    kind = draw(st.sampled_from(("swap", "negate", "add") if r > 1
                                else ("negate",)))
    if kind == "swap":
        u[i], u[j] = u[j], u[i]
    elif kind == "negate":
        u[i][i] = -1
    else:
        u[i][j] = draw(st.sampled_from((1, -1)))
    return u, draw(st.permutations(range(n)))


def _changed(text: str, gens: list, u: list, perm: list) -> tuple:
    """The draw without [expect] and [reduce], its generators replaced by
    u times them and its spheres permuted, each sphere's coefficient with
    its rotation column.  Returns the text and the new generators."""
    rows = [[sum(a * x for a, x in zip(row, column)) for column in
             zip(*[v + s for v, s in gens])] for row in u]
    m = len(gens[0][0])
    new = [(row[:m], [row[m + k] for k in perm]) for row in rows]
    lines = text.split("[expect]")[0].splitlines()
    for i, line in enumerate(lines):
        if line.startswith("spheres = "):
            areas = line.split()[2:]
            lines[i] = "spheres = " + " ".join(areas[k] for k in perm)
        if line.startswith("generators = "):
            lines[i] = "generators = " + " ; ".join(
                " ".join(map(str, v)) + " | " + " ".join(map(str, s))
                for v, s in new)
    return "\n".join(lines) + "\n", new


# report keys that name a property of the action and the form, not of the
# generator basis or the order of the spheres
_INVARIANT = {"classify": ("c", "r", "effective", "effectiveness_diagonal"),
              "equivariance": ("equivariant", "has_fixed_points",
                               "orbits_isotropic", "naturally_equivariant",
                               "z_rank"),
              "betti": ("rank", "r", "b1", "equality")}


def _invariants(stdout: str) -> dict:
    """The _INVARIANT keys of a report, and its number of hull vertices."""
    sections, name = {}, None
    for line in stdout.splitlines():
        if line.startswith("["):
            name = line[1:-1]
        elif " = " in line and name:
            key, value = line.split(" = ", 1)
            sections.setdefault(name, {})[key] = value
    out = {(section, key): sections[section][key]
           for section, keys in _INVARIANT.items() if section in sections
           for key in keys}
    hull = sections.get("convexity", {}).get("hull_vertices")
    out["hull_vertices"] = hull and hull.count("[") - 1
    return out


@given(scenario_texts(), st.data())
@settings(max_examples=60, deadline=None)
def test_generated_scenarios_end_in_a_deterministic_report(drawn, data):
    text, gens, sign, invalid = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "generated.ini"
        path.write_text(text)
        first = _run(path, Path(tmp) / "a")
        second = _run(path, Path(tmp) / "b")
        sc = None if invalid else cli.load_scenario(path)
    code, stdout, stderr, files = first
    assert code in (0, 1, 2)
    assert (code == 2) == invalid, (text, stderr)
    assert "Traceback" not in stdout + stderr
    assert first == second
    if stdout:
        assert "_matches_expected = false" not in stdout, text
        assert "c_matches_expected = true" in stdout
        assert "r_matches_expected = true" in stdout
        split = re.search(r"^\[classify\]\nc = (\d+)\nr = (\d+)$", stdout,
                          re.MULTILINE)
        assert int(split[1]) + int(split[2]) == len(gens)
        betti = re.search(r"^\[betti\]\nrank = (\d+)\nr = (\d+)\nb1 = (\d+)$",
                          stdout, re.MULTILINE)
        if betti:
            rank, r, b1 = map(int, betti.groups())
            assert rank == r == int(split[2]) and r <= b1
    matrices = _matrices(files.get("matrices.csv", b""))
    if "cocycle" in matrices:
        assert matrices["cocycle"] == _cocycle_oracle(matrices, gens, sign)
    if invalid:
        return
    _assert_dense_products(sc)
    u, perm = data.draw(basis_changes(len(gens), len(gens[0][1])))
    changed, new = _changed(text, gens, u, perm)
    # with the spheres permuted alike, a row operation keeps the row space,
    # and a unimodular one keeps every determinantal divisor too
    old = [v + [s[k] for k in perm] for v, s in gens]
    rows = [v + s for v, s in new]
    assert fraction_rank(old) == fraction_rank(rows) \
        == fraction_rank(old + rows)
    assert [determinantal_divisor(old, k) for k in range(1, len(old) + 1)] \
        == [determinantal_divisor(rows, k) for k in range(1, len(old) + 1)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "changed.ini"
        path.write_text(changed)
        again, out, err, _ = _run(path, Path(tmp) / "c")
    assert "Traceback" not in out + err
    if not all(any(v + s) for v, s in new):
        assert again == 2, (changed, err)    # a trivial generator
        return
    assert again in (0, 1), (changed, err)
    assert _invariants(out) == _invariants(stdout), (text, changed)
