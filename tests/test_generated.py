"""Generated scenarios as a regression suite: small random INI files over the
manifold universe, run through `momentforge all` twice.

Every input must end in exit 0, 1 or 2 without a traceback, exit 2 exactly
when it was drawn invalid, two runs must write the same bytes, and a report
must split the acting torus completely, c + r = r_total, as the draw's
[expect] c and r, computed from the drawn translations, say.  Where it has a
[betti] section, the circle covectors have rank r and r <= b1: the rank
argument that makes the circle part onto.  Where it writes a cocycle
matrix, Z is the pairing of the complement fields under omega_prime."""

import contextlib
import io
import re
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from momentforge import cli

from momentforge.geom import ProductForm

from conftest import fraction_rank, pairing


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


@given(scenario_texts())
@settings(max_examples=60, deadline=None)
def test_generated_scenarios_end_in_a_deterministic_report(drawn):
    text, gens, sign, invalid = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "generated.ini"
        path.write_text(text)
        first = _run(path, Path(tmp) / "a")
        second = _run(path, Path(tmp) / "b")
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
