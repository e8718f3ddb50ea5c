"""Scenario driver: parsing, bundled resolution, exit codes, expectation
enforcement, seed precedence, and deterministic report emission."""

import configparser
import dataclasses
import re
import subprocess
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from momentforge import cli, convex, geom, reduction, sample

from conftest import full_draw_coverage, lattice_oracle, scenario_moment
from mutation_probe import limited

BUNDLED = ["two_torus", "two_torus_sqrt2", "t4_split", "sphere", "s2xs2",
           "s2xt2_reduce", "t2_gcd2"]


# ---------------------------------------------------------------------------
# parsing

def test_all_bundled_scenarios_load():
    for name in BUNDLED:
        sc = cli.load_scenario(cli.bundled_scenario_path(name))
        assert sc.name == name
        assert sc.action.r_total >= 1


def test_unknown_bundled_name():
    with pytest.raises(cli.ConfigError):
        cli.bundled_scenario_path("nope")


def write(tmp_path, text):
    p = tmp_path / "s.ini"
    p.write_text(text)
    return p


GOOD = """
[manifold]
torus_dim = 2
torus_omega = 0 1 ; -1 0
[action]
generators = 1 0 | ; 0 1 |
"""


def test_minimal_scenario_defaults(tmp_path):
    sc = cli.load_scenario(write(tmp_path, GOOD))
    assert sc.seed == 0 and sc.max_denominator == 64
    assert sc.checks == ("classify", "integralize", "moment",
                         "equivariance", "convexity", "betti")


T4_DECIMAL_DEGENERATE = """
[manifold]
torus_dim = 4
torus_omega = 0 0.1 0.3 0 ; -0.1 0 0 1 ; -0.3 0 0 3 ; 0 -1 -3 0
[action]
generators = 1 0 0 0 |
"""


# one generator turning 17 spheres: all 17 heights enter mu1
SEVENTEEN_SPHERES = f"""
[manifold]
spheres = {" ".join(["0.5"] * 17)}
[action]
generators = | {" ".join(["1"] * 17)}
"""


@pytest.mark.parametrize("text,fragment", [
    (GOOD.replace("generators = 1 0 | ; 0 1 |", "generators = 1 0 ; 0 1 |"),
     "'|'"),
    (GOOD.replace("1 0 |", "1 |", 1), "expected 2 translation"),
    (GOOD.replace("0 1 ; -1 0", "0 1 ; 1 0"), "antisymmetric"),
    (GOOD + "[checks]\nrun = classify warp\n", "unknown check"),
    (GOOD + "[expect]\nfoo = 1\n", "unknown expectation"),
    (GOOD + "[reduce]\ngenerators = 0\nvalues = 0 1\n", "one value per"),
    (GOOD.replace("torus_dim = 2", "torus_dim = x"), "not an integer"),
    # the key is named, not the torus_omega shape it would imply
    (GOOD.replace("torus_dim = 2", "torus_dim = -2"),
     ": torus_dim must be non-negative, got -2"),
    # an expected integral torus form needs a torus to compare with
    ("[manifold]\nspheres = 1\n[action]\ngenerators = | 1\n"
     "[expect]\nomega_prime_torus = 0 1 ; -1 0\n",
     r"\[expect\] omega_prime_torus needs a torus factor"),
    (GOOD.replace("torus_dim = 2", "torus_dim = 2\nspheres = inf"),
     "'inf' is not a finite number"),
    (GOOD.replace("torus_dim = 2", "torus_dim = 2\nspheres = 1e400"),
     "'1e400' is not a finite number"),
    (GOOD.replace("0 1 ; -1 0", "0 1e400 ; -1e400 0"),
     "'1e400' is not a finite number"),
    # a 400-digit plain decimal is as far past the float range as 1e400
    (GOOD.replace("0 1 ; -1 0", f"0 {'9' * 400}.5 ; -{'9' * 400}.5 0"),
     f"'{'9' * 400}.5' is not a finite number"),
    (GOOD.replace("torus_dim = 2", f"torus_dim = 2\nspheres = {'9' * 400}"),
     f"'{'9' * 400}' is not a finite number"),
    (GOOD + "[reduce]\ngenerators = 0\nvalues = 1/0\n",
     "'1/0' is not a finite number"),
    # a '%' is read as written, not as an interpolation
    (GOOD.replace("0 1 ; -1 0", "0 1 ; -1 0 %"), "'%' is not a finite number"),
    (GOOD + "[pipeline]\nseed = 5%\n", r"\[pipeline\] seed not an integer"),
    # the decimal Pfaffian 0.1 * 3 - 0.3 * 1 is exactly 0
    (T4_DECIMAL_DEGENERATE, "degenerate"),
    # a malformed [manifold]: each message names its key
    (GOOD.replace("0 1 ; -1 0", "0 0 ; 0 0"),
     r"\[manifold\] torus_omega: degenerate torus form \(zero determinant\)"),
    (GOOD.replace("torus_dim = 2", "torus_dim = 3"),
     "torus_omega is not 3x3"),
    (GOOD.replace("torus_dim = 2", "torus_dim = 3").replace(
        "0 1 ; -1 0", "0 1 0 ; -1 0 0 ; 0 0 0"),
     r"\[manifold\] torus_omega: torus dimension must be even"),
    (GOOD.replace("torus_dim = 2", "torus_dim = 2\nspheres = 0"),
     r"\[manifold\] spheres: sphere area coefficient must be positive"),
    (GOOD.replace("torus_dim = 2", "torus_dim = 2\nspheres = -1"),
     r"\[manifold\] spheres: sphere area coefficient must be positive"),
    ("[manifold]\n[action]\ngenerators = |\n",
     r"\[manifold\] empty manifold: no torus_omega and no spheres"),
    # every pipeline count and bound must be positive
    (GOOD + "[pipeline]\nsamples = 0\n", r": samples must be at least 1"),
    (GOOD + "[pipeline]\nsamples = -1\n", r": samples must be at least 1"),
    (GOOD + "[pipeline]\ncoverage_samples = 0\n",
     "coverage_samples must be at least 1"),
    (GOOD + "[pipeline]\ngrid = 0\n", "grid must be at least 1"),
    (GOOD + "[pipeline]\ngrid = -3\n", "grid must be at least 1"),
    (GOOD + "[pipeline]\nmax_denominator = 0\n",
     "max_denominator must be at least 1"),
    (GOOD + "[pipeline]\nmax_denominator = -5\n",
     "max_denominator must be at least 1"),
    (GOOD + "[pipeline]\nseed = -2\n", "seed must be non-negative, got -2"),
    # the sample arrays are budgeted before anything is drawn
    (GOOD + "[pipeline]\nsamples = 1000000000\n",
     ": samples = 1000000000 needs 2000000000 sample entries \\(dim 2\\), "
     f"above the budget of {geom.MAX_SAMPLE_ENTRIES}"),
    (GOOD + "[pipeline]\ncoverage_samples = 1000000000\n",
     "coverage_samples = 1000000000 needs 2000000000 sample entries "
     f"\\(dim 2\\), above the budget of {geom.MAX_SAMPLE_ENTRIES}"),
    # so are the pole images of the moment polytope, before it is built
    (SEVENTEEN_SPHERES, "convexity: 17 spheres enter mu1, so the polytope "
     f"has 2\\^17 pole images, above the budget of {convex.MAX_POLES}"),
    # each planted for the deletion of its guard's raise, without which
    # the input runs on, or fails later with exit 1 or a traceback
    (GOOD + "[expect]\nz = 0 1 ; -1\n", r"\[expect\] z: ragged matrix"),
    (GOOD.replace("torus_dim = 2", "torus_dim = 2\nspheres = 1").replace(
        "1 0 | ; 0 1 |", "1 0 | 1 1 ; 0 1 | 0"),
     "expected 1 rotation speeds in '1 0 | 1 1'"),
    (GOOD.replace("1 0 | ; 0 1 |", ";"), "generators: no generators"),
    (GOOD.replace("generators = 1 0 | ; 0 1 |", "sign = plus"),
     r"missing \[action\] generators"),
    (GOOD + "sign = up\n", "sign must be 'plus' or 'minus'"),
])
def test_config_errors(tmp_path, capsys, text, fragment):
    """The whole run ends in exit 2 and one config error line, whether the
    parser or a stage's budget rejects the input."""
    assert cli.main(["all", "--scenario", str(write(tmp_path, text))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert re.search(fragment, err)


def test_a_trailing_semicolon_in_generators_is_no_generator(tmp_path,
                                                            capsys):
    """A `;` after the last generator leaves an empty chunk, which is
    skipped: the report is that of the same file without it.  Planted for
    the deletion of `_parse_generators`' `continue` on an empty chunk,
    which reads the empty chunk as a generator with no '|'."""
    plain = write(tmp_path, GOOD)
    assert cli.main(["all", "--scenario", str(plain)]) == 0
    expected = capsys.readouterr().out
    trailing = tmp_path / "trailing.ini"
    trailing.write_text(GOOD.replace("0 1 |", "0 1 | ;"))
    assert cli.main(["all", "--scenario", str(trailing)]) == 0
    assert capsys.readouterr().out == expected.replace(
        "scenario = s", "scenario = trailing")


def test_a_sample_budget_binds_only_a_stage_that_draws(tmp_path, capsys):
    """128 unit spheres and one rotation: dim 256 puts the default 20000
    coverage samples over the budget, yet classify and betti draw nothing
    and pass; all, which runs convexity, still stops with the budget's
    config error and no report."""
    path = write(tmp_path, "[manifold]\nspheres =" + " 1" * 128
                 + "\n[action]\ngenerators = | 1" + " 0" * 127 + "\n")
    for cmd in ("classify", "betti"):
        assert cli.main([cmd, "--scenario", str(path)]) == 0
        assert capsys.readouterr().out.endswith("overall = pass\n")
    assert cli.main(["all", "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: {path}: coverage_samples = 20000 needs 5120000 "
        "sample entries (dim 256), above the budget of "
        f"{geom.MAX_SAMPLE_ENTRIES}\n")


def test_a_sample_count_at_the_budget_runs(tmp_path, capsys):
    """On dim 2, MAX_SAMPLE_ENTRIES / 2 coverage samples fill the budget
    exactly and run (the draw stops early), and one more is over it.
    Planted for the budget test's `>` turned into `>=`."""
    limit = geom.MAX_SAMPLE_ENTRIES // 2
    for count, code in ((limit, 0), (limit + 1, 2)):
        path = write(tmp_path, GOOD + f"[pipeline]\ncoverage_samples = "
                     f"{count}\n")
        assert cli.main(["convexity", "--scenario", str(path)]) == code
        assert ("above the budget" in capsys.readouterr().err) == bool(code)


def test_a_coverage_grid_at_the_budget_runs(tmp_path, capsys):
    """two_torus has c + r = 2, so grid 1024 asks for exactly
    MAX_COVERAGE_CELLS cells: the stage runs, and grid 1025 is over the
    budget.  Planted for the cell budget's `>` turned into `>=`."""
    assert 1024 ** 2 == sample.MAX_COVERAGE_CELLS
    for grid, code in ((1024, 1), (1025, 2)):
        path = write(tmp_path, GOOD + f"[pipeline]\ngrid = {grid}\n")
        assert cli.main(["convexity", "--scenario", str(path)]) == code
        assert ("within_budget" in capsys.readouterr().out) == (code == 2)


def test_a_pole_count_at_the_budget_runs(tmp_path, capsys):
    """16 rotated spheres give exactly MAX_POLES pole images: the polytope
    is built (coverage then reads the known undersampled FAIL, exit 1),
    where 17 spheres are over the budget.  Planted for the pole budget's
    `>` turned into `>=` and for its base 2 raised to 3."""
    assert 2 ** 16 == convex.MAX_POLES
    path = write(tmp_path, SEVENTEEN_SPHERES.replace(" 0.5", "", 1)
                 .replace(" 1", "", 1))
    assert cli.main(["convexity", "--scenario", str(path)]) == 1
    out = capsys.readouterr().out
    assert "within_budget" not in out and "hull_vertices = [[-8], [8]]" in out


def test_a_coverage_fraction_of_exactly_0_99_passes(monkeypatch, capsys):
    """The coverage bar is >= 0.99: 99 of 100 counted cells hit passes,
    98 fails.  Planted for `cov.fraction >= 0.99` turned into `>`."""
    for hit, code in ((99, 0), (98, 1)):
        monkeypatch.setattr(sample, "product_coverage_check",
                            lambda *args, hit=hit: sample.CoverageReport(
                                10, hit / 100, 100, hit, (0,)))
        assert cli.main(["convexity", "--scenario", "two_torus"]) == code
        assert (f"coverage_fraction = {hit / 100}\ncoverage_ok = "
                f"{'true' if code == 0 else 'false'}\n"
                in capsys.readouterr().out)


# an orbit-sampling shape: T^2 x S^2, every check and a reduction
ORBIT = """
[manifold]
torus_dim = 2
torus_omega = 0 1 ; -1 0
spheres = 0.5
[action]
generators = 1 0 | 0 ; 0 1 | 0 ; 0 0 | 1
[checks]
run = classify integralize moment equivariance convexity betti reduce
[reduce]
generators = 2
values = 0.1
[pipeline]
"""


def test_an_op_draws_from_one_seeded_stream(tmp_path, monkeypatch):
    """An `all` op makes one np.random.default_rng: the coverage check
    bins the sample table's rows and draws on from the table's stream."""
    made = []
    rng = sample.np.random.default_rng
    monkeypatch.setattr(sample.np.random, "default_rng",
                        lambda seed: made.append(seed) or rng(seed))
    for seed in (0, 3):
        made.clear()
        path = write(tmp_path, ORBIT + f"seed = {seed}\n")
        report = cli.run_scenario(cli.load_scenario(path))
        # an empty cell keeps the check drawing to its cap, past the table
        assert report.coverage.fraction < 1 and "reduce" in report.sections
        assert made == [seed]


@pytest.mark.parametrize("pipeline", [
    "samples = 200000\ncoverage_samples = 1000\ngrid = 10",
    "coverage_samples = 1",
    "samples = 5000\ncoverage_samples = 20000\ngrid = 5\nseed = 2",
    "samples = 1000\ncoverage_samples = 20000\ngrid = 12\nseed = 1",
])
def test_coverage_bins_the_first_rows_of_the_stream(tmp_path, pipeline):
    """The coverage report of an `all` op, which bins the sample table's
    rows and draws on past them, and of `convexity` alone, which draws
    every row itself, are the report of binning the first
    coverage_samples rows of the seed's draw in one pass: with the table
    longer than the cap, with a cap of one row, with every counted cell
    hit within the table, and with the cap past the table."""
    sc = cli.load_scenario(write(tmp_path, ORBIT + pipeline + "\n"))
    mom = scenario_moment(sc)
    want = full_draw_coverage(mom, convex.moment_polytope(mom), sc.grid,
                              sc.coverage_samples, sc.seed)
    assert cli.run_scenario(sc).coverage == want
    assert cli.run_scenario(sc, ("convexity",)).coverage == want


def test_a_torus_factor_does_not_hide_a_sphere_from_the_pole_count(
        tmp_path, capsys):
    """T^2 x (S^2)^17 with every sphere rotated: 17 heights enter mu1, the
    first one right after the torus slots.  Planted for the pole count's
    height slot `sphere_offset(f) + 1` turned into `- 1`, which reads a
    torus slot for the first sphere and counts 16."""
    path = write(tmp_path, f"""
[manifold]
torus_dim = 2
torus_omega = 0 1 ; -1 0
spheres = {" ".join(["0.5"] * 17)}
[action]
generators = 0 0 | {" ".join(["1"] * 17)} ; 1 0 | {" ".join(["0"] * 17)}
""")
    assert cli.main(["convexity", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: convexity: 17 spheres enter mu1")


@pytest.mark.parametrize("token", ["0", "-0", "0.0", "+1.5", "-.5", "5.",
                                   "1.4142135623730951", "1e300", "1.5e-3",
                                   "3/7", "-6/4"])
def test_number_reads_what_fraction_reads(token):
    n, d = cli._number(token, "where")
    assert Fraction(n, d) == Fraction(token)


@pytest.mark.parametrize("token", ["1e400", "inf", "nan", "1/0", "0x10",
                                   "1.5/2", "--1", ".", "1.d", "1e", "e5"])
def test_number_rejects_what_fraction_rejects_or_cannot_float(token):
    with pytest.raises(cli.ConfigError, match="is not a finite number"):
        cli._number(token, "where")
    with pytest.raises((ValueError, ZeroDivisionError, OverflowError)):
        float(Fraction(token))


def test_number_bounds_the_exponent_before_any_power():
    """An exponent of magnitude at most 4300 is read, as the int digit
    limit bounds the digits; one past it is rejected, however small the
    value it writes.  Planted for the comparison with the bound."""
    assert cli._number("1e-4300", "where") == (1, 10 ** 4300)
    for token in ("1e-4301", "-2.5e4301"):
        with pytest.raises(cli.ConfigError, match=r"\|exponent\| > 4300"):
            cli._number(token, "where")


def classify_capped(path, cpu_s: int, memory: int):
    """`momentforge classify` on the scenario at path, run by a Python
    child that caps itself at cpu_s seconds of CPU time and memory bytes
    of address space (mutation_probe.limited)."""
    code = ("import sys\nfrom momentforge import cli\nsys.exit(cli.main("
            f"['classify', '--scenario', {str(path)!r}]))")
    return subprocess.run(
        limited(code, cpu_s, memory), capture_output=True, text=True,
        env={"PYTHONPATH": str(Path(cli.__file__).parents[1])}, timeout=60)


def test_a_huge_exponent_is_rejected_within_seconds(tmp_path):
    """1e999999999 is a config error before 10 ** 999999999 is built: a
    child capped at 5 s of CPU ends in exit 2, not killed at the cap."""
    path = write(tmp_path, GOOD.replace("0 1 ; -1 0",
                                        "0 1e999999999 ; -1e999999999 0"))
    run = classify_capped(path, 5, 2 ** 30)
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("config error:")
    assert "Traceback" not in run.stderr


def test_classify_on_4000_spheres_fits_600_mb(tmp_path):
    """The form is its blocks, so 4000 unit spheres and one rotation
    classify in O(dim) memory: under a 600 MB address space cap, where a
    dense dim x dim form matrix ends in MemoryError."""
    path = write(tmp_path, "[manifold]\nspheres = " + " 1" * 4000
                 + "\n[action]\ngenerators = | 1" + " 0" * 3999 + "\n")
    run = classify_capped(path, 20, 600 * 2 ** 20)
    assert run.returncode == 0, run.stderr
    assert "overall = pass" in run.stdout


# every plain integer and decimal shape, with decimal digits that are not
# ASCII and a superscript digit that no number takes
@given(st.text("0123456789+-.\u0661\u0662\uff13\u00b2", max_size=8)
       | st.from_regex(r"[-+]?0*[0-9]{0,4}(\.[0-9]{0,4})?", fullmatch=True))
def test_number_fast_path_reads_what_the_token_regex_reads(token):
    """A token of digits, signs and points reads as the regex path reads
    it, or is rejected as there: with "e0" appended, which scales by 1,
    every such token takes the regex path."""
    try:
        expected = cli._number(token + "e0", "where")
    except cli.ConfigError:
        with pytest.raises(cli.ConfigError, match="is not a finite number"):
            cli._number(token, "where")
    else:
        assert cli._number(token, "where") == expected


def test_plain_tokens_skip_the_token_regex(monkeypatch):
    """A plain integer or decimal, signed or not, is read without the
    regex.  Planted for the mutants of `_number`'s sign strip: `in`
    turned into `not in`, and `whole[1:]` or `whole[:1]` widened to 2."""
    class NoRegex:
        def fullmatch(self, token):
            raise AssertionError(f"{token!r} reached the regex")

    monkeypatch.setattr(cli, "_TOKEN", NoRegex())
    for token in ("5", "-5", "+5", "-.5", "12.25", "-3."):
        assert Fraction(*cli._number(token, "where")) == Fraction(token)


def test_a_second_bar_in_a_generator_is_a_bad_integer(tmp_path, capsys):
    """Only the first '|' splits a generator; a second one is read as an
    entry and rejected.  Planted for `chunk.split("|", 1)` widened to a
    split at two bars, which unpacks three parts and crashes."""
    path = write(tmp_path, GOOD.replace("1 0 | ;", "1 0 | 1 | ;"))
    assert cli.main(["classify", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {path} [action] generators: bad integer in "
        "'1 0 | 1 |'\n")


def configparser_sections(text):
    """The oracle of the scenario reader: what configparser reads from
    the INI subset that scenario files use."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    return {name: dict(parser.items(name)) for name in parser.sections()}


BLANK_OR_COMMENT = st.sampled_from(["", "   ", "# note", "; a = b",
                                    "  # indented", "\t; %(x)s"])
CONTINUATION = st.tuples(
    st.sampled_from([" ", "  ", "\t", "    "]),
    st.text("ab 1.5/-;:%#=|[]", min_size=1, max_size=10).filter(
        lambda t: t.strip() and t.strip()[0] not in "#;")).map("".join)


@st.composite
def ini_texts(draw):
    """Texts in the reader's subset: section headers, mixed-case keys with
    values that hold '%', ':' and ';', comments, blank lines and
    continuation lines."""
    lines = draw(st.lists(BLANK_OR_COMMENT, max_size=2))
    for name in draw(st.lists(st.text("abMN _.", min_size=1, max_size=8),
                              min_size=1, max_size=4, unique=True)):
        lines.append(f"[{name}]")
        for key in draw(st.lists(st.text("abcXYZ_019", min_size=1,
                                         max_size=6),
                                 max_size=4, unique_by=str.lower)):
            space = st.sampled_from(["", " ", "  "])
            lines.append(f"{key}{draw(space)}={draw(space)}"
                         + draw(st.text("ab 1.5/-;:%#=|[]", max_size=12)))
            lines += draw(st.lists(CONTINUATION | BLANK_OR_COMMENT,
                                   max_size=3))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@given(ini_texts())
def test_reader_reads_what_configparser_reads(text):
    assert cli._read_ini(text, "s.ini") == configparser_sections(text)


@pytest.mark.parametrize("text,fragment", [
    (GOOD + "[pipeline]\nseed = 1\nSeed = 2\n",
     r"line 9: \[pipeline\] seed appears twice"),
    (GOOD + "[action]\nsign = plus\n", r"line 7: section \[action\] appears"),
    ("torus_dim = 2\n" + GOOD, "line 1: key 'torus_dim' comes before any"),
    (GOOD + "[pipeline]\nseed\n", "line 8: expected 'key = value', not 'seed'"),
    (GOOD + "[pipeline]\nseed: 4\n", "line 8: expected 'key = value'"),
    (GOOD + "[pipeline]\n= 4\n", "line 8: expected 'key = value'"),
    ("[DEFAULT]\nseed = 1\n" + GOOD,
     r"line 1: a \[DEFAULT\] section is not supported"),
    (GOOD.replace("[action]", "[action] # note"),
     r"line 5: a section header is \[name\] alone on its line"),
    (GOOD + "[]\n", r"line 7: a section header is \[name\] alone"),
])
def test_malformed_files_are_config_errors(tmp_path, capsys, text, fragment):
    """Each form the reader rejects ends in exit 2 and one config error
    line that names the line, with no report."""
    path = write(tmp_path, text)
    assert cli.main(["all", "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"config error: {path}: ")
    assert re.search(fragment, line)


def test_non_utf8_file_is_a_config_error(tmp_path, capsys):
    """A scenario file is read as UTF-8 whatever the locale: a Latin-1
    comment ends in exit 2 and one config error line, with no report, and
    the same comment in UTF-8 is read."""
    path = tmp_path / "latin1.ini"
    path.write_bytes(("# café\n" + GOOD).encode("latin-1"))
    assert cli.main(["all", "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"config error: cannot read scenario {path}: ")
    assert "can't decode" in line
    path.write_bytes(("# café\n" + GOOD).encode("utf-8"))
    assert cli.load_scenario(path).name == "latin1"


def test_matrix_rows_are_the_parsed_tokens_over_one_denominator():
    """Every token is parsed, and the rows are its exact values over the
    lcm of their denominators."""
    text = ("0 1.5 -3/7 0 ; -1.5 0 2e-1 1 ; 3/7 -2e-1 0 -0.25 ; "
            "-0 -1 0.25 0")
    nums, d = cli._parse_matrix(text, "where")
    assert [[Fraction(x, d) for x in row] for row in nums] == [
        [Fraction(t) for t in row.split()] for row in text.split(";")]


def test_seed_precedence(tmp_path):
    path = write(tmp_path, GOOD + "[pipeline]\nseed = 5\n")
    assert cli.load_scenario(path).seed == 5
    assert cli.load_scenario(path, seed=3).seed == 3
    assert cli.load_scenario(path, seed=4).seed == 4
    with pytest.raises(cli.ConfigError, match="got -1"):
        cli.load_scenario(path, seed=-1)


def test_sign_override(tmp_path):
    path = write(tmp_path, GOOD)
    assert cli.load_scenario(path).action.sign == 1
    assert cli.load_scenario(path, sign="minus").action.sign == -1


# ---------------------------------------------------------------------------
# running

def test_main_exit_codes(tmp_path, capsys):
    assert cli.main(["classify", "--scenario", "two_torus"]) == 0
    capsys.readouterr()
    assert cli.main(["all", "--scenario", "missing"]) == 2
    for bound in ("0", "-5"):
        assert cli.main(["classify", "--scenario", "two_torus_sqrt2",
                         "--max-denominator", bound]) == 2
        assert "max_denominator must be at least 1" in capsys.readouterr().err
    assert cli.main(["all", "--scenario", "two_torus", "--seed", "-1"]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    bad = write(tmp_path, GOOD + "[expect]\nr = 1\n")
    assert cli.main(["classify", "--scenario", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "r_matches_expected = false" in out
    assert "overall = FAIL" in out


def test_critical_reduce_level_fails_with_report(tmp_path, capsys,
                                                 monkeypatch):
    """A pole is a critical level, and a level past it lies outside the
    image: reduce_at raises NotRegular, which the run records as the
    failed key stage0_regular, and it stops reducing there and exits 1
    with its report instead of raising.  A NotRegular planted in
    reduce_at reads the same."""
    text = cli.bundled_scenario_path("s2xt2_reduce").read_text()
    tail = ("\n[reduce]\nstage0_regular = false\n\noverall = FAIL\n"
            "failures = reduce.stage0_regular\n")
    for value in ("1", "-3"):
        pole = write(tmp_path, text.replace("values = 0",
                                            f"values = {value}"))
        assert cli.main(["all", "--scenario", str(pole)]) == 1
        assert capsys.readouterr().out.endswith(tail)

    def raises(*args, **kwargs):
        raise reduction.NotRegular("planted")

    monkeypatch.setattr(reduction, "reduce_at", raises)
    assert cli.main(["all", "--scenario", "s2xt2_reduce"]) == 1
    assert capsys.readouterr().out.endswith(tail)


def test_exhausted_integralization_fails_with_report(tmp_path, capsys):
    """A valid form whose class rounds to zero at every denominator bound
    up to 2**16: the run records the error at the last bound and that
    integralization did not converge, skips the later stages and exits 1
    with its report.  Planted for the deletion of the `integralize.error`
    line."""
    tiny = write(tmp_path, GOOD.replace("0 1 ; -1 0", "0 1e-6 ; -1e-6 0"))
    assert cli.main(["all", "--scenario", str(tiny)]) == 1
    out = capsys.readouterr().out
    assert ("\n[integralize]\nerror = RoundingBrokeNondegeneracy: "
            "max_denominator=65536\nconverged = false\n") in out
    assert "failures = integralize.converged" in out
    assert "[moment]" not in out


def test_speed_two_reduction_fails_with_report(tmp_path, capsys):
    """A speed-2 circle has Z/2 stabilizers on the level set: the run
    records the stage as not free and exits 1 with its report."""
    text = cli.bundled_scenario_path("s2xt2_reduce").read_text()
    speed2 = write(tmp_path, text.replace("0 0 | 1 ;", "0 0 | 2 ;"))
    assert cli.main(["all", "--scenario", str(speed2)]) == 1
    out = capsys.readouterr().out
    assert "stage0_free = false" in out
    assert "failures = reduce.stage0_free" in out


POINT_REDUCTIONS = {
    # one sphere reduced by its rotation
    "one-sphere": ("1", "| 1", "0", "0"),
    # the same off the equator: the empty form, as at any regular level
    "one-sphere-off-equator": ("1", "| 1", "0", "0.5"),
    # two spheres, reduced one after the other
    "two-spheres": ("1 1", "| 1 0 ; | 0 1", "0 1", "0 1/2"),
}


@pytest.mark.parametrize("spheres,generators,reduce,values",
                         POINT_REDUCTIONS.values(), ids=POINT_REDUCTIONS)
def test_reduction_to_a_point(tmp_path, capsys, spheres, generators, reduce,
                              values):
    """Reducing away the last factor leaves a point: the level is regular,
    the quotient has dimension 0 and no residual action to inherit."""
    path = write(tmp_path, f"""
[manifold]
spheres = {spheres}
[action]
generators = {generators}
[checks]
run = classify integralize moment equivariance convexity betti reduce
[reduce]
generators = {reduce}
values = {values}
""")
    assert cli.main(["all", "--scenario", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    last = len(reduce.split()) - 1
    for key, value in (("regular", "true"), ("dimension", "0"),
                       ("heredity_applicable", "false")):
        assert f"stage{last}_{key} = {value}" in lines


@pytest.mark.parametrize("order", ["1 0", "0 1"])
def test_stage_wise_reduction_remaps_the_generators(tmp_path, order):
    """S^2 x S^2 x T^2 reduced one sphere per stage, in either order: the
    CLI maps each listed generator to its index among the residual ones,
    so its stages read what two reduce_at calls in that order give."""
    path = write(tmp_path, f"""
[manifold]
torus_dim = 2
torus_omega = 0 1 ; -1 0
spheres = 1 1
[action]
generators = 0 0 | 1 0 ; 0 0 | 0 1 ; 1 0 | 0 0 ; 0 1 | 0 0
[checks]
run = classify integralize moment equivariance convexity betti reduce
[reduce]
generators = {order}
values = 0 1/2
[pipeline]
grid = 8
""")
    sc = cli.load_scenario(path)
    report = cli.run_scenario(sc)
    assert report.passed
    first = int(order.split()[0])
    stage0 = reduction.reduce_at(scenario_moment(sc), first, 0)
    stage1 = reduction.reduce_at(stage0, 0, Fraction(1, 2))
    # the listed generator's sphere goes: the other generator still
    # rotates the one sphere left
    assert stage0.omega_prime.n_spheres == 1
    assert stage0.action.rotations == ((1,), (0,), (0,))
    assert stage1.omega_prime.n_spheres == 0
    section = report.sections["reduce"]
    for i, reduced in enumerate((stage0, stage1)):
        her = reduction.heredity_check(reduced)
        assert section[f"stage{i}_regular"] is True
        assert section[f"stage{i}_dimension"] == reduced.omega_prime.dim
        assert section[f"stage{i}_heredity_applicable"] is her.applicable


def test_coverage_grid_over_budget_is_config_error(tmp_path, capsys):
    """Ten rotated spheres at grid 100 ask for 101^10 polytope corners: the
    run stops before allocating them, naming the grid and its shape."""
    gens = " ; ".join("| " + " ".join(str(int(i == j)) for j in range(10))
                      for i in range(10))
    path = write(tmp_path, f"""
[manifold]
spheres = {" ".join(["0.5"] * 10)}
[action]
generators = {gens}
[pipeline]
grid = 100
""")
    assert cli.main(["convexity", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: convexity: grid = 100 with c = 10, "
                          f"r = 0 needs {100 ** 10} coverage cells, above")


# A value past the interpreter's 4300-digit limit on printing an int: a
# 1e-4300 form entry, a 1e300 one times a 4001-digit generator, and a 1e300
# sphere rotated at that speed, printed in the period matrix, a hull
# vertex and the sample table
_BIG = "1" + "0" * 4000
TOO_LONG = {
    "tiny_entry": ("classify", True, "matrix period_matrix", """
[manifold]
torus_dim = 2
torus_omega = 0 1e-4300 ; -1e-4300 0
[action]
generators = 1 0 |
"""),
    "huge_translation": ("classify", True, "matrix period_matrix", f"""
[manifold]
torus_dim = 2
torus_omega = 0 1e300 ; -1e300 0
[action]
generators = {_BIG} 0 |
"""),
    "huge_rotation": ("all", False, "report key [convexity] hull_vertices",
                      f"""
[manifold]
spheres = 1e300
[action]
generators = | {_BIG}
[pipeline]
samples = 10
coverage_samples = 10
grid = 2
"""),
    "huge_samples": ("moment", True, "moment_samples.csv", f"""
[manifold]
spheres = 1e300
[action]
generators = | {_BIG}
[pipeline]
samples = 10
"""),
}


@pytest.mark.parametrize("name", TOO_LONG)
def test_a_value_too_long_to_print_is_a_config_error(tmp_path, capsys,
                                                     name):
    """A value of more digits than str prints ends in exit 2 and one
    config error line that names its report key, matrix or table, after
    the report when it was printed, and no traceback."""
    cmd, printed, where, text = TOO_LONG[name]
    out = ["--out", str(tmp_path / "out")] if printed else []
    assert cli.main([cmd, "--scenario", str(write(tmp_path, text)),
                     *out]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"config error: {where}: a value has more than "
                            "4300 digits to print\n")
    if printed:
        assert captured.out.startswith("scenario = s\n")
        assert "\noverall = " in captured.out
    else:
        assert captured.out == ""


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
def test_unwritable_out_is_a_config_error(tmp_path, capsys, below):
    """--out naming an existing file, or a directory that cannot be made
    under one: the report is printed, then a config error, exit 2, and no
    traceback."""
    out = tmp_path / "taken"
    out.write_text("")
    out = out / "sub" if below else out
    assert cli.main(["all", "--scenario", "two_torus", "--out",
                     str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("scenario = two_torus\n")
    assert captured.out.endswith("overall = pass\n")
    assert captured.err.startswith(f"config error: cannot write {out}: ")


def test_over_budget_stage_keeps_the_completed_sections(tmp_path, capsys):
    """Twenty rotated spheres ask for 2^20 pole images: the run still exits
    2 with a config error, but prints and writes the sections that
    completed, and the report fails on convexity.within_budget."""
    path = write(tmp_path, f"""
[manifold]
spheres = {" ".join(["0.5"] * 20)}
[action]
generators = | {" ".join(["1"] * 20)}
""")
    out = tmp_path / "out"
    assert cli.main(["all", "--scenario", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: convexity: 20 spheres "
                                   "enter mu1")
    report = (out / "report.txt").read_text()
    assert report == captured.out
    for section in ("[classify]", "[integralize]", "[moment]",
                    "[equivariance]",
                    "[convexity]\nwithin_budget = false\n"):
        assert section in report
    assert "[betti]" not in report
    assert report.endswith("overall = FAIL\n"
                           "failures = convexity.within_budget\n")
    assert (out / "moment_samples.csv").is_file()


def test_convexity_builds_the_polytope_once(monkeypatch):
    """hull_vertices and the coverage grid read one polytope."""
    real, calls = convex.moment_polytope, []

    def counted(mom):
        calls.append(mom)
        return real(mom)

    monkeypatch.setattr(convex, "moment_polytope", counted)
    cli.run_scenario(cli.load_scenario(cli.bundled_scenario_path("s2xs2")))
    assert len(calls) == 1


@pytest.mark.parametrize("generators,fragment", [
    ("1", "translates the torus"),
    ("7", "out of range"),
    ("0 0", "listed twice"),
])
def test_bad_reduce_generators_are_config_errors(tmp_path, capsys,
                                                 generators, fragment):
    text = cli.bundled_scenario_path("s2xt2_reduce").read_text()
    text = text.replace("[reduce]\ngenerators = 0\nvalues = 0",
                        f"[reduce]\ngenerators = {generators}\nvalues = "
                        + " ".join("0" for _ in generators.split()))
    path = write(tmp_path, text)
    with pytest.raises(cli.ConfigError, match=fragment):
        cli.load_scenario(path)
    assert cli.main(["all", "--scenario", str(path)]) == 2
    assert fragment in capsys.readouterr().err


def test_reduce_generator_one_past_the_last_is_out_of_range(tmp_path):
    """Three generators: index 3 is out of range, and the message names the
    range 0..2.  Planted for the range test's `idx < r_total` turned into
    `<=` (which reads a generator that is not there) and for `r_total - 1`
    turned into `+ 1` in the message."""
    text = cli.bundled_scenario_path("s2xt2_reduce").read_text()
    path = write(tmp_path, text.replace("[reduce]\ngenerators = 0",
                                        "[reduce]\ngenerators = 3"))
    with pytest.raises(cli.ConfigError) as info:
        cli.load_scenario(path)
    assert str(info.value) == (f"{path}: [reduce] generator 3 out of range "
                               "(0..2)")


def bend_mu2(monkeypatch):
    """Make the CLI's moments move one torus slot of their first mu2 row
    by 1."""
    real = cli.moment_mod.generalized_moment

    def bent(*args):
        mom = real(*args)
        nums, d = mom.mu2
        row = list(nums[0])
        row[1] += d
        return dataclasses.replace(mom, mu2=((tuple(row),) + nums[1:], d))

    monkeypatch.setattr(cli.moment_mod, "generalized_moment", bent)


def test_perturbed_mu2_row_fails_the_equivariance_certificate(monkeypatch):
    """A moment whose mu2 row is no longer a primitive of the contracted
    form fails the certificate: one torus slot moved by 1 off the
    diagonal of Z leaves Z integral with a zero diagonal, yet differs from
    the form's pairing sign H P H^T by 1."""
    sc = cli.load_scenario(cli.bundled_scenario_path("two_torus"))
    bend_mu2(monkeypatch)
    report = cli.run_scenario(sc, ("equivariance",))
    section = report.sections["equivariance"]
    assert section["max_mu2_error"] == 1
    assert section["equivariant"] is False
    assert "equivariance.equivariant" in report.failures


UNDERSAMPLED = """[manifold]
spheres = 0.5 0.5
[action]
generators = | 1 0 ; | 0 1
[pipeline]
grid = 20
coverage_samples = 1000
"""

# every key that Report.require can receive (stage<i> for any stage), and
# a planted input that makes it false: a scenario, the text replacements
# that plant the defect in it, and whether mu2 is bent (bend_mu2)
REQUIRED_KEY_PLANTS = {
    "classify.c_matches_expected": ("two_torus", {"c = 0": "c = 1"}),
    "classify.r_matches_expected": ("two_torus", {"r = 2": "r = 1"}),
    "integralize.k_matches_expected": ("two_torus", {"k = 1": "k = 2"}),
    "integralize.omega_prime_matches_expected": (
        "two_torus", {"omega_prime_torus = 0 1 ; -1 0":
                      "omega_prime_torus = 0 2 ; -2 0"}),
    "equivariance.z_matches_expected": (
        "two_torus", {"z = 0 1 ; -1 0": "z = 0 2 ; -2 0"}),
    "integralize.converged": (
        "two_torus", {"torus_omega = 0 1 ; -1 0":
                      "torus_omega = 0 1e-9 ; -1e-9 0"}),
    "equivariance.equivariant": ("two_torus", {}, True),
    "convexity.coverage_ok": (UNDERSAMPLED, {}),
    "convexity.within_budget": ("two_torus", {"grid = 50": "grid = 5000"}),
    "reduce.stage<i>_free": ("s2xt2_reduce", {"0 0 | 1 ;": "0 0 | 2 ;"}),
    "reduce.stage<i>_regular": ("s2xt2_reduce", {"values = 0": "values = 5"}),
}


def any_stage(name: str) -> str:
    """check.key with a reduce stage number read as stage<i>."""
    return re.sub(r"\.stage[0-9]+_", ".stage<i>_", name)


HERE = Path(__file__).parent
GOLDENS = sorted(p.name for p in (HERE / "golden").iterdir())


@pytest.mark.parametrize("golden", GOLDENS)
def test_every_required_key_can_fail(monkeypatch, golden):
    """A required key that no input can make false checks nothing: each
    one the golden's scenario requires is in REQUIRED_KEY_PLANTS, whose
    plants test_planted_input_fails_its_required_key makes false."""
    seen = set()
    real = cli.Report.require

    def recorded(self, check, key, ok):
        seen.add(any_stage(f"{check}.{key}"))
        real(self, check, key, ok)

    monkeypatch.setattr(cli.Report, "require", recorded)
    ini = HERE / "scenarios" / f"{golden}.ini"
    cli.run_scenario(cli.load_scenario(
        ini if ini.is_file() else cli.bundled_scenario_path(golden)))
    assert seen and seen <= set(REQUIRED_KEY_PLANTS), \
        seen - set(REQUIRED_KEY_PLANTS)


@pytest.mark.parametrize("name", REQUIRED_KEY_PLANTS)
def test_planted_input_fails_its_required_key(tmp_path, monkeypatch, name):
    base, edits, *bent = REQUIRED_KEY_PLANTS[name]
    text = base if "\n" in base \
        else cli.bundled_scenario_path(base).read_text()
    for old, new in edits.items():
        assert old in text, old
        text = text.replace(old, new)
    if bent:
        bend_mu2(monkeypatch)
    try:
        report = cli.run_scenario(cli.load_scenario(write(tmp_path, text)))
    except cli.ConfigError as exc:
        report = exc.report
    failed = [f for f in report.failures if any_stage(f) == name]
    assert failed, report.failures
    check, key = failed[0].split(".")
    assert report.sections[check][key] is False


def test_expectations_enforced(tmp_path):
    bad = write(tmp_path, GOOD + "[expect]\nz = 0 2 ; -2 0\n")
    sc = cli.load_scenario(bad)
    report = cli.run_scenario(sc, ("equivariance",))
    assert "equivariance.z_matches_expected" in report.failures


STAGE_ORDER = ("classify", "integralize", "moment", "equivariance",
               "convexity", "betti", "reduce")


SCENARIO_INIS = [*sorted((Path(cli.__file__).parent / "scenarios").glob(
    "*.ini")), *sorted((Path(__file__).parent / "scenarios").glob("*.ini"))]


@pytest.mark.parametrize("cmd", STAGE_ORDER)
@pytest.mark.parametrize("ini", SCENARIO_INIS, ids=lambda p: p.stem)
def test_subcommand_runs_prerequisites_only(capsys, ini, cmd):
    """Every subcommand ends in exit 0 on every bundled and test scenario,
    and writes the classify and integralize prelude and its own section,
    nothing else; reduce writes none where no [reduce] is given."""
    assert cli.main([cmd, "--scenario", str(ini)]) == 0
    sections = re.findall(r"^\[(\w+)\]$", capsys.readouterr().out,
                          re.MULTILINE)
    expected = {"classify", "integralize", cmd}
    if cmd == "reduce" and "[reduce]" not in ini.read_text():
        expected.remove("reduce")
    assert set(sections) == expected


def test_all_writes_the_sections_in_stage_order():
    """`all` runs the stages in the order they are listed, betti before
    reduce, as the s2xt2_reduce golden report has them."""
    sc = cli.load_scenario(cli.bundled_scenario_path("s2xt2_reduce"))
    assert tuple(cli.run_scenario(sc).sections) == STAGE_ORDER


def test_all_bundled_scenarios_pass():
    for name in BUNDLED:
        sc = cli.load_scenario(cli.bundled_scenario_path(name))
        report = cli.run_scenario(sc)
        assert report.passed, (name, report.failures)


# Integral forms whose periods go past what a float holds exactly: the T^4
# form's cycle lift overflowed the float path, and the T^6 covectors reach
# 2.7e16, which broke the sampled equivariance check.
T4_IRRATIONAL_CYCLE_LIFT = """# T^4 irrational form at the default denominator bound
[manifold]
torus_dim = 4
torus_omega = 0.0 -1.0849511149181894 0.4452706955539223 0.0 ; 1.0849511149181894 0.0 0.0 0.43914916277851057 ; -0.4452706955539223 -0.0 0.0 0.745935416716319 ; -0.0 -0.43914916277851057 -0.745935416716319 0.0

[action]
generators = -1 2 -2 0 | ; -2 1 1 1 |
sign = plus

[pipeline]
max_denominator = 64
seed = 0
samples = 200
coverage_samples = 20000
grid = 20

[checks]
run = classify integralize moment equivariance convexity betti

[expect]
c = 0
r = 2
"""

T6_DENSE_LARGE_K = """# dense T^6 form at the default denominator bound
[manifold]
torus_dim = 6
torus_omega = 0.0 -1.8142854091955263 -0.9899057420363855 -0.5071750855204342 0.40470451642170296 -1.0602630382986247 ; 1.8142854091955263 0.0 -0.6384457155530876 0.9382701144309337 0.9444117662323265 -1.9490816073262298 ; 0.9899057420363855 0.6384457155530876 0.0 0.7651357650568608 1.2624067026747547 -1.1269899570504847 ; 0.5071750855204342 -0.9382701144309337 -0.7651357650568608 0.0 1.7054226771924514 0.9050282633513509 ; -0.40470451642170296 -0.9444117662323265 -1.2624067026747547 -1.7054226771924514 0.0 1.4157612161166935 ; 1.0602630382986247 1.9490816073262298 1.1269899570504847 -0.9050282633513509 -1.4157612161166935 0.0

[action]
generators = 2 0 1 -1 1 1 |  ; -2 2 2 -2 0 -1 | 
sign = plus

[pipeline]
max_denominator = 64
seed = 174593954
samples = 100

[checks]
run = classify integralize moment equivariance betti

[expect]
c = 0
r = 2
"""


@pytest.mark.parametrize("text,verdicts", [
    (T4_IRRATIONAL_CYCLE_LIFT, ("equivariant = true", "cycle_winding = ")),
    (T6_DENSE_LARGE_K, ("equivariant = true",)),
], ids=["t4-irrational-cycle-lift", "t6-dense-large-k"])
def test_large_integral_forms_pass(tmp_path, capsys, text, verdicts):
    out = tmp_path / "out"
    assert cli.main(["all", "--scenario", str(write(tmp_path, text)),
                     "--out", str(out)]) == 0
    lines = (out / "report.txt").read_text().splitlines()
    for verdict in verdicts:
        assert any(line.startswith(verdict) for line in lines), verdict
    [diff] = [line.split(" = ")[1] for line in lines
              if line.startswith("path_difference = ")]
    assert diff.lstrip("-").isdigit()


def test_effective_reads_the_smith_diagonal(tmp_path):
    """The action is effective when its first r_total Smith invariants are
    all 1: t2_gcd2's generator 2 0 has a Z/2 defect, and three generators
    of T^2 cannot act effectively however small their invariants."""
    three = write(tmp_path, GOOD.replace("1 0 | ; 0 1 |",
                                         "1 0 | ; 0 1 | ; 1 1 |"))
    for path, effective, diag in (
            (cli.bundled_scenario_path("t2_gcd2"), False, [2]),
            (cli.bundled_scenario_path("s2xt2_reduce"), True, [1, 1, 1]),
            (three, False, [1, 1])):
        report = cli.run_scenario(cli.load_scenario(path), ("classify",))
        assert report.sections["classify"]["effective"] is effective
        assert report.sections["classify"]["effectiveness_diagonal"] == diag


# ---------------------------------------------------------------------------
# emission

def test_report_emission_and_determinism(tmp_path):
    sc = cli.load_scenario(cli.bundled_scenario_path("t2_gcd2"))
    report = cli.run_scenario(sc)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    files1 = cli.emit_report(report, d1)
    files2 = cli.emit_report(cli.run_scenario(sc), d2)
    assert [f.name for f in files1] == [f.name for f in files2]
    for f1, f2 in zip(files1, files2):
        assert f1.read_bytes() == f2.read_bytes()
    names = {f.name for f in files1}
    assert names == {"report.txt", "moment_samples.csv", "coverage.csv",
                     "matrices.csv"}


def test_render_is_cached_until_the_report_changes():
    report = cli.Report("s", {"seed": 0})
    first = report.render()
    assert report.render() is first
    report.add("moment", "c", 1)
    assert report.render().endswith("[moment]\nc = 1\n\noverall = pass\n")
    report.matrix("cocycle", [[0, 1], [-1, 0]])
    assert report.render() == first.replace(
        "\noverall", "\n[moment]\nc = 1\n\noverall")
    report.require("moment", "ok", False)
    assert report.render().endswith("ok = false\n\noverall = FAIL\n"
                                    "failures = moment.ok\n")


def test_main_builds_the_report_text_once(tmp_path, capsys, monkeypatch):
    """stdout and report.txt share one rendering."""
    builds = []
    real = cli.Report.render
    monkeypatch.setattr(cli.Report, "render", lambda self: builds.append(
        self._text is None) or real(self))
    assert cli.main(["all", "--scenario", "two_torus",
                     "--out", str(tmp_path)]) == 0
    assert builds == [True, False]
    assert (tmp_path / "report.txt").read_text() == capsys.readouterr().out


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_sample_table_is_written_in_row_blocks(tmp_path, monkeypatch, dtype):
    """A table of two and a half blocks is written as three blocks of at
    most TABLE_BLOCK_ENTRIES cells, whose bytes are one "%d" per cell."""
    cols = 7
    step = sample.TABLE_BLOCK_ENTRIES // cols
    rng = np.random.default_rng(0)
    a = rng.integers(-(2 ** 62), 2 ** 62, (5 * step // 2, cols)).astype(dtype)
    if dtype is object:
        a[::3, 2] *= 10 ** 30
    blocks = []
    real = sample.decimal_table
    monkeypatch.setattr(sample, "decimal_table",
                        lambda b: blocks.append(b.shape) or real(b))
    report = cli.Report("s", {})
    report.samples = tuple(f"c{j}" for j in range(cols)), a
    cli.emit_report(report, tmp_path)
    assert blocks == [(step, cols), (step, cols), (len(a) - 2 * step, cols)]
    assert (tmp_path / "moment_samples.csv").read_bytes() == (
        b"c0,c1,c2,c3,c4,c5,c6\n" + percent_d_table(a))


def test_sample_table_temporaries_stay_small():
    """A table of 10^6 cells is formatted block by block with under 4 MB
    traced at a time; as one block it would take about 34.  Planted for
    TABLE_BLOCK_ENTRIES = 2 ** 13 with its base raised to 3, which formats
    the whole table as one block."""
    a = np.arange(10 ** 6, dtype=np.int64).reshape(-1, 5)
    tracemalloc.start()
    try:
        size = sum(len(block) for block in sample.table_blocks(a))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == len(",".join(map(str, range(10 ** 6)))) + 1
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("name,header", [
    ("two_torus", "x0/P,x1/P,mu2_0/P,mu2_1/P"),
    ("s2xt2_reduce", "x0/P,x1/P,x2/P,x3/P,mu1_0/P,mu2_0/P,mu2_1/P"),
    ("s2xs2", "x0/P,x1/P,x2/P,x3/P,mu1_0/2P,mu1_1/2P"),
])
def test_sample_csv_shape(tmp_path, name, header):
    """The table holds integer numerators, its denominators in the header,
    and every row's mu columns are the exact moment of its point."""
    p = geom.LATTICE
    sc = cli.load_scenario(cli.bundled_scenario_path(name))
    report = cli.run_scenario(sc)
    cli.emit_report(report, tmp_path)
    lines = (tmp_path / "moment_samples.csv").read_text().splitlines()
    assert lines[0] == header.replace("2P", str(2 * p)).replace("P", str(p))
    assert len(lines) == 1 + sc.samples
    dens = [int(col.split("/")[1]) for col in lines[0].split(",")]
    rows = [[int(field) for field in line.split(",")] for line in lines[1:]]
    dim = sc.manifold.dim
    mom = scenario_moment(sc)
    oracle = lattice_oracle(mom, np.array([row[:dim] for row in rows]))
    for row, (mu1, mu2) in zip(rows, oracle):
        assert [Fraction(v, d) for v, d in zip(row[dim:], dens[dim:])] \
            == list(mu1 + mu2)


def percent_d_table(a):
    """The oracle of the sample table's bytes: one "%d" per cell."""
    n, cols = a.shape
    line = ",".join(["%d"] * cols) + "\n"
    return ((line * n) % tuple(a.ravel().tolist())).encode()


# every digit count and its carry edges, either sign
DECIMAL_EDGES = sorted({s * v for k in range(19)
                        for v in (10 ** k, 10 ** k - 1) for s in (1, -1)})


@given(hnp.arrays(np.int64, st.tuples(st.integers(1, 60), st.integers(1, 12)),
                  elements=st.one_of(
                      st.integers(-(2 ** 63 - 1), 2 ** 63 - 1),
                      st.integers(-(2 ** 32), 2 ** 32),
                      st.sampled_from(DECIMAL_EDGES))))
def test_decimal_table_matches_percent_d(a):
    assert sample.decimal_table(a) == percent_d_table(a)


def test_decimal_table_at_the_uint32_edge():
    """Magnitudes up to 2^32 - 1 are divided as uint32; 2^32 itself, and a
    number whose quotient by 100 is 2^32, stay uint64.  Planted for the
    cast test `top < 2 ** 32` turned into `<=`, which wraps 2^32 to 0."""
    a = np.array([[2 ** 32 - 1, 2 ** 32, -(2 ** 32) - 1],
                  [0, 100 * 2 ** 32, 7]], dtype=np.int64)
    for rows in (a[:1], a[1:], a):
        assert sample.decimal_table(rows) == percent_d_table(rows)


def test_object_sample_table_writes_percent_d(tmp_path):
    """A sphere of area 10^13 puts Python ints in the sample table; they
    are written as "%d" writes them."""
    path = write(tmp_path, "[manifold]\nspheres = 10000000000000\n"
                           "[action]\ngenerators = | 1\n")
    report = cli.run_scenario(cli.load_scenario(path), ("moment",))
    _, rows = report.samples
    assert rows.dtype == object
    cli.emit_report(report, tmp_path / "out")
    text = (tmp_path / "out" / "moment_samples.csv").read_bytes()
    assert text.split(b"\n", 1)[1] == percent_d_table(rows)


def test_huge_torus_form_covers_its_image(tmp_path, capsys):
    """Covectors of 10^300 on the 2-torus: lattice samples do not alias, so
    the circle image is covered and the run passes."""
    path = write(tmp_path, GOOD.replace("0 1 ; -1 0", "0 1e300 ; -1e300 0"))
    assert cli.main(["all", "--scenario", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    [fraction] = [line.split(" = ")[1] for line in out
                  if line.startswith("coverage_fraction = ")]
    assert float(fraction) >= 0.99


def test_coverage_csv_matches_report(tmp_path):
    sc = cli.load_scenario(cli.bundled_scenario_path("two_torus"))
    report = cli.run_scenario(sc)
    cli.emit_report(report, tmp_path)
    lines = (tmp_path / "coverage.csv").read_text().splitlines()
    assert len(lines) == 2
    res, counted, hit, frac, _ = lines[1].split(",")
    assert int(res) == sc.grid
    assert int(counted) == sc.grid ** 2
    assert float(frac) == report.sections["convexity"]["coverage_fraction"]
