"""Seeded scenario generators for the benchmark workloads.

Every generated scenario is valid by construction and carries `[expect] c`
and `r` computed from that construction (c = generators minus the rank of
their translation parts, r = that rank), so the program checks its own
answer.  Each workload cycles through a fixed list of strata (the structural
shape of a scenario: torus dimension, sphere count, grid size); the seed
draws everything inside a stratum.  Interleaving the strata keeps the mix of
op costs the same for every seed and for every prefix of the op sequence,
which is what keeps per-run percentiles comparable between seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

STRATA = 10     # strata per workload; a pool is whole cycles of them


@dataclass(frozen=True)
class Case:
    name: str
    stratum: str
    text: str


def _rank(rows) -> int:
    """Rank over Q by exact elimination (rows of small integers).  Kept
    apart from ratlin so that the expectations do not depend on the code
    under test."""
    a = [[Fraction(x) for x in row] for row in rows]
    rank, col = 0, 0
    ncols = len(a[0]) if a else 0
    while rank < len(a) and col < ncols:
        piv = next((i for i in range(rank, len(a)) if a[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(len(a)):
            if i != rank and a[i][col] != 0:
                f = a[i][col] / a[rank][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
        col += 1
    return rank


def _matrix(rows) -> str:
    return " ; ".join(" ".join(str(x) for x in row) for row in rows)


def _generators(translations, rotations) -> str:
    return " ; ".join(
        " ".join(map(str, v)) + " | " + " ".join(map(str, s))
        for v, s in zip(translations, rotations))


def _symplectic_integer_omega(rng: random.Random, m: int) -> list:
    """Block-diagonal integer form with random nonzero block weights, so
    nondegenerate and already integral (k = 1)."""
    om = [[0] * m for _ in range(m)]
    for b in range(0, m, 2):
        w = rng.choice((1, 2, 3)) * rng.choice((1, -1))
        om[b][b + 1], om[b + 1][b] = w, -w
    return om


def _independent_translations(rng: random.Random, m: int, count: int,
                              lo: int = -2, hi: int = 2) -> list:
    """`count` integer vectors in Z^m, linearly independent over Q.  A draw
    with dependent vectors is an invalid input (the expected c and r would
    not be the construction's), so it is drawn again."""
    while True:
        vs = [[rng.randint(lo, hi) for _ in range(m)] for _ in range(count)]
        if _rank(vs) == count:
            return vs


def _ini(comment: str, manifold: list, generators: str, sign: str,
         pipeline: dict, checks: str, expect: dict,
         reduce: tuple | None = None) -> str:
    lines = [f"# {comment}", "[manifold]", *manifold, "", "[action]",
             f"generators = {generators}", f"sign = {sign}", "",
             "[pipeline]"]
    lines += [f"{k} = {v}" for k, v in pipeline.items()]
    lines += ["", "[checks]", f"run = {checks}", ""]
    if reduce is not None:
        lines += ["[reduce]", f"generators = {reduce[0]}",
                  f"values = {reduce[1]!r}", ""]
    lines += ["[expect]"] + [f"{k} = {v}" for k, v in expect.items()]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# orbit-sampling: per-sample loops (apply_torus_element, single-point mu,
# equivariance, induced moment on reduction)

ORBIT_STRATA = (
    # (spheres, translation generators, extra Hamiltonian rotation, samples)
    # Cost classes by slot share: 30% cheap, 40% middle, 10% costlier and
    # 20% four times the samples.  p50 then falls inside the middle class
    # and p90 inside the slowest one, never in a gap between two classes,
    # where a percentile would jump with the draw.
    (1, 1, False, 1000),
    (2, 1, False, 1000),
    (2, 2, False, 4000),
    (2, 1, False, 1000),
    (1, 1, False, 1000),
    (2, 1, True, 1000),
    (2, 1, False, 1000),
    (1, 2, False, 4000),
    (1, 1, False, 1000),
    (2, 1, False, 1000),
)


def _orbit_case(rng: random.Random, i: int) -> Case:
    n_sph, n_tr, extra_rot, samples = ORBIT_STRATA[i % len(ORBIT_STRATA)]
    m = 2
    omega = _symplectic_integer_omega(rng, m)
    coeffs = [rng.choice((0.5, 1.0, 1.5, 2.0)) for _ in range(n_sph)]
    # generator 0 rotates sphere 0 alone at speed +-1: the reducible circle
    s0 = rng.choice((1, -1))
    translations = [[0] * m]
    rotations = [[s0] + [0] * (n_sph - 1)]
    if extra_rot:
        translations.append([0] * m)
        rotations.append([0] + [rng.choice((1, -1, 2))]
                         + [0] * (n_sph - 2))
    for v in _independent_translations(rng, m, n_tr):
        translations.append(v)
        # mixed: residual generators may rotate any sphere but sphere 0
        rotations.append([0] + [rng.randint(-2, 2)
                                for _ in range(n_sph - 1)])
    sign = rng.choice(("plus", "minus"))
    eps = 1 if sign == "plus" else -1
    # regular interior level of the reduced rotation: height h on sphere 0
    h = rng.uniform(-0.8, 0.8)
    level = h * eps * s0 * coeffs[0]
    r = n_tr
    c = len(translations) - r
    grid = 6 if c + r == 3 else 10     # 20 or more samples per cell
    text = _ini(
        f"orbit-sampling stratum {i % len(ORBIT_STRATA)}",
        ["torus_dim = 2", f"torus_omega = {_matrix(omega)}",
         "spheres = " + " ".join(repr(x) for x in coeffs)],
        _generators(translations, rotations), sign,
        {"max_denominator": 64, "seed": rng.randrange(2 ** 31),
         "samples": samples, "coverage_samples": 20000, "grid": grid},
        "classify integralize moment equivariance convexity betti reduce",
        {"c": c, "r": r}, reduce=(0, level))
    return Case(f"orbit-{i:04d}",
                f"S{n_sph}-t{n_tr}" + ("-h" if extra_rot else ""), text)


# ---------------------------------------------------------------------------
# coverage-grid: hull, per-cell / per-corner contains loop, coverage binning,
# extremum grid

COVERAGE_STRATA = (
    # (rotated spheres, torus dim with one translation generator, grid,
    #  sheared rotation speeds, coverage samples per grid cell)
    # Samples per cell stay at 12 or more, well above the miss probability
    # that the 0.99 coverage bar tolerates (e^-12 per cell).  They are fixed
    # per stratum because the hull's facet count, and with it the cost of
    # every contains call, grows with the sample count.
    # Cost classes by slot share as in ORBIT_STRATA: 30% cheap, 40% middle
    # (grid 18 on two spheres, grid 8 on two spheres and T^2), 10% with the
    # T^4 extremum grid, and 20% unsheared c = 3 boxes at grid 7, whose
    # every cell tests all eight corners.
    (1, 2, 24, True, 30),
    (2, 0, 18, True, 14),
    (3, 0, 7, False, 16),
    (2, 2, 8, True, 12),
    (2, 0, 14, True, 20),
    (2, 4, 7, True, 16),
    (2, 0, 18, True, 14),
    (3, 0, 7, False, 16),
    (3, 0, 5, True, 24),
    (2, 2, 8, True, 12),
)


def _coverage_case(rng: random.Random, i: int) -> Case:
    n_sph, m, grid, sheared, per_cell = \
        COVERAGE_STRATA[i % len(COVERAGE_STRATA)]
    coeffs = [rng.choice((0.5, 1.0, 1.5)) for _ in range(n_sph)]
    translations, rotations = [], []
    # unit upper-triangular rotation speeds: c = n_sph, image a
    # parallelepiped of heights (a box when unsheared)
    for f in range(n_sph):
        row = [0] * n_sph
        row[f] = rng.choice((1, -1))
        for g in range(f + 1, n_sph):
            row[g] = rng.choice((0, 0, 1, -1)) if sheared else 0
        translations.append([0] * m)
        rotations.append(row)
    manifold = []
    if m:
        manifold += [f"torus_dim = {m}",
                     f"torus_omega = {_matrix(_symplectic_integer_omega(rng, m))}"]
        translations.append(_independent_translations(rng, m, 1, -1, 1)[0])
        rotations.append([rng.randint(-1, 1) for _ in range(n_sph)])
    else:
        manifold.append("torus_dim = 0")
    manifold.append("spheres = " + " ".join(repr(x) for x in coeffs))
    r = 1 if m else 0
    c = n_sph
    cells = grid ** (c + r)
    text = _ini(
        f"coverage-grid stratum {i % len(COVERAGE_STRATA)}", manifold,
        _generators(translations, rotations), rng.choice(("plus", "minus")),
        {"max_denominator": 64, "seed": rng.randrange(2 ** 31),
         "samples": 300, "coverage_samples": cells * per_cell,
         "grid": grid},
        "classify integralize moment equivariance convexity betti",
        {"c": c, "r": r})
    return Case(f"coverage-{i:04d}",
                f"S{n_sph}-T{m}-g{grid}" + ("" if sheared else "-box"), text)


# ---------------------------------------------------------------------------
# exact-forms: exact Pfaffians of dense irrational torus forms, rounding and
# integralization retries

# (torus dimension, translation generators).  Cost classes as in
# ORBIT_STRATA: 30% T^6 and T^8, 50% T^10, and 20% T^12, about five times as
# slow as T^10.  The generator count is part of the stratum because it
# doubles the cost of a T^10 op.
EXACT_STRATA = ((10, 2), (6, 1), (12, 2), (10, 2), (8, 2), (10, 2),
                (12, 2), (8, 3), (10, 2), (10, 2))
EXACT_MAX_DENOMINATORS = (1, 2, 3, 4, 6, 8)


def _exact_text(rng: random.Random, m: int, n_gen: int,
                max_denominator: int, comment: str) -> str:
    omega = [[0.0] * m for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            x = rng.uniform(0.05, 2.0) * rng.choice((1, -1))
            omega[a][b], omega[b][a] = x, -x
    translations = _independent_translations(rng, m, n_gen)
    return _ini(
        comment,
        [f"torus_dim = {m}",
         "torus_omega = " + _matrix([[repr(x) for x in row]
                                     for row in omega])],
        _generators(translations, [[] for _ in translations]),
        rng.choice(("plus", "minus")),
        {"max_denominator": max_denominator,
         "seed": rng.randrange(2 ** 31), "samples": 100},
        "classify integralize moment equivariance betti",
        {"c": 0, "r": n_gen})


def _exact_case(rng: random.Random, i: int) -> Case:
    m, n_gen = EXACT_STRATA[i % len(EXACT_STRATA)]
    text = _exact_text(rng, m, n_gen, rng.choice(EXACT_MAX_DENOMINATORS),
                       f"exact-forms stratum {i % len(EXACT_STRATA)}")
    return Case(f"exact-{i:04d}", f"T{m}-t{n_gen}", text)


WORKLOADS = {
    "orbit-sampling": _orbit_case,
    "coverage-grid": _coverage_case,
    "exact-forms": _exact_case,
}
assert all(len(t) == STRATA
           for t in (ORBIT_STRATA, COVERAGE_STRATA, EXACT_STRATA))
# About the mean seconds of one op over a cycle of the strata, with the
# reference work the run times after each op, measured on a 2-vCPU
# Linux VM (Python 3.11, numpy 2.4).  They size the scenario count, so
# they stay fixed: a faster program then makes shorter runs, not more
# scenarios.
MEAN_OP_S = {"orbit-sampling": 0.21, "coverage-grid": 0.19,
             "exact-forms": 0.23}


def pool_size(workload: str, pass_seconds: float) -> int:
    """Scenarios in one pass of about `pass_seconds`: whole cycles of the
    strata, at least one."""
    cycles = round(pass_seconds / (MEAN_OP_S[workload] * STRATA))
    return STRATA * max(1, cycles)


def generate(workload: str, seed: int, count: int, out_dir: Path) -> list:
    """Write `count` scenario files for (workload, seed) under out_dir and
    return [(Case, path)] in op order."""
    make = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    cases = []
    for i in range(count):
        case = make(rng, i)
        path = out_dir / f"{case.name}.ini"
        path.write_text(case.text)
        cases.append((case, path))
    return cases


# ---------------------------------------------------------------------------
# known defects on valid inputs, kept out of the timed workloads and re-run
# once per run so that they stay visible: name -> (expected outcome, text)

_T4_OMEGA = ("0.0 -1.0849511149181894 0.4452706955539223 0.0 ; "
             "1.0849511149181894 0.0 0.0 0.43914916277851057 ; "
             "-0.4452706955539223 -0.0 0.0 0.745935416716319 ; "
             "-0.0 -0.43914916277851057 -0.745935416716319 0.0")


def known_failures() -> dict:
    return {
        "t4-irrational-cycle-lift": (
            "OverflowError in convex.cycle_lift",
            _ini("T^4 irrational form at the default denominator bound",
                 ["torus_dim = 4", f"torus_omega = {_T4_OMEGA}"],
                 "-1 2 -2 0 | ; -2 1 1 1 |", "plus",
                 {"max_denominator": 64, "seed": 0, "samples": 200,
                  "coverage_samples": 20000, "grid": 20},
                 "classify integralize moment equivariance convexity betti",
                 {"c": 0, "r": 2})),
        "t6-dense-large-k": (
            "FAIL equivariance.equivariant",
            _exact_text(random.Random("known:t6"), 6, 2, 64,
                        "dense T^6 form at the default denominator bound")),
        "coverage-undersampled": (
            "FAIL convexity.coverage_ok",
            _ini("two rotated spheres, 2.5 samples per coverage cell",
                 ["torus_dim = 0", "spheres = 0.5 0.5"],
                 "| 1 0 ; | 0 1", "plus",
                 {"max_denominator": 64, "seed": 0, "samples": 200,
                  "coverage_samples": 1000, "grid": 20},
                 "classify integralize moment equivariance convexity betti",
                 {"c": 2, "r": 0})),
    }
