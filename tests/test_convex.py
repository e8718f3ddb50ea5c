"""Image structure: the exact moment polytope, coverage of the product
image, the exact no-extremum predicate, the first-Betti bound, and cycle
lifting."""

import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from momentforge import (cli, convex, geom, hamclass, moment, ratlin,
                         sample)
from momentforge.geom import ActionSpec, ProductManifold

from conftest import (STD2, STD4, STD6, classify, determinantal_divisor,
                      float_mu2, fraction_moment_polytope, fractions,
                      full_draw_coverage, lattice_oracle, pair, s2xs2, s2xt2,
                      scenario_moment, sphere, torus2, torus4)


def coverage(mom, polytope, res, n, seed):
    """The coverage report of a fresh stream for seed, as the `convexity`
    subcommand runs it: nothing is drawn before the check."""
    return sample.product_coverage_check(
        mom, polytope, res, n, sample.Stream(mom.omega_prime, seed))


def pipeline(m, a):
    res = hamclass.integralize_with_retry(m, 64)
    mom = moment.generalized_moment(a, res.omega_prime, classify(m, a))
    return res, mom


# ---------------------------------------------------------------------------
# the exact moment polytope

def rotations(speeds):
    """Pure sphere-rotation action, one generator per row of speeds."""
    return ActionSpec(tuple(() for _ in speeds), tuple(speeds))


def spheres(n, c=0.5):
    return ProductManifold(None, (c,) * n)


def polytope_of(m, a):
    _, mom = pipeline(m, a)
    return convex.moment_polytope(mom), mom


def height_coefficients(m, mom):
    """w (c x n): the exact coefficient of each sphere height in mu1."""
    return [[cov[m.sphere_offset(f) + 1]
             for f in range(m.n_spheres)] for cov in fractions(mom.mu1)]


def pole_images(w):
    n = len(w[0])
    return {tuple(sum(s * x for s, x in zip(sigma, row)) for row in w)
            for sigma in itertools.product((-1, 1), repeat=n)}


def numerators(points):
    """Exact points as integer numerators over one common denominator."""
    den = math.lcm(*(F(x).denominator for p in points for x in p))
    return [[int(x * den) for x in p] for p in points], den


def vertices(poly):
    """The polytope's vertices as exact points: their numerators over
    poly.den."""
    return tuple(tuple(F(x, poly.den) for x in v) for v in poly.vertices)


def offsets(poly):
    """The polytope's facet offsets, exactly."""
    return tuple(F(b, poly.den) for b in poly.offsets)


def test_sphere_polytope_is_an_interval():
    poly, _ = polytope_of(sphere(), rotations([(1,)]))
    assert vertices(poly) == ((F(-1, 2),), (F(1, 2),))
    assert poly.contains([[0], [1], [-1]], 2).all()
    assert not poly.contains([[6000], [-5001]], 10000).any()
    with pytest.raises(TypeError, match="polytope test"):
        poly.contains([[0.5]], 1)


def test_s2xs2_polytope_is_a_square(s2xs2_rotations):
    poly, _ = polytope_of(*s2xs2_rotations)
    half = F(1, 2)
    assert vertices(poly) == ((-half, -half), (-half, half),
                             (half, -half), (half, half))
    assert poly.contains([[1, 1]], 2).all()
    assert not poly.contains([[50, 51]], 100).any()


def test_three_spheres_polytope_is_a_cube():
    poly, _ = polytope_of(spheres(3), rotations([(1, 0, 0), (0, 1, 0),
                                                 (0, 0, 1)]))
    half = F(1, 2)
    assert set(vertices(poly)) == set(itertools.product((-half, half),
                                                       repeat=3))
    assert len(poly.normals) == 3


def test_sheared_polytope_is_a_parallelogram():
    m = s2xs2()
    poly, mom = polytope_of(m, rotations([(1, 1), (0, 1)]))
    half = F(1, 2)
    assert height_coefficients(m, mom) == [[half, half], [0, half]]
    assert vertices(poly) == ((-1, -half), (0, -half), (0, half), (1, half))
    assert len(poly.normals) == 2
    # the centre and an edge midpoint are in; the bounding-box corners off
    # the parallelogram are not
    assert poly.contains([[0, 0], [1, 0], [-1, -1]], 2).all()
    assert not poly.contains([[2, -1], [-2, 1]], 2).any()


def test_contains_pairs_exactly_past_int64():
    """int64 numerators whose pairings could pass 2^63 are paired in Python
    ints: the far corner (2^63 - 1)(1, 1) / 4 of the diamond pairs to
    2^64 - 2 with the normal (1, 1), which int64 would wrap to -2, within
    the bound 4."""
    poly, _ = polytope_of(s2xs2(), rotations([(1, 1), (1, -1)]))
    assert set(poly.normals) == {(1, -1), (1, 1)}
    big = 2 ** 63 - 1
    assert not poly.contains(np.array([[big, big], [big, -big]]), 4).any()
    assert poly.contains(np.array([[big, 0], [0, -big]]), big).all()


def test_a_pairing_of_exactly_2_63_is_paired_in_python_ints():
    """(2^62, 2^62) pairs to 2^63 with the normal (1, 1), one past the
    int64 range, so it is paired in Python ints and lies outside the bound
    2^63 - 1; (2^62, 2^62 - 1) lies on it.  Planted for exact_dtype's
    `bound < 2 ** 63` turned into `<=`, under which int64 wraps the
    pairing to -2^63 and lets the point in."""
    half, top = 2 ** 62, 2 ** 63 - 1
    assert sample.within([(1, 1)], [top], [[half, half]]).tolist() == [False]
    assert sample.within([(1, 1)], [top], [[half, half - 1]]).tolist() == [
        True]


@st.composite
def edge_pairings(draw):
    """(coeffs, offsets, top, nums) whose first row's bound |offset| +
    sum |coeff| top lies within 3 of 2^63, on either side, with numerators
    of at most top, extremes among them."""
    k, u = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    coeffs = draw(st.lists(st.lists(st.integers(-8, 8), min_size=u,
                                    max_size=u), min_size=k, max_size=k)
                  .filter(lambda rows: any(rows[0])))
    top = draw(st.integers(1, 2 ** 40))
    first = 2 ** 63 + draw(st.integers(-3, 3)) - sum(map(abs, coeffs[0])) * top
    offsets = [draw(st.sampled_from((-1, 1))) * first] + [
        draw(st.integers(-top, top)) for _ in coeffs[1:]]
    nums = draw(st.lists(st.lists(
        st.sampled_from((-top, top)) | st.integers(-top, top),
        min_size=u, max_size=u), min_size=1, max_size=4))
    return coeffs, offsets, top, nums


@given(edge_pairings())
@example(([[1, 1]], [0], 2 ** 62, [[2 ** 62, 2 ** 62]]))
@example(([[1, 1]], [1], 2 ** 62 - 1, [[2 ** 62 - 1, 2 ** 62 - 1]]))
@settings(max_examples=200, deadline=None)
def test_pairing_matches_python_ints_at_the_int64_edge(case):
    """The one integer product equals the pairing in Python ints, on
    int64 just below the edge and on Python ints from it on."""
    coeffs, offsets, top, nums = case
    pairing = sample.Pairing(coeffs, offsets, 0, top)
    assert (pairing.dtype == np.int64) == all(
        abs(o) + sum(map(abs, row)) * top < 2 ** 63
        for row, o in zip(coeffs, offsets))
    want = [[o + sum(a * x for a, x in zip(row, num))
             for row, o in zip(coeffs, offsets)] for num in nums]
    assert pairing(np.array(nums, dtype=np.int64)).tolist() == want


def test_hexagon_keeps_only_the_extreme_pole_images():
    """Three spheres under two rotations: the zonotope is a hexagon, so two
    of the eight pole images (the centre, twice) are not vertices."""
    m = spheres(3)
    poly, mom = polytope_of(m, rotations([(1, 0, 1), (0, 1, 1)]))
    w = height_coefficients(m, mom)
    assert len(pole_images(w)) == 7
    assert len(vertices(poly)) == 6 and len(poly.normals) == 3
    assert set(vertices(poly)) == pole_images(w) - {(0, 0)}
    assert poly.contains(*numerators(vertices(poly))).all()


def test_degenerate_polytope_is_a_segment():
    """Two generators rotating the same sphere: rank w = 1 < c = 2, so the
    image is a segment and no coverage cell is interior."""
    m, a = sphere(), rotations([(1,), (1,)])
    poly, mom = polytope_of(m, a)
    assert mom.c == 2
    assert len(vertices(poly)) == 2
    mid = [F(sum(xs), 2) for xs in zip(*vertices(poly))]
    assert poly.contains(*numerators([mid])).all()
    off = [mid[0] + F(1, 1000), mid[1] - F(1, 1000)]
    assert not poly.contains(*numerators([off])).any()
    rep = coverage(mom, poly, 10, 5000, 0)
    assert rep.n_counted_cells == 0 and rep.fraction == 1.0


def test_four_spheres_polytope():
    """c = 4 has the same exact construction as every other dimension."""
    m = spheres(4)
    speeds = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    poly, mom = polytope_of(m, rotations(speeds))
    assert mom.c == 4 and len(vertices(poly)) == 16 and len(poly.normals) == 4
    rep = coverage(mom, poly, 5, 20000, 0)
    assert rep.n_counted_cells == 5 ** 4
    assert rep.fraction >= 0.99


def test_mixed_polytope_and_samples(s2xt2_mixed):
    m, a = s2xt2_mixed
    poly, mom = polytope_of(m, a)
    assert vertices(poly) == ((-1,), (1,))
    nums = sample.sample_points(m, 1000, 0)
    assert poly.contains(mom.mu1_values(nums), mom.mu1_den).all()
    mu2 = float_mu2(mom, nums / geom.LATTICE)
    assert np.all((mu2 >= 0) & (mu2 < 1))


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n)
             .filter(any), min_size=1, max_size=3),
    st.lists(st.sampled_from((0.5, 1.0, 1.5)), min_size=n, max_size=n),
    st.sampled_from((1, -1)))))
@settings(max_examples=40, deadline=None)
def test_sampled_image_lies_in_polytope(data):
    speeds, coeffs, sign = data
    m = ProductManifold(None, coeffs)
    a = ActionSpec(tuple(() for _ in speeds), tuple(map(tuple, speeds)),
                   sign)
    poly, mom = polytope_of(m, a)
    assert set(vertices(poly)) <= pole_images(height_coefficients(m, mom))
    nums = sample.sample_points(m, 500, 0)
    # the poles themselves map onto the boundary
    nums[:8, 1::2] = np.sign(nums[:8, 1::2]) * geom.LATTICE
    assert poly.contains(mom.mu1_values(nums), mom.mu1_den).all()


entries = st.one_of(st.integers(-3, 3),
                    st.builds(F, st.integers(-6, 6), st.integers(1, 6)))


@st.composite
def height_matrices(draw):
    """w (c x n), c 1-3 and n 0-5: each column fresh, zero, or a rational
    multiple of an earlier column."""
    c = draw(st.integers(1, 3))
    cols = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(("fresh", "zero", "parallel")))
        if kind == "parallel" and cols:
            scale = draw(entries)
            cols.append([scale * x for x in draw(st.sampled_from(cols))])
        elif kind == "zero":
            cols.append([0] * c)
        else:
            cols.append(draw(st.lists(entries, min_size=c, max_size=c)))
    return [list(row) for row in zip(*cols)] if cols else [[]] * c


@given(height_matrices())
@example([[F(1, 2), F(1, 2)], [0, F(1, 2)]])
@example([[1, 0, 2], [F(1, 3), 0, F(2, 3)]])
@example([[0, F(-5, 6)], [0, F(5, 6)], [0, 0]])
@example([[], []])
@settings(max_examples=200, deadline=None)
def test_moment_polytope_matches_fraction_oracle(w):
    """The integer construction on mu1's pair returns the vertices,
    normals and offsets that Fraction arithmetic on w returns, the normals
    as ints."""
    n = len(w[0])
    m = ProductManifold(STD2, (F(1, 2),) * n)
    mu1 = pair([[0, 0] + [x for h in row for x in (0, h)] for row in w])
    mom = moment.GeneralizedMoment(None, m, None, mu1, ((), 1), None)
    poly = convex.moment_polytope(mom)
    want_vertices, want_normals, want_offsets = fraction_moment_polytope(mom)
    assert vertices(poly) == want_vertices
    assert poly.normals == want_normals
    assert all(type(x) is int for nv in poly.normals for x in nv)
    assert offsets(poly) == want_offsets


def test_a_mid_edge_pole_image_of_a_4d_zonotope_is_no_vertex():
    """k = 4, with the second generator repeated: where the pair cancels,
    a pole image lies mid-edge, on four facets whose normals have rank 3,
    so it is no vertex.  Planted for the vertex test's `len(tight) >= k
    and rank == k` turned into `or`, which needs k >= 4 to show: below
    that, k tight facets always have rank k."""
    w = [[1, -1, 1, 1, 1, -1], [0, -1, 1, 0, 0, -1], [-1, 1, 1, 0, 1, 1],
         [1, 0, -1, -1, -1, 0]]
    m = ProductManifold(STD2, (F(1, 2),) * 6)
    mu1 = pair([[0, 0] + [x for h in row for x in (0, h)] for row in w])
    mom = moment.GeneralizedMoment(None, m, None, mu1, ((), 1), None)
    poly = convex.moment_polytope(mom)
    mid_edge = (-2, -1, -1, 0)
    assert sum(abs(sum(a * b for a, b in zip(nv, mid_edge))) == off
               for nv, off in zip(poly.normals, poly.offsets)) == 4
    assert mid_edge not in poly.vertices
    assert vertices(poly) == fraction_moment_polytope(mom)[0]


# ---------------------------------------------------------------------------
# coverage

def test_two_torus_coverage(t2_translations):
    m, a = t2_translations
    _, mom = pipeline(m, a)
    rep = coverage(mom, convex.moment_polytope(mom), 50, 100000, 0)
    assert rep.n_counted_cells == 2500
    assert rep.fraction >= 0.99


def test_pure_hamiltonian_coverage_reduces_to_hull(s2xs2_rotations):
    m, a = s2xs2_rotations
    _, mom = pipeline(m, a)
    rep = coverage(mom, convex.moment_polytope(mom), 15, 60000, 0)
    assert rep.n_counted_cells == 15 ** 2
    assert rep.fraction >= 0.99


def test_interior_cells_match_per_corner_loop():
    """The interior mask counts the cells a per-cell, per-corner Fraction
    loop over the facet inequalities counts, on a sheared image that cuts
    the grid.  At sphere coefficients 10^6 a float test with an absolute
    tolerance counted 57 of the 60 cells."""
    for coeff, res in ((F(1, 2), 8), (10 ** 6, 12)):
        m = s2xs2(coeff, coeff)
        poly, mom = polytope_of(m, rotations([(1, 1), (0, 1)]))
        half = [max(abs(v[i]) for v in vertices(poly)) for i in range(2)]
        expected = 0
        for cell in itertools.product(range(res), repeat=2):
            corners = itertools.product(*(
                [-h + F(2 * h * (i + b), res) for b in (0, 1)]
                for h, i in zip(half, cell)))
            expected += all(abs(sum(a * x for a, x in zip(nv, p))) <= b
                            for p in corners
                            for nv, b in zip(poly.normals, offsets(poly)))
        rep = coverage(mom, poly, res, 1000, 0)
        assert 0 < expected < res * res
        assert rep.n_counted_cells == expected


def test_three_sphere_coverage_regression():
    """Three rotated spheres at grid 20: every cell of the cube counts, and
    200k samples (25 per cell) cover it."""
    m = spheres(3)
    _, mom = pipeline(m, rotations([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    rep = coverage(mom, convex.moment_polytope(mom), 20, 200000, 0)
    assert rep.n_counted_cells == 8000
    assert rep.fraction >= 0.99


def test_coverage_bins_are_exact_floors(monkeypatch):
    """One crafted lattice point at a time lands in the cell the Fraction
    floors give: mu1 bin floor(res (mu1 + h) / 2h) clipped to the grid,
    circle bin floor(res mu2).  The points sit on each interior mu1 bin
    edge, at both ends of the box, and in between; h = 3/2 is not an
    integer."""
    m = ProductManifold(STD2, (F(1, 2),) * 3)
    _, mom = pipeline(m, ActionSpec(((1, 0), (0, 0)),
                                    ((0, 0, 0), (1, 1, 1))))
    poly = convex.moment_polytope(mom)
    assert (mom.c, mom.r) == (1, 1)
    [h] = {max(abs(v[0]) for v in vertices(poly))}
    assert h == F(3, 2)
    p, res = geom.LATTICE, 3
    # mu1 is half the sum of the three heights
    heights = [(-p, -p, -p), (-p, 0, 0), (p, 0, 0), (p, p, p), (0, 0, 0),
               (-p, 1, 0), (p, -1, 0), (p - 2, p, p), (-p + 1, -p, -p),
               (p // 3, -p // 7, 5)]
    edges = set()
    for t, hs in zip(itertools.cycle((0, 1, p // 3, p - 1)), heights):
        point = np.array([[5, t, 7, hs[0], 11, hs[1], 13, hs[2]]],
                         dtype=np.int64)
        monkeypatch.setattr(sample.Stream, "rows", lambda self, n: point[:n])
        [((mu1,), (mu2,))] = lattice_oracle(mom, point)
        q = res * (mu1 + h) / (2 * h)
        if q.denominator == 1:
            edges.add(q)
        cell = (min(max(math.floor(q), 0), res - 1) * res
                + math.floor(res * mu2))
        # the point drawn by the check, and the point the table holds
        drawn, held = (sample.Stream(mom.omega_prime, 0) for _ in range(2))
        held.table(mom, 1)
        for stream in (drawn, held):
            rep = sample.product_coverage_check(mom, poly, res, 1, stream)
            assert rep.n_counted_cells == res * res
            assert rep.n_hit_cells == 1
            assert rep.empty_cells == tuple(e for e in range(res * res)
                                            if e != cell)
    assert edges == set(range(res + 1))


BUNDLED = ["two_torus", "two_torus_sqrt2", "t4_split", "sphere", "s2xs2",
           "s2xt2_reduce", "t2_gcd2"]
# two rotated spheres at grid 20 with 2.5 samples per cell: some counted
# cells stay empty, so the draw runs to the cap
UNDERSAMPLED = """
[manifold]
spheres = 0.5 0.5
[action]
generators = | 1 0 ; | 0 1
[pipeline]
grid = 20
coverage_samples = 1000
"""


def coverage_inputs(tmp_path):
    """(name, moment, polytope, grid, samples, seed) for the
    bundled scenarios, the undersampled pair of spheres, the three-sphere
    grid-20 regression, the segment with no counted cell and an
    undersampled parallelogram, whose empty witnesses tell the axes
    apart."""
    path = tmp_path / "undersampled.ini"
    path.write_text(UNDERSAMPLED)
    scenarios = [cli.load_scenario(cli.bundled_scenario_path(name))
                 for name in BUNDLED] + [cli.load_scenario(path)]
    for sc in scenarios:
        mom = scenario_moment(sc)
        yield (sc.name, mom, convex.moment_polytope(mom), sc.grid,
               sc.coverage_samples, sc.seed)
    for name, m, a, res, n in (
            ("three spheres", spheres(3),
             rotations([(1, 0, 0), (0, 1, 0), (0, 0, 1)]), 20, 200000),
            ("segment", sphere(), rotations([(1,), (1,)]), 10, 5000),
            ("parallelogram", s2xs2(), rotations([(1, 1), (0, 1)]), 12,
             300)):
        poly, mom = polytope_of(m, a)
        yield name, mom, poly, res, n, 0


def test_cell_centres_are_tested_in_bounded_blocks():
    """10^6 cells of a cube (c = 3, grid 100) are tested in blocks of
    CELL_BLOCK_ENTRIES numerators, so the check traces under 32 MB where
    one block would take about 90; the draw is capped at one sample, the
    smallest cap.  Planted for CELL_BLOCK_ENTRIES = 2 ** 18 with its base
    raised to 3, which tests every centre at once, and for the cap's check
    `n < 1` turned into `n <= 1` or `n < 2`, which rejects that cap."""
    poly, mom = polytope_of(spheres(3), rotations(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    tracemalloc.start()
    try:
        rep = coverage(mom, poly, 100, 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.n_counted_cells == 10 ** 6
    assert peak < 32 * 2 ** 20


def test_coverage_report_is_the_full_draws(tmp_path):
    """The early exit reports what binning all n rows in one pass reports,
    field by field, where every counted cell is hit early, where some stay
    empty (fraction below 1) and where no cell counts."""
    fractions = {}
    for name, mom, poly, res, n, seed in coverage_inputs(tmp_path):
        rep = coverage(mom, poly, res, n, seed)
        assert rep == full_draw_coverage(mom, poly, res, n, seed), name
        fractions[name] = rep.fraction, rep.n_counted_cells
    assert fractions["undersampled"][0] < 1
    assert fractions["parallelogram"][0] < 1
    assert fractions["segment"] == (1.0, 0)


def counting_rows(monkeypatch) -> list:
    """The length of every block sample.Stream.rows draws, in order."""
    drawn = []
    rows = sample.Stream.rows

    def counting(self, n):
        drawn.append(n)
        return rows(self, n)

    monkeypatch.setattr(sample.Stream, "rows", counting)
    return drawn


def test_coverage_draw_stops_once_every_counted_cell_is_hit(
        monkeypatch, tmp_path, t2_translations):
    """The rows drawn, counted through sample.Stream.rows: fewer than the
    cap once every counted cell is hit, all of it while a cell stays empty,
    none when no cell counts."""
    drawn = counting_rows(monkeypatch)
    m, a = t2_translations
    _, mom = pipeline(m, a)
    rep = coverage(mom, convex.moment_polytope(mom), 50, 100000, 0)
    assert rep.fraction == 1.0 and 0 < sum(drawn) < 100000
    assert drawn[0] == sample.COVERAGE_CHUNK
    inputs = {name: rest for name, *rest in coverage_inputs(tmp_path)}
    for name, rows in (("undersampled", 1000), ("segment", 0)):
        drawn.clear()
        coverage(*inputs[name])
        assert sum(drawn) == rows, name
    # the cap is still a sample count, even where nothing would be drawn
    with pytest.raises(ValueError, match="at least one sample"):
        coverage(*inputs["segment"][:3], 0, 0)


def test_coverage_chunks_double_up_to_the_cap(monkeypatch, t2_translations):
    """On 1024^2 cells, 10000 samples never hit them all, so the draw runs
    to the cap in chunks of 1024, 2048 and 4096 rows and the rest.
    After a sample table of 1000 rows the chunks start past it.  Planted
    for the doubling `2 * size` raised to `3 * size`."""
    drawn = counting_rows(monkeypatch)
    _, mom = pipeline(*t2_translations)
    poly = convex.moment_polytope(mom)
    rep = coverage(mom, poly, 1024, 10000, 0)
    assert rep.fraction < 1
    assert drawn == [1024, 2048, 4096, 10000 - 7168]
    drawn.clear()
    stream = sample.Stream(mom.omega_prime, 0)
    stream.table(mom, 1000)
    assert sample.product_coverage_check(mom, poly, 1024, 10000,
                                         stream) == rep
    assert drawn == [1000, 1024, 2048, 4096, 10000 - 8168]


# ---------------------------------------------------------------------------
# Betti bound

def test_betti_bound_cases(t2_translations, s2xs2_rotations, s2xt2_mixed):
    for m, a in (t2_translations, s2xs2_rotations, s2xt2_mixed):
        _, mom = pipeline(m, a)
        rep = convex.betti_bound_check(mom)
        assert rep.rank == rep.r
        assert rep.bound_holds
    m, a = t2_translations
    _, mom = pipeline(m, a)
    rep = convex.betti_bound_check(mom)
    assert rep.equality  # r = b1 = 2


def test_betti_sphere_vacuous():
    m = sphere()
    a = ActionSpec(((),), ((1,),))
    _, mom = pipeline(m, a)
    rep = convex.betti_bound_check(mom)
    assert rep.r == 0 and rep.b1 == 0 and rep.bound_holds


# ---------------------------------------------------------------------------
# cycle lifting

def test_two_torus_cycle_lift(t2_translations):
    """Freeze the first circle coordinate; the winding of the second is a
    single turn (sign set by the orientation conventions)."""
    m, a = t2_translations
    _, mom = pipeline(m, a)
    lift = convex.cycle_lift(mom)
    assert lift.verified
    assert abs(lift.winding) == 1
    assert lift.max_frozen_deviation == 0


def test_t4_split_cycle_lift():
    m = torus4()
    a = ActionSpec(((1, 0, 0, 0), (0, 0, 1, 0)), ((), ()))
    _, mom = pipeline(m, a)
    lift = convex.cycle_lift(mom)
    assert lift.verified
    assert abs(lift.winding) == 1
    # the admissible loop stays inside the plane the first covector kills
    cov0 = mom.torus_covectors[0]
    assert sum(c * u for c, u in zip(cov0, lift.direction)) == 0


def test_gcd_limits_the_winding():
    m = torus2()
    a = ActionSpec(((2, 0),), ((),))
    _, mom = pipeline(m, a)
    lift = convex.cycle_lift(mom)
    assert abs(lift.winding) == 2  # covector (0, 2): no loop winds once


def test_cycle_lift_negative_control(s2xt2_mixed):
    """A mu1 covector with a torus slot moves along the loop, so the lift
    is not verified."""
    m, a = s2xt2_mixed
    _, mom = pipeline(m, a)
    assert convex.cycle_lift(mom).verified
    (row,), d = mom.mu1
    bent = dataclasses.replace(mom, mu1=(((d, d) + row[2:],), d))
    lift = convex.cycle_lift(bent)
    assert not lift.verified and lift.max_frozen_deviation == 1


def translations_moment(form):
    """The moment of every coordinate translation of T^m."""
    m = len(form)
    a = ActionSpec(tuple(tuple(int(i == j) for j in range(m))
                         for i in range(m)), ((),) * m)
    return pipeline(ProductManifold(form), a)[1]


TORI = {len(form): translations_moment(form) for form in (STD2, STD4, STD6)}


@given(st.sampled_from(sorted(TORI)).flatmap(lambda m: st.tuples(
    st.just(m),
    st.lists(st.lists(st.integers(-5, 5), min_size=m, max_size=m),
             min_size=1, max_size=3))))
@settings(max_examples=150, deadline=None)
def test_cycle_lift_matches_the_saturated_kernel(data):
    """Any small integer circle covectors: the direction is killed by the
    first r-1 and winds the last g times, g the gcd of <last, u> over the
    integer u killed by the first r-1.  With k = rank(first), projecting
    the lattice [first; last] Z^m onto its first r-1 coordinates has
    kernel 0 x gZ, so comparing saturation indices gives
    g = D_{k+1}([first; last]) / D_k(first), and g = 0 when last lies in
    the span of first.  That needs rank(covs) < r, which no moment has:
    there the winding is 0."""
    m, covs = data
    base = TORI[m]
    mom = dataclasses.replace(base, mu2=(tuple(map(tuple, covs)), 1))
    first, last = covs[:-1], covs[-1]
    k = ratlin.integer_rank(first)
    g = (determinantal_divisor(first + [last], k + 1)
         // determinantal_divisor(first, k))
    lift = convex.cycle_lift(mom)
    assert all(sum(x * y for x, y in zip(cov, lift.direction)) == 0
               for cov in first)
    assert lift.winding == sum(x * y for x, y in zip(last, lift.direction))
    assert abs(lift.winding) == g
    assert lift.verified and lift.max_frozen_deviation == 0
