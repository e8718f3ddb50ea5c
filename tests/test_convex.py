"""Image structure: convex hulls, coverage of the product image, the exact
no-extremum predicate, the first-Betti bound, and cycle lifting."""

import numpy as np
import pytest

from momentforge import convex, geom, hamclass, moment
from momentforge.geom import ActionSpec, FlatTorusFactor, ProductManifold
from momentforge.moment import CircleComponent

from conftest import STD6, s2xs2, s2xt2, sphere, torus2, torus4


def pipeline(m, a):
    res = hamclass.integralize_with_retry(m, a, m.form(), 64)
    mom = moment.generalized_moment(m, a, res.omega_prime,
                                    res.classification)
    return res, mom


# ---------------------------------------------------------------------------
# hulls

def test_hull_point_interval_polygon():
    pt = convex.convex_hull(np.empty((0, 0)))
    assert pt.dim == 0 and pt.contains(())
    iv = convex.convex_hull([[0.0], [2.0], [1.0]])
    assert iv.vertices == ((0.0,), (2.0,))
    assert iv.contains([1.5]) and not iv.contains([2.5])
    sq = convex.convex_hull([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])
    assert len(sq.vertices) == 4
    assert sq.contains([0.5, 0.5]) and not sq.contains([1.2, 0.5])


def test_hull_degenerate_2d():
    single = convex.convex_hull([[0.3, 0.4], [0.3, 0.4]])
    assert single.vertices == ((0.3, 0.4),)
    assert single.contains([0.3, 0.4]) and not single.contains([0.0, 0.0])
    seg = convex.convex_hull([[0, 0], [1, 1], [0.5, 0.5]])
    assert len(seg.vertices) == 2
    assert seg.contains([0.25, 0.25]) and not seg.contains([0.5, 0.4])


def test_hull_3d():
    cube = [[float(i), float(j), float(k)]
            for i in (0, 1) for j in (0, 1) for k in (0, 1)]
    hull = convex.convex_hull(cube + [[0.5, 0.5, 0.5]])
    assert len(hull.vertices) == 8
    assert hull.contains([0.5, 0.5, 0.5])
    assert not hull.contains([1.5, 0.5, 0.5])


def test_s2xs2_square_hull(s2xs2_rotations):
    m, a = s2xs2_rotations
    _, mom = pipeline(m, a)
    samples = convex.moment_image_sample(m, mom, 4000, 0)
    hull = convex.convex_hull(samples.mu1)
    v = np.array(hull.vertices)
    # area-1 spheres after integralization: mu1 coordinates span [-1/2, 1/2]
    assert v.min() == pytest.approx(-0.5, abs=0.05)
    assert v.max() == pytest.approx(0.5, abs=0.05)


def test_s2xt2_samples_in_band(s2xt2_mixed):
    m, a = s2xt2_mixed
    _, mom = pipeline(m, a)
    samples = convex.moment_image_sample(m, mom, 1000, 0)
    assert np.all(np.abs(samples.mu1) <= 1.0)
    assert np.all((samples.mu2 >= 0) & (samples.mu2 < 1))


# ---------------------------------------------------------------------------
# coverage

def test_two_torus_coverage(t2_translations):
    m, a = t2_translations
    _, mom = pipeline(m, a)
    rep = convex.product_coverage_check(m, mom, 50, 100000, 0)
    assert rep.n_counted_cells == 2500
    assert rep.fraction >= 0.99


def test_pure_hamiltonian_coverage_reduces_to_hull(s2xs2_rotations):
    m, a = s2xs2_rotations
    _, mom = pipeline(m, a)
    rep = convex.product_coverage_check(m, mom, 15, 60000, 0)
    assert rep.fraction >= 0.99


# ---------------------------------------------------------------------------
# no-extremum predicate

def test_no_local_extremum_passes(s2xt2_mixed):
    # T^6 with four translations: the predicate reads only the covectors,
    # so its cost does not grow with the torus dimension
    t6 = ProductManifold(FlatTorusFactor(STD6), ())
    translations = tuple(tuple(int(k == j) for k in range(6))
                         for j in range(4))
    t6_action = ActionSpec(translations, ((),) * 4)
    for m, a in (s2xt2_mixed, (t6, t6_action)):
        _, mom = pipeline(m, a)
        rep = convex.circle_extremum_check(mom)
        assert rep.passed
        assert len(rep.covectors_nonzero) == mom.r
        assert all(rep.covectors_nonzero)


def test_constant_component_negative_control(s2xt2_mixed):
    """Inject a fake constant circle component: the nonzero-covector check
    must fail."""
    m, a = s2xt2_mixed
    _, mom = pipeline(m, a)
    fake = CircleComponent((0, 0, 0), (0, 0, 0, 0), tuple(m.basepoint()),
                           m.torus_dim)
    broken = moment.GeneralizedMoment(
        m, a, mom.omega_prime, mom.classification, mom.mu1,
        mom.mu2 + (fake,), mom.basepoint)
    rep = convex.circle_extremum_check(broken)
    assert not rep.passed
    assert not all(rep.covectors_nonzero)


def test_no_extremum_requires_circle_part(s2xs2_rotations):
    m, a = s2xs2_rotations
    _, mom = pipeline(m, a)
    with pytest.raises(ValueError):
        convex.circle_extremum_check(mom)


# ---------------------------------------------------------------------------
# Betti bound

def test_betti_bound_cases(t2_translations, s2xs2_rotations, s2xt2_mixed):
    for m, a in (t2_translations, s2xs2_rotations, s2xt2_mixed):
        res, _ = pipeline(m, a)
        rep = convex.betti_bound_check(m, a, res.omega_prime,
                                       res.classification)
        assert rep.rank == rep.r
        assert rep.bound_holds
    m, a = t2_translations
    res, _ = pipeline(m, a)
    rep = convex.betti_bound_check(m, a, res.omega_prime,
                                   res.classification)
    assert rep.equality  # r = b1 = 2


def test_betti_sphere_vacuous():
    m = sphere()
    a = ActionSpec(((),), ((1,),))
    res, _ = pipeline(m, a)
    rep = convex.betti_bound_check(m, a, res.omega_prime,
                                   res.classification)
    assert rep.r == 0 and rep.b1 == 0 and rep.bound_holds


# ---------------------------------------------------------------------------
# cycle lifting

def test_two_torus_cycle_lift(t2_translations):
    """Freeze the first circle coordinate; the winding of the second is a
    single turn (sign set by the orientation conventions)."""
    m, a = t2_translations
    _, mom = pipeline(m, a)
    lift = convex.cycle_lift(m, a, mom, circle_targets=(0.25,))
    assert lift.verified
    assert abs(lift.winding) == 1
    assert lift.max_frozen_deviation < 1e-9


def test_t4_split_cycle_lift():
    m = torus4()
    a = ActionSpec(((1, 0, 0, 0), (0, 0, 1, 0)), ((), ()))
    _, mom = pipeline(m, a)
    lift = convex.cycle_lift(m, a, mom, circle_targets=(0.0,))
    assert lift.verified
    assert abs(lift.winding) == 1
    # the admissible loop stays inside the plane the first covector kills
    cov0 = mom.mu2[0].torus_covector
    assert sum(c * u for c, u in zip(cov0, lift.direction)) == 0


def test_gcd_limits_the_winding():
    m = torus2()
    a = ActionSpec(((2, 0),), ((),))
    _, mom = pipeline(m, a)
    lift = convex.cycle_lift(m, a, mom)
    assert abs(lift.winding) == 2  # covector (0, 2): no loop winds once


def test_cycle_lift_requires_circle_part(s2xs2_rotations):
    m, a = s2xs2_rotations
    _, mom = pipeline(m, a)
    with pytest.raises(ValueError):
        convex.cycle_lift(m, a, mom)
