"""Generalized moment construction: the concrete 2-torus values under both
sign conventions, path independence, exact values at lattice samples,
fiber factorization, and the fixed-point local model."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentforge import cli, geom, hamclass, moment, sample
from momentforge.geom import ActionSpec, ProductManifold

from conftest import (circle_distance, classify, covectors, float_mu1,
                      float_mu2, fractions, lattice_oracle, pair, s2xs2,
                      s2xt2, scenario_moment, sphere, torus2)

BUNDLED = ["two_torus", "two_torus_sqrt2", "t4_split", "sphere", "s2xs2",
           "s2xt2_reduce", "t2_gcd2"]


def build(m, a, max_den=64):
    res = hamclass.integralize_with_retry(m, max_den)
    return moment.generalized_moment(a, res.omega_prime, classify(m, a))


# ---------------------------------------------------------------------------
# the flagship values

def test_two_torus_moment_is_q_minus_p(t2_translations):
    """mu2 of a point (p, q) on the standard T^2 with both translations is
    (q, -p) mod 1 under the plus convention."""
    m, a = t2_translations
    mom = build(m, a)
    assert mom.c == 0 and mom.r == 2
    pts = sample.sample_points(m, 50, 0) / geom.LATTICE
    vals = float_mu2(mom, pts)
    expect = np.mod(np.stack([pts[:, 1], -pts[:, 0]], axis=1), 1.0)
    assert circle_distance(vals, expect) < 1e-12


def test_two_torus_moment_minus_convention():
    m = torus2()
    a = ActionSpec(((1, 0), (0, 1)), ((), ()), sign=-1)
    mom = build(m, a)
    pts = sample.sample_points(m, 50, 0) / geom.LATTICE
    vals = float_mu2(mom, pts)
    expect = np.mod(np.stack([-pts[:, 1], pts[:, 0]], axis=1), 1.0)
    assert circle_distance(vals, expect) < 1e-12


def test_sphere_moment_is_height():
    """Unit-speed rotation of a 2c = 1 sphere: mu1 = c * h; with c scaled
    integral (2c = 1 already integral) the flagship normalization c = 1
    gives mu1 = h exactly."""
    m = sphere(1.0)
    a = ActionSpec(((),), ((1,),))
    mom = build(m, a)
    assert mom.c == 1 and mom.r == 0
    pts = sample.sample_points(m, 50, 0) / geom.LATTICE
    assert np.allclose(float_mu1(mom, pts)[:, 0], pts[:, 1])


def test_moment_at_basepoint():
    m, a = s2xt2(), ActionSpec(((0, 0), (1, 0), (0, 1)),
                               ((1,), (0,), (0,)))
    mom = build(m, a)
    bp = m.basepoint()
    assert np.allclose(float_mu2(mom, bp), 0.0)
    assert float_mu1(mom, bp)[0, 0] == pytest.approx(-1.0)


def test_pure_hamiltonian_has_no_circle_part():
    m = sphere()
    a = ActionSpec(((),), ((1,),))
    mom = build(m, a)
    assert mom.r == 0 and mom.mu2 == ((), 1)


def test_moment_is_built_from_the_integral_form():
    """The moment computes its field covectors from omega_prime, not from
    the manifold's own form: on S^2 x T^2 with irrational areas the two
    differ, and mu1, mu2 are the basis and complement times omega_prime's
    covectors, with integral torus slots in mu2."""
    m = s2xt2(c=0.5 * np.sqrt(3), omega=((0, np.sqrt(2)), (-np.sqrt(2), 0)))
    a = ActionSpec(((0, 0), (1, 0), (0, 1)), ((1,), (0,), (0,)))
    res = hamclass.integralize_with_retry(m, 16)
    cls = classify(m, a)
    mom = moment.generalized_moment(a, res.omega_prime, cls)
    assert mom.covectors == geom.field_covectors(a, res.omega_prime)
    assert mom.covectors != geom.field_covectors(a, m)
    assert fractions(mom.mu1) == covectors(a, res.omega_prime,
                                           cls.hamiltonian_basis)
    assert fractions(mom.mu2) == covectors(a, res.omega_prime,
                                           cls.complement_generators)
    assert mom.c == 1 and mom.r == 2
    assert all(x.denominator == 1 for row in fractions(mom.mu2)
               for x in row[:m.torus_dim])


# ---------------------------------------------------------------------------
# path independence

def test_path_independence_over_lattice_offsets(t2_translations):
    """Lifts of x along paths that differ by a lattice vector n differ by
    <covector, n>, an integer, so the circle values agree."""
    m, a = t2_translations
    mom = build(m, a)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.random(2)
        n = rng.integers(-3, 4, 2)
        assert circle_distance(float_mu2(mom, x + n),
                               float_mu2(mom, x)) < 1e-12


# ---------------------------------------------------------------------------
# exact values at lattice samples

def lattice_samples(m, n=200, seed=0):
    """Seeded samples plus the lattice's two extreme points: every torus
    and theta numerator at 0 with the heights at -P, and at P - 1 with the
    heights at P - 2."""
    p = geom.LATTICE
    corners = np.zeros((2, m.dim), dtype=np.int64)
    corners[1] = p - 1
    corners[0, m.torus_dim + 1::2] = -p
    corners[1, m.torus_dim + 1::2] = p - 2
    return np.vstack([sample.sample_points(m, n, seed), corners])


def assert_matches_oracle(mom, nums):
    """Every row of mu1_values and mu2_values equals the Fraction oracle;
    returns the two numerator arrays."""
    mu1, mu2 = mom.mu1_values(nums), mom.mu2_values(nums)
    den1, den2 = mom.mu1_den, mom.mu2_den
    assert mu1.shape == (len(nums), mom.c)
    assert mu2.shape == (len(nums), mom.r)
    got = [(tuple(Fraction(v, den1) for v in a),
            tuple(Fraction(v, den2) for v in b))
           for a, b in zip(mu1.tolist(), mu2.tolist())]
    assert got == lattice_oracle(mom, nums)
    return mu1, mu2


@pytest.mark.parametrize("name", BUNDLED)
def test_lattice_values_exact_on_bundled_scenarios(name):
    sc = cli.load_scenario(cli.bundled_scenario_path(name))
    mom = scenario_moment(sc)
    nums = lattice_samples(sc.manifold)
    mu1, mu2 = assert_matches_oracle(mom, nums)
    assert mu1.dtype == np.int64 and mu2.dtype == np.int64
    # the float oracles agree with the exact values
    pts = nums / geom.LATTICE
    assert np.allclose(float_mu1(mom, pts), mu1 / mom.mu1_den, atol=1e-12)
    assert circle_distance(float_mu2(mom, pts), mu2 / mom.mu2_den) < 1e-9


def test_lattice_values_exact_on_huge_torus_form():
    """Covectors of 10^300 stay int64: only K mod P enters the products,
    and mu2 does not alias to 0 as a 2^-53 float grid did."""
    big = 10 ** 300
    m = torus2(((0, big), (-big, 0)))
    mom = build(m, ActionSpec(((1, 0), (0, 1)), ((), ())))
    mu1, mu2 = assert_matches_oracle(mom, lattice_samples(m))
    assert mu2.dtype == np.int64
    assert len(set(mu2[:200, 0].tolist())) > 190
    # one circle row with four huge torus slots
    m = ProductManifold(((0, big, 1, 0), (-big, 0, 0, 1),
                         (-1, 0, 0, big), (0, -1, -big, 0)))
    mom = build(m, ActionSpec(((1, 1, 1, 1),), ((),)))
    assert all(abs(x) > big // 2 for x in fractions(mom.mu2)[0])
    assert_matches_oracle(mom, lattice_samples(m))


def test_lattice_values_exact_past_int64():
    """A sphere coefficient of 10^30 bounds mu1 past 2^63 and a denominator
    of 3^40 on a circle row's height slot bounds mu2 past it: both run on
    Python ints, with the same values as the oracle."""
    m = sphere(10 ** 30)
    mom = build(m, ActionSpec(((),), ((1,),)))
    mu1, _ = assert_matches_oracle(mom, lattice_samples(m))
    assert mu1.dtype == object
    m, a = s2xt2(), ActionSpec(((0, 0), (1, 0), (0, 1)),
                               ((1,), (0,), (2,)))
    mom = build(m, a)
    bent = [row[:3] + [row[3] + Fraction(1, 3 ** 40)]
            for row in fractions(mom.mu2)]
    mom = dataclasses.replace(mom, mu2=pair(bent))
    _, mu2 = assert_matches_oracle(mom, lattice_samples(m))
    assert mu2.dtype == object


@given(st.integers(1, 10 ** 40), st.lists(st.integers(1, 10 ** 25),
                                          max_size=2),
       st.lists(st.integers(-3, 3), min_size=4, max_size=4),
       st.sampled_from((1, -1)))
@settings(max_examples=30, deadline=None)
def test_lattice_values_exact_on_generated_forms(w, halves, speeds, sign):
    """T^2 x (S^2)^n with an integral torus weight w, sphere coefficients
    k/2, one rotation per sphere and two translations that may also
    rotate the spheres."""
    n = len(halves)
    m = ProductManifold(((0, w), (-w, 0)),
                        tuple(Fraction(k, 2) for k in halves))
    a = ActionSpec(((1, 0), (0, 1)) + ((0, 0),) * n,
                   (tuple(speeds[:n]), tuple(speeds[2:2 + n]))
                   + tuple(tuple(int(i == f) for i in range(n))
                           for f in range(n)), sign)
    mom = build(m, a)
    assert_matches_oracle(mom, lattice_samples(m, 50, w % 1000))


def test_moment_values_reject_float_points(t2_translations):
    """Float points are not lattice numerators: both evaluators raise
    instead of truncating them to integers."""
    m, a = t2_translations
    mom = build(m, a)
    pts = sample.sample_points(m, 5, 0) / geom.LATTICE
    for values in (mom.mu1_values, mom.mu2_values):
        with pytest.raises(TypeError, match="integer lattice numerators"):
            values(pts)


# ---------------------------------------------------------------------------
# fiber factorization

def test_fiber_factorization():
    assert moment.fiber_connected_factorization((2, 4)) == 2
    assert moment.fiber_connected_factorization((0, 3)) == 3
    assert moment.fiber_connected_factorization((1, 1)) == 1


# ---------------------------------------------------------------------------
# local models at fixed points

def test_local_weights_at_poles():
    m = s2xs2()
    a = ActionSpec(((), ()), ((1, 0), (0, 1)))
    south = m.basepoint()
    assert moment.local_weights(m, a, south) == ((1, 0), (0, 1))
    north = south.copy()
    north[1] = 1.0
    assert moment.local_weights(m, a, north) == ((-1, 0), (0, 1))


def test_local_weights_sign_convention():
    m = sphere()
    a = ActionSpec(((),), ((2,),), sign=-1)
    assert moment.local_weights(m, a, m.basepoint()) == ((-2,),)


def test_local_weights_on_a_torus_plane_are_zero():
    """On S^2 x T^2 a pure rotation fixes the torus times the poles: the
    sphere's plane weighs sign * speed and the torus plane 0.  Planted for
    the torus-plane rows of local_weights: `torus_dim // 2` with 2 raised
    to 3 (no torus row), and the zero weight raised to 1; and for the pole
    test's height slot `sphere_offset(f) + 1` turned into `- 1`, which
    reads a torus slot here."""
    m = s2xt2()
    a = ActionSpec(((0, 0),), ((2,),))
    assert moment.local_weights(m, a, m.basepoint()) == ((2,), (0,))


def test_not_a_fixed_point_paths():
    m, a = s2xt2(), ActionSpec(((0, 0), (1, 0), (0, 1)),
                               ((1,), (0,), (0,)))
    # the torus translations make every point non-fixed
    with pytest.raises(moment.NotAFixedPoint):
        moment.local_weights(m, a, m.basepoint())
    b = ActionSpec(((0, 0),), ((1,),))
    x = m.basepoint()
    for h in (0.25, 1 - 2 ** -45):   # sphere not at a pole
        x[3] = h
        with pytest.raises(moment.NotAFixedPoint):
            moment.local_weights(m, b, x)


def test_local_model_quadratic_fit():
    m = s2xs2(1.0, 1.0)
    a = ActionSpec(((), ()), ((1, 0), (0, 1)))
    mom = build(m, a)
    rep = moment.local_model_check(mom, m.basepoint())
    assert rep.max_residual < 1e-4
    assert all(rep.minima)
    assert rep.weight_sign_ok
    assert rep.passed


def test_local_model_at_a_north_pole_is_no_minimum():
    """At the north pole of the first sphere mu1's first component, that
    sphere's height, is largest: p does not minimize it, and its weight
    -1 is allowed.  Planted for `is_min and slope >= 0` and for
    `is_min and any(alpha < 0 ...)`, each turned into `or`."""
    m = s2xs2(1.0, 1.0)
    a = ActionSpec(((), ()), ((1, 0), (0, 1)))
    north = m.basepoint()
    north[1] = 1
    rep = moment.local_model_check(build(m, a), north)
    assert rep.minima == (False, True)
    assert rep.max_residual == 0 and rep.weight_sign_ok and rep.passed


def test_local_model_fails_a_bent_mu1_whose_weight_signs_hold():
    """Doubling mu1's first row leaves the south pole a minimum with
    nonnegative weights, but moves the slope off the normal form: the
    residual is 1/2 and the check fails.  Planted for `max_res == 0 and
    sign_ok` turned into `or`."""
    m = s2xs2(1.0, 1.0)
    a = ActionSpec(((), ()), ((1, 0), (0, 1)))
    mom = build(m, a)
    nums, d = mom.mu1
    bent = dataclasses.replace(
        mom, mu1=((tuple(2 * x for x in nums[0]),) + nums[1:], d))
    rep = moment.local_model_check(bent, m.basepoint())
    assert rep.max_residual == Fraction(1, 2) and rep.weight_sign_ok
    assert not rep.passed


def test_local_model_flags_a_negative_weight_at_a_bent_minimum():
    """Negating mu1's first row makes the north pole of the first sphere a
    minimum of both components, while that sphere's weight there is -1:
    the weight-sign consequence fails.  Planted for the deletion of
    `sign_ok = False`, which the acceptance gate reads as
    weight_sign_ok."""
    m = s2xs2(1.0, 1.0)
    a = ActionSpec(((), ()), ((1, 0), (0, 1)))
    mom = build(m, a)
    nums, d = mom.mu1
    bent = dataclasses.replace(
        mom, mu1=((tuple(-x for x in nums[0]),) + nums[1:], d))
    north = m.basepoint()
    north[1] = 1
    rep = moment.local_model_check(bent, north)
    assert rep.minima == (True, True)
    assert not rep.weight_sign_ok and not rep.passed


def test_local_model_minimum_forces_nonnegative_weights():
    """At the south pole of both spheres every weight is +speed, and the
    basepoint minimizes each mu1 coordinate."""
    m = s2xs2(1.0, 1.0)
    a = ActionSpec(((), ()), ((2, 0), (0, 3)))
    mom = build(m, a)
    rep = moment.local_model_check(mom, m.basepoint())
    assert rep.weight_sign_ok and rep.passed
