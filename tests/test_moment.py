"""Generalized moment construction: the concrete 2-torus values under both
sign conventions, path independence, fiber factorization, and the
fixed-point local model."""

import numpy as np
import pytest

from momentforge import geom, hamclass, moment
from momentforge.geom import ActionSpec, ProductForm

from conftest import classify, s2xs2, s2xt2, sphere, torus2


def build(m, a, max_den=64):
    res = hamclass.integralize_with_retry(m, a, m.form(), classify(m, a),
                                          max_den)
    return moment.generalized_moment(m, a, res.omega_prime,
                                     res.classification)


# ---------------------------------------------------------------------------
# the flagship values

def test_two_torus_moment_is_q_minus_p(t2_translations):
    """mu2 of a point (p, q) on the standard T^2 with both translations is
    (q, -p) mod 1 under the plus convention."""
    m, a = t2_translations
    mom = build(m, a)
    assert mom.c == 0 and mom.r == 2
    pts = geom.sample_points(m, 50, 0)
    vals = mom.mu2_values(pts)
    expect = np.mod(np.stack([pts[:, 1], -pts[:, 0]], axis=1), 1.0)
    assert moment.circle_distance(vals, expect) < 1e-12


def test_two_torus_moment_minus_convention():
    m = torus2()
    a = ActionSpec(((1, 0), (0, 1)), ((), ()), sign=-1)
    mom = build(m, a)
    pts = geom.sample_points(m, 50, 0)
    vals = mom.mu2_values(pts)
    expect = np.mod(np.stack([-pts[:, 1], pts[:, 0]], axis=1), 1.0)
    assert moment.circle_distance(vals, expect) < 1e-12


def test_sphere_moment_is_height():
    """Unit-speed rotation of a 2c = 1 sphere: mu1 = c * h; with c scaled
    integral (2c = 1 already integral) the flagship normalization c = 1
    gives mu1 = h exactly."""
    m = sphere(1.0)
    a = ActionSpec(((),), ((1,),))
    mom = build(m, a)
    assert mom.c == 1 and mom.r == 0
    pts = geom.sample_points(m, 50, 0)
    assert np.allclose(mom.mu1_values(pts)[:, 0], pts[:, 1])


def test_moment_at_basepoint():
    m, a = s2xt2(), ActionSpec(((0, 0), (1, 0), (0, 1)),
                               ((1,), (0,), (0,)))
    mom = build(m, a)
    bp = m.basepoint()
    assert np.allclose(mom.mu2_values(bp), 0.0)
    assert mom.mu1_values(bp)[0, 0] == pytest.approx(-1.0)


def test_pure_hamiltonian_has_no_circle_part():
    m = sphere()
    a = ActionSpec(((),), ((1,),))
    mom = build(m, a)
    assert mom.r == 0 and mom.mu2 == ()


def test_moment_rejects_hamiltonian_circle_generator():
    """A classification that puts a sphere rotation in the complement: its
    circle row has no torus part."""
    m = sphere()
    a = ActionSpec(((),), ((1,),))
    cls = hamclass.ActionClassification((), ((1,),), 1)
    with pytest.raises(moment.GeneratorIsHamiltonian):
        moment.generalized_moment(m, a, m.form(), cls)


def test_moment_rejects_non_integral_circle_form(t2_translations):
    m, a = t2_translations
    bad = ProductForm(((0, 0.5), (-0.5, 0)), ())
    with pytest.raises(ValueError):
        moment.generalized_moment(m, a, bad, classify(m, a))


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
        assert moment.circle_distance(mom.mu2_values(x + n),
                                      mom.mu2_values(x)) < 1e-12


# ---------------------------------------------------------------------------
# fiber factorization

def test_fiber_factorization():
    f = moment.fiber_connected_factorization((2, 4))
    assert f.d == 2 and f.reduced_covector == (1, 2)
    f = moment.fiber_connected_factorization((0, 3))
    assert f.d == 3
    f = moment.fiber_connected_factorization((1, 1))
    assert f.d == 1
    with pytest.raises(ValueError):
        moment.fiber_connected_factorization((0, 0))


# ---------------------------------------------------------------------------
# local models at fixed points

def test_local_weights_at_poles():
    m = s2xs2()
    a = ActionSpec(((), ()), ((1, 0), (0, 1)))
    south = m.basepoint()
    data = moment.local_weights(m, a, south)
    assert data.weights == ((1, 0), (0, 1))
    north = south.copy()
    north[1] = 1.0
    data = moment.local_weights(m, a, north)
    assert data.weights == ((-1, 0), (0, 1))


def test_local_weights_sign_convention():
    m = sphere()
    a = ActionSpec(((),), ((2,),), sign=-1)
    data = moment.local_weights(m, a, m.basepoint())
    assert data.weights == ((-2,),)


def test_not_a_fixed_point_paths():
    m, a = s2xt2(), ActionSpec(((0, 0), (1, 0), (0, 1)),
                               ((1,), (0,), (0,)))
    # the torus translations make every point non-fixed
    with pytest.raises(moment.NotAFixedPoint):
        moment.local_weights(m, a, m.basepoint())
    b = ActionSpec(((0, 0),), ((1,),))
    x = m.basepoint()
    x[3] = 0.25   # sphere not at a pole
    with pytest.raises(moment.NotAFixedPoint):
        moment.local_weights(m, b, x)


def test_local_model_quadratic_fit():
    m = s2xs2(1.0, 1.0)
    a = ActionSpec(((), ()), ((1, 0), (0, 1)))
    mom = build(m, a)
    rep = moment.local_model_check(m, mom, m.basepoint())
    assert rep.max_residual < 1e-4
    assert all(rep.minima)
    assert rep.weight_sign_ok
    assert rep.passed


def test_local_model_minimum_forces_nonnegative_weights():
    """At the south pole of both spheres every weight is +speed, and the
    basepoint minimizes each mu1 coordinate."""
    m = s2xs2(1.0, 1.0)
    a = ActionSpec(((), ()), ((2, 0), (0, 3)))
    mom = build(m, a)
    rep = moment.local_model_check(m, mom, m.basepoint())
    assert rep.weight_sign_ok and rep.passed
