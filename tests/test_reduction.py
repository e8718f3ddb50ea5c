"""Structural reduction: regular values, freeness guards, the induced
moment, and heredity of the non-Hamiltonian structure."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from momentforge import hamclass, moment, reduction
from momentforge.geom import ActionSpec, ProductForm, ProductManifold

from conftest import (STD2, classify, dense, float_mu1, fractions,
                      orbit_matrix, pair, s2xs2, s2xt2, sphere)


def pipeline(m, a):
    res = hamclass.integralize_with_retry(m, 64)
    mom = moment.generalized_moment(a, res.omega_prime, classify(m, a))
    return res, mom


def mixed_moment():
    m = s2xt2()
    a = ActionSpec(((0, 0), (1, 0), (0, 1)), ((1,), (0,), (0,)))
    return pipeline(m, a)[1]


# ---------------------------------------------------------------------------
# regular values

def test_interior_value_is_regular():
    """Level 0 is the equator of the rotated sphere, which the reduction
    deletes, leaving the torus."""
    reduced = reduction.reduce_at(mixed_moment(), 0, 0.0)
    assert reduced.omega_prime.n_spheres == 0 and reduced.omega_prime.dim == 2


def test_pole_value_is_critical():
    """The sphere has area coefficient 1, so the level is the height: both
    poles are critical, and the test is exact, so a level 1e-13 inside
    either pole is regular."""
    mom = mixed_moment()
    for pole in (1, -1):
        with pytest.raises(reduction.NotRegular):
            reduction.reduce_at(mom, 0, float(pole))
        inside = pole - Fraction(pole, 10 ** 13)
        assert reduction.reduce_at(mom, 0, inside).omega_prime.dim == 2


def test_value_outside_image_rejected():
    with pytest.raises(reduction.NotRegular):
        reduction.reduce_at(mixed_moment(), 0, 1.5)


def test_problem_rejects_translating_generator():
    with pytest.raises(ValueError):
        reduction.reduce_at(mixed_moment(), 1, 0.0)


# ---------------------------------------------------------------------------
# the reduced space

def test_reduce_mixed_action_to_torus():
    reduced = reduction.reduce_at(mixed_moment(), 0, 0.0)
    assert reduced.omega_prime.n_spheres == 0
    assert reduced.omega_prime.torus_dim == 2
    assert reduced.action.r_total == 2
    assert reduced.r == 2 and reduced.c == 0


@pytest.mark.parametrize("m, a, generator, f", [
    (s2xt2(), ActionSpec(((0, 0), (1, 0), (0, 1)), ((1,), (0,), (0,))),
     0, 0),
    (s2xs2(1.0, 0.5), ActionSpec(((), ()), ((1, 0), (0, 1))), 0, 0),
    (s2xs2(1.0, 0.5), ActionSpec(((), ()), ((1, 0), (0, 1))), 1, 1),
    (ProductManifold(STD2, (0.75, 1.5)),
     ActionSpec(((1, 0), (0, 0)), ((0, 0), (0, -1))), 1, 1),
])
def test_reduced_form_is_omega_prime_less_the_sphere(m, a, generator, f):
    """The reduced form is a plain ProductForm: omega_prime with the
    reduced sphere's two rows and two columns deleted, in lowest terms,
    and nondegenerate, with no manifold check run on it."""
    _, mom = pipeline(m, a)
    reduced = reduction.reduce_at(mom, generator, 0)
    form = mom.omega_prime
    o = form.sphere_offset(f)
    kept = [i for i in range(form.dim) if i not in (o, o + 1)]
    w = fractions((dense(form), form.den))
    nums, den = pair([[w[i][j] for j in kept] for i in kept])
    assert type(reduced.omega_prime) is ProductForm
    assert [list(row) for row in dense(reduced.omega_prime)] == nums
    assert reduced.omega_prime.den == den
    assert reduced.omega_prime.is_nondegenerate()


def test_reduce_s2xs2_leaves_hamiltonian_sphere():
    m = s2xs2(1.0, 1.0)
    a = ActionSpec(((), ()), ((1, 0), (0, 1)))
    _, mom = pipeline(m, a)
    reduced = reduction.reduce_at(mom, 0, 0.0)
    assert reduced.omega_prime.n_spheres == 1
    assert reduced.c == 1 and reduced.r == 0


def test_speed_two_reduction_refused():
    m = sphere(1.0)
    a = ActionSpec(((),), ((2,),))
    _, mom = pipeline(m, a)
    with pytest.raises(reduction.NotFree):
        reduction.reduce_at(mom, 0, 0.0)


def test_generator_rotating_two_spheres_refused():
    """Reduction deletes one sphere: a circle that rotates both factors of
    S^2 x S^2 is refused, though the other generator leaves the first
    sphere fixed and the level is regular on it."""
    m = s2xs2()
    a = ActionSpec(((), ()), ((1, 1), (0, 1)))
    _, mom = pipeline(m, a)
    with pytest.raises(reduction.NotFree):
        reduction.reduce_at(mom, 0, 0.0)


def test_residual_generator_moving_reduced_sphere_refused():
    m = s2xs2(1.0, 1.0)
    a = ActionSpec(((), ()), ((1, 0), (1, 1)))
    _, mom = pipeline(m, a)
    with pytest.raises(reduction.NotFree):
        reduction.reduce_at(mom, 0, 0.0)


# ---------------------------------------------------------------------------
# the induced moment

def test_parent_moment_is_constant_on_the_collapsed_orbit():
    """The reduced moment is the parent's restricted: the reduced circle's
    orbit row lies on the sphere's theta slot, where no parent covector
    has an entry, so every component pairs to 0 with it."""
    mom = mixed_moment()
    orbit = orbit_matrix(mom.action)[0]
    assert [o for o in orbit if o] == [1]
    for row in mom.mu1[0] + mom.mu2[0]:
        assert sum(x * y for x, y in zip(row, orbit)) == 0


def test_induced_moment_hamiltonian_only():
    m = s2xs2(1.0, 1.0)
    a = ActionSpec(((), ()), ((1, 0), (0, 1)))
    _, mom = pipeline(m, a)
    induced = reduction.reduce_at(mom, 0, 0.25)
    assert induced.c == 1
    pts = np.array([[0.0, 0.3]])
    assert float_mu1(induced, pts)[0, 0] == pytest.approx(0.3)


# ---------------------------------------------------------------------------
# heredity

def test_heredity_on_mixed_action():
    reduced = reduction.reduce_at(mixed_moment(), 0, 0.0)
    verdict = reduction.heredity_check(reduced)
    assert verdict.applicable
    assert verdict.residual_non_hamiltonian
    assert verdict.circle_bins_hit == 50 and verdict.passed


def test_heredity_negative_control():
    """A residual circle component with a zero torus covector is neither
    non-Hamiltonian nor onto the circle."""
    reduced = reduction.reduce_at(mixed_moment(), 0, 0.0)
    nums, d = reduced.mu2
    flat = (0,) * len(nums[0])
    broken = dataclasses.replace(reduced, mu2=((flat,) + nums[1:], d))
    verdict = reduction.heredity_check(broken)
    assert verdict.applicable
    assert not verdict.residual_non_hamiltonian
    assert verdict.circle_bins_hit == 0 and not verdict.passed


def test_heredity_vacuous_when_residual_hamiltonian():
    m = s2xs2(1.0, 1.0)
    a = ActionSpec(((), ()), ((1, 0), (0, 1)))
    _, mom = pipeline(m, a)
    reduced = reduction.reduce_at(mom, 0, 0.0)
    verdict = reduction.heredity_check(reduced)
    assert not verdict.applicable
    assert verdict.circle_bins_hit == 0 and not verdict.passed


def test_two_stage_reduction():
    """S^2 x S^2 x T^2: peel one sphere per stage; the torus translations
    and their circle moments survive both."""
    m = ProductManifold(((0, 1), (-1, 0)), (1.0, 1.0))
    a = ActionSpec(((0, 0), (0, 0), (1, 0), (0, 1)),
                   ((1, 0), (0, 1), (0, 0), (0, 0)))
    _, mom = pipeline(m, a)

    stage1 = reduction.reduce_at(mom, 0, 0.0)
    assert stage1.omega_prime.n_spheres == 1
    assert reduction.heredity_check(stage1).passed

    stage2 = reduction.reduce_at(stage1, 0, 0.5)
    assert stage2.omega_prime.n_spheres == 0
    assert stage2.omega_prime.torus_dim == 2
    verdict = reduction.heredity_check(stage2)
    assert verdict.passed
