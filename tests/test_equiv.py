"""Cocycle matrix, the affine torus action it defines, and the
isotropy / natural-equivariance / local-freeness verdicts."""

import dataclasses

import numpy as np
import pytest

from momentforge import cli, equiv, geom, hamclass, moment
from momentforge.geom import ActionSpec

from conftest import (STD4, affine_apply, circle_distance, classify,
                      equivariance_check, field_vector, fractions, pairing,
                      s2xs2, s2xt2, scenario_moment, sphere, torus2, torus4)


def pipeline(m, a):
    res = hamclass.integralize_with_retry(m, 64)
    mom = moment.generalized_moment(a, res.omega_prime, classify(m, a))
    z = equiv.cocycle_matrix(mom)
    return res, mom, z


def isotropy(mom):
    """The isotropy report that the equivariance verdicts of mom share."""
    return equiv.isotropic_orbit_test(mom.action, mom.covectors)


# ---------------------------------------------------------------------------
# cocycle values

def test_two_torus_cocycle(t2_translations):
    m, a = t2_translations
    _, _, z = pipeline(m, a)
    assert z == [[0, 1], [-1, 0]]


def test_two_torus_cocycle_minus_sign():
    m = torus2()
    a = ActionSpec(((1, 0), (0, 1)), ((), ()), sign=-1)
    _, _, z = pipeline(m, a)
    assert z == [[0, -1], [1, 0]]


def test_t4_split_cocycle_vanishes():
    m = torus4()
    a = ActionSpec(((1, 0, 0, 0), (0, 0, 1, 0)), ((), ()))
    _, _, z = pipeline(m, a)
    assert z == [[0, 0], [0, 0]]


def test_cocycle_is_the_form_pairing(t2_translations):
    """Z_ij equals the integral-form pairing of the translation directions
    of the complement generators, exactly."""
    m, a = t2_translations
    res, mom, z = pipeline(m, a)
    gens = mom.classification.complement_generators
    for i, gi in enumerate(gens):
        fi = field_vector(m, a, gi)
        for j, gj in enumerate(gens):
            fj = field_vector(m, a, gj)
            assert z[i][j] == pairing(m, res.omega_prime, fi, fj)
    # antisymmetry comes with the pairing
    assert all(z[i][j] == -z[j][i] for i in range(2) for j in range(2))


# ---------------------------------------------------------------------------
# affine action

def test_affine_identity_and_zero():
    z = [[0, 1], [-1, 0]]
    t = np.array([0.3, 0.8])
    assert np.allclose(affine_apply(z, [0, 0], t), t)
    assert np.allclose(affine_apply([[0, 0], [0, 0]], [0.4, 0.9], t), t)


def test_affine_composition_law():
    z = [[0, 2], [-2, 0]]
    rng = np.random.default_rng(9)
    for _ in range(100):
        s1, s2, t = rng.random((3, 2))
        once = affine_apply(z, s1 + s2, t)
        twice = affine_apply(z, s2, affine_apply(z, s1, t))
        assert circle_distance(once, twice) < 1e-12


def test_affine_dimension_check():
    with pytest.raises(ValueError):
        affine_apply([[0]], [0.1, 0.2], [0.3])


# ---------------------------------------------------------------------------
# equivariance

def test_two_torus_equivariance(t2_translations):
    m, a = t2_translations
    res, mom, z = pipeline(m, a)
    rep = equivariance_check(m, a, mom, z, n_samples=300, seed=0)
    assert rep.passed
    assert rep.max_mu2_error < 1e-9
    exact = equiv.exact_equivariance(mom, z, isotropy(mom))
    assert exact.passed
    assert exact.max_mu2_error == 0


def test_mixed_equivariance(s2xt2_mixed):
    m, a = s2xt2_mixed
    res, mom, z = pipeline(m, a)
    rep = equivariance_check(m, a, mom, z, n_samples=300, seed=0)
    assert rep.passed
    assert rep.max_mu1_invariance_error < 1e-9
    exact = equiv.exact_equivariance(mom, z, isotropy(mom))
    assert exact.passed
    assert exact.max_mu1_invariance_error == 0


def bend(p, slot, by=1):
    """The pair p = (N, d) with `by` added to one slot of its first row."""
    nums, d = p
    first = list(nums[0])
    first[slot] += by * d
    return (tuple(first),) + tuple(nums[1:]), d


def test_sampled_equivariance_is_exact_for_large_covectors():
    """The sampled oracle moves lattice points by lattice group elements
    with integers mod P, so a two-torus form of 10^12 passes with both
    errors exactly 0 (float group elements read 2.4e-4 there), and a wrong
    cocycle still fails."""
    big = 10 ** 12
    m = torus2(((0, big), (-big, 0)))
    a = ActionSpec(((1, 0), (0, 1)), ((), ()))
    _, mom, z = pipeline(m, a)
    assert z == [[0, big], [-big, 0]]
    rep = equivariance_check(m, a, mom, z, n_samples=300, seed=0)
    assert rep.passed
    assert rep.max_mu2_error == 0 and rep.max_mu1_invariance_error == 0
    assert not equivariance_check(m, a, mom, [[0, 1], [-1, 0]],
                                  n_samples=300, seed=0).passed


def test_exact_equivariance_negative_controls(s2xt2_mixed):
    """The certificate reads the moment's own covectors: a moved torus slot
    breaks equivariance of mu2, or invariance of mu1."""
    m, a = s2xt2_mixed
    _, mom, _ = pipeline(m, a)
    bent = dataclasses.replace(mom, mu2=bend(mom.mu2, 0))
    rep = equiv.exact_equivariance(bent, equiv.cocycle_matrix(bent),
                                   isotropy(bent))
    assert not rep.passed
    assert rep.max_mu2_error == 1 and rep.max_mu1_invariance_error == 0
    bent = dataclasses.replace(mom, mu1=bend(mom.mu1, 1, -3))
    rep = equiv.exact_equivariance(bent, equiv.cocycle_matrix(bent),
                                   isotropy(bent))
    assert not rep.passed
    assert rep.max_mu2_error == 0 and rep.max_mu1_invariance_error == 3


# ---------------------------------------------------------------------------
# isotropy and natural equivariance

def test_s2xs2_orbits_isotropic(s2xs2_rotations):
    m, a = s2xs2_rotations
    rep = equiv.isotropic_orbit_test(a, geom.field_covectors(a, m))
    assert rep.isotropic
    fields = [field_vector(m, a, g) for g in ((1, 0), (0, 1))]
    assert fractions(rep.pairings) == [[pairing(m, m, u, w)
                                        for w in fields] for u in fields]


def test_two_torus_orbits_not_isotropic(t2_translations):
    m, a = t2_translations
    rep = equiv.isotropic_orbit_test(a, geom.field_covectors(a, m))
    assert not rep.isotropic


def test_natural_equivariance_chain_with_fixed_points(s2xs2_rotations):
    m, a = s2xs2_rotations
    res, mom, z = pipeline(m, a)
    verdict = equiv.natural_equivariance(mom, z, isotropy(mom))
    assert verdict.has_fixed_points
    assert verdict.orbits_isotropic
    assert verdict.z_is_zero
    assert verdict.naturally_equivariant


def test_natural_equivariance_without_fixed_points(t2_translations):
    m, a = t2_translations
    res, mom, z = pipeline(m, a)
    verdict = equiv.natural_equivariance(mom, z, isotropy(mom))
    assert not verdict.has_fixed_points
    assert not verdict.orbits_isotropic
    assert not verdict.naturally_equivariant


@pytest.mark.parametrize("name", ["two_torus", "two_torus_sqrt2",
                                  "t4_split", "sphere", "s2xs2",
                                  "s2xt2_reduce", "t2_gcd2", None])
def test_fixed_point_flag_matches_fixed_point_set(name, t2_translations):
    """has_fixed_points reads the translations alone; it agrees with the
    enumerated fixed point set on the bundled scenarios and a
    translation-only action."""
    if name is None:
        m, a = t2_translations
        _, mom, z = pipeline(m, a)
    else:
        sc = cli.load_scenario(cli.bundled_scenario_path(name))
        m, a, mom = sc.manifold, sc.action, scenario_moment(sc)
        z = equiv.cocycle_matrix(mom)
    assert equiv.natural_equivariance(mom, z, isotropy(mom)).has_fixed_points \
        == (geom.fixed_point_set(m, a) != "empty")


def test_natural_equivariance_negative_control():
    """On the split T^4 the orbits are isotropic and mu2 is invariant; a
    covector that pairs with the second translation is not."""
    m = torus4()
    a = ActionSpec(((1, 0, 0, 0), (0, 0, 1, 0)), ((), ()))
    _, mom, z = pipeline(m, a)
    assert equiv.natural_equivariance(mom, z,
                                      isotropy(mom)).naturally_equivariant
    bent = dataclasses.replace(mom, mu2=bend(mom.mu2, 2))
    verdict = equiv.natural_equivariance(bent, z, isotropy(bent))
    assert not verdict.naturally_equivariant
    assert verdict.max_mu2_invariance_error == 1


def test_hamiltonian_only_full_invariance():
    """Z = 0 with r = 0: natural equivariance reduces to plain invariance
    of the whole moment."""
    m = sphere()
    a = ActionSpec(((),), ((1,),))
    res, mom, z = pipeline(m, a)
    verdict = equiv.natural_equivariance(mom, z, isotropy(mom))
    assert verdict.naturally_equivariant
    assert verdict.max_mu2_invariance_error == 0.0


# ---------------------------------------------------------------------------
# local freeness

def test_local_freeness_full_rank(t2_translations):
    m, a = t2_translations
    _, mom, z = pipeline(m, a)
    verdict = equiv.local_freeness_check(mom, z)
    assert verdict.z_rank == mom.r == 2
    assert verdict.note == "rank(Z) = r: action locally free"


def test_local_freeness_not_applicable_on_split_t4():
    """Z = 0 with r = 2: the full-rank hypothesis fails, so no claim is
    made even though the action is in fact free."""
    m = torus4()
    a = ActionSpec(((1, 0, 0, 0), (0, 0, 1, 0)), ((), ()))
    _, mom, z = pipeline(m, a)
    verdict = equiv.local_freeness_check(mom, z)
    assert verdict.z_rank == 0 and mom.r == 2
    assert "not applicable" in verdict.note


def test_local_freeness_vacuous_for_r_zero():
    m = sphere()
    a = ActionSpec(((),), ((1,),))
    _, mom, z = pipeline(m, a)
    verdict = equiv.local_freeness_check(mom, z)
    assert verdict.z_rank == mom.r == 0
    assert verdict.note == "vacuous: r = 0"
