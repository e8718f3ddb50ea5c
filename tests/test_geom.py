"""Manifold universe: factor validation, fundamental fields, pairings,
homology bases, fixed-point sets, seeded sampling, and the batched torus
action."""

from fractions import Fraction

import numpy as np
import pytest

from momentforge import geom
from momentforge.geom import (ActionSpec, FlatTorusFactor, ProductForm,
                              ProductManifold, SphereFactor)

from conftest import s2xt2, sphere, torus2


# ---------------------------------------------------------------------------
# factors and validation

def test_torus_factor_rejects_bad_forms():
    with pytest.raises(ValueError):
        FlatTorusFactor(((0, 1), (1, 0)))          # not antisymmetric
    with pytest.raises(ValueError):
        FlatTorusFactor(((0,),))                   # odd dimension
    # dense and singular: a = b = c = d = f = 1, e = 2, so af - be + cd = 0
    dense = ((0, 1, 1, 1), (-1, 0, 1, 2), (-1, -1, 0, 1), (-1, -2, -1, 0))
    for degenerate in (((0, 0), (0, 0)), dense):
        with pytest.raises(ValueError, match="zero determinant"):
            FlatTorusFactor(degenerate)
        assert not ProductForm(degenerate, ()).is_nondegenerate()


def test_factors_and_forms_hold_fractions():
    """Library callers may pass ints or floats; factors and forms hold the
    exact Fraction of each (a float converts exactly)."""
    torus = FlatTorusFactor(((0, 0.5), (-0.5, 0)))
    form = ProductForm(torus.omega, (SphereFactor(0.1).area_coefficient,))
    assert torus.omega == ((0, Fraction(1, 2)), (Fraction(-1, 2), 0))
    assert form.sphere_coeffs == (Fraction(0.1),)
    assert all(isinstance(x, Fraction)
               for x in form.torus_omega[0] + form.sphere_coeffs)


def test_sphere_factor_rejects_nonpositive_area():
    with pytest.raises(ValueError):
        SphereFactor(0.0)
    with pytest.raises(ValueError):
        SphereFactor(-1.0)


def test_empty_manifold_rejected():
    with pytest.raises(ValueError):
        ProductManifold(None, ())


def test_layout_and_basepoint():
    m = s2xt2()
    assert m.torus_dim == 2 and m.n_spheres == 1
    assert m.dim == 4 and m.b1 == 2
    assert m.sphere_offset(0) == 2
    bp = m.basepoint()
    assert list(bp) == [0.0, 0.0, 0.0, -1.0]
    with pytest.raises(IndexError):
        m.sphere_offset(1)


def test_wrap():
    m = s2xt2()
    x = m.wrap(np.array([1.25, -0.5, 2.5, 0.3]))
    assert np.allclose(x, [0.25, 0.5, 0.5, 0.3])


# ---------------------------------------------------------------------------
# actions and fields

def test_action_validation():
    with pytest.raises(ValueError):
        ActionSpec(((0, 0),), ((),))               # trivial generator
    with pytest.raises(ValueError):
        ActionSpec(((1, 0),), ((),), sign=2)
    with pytest.raises(ValueError):
        ActionSpec(((1, 0),), ())                  # length mismatch


def test_effectiveness():
    eff = ActionSpec(((1, 0), (0, 1)), ((), ()))
    assert eff.is_effective()
    defect = ActionSpec(((2, 0),), ((),))
    assert not defect.is_effective()
    assert defect.effectiveness_diagonal() == [2]


def test_sphere_rotation_field_speed_two():
    m = sphere()
    a = ActionSpec(((),), ((2,),))
    fld = geom.fundamental_field(m, a, 0)
    assert fld.rotations == (2,)
    assert fld.coord_vector(m) == [2, 0]


def test_sign_flips_fields_only():
    m = torus2()
    a = ActionSpec(((1, 0),), ((),), sign=-1)
    fld = geom.fundamental_field(m, a, 0)
    assert fld.translation == (-1,)[:1] + (0,)
    # the orbit map ignores the sign convention
    moved = geom.apply_torus_element(m, a, [0.25], np.zeros(2))
    assert np.allclose(moved, [0.25, 0.0])


def test_combination_field():
    m = s2xt2()
    a = ActionSpec(((0, 0), (1, 0)), ((1,), (0,)))
    fld = geom.combination_field(m, a, [2, 3])
    assert fld.translation == (3, 0)
    assert fld.rotations == (2,)


# ---------------------------------------------------------------------------
# pairings and covectors

def test_pairing_and_contraction_on_torus():
    m = torus2()
    form = m.form()
    assert geom.pairing_eval(m, form, [1, 0], [0, 1]) == 1
    a = ActionSpec(((1, 0),), ((),))
    cov = geom.contraction_covector(m, form, geom.fundamental_field(m, a, 0))
    assert cov == [0, 1]


def test_contraction_on_sphere():
    m = sphere(0.5)
    form = m.form()
    a = ActionSpec(((),), ((1,),))
    cov = geom.contraction_covector(m, form, geom.fundamental_field(m, a, 0))
    assert cov == [0, 0.5]


def test_contraction_is_the_pairing_covector():
    m = s2xt2()
    form = m.form()
    a = ActionSpec(((1, 2),), ((3,),))
    fld = geom.fundamental_field(m, a, 0)
    cov = geom.contraction_covector(m, form, fld)
    x = fld.coord_vector(m)
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = rng.integers(-3, 4, m.coord_dim)
        assert geom.pairing_eval(m, form, x, list(w)) == pytest.approx(
            float(np.dot(cov, w)))


# ---------------------------------------------------------------------------
# homology

def test_homology_bases_counts():
    loops, cycles = geom.homology_bases(s2xt2())
    assert len(loops) == 2
    assert len(cycles) == 2  # one torus 2-cycle + one sphere class
    loops, cycles = geom.homology_bases(sphere())
    assert len(loops) == 0
    assert len(cycles) == 1


def test_open_curve_rejected():
    with pytest.raises(ValueError):
        geom.TorusLoop((0.5, 1))


# ---------------------------------------------------------------------------
# fixed points

def test_fixed_points_double_rotation():
    m = ProductManifold(None, (SphereFactor(0.5), SphereFactor(0.5)))
    a = ActionSpec(((), ()), ((1, 0), (0, 1)))
    fps = geom.fixed_point_set(m, a)
    assert fps.kind == "finite"
    assert len(fps.points) == 4


def test_fixed_points_empty_with_translation():
    m = s2xt2()
    a = ActionSpec(((0, 0), (1, 0)), ((1,), (0,)))
    assert geom.fixed_point_set(m, a).kind == "empty"


def test_fixed_points_submanifold():
    m = s2xt2()
    a = ActionSpec(((0, 0),), ((1,),))
    fps = geom.fixed_point_set(m, a)
    assert fps.kind == "submanifold"
    assert len(fps.points) == 2  # two poles, each times the torus


# ---------------------------------------------------------------------------
# sampling and the action

def test_sampling_reproducible_and_in_range():
    m = torus2()
    a = geom.sample_points(m, 4, 0)
    b = geom.sample_points(m, 4, 0)
    assert np.array_equal(a, b)
    assert len({tuple(p) for p in a}) == 4
    assert np.all((a >= 0) & (a < 1))
    s = geom.sample_points(sphere(), 100, 1)
    assert np.all(np.abs(s[:, 1]) <= 1)
    assert not np.array_equal(geom.sample_points(m, 4, 2), a)


def test_apply_torus_element_group_law():
    m = s2xt2()
    a = ActionSpec(((0, 0), (1, 0)), ((1,), (0,)))
    x = geom.sample_points(m, 5, 3)
    one = geom.apply_torus_element(m, a, [0.2, 0.3], x)
    two = geom.apply_torus_element(
        m, a, [0.1, 0.25], geom.apply_torus_element(m, a, [0.1, 0.05], x))
    assert np.allclose(one, two)
    # a full turn of any generator is the identity
    full = geom.apply_torus_element(m, a, [1.0, 0.0], x)
    assert np.allclose(full, x)
    # (n, r_total) params act row by row, exactly as n single calls
    params = np.random.default_rng(4).random((len(x), a.r_total))
    rows = [geom.apply_torus_element(m, a, p, xi) for p, xi in zip(params, x)]
    assert np.array_equal(geom.apply_torus_element(m, a, params, x),
                          np.array(rows))
