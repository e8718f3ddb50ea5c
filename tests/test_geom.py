"""Manifold universe: factor validation, the orbit and form matrices and
the field covectors (against the conftest oracle), fixed-point sets, seeded
sampling, and the batched torus action."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from momentforge import cli, equiv, geom, hamclass, moment, ratlin, sample
from momentforge.geom import ActionSpec, ProductForm, ProductManifold

from conftest import (apply_torus_element, classify, covectors, dense,
                      field_vector, fractions, orbit_matrix, pair, pairing,
                      s2xt2, scenario_moment, sphere, sphere_coeffs, torus2,
                      torus_omega, wrap)


# ---------------------------------------------------------------------------
# factors and validation

def test_torus_factor_rejects_bad_forms():
    """The manifold validates its torus block once, naming torus_omega:
    antisymmetric, even-sized, square and nondegenerate."""
    for torus, message in ((((0, 1), (1, 0)), "antisymmetric"),
                           (((0, 1), (-1, 1)), "antisymmetric"),
                           (((0,),), "even"),
                           (((0, 1), (-1,)), "square"),
                           (((0, 1, 0), (-1, 0)), "square")):
        with pytest.raises(ValueError, match=f"^torus_omega: .*{message}"):
            ProductManifold(torus)
    # dense and singular: a = b = c = d = f = 1, e = 2, so af - be + cd = 0
    dense = ((0, 1, 1, 1), (-1, 0, 1, 2), (-1, -1, 0, 1), (-1, -2, -1, 0))
    for degenerate in (((0, 0), (0, 0)), dense):
        with pytest.raises(ValueError,
                           match="^torus_omega: .*zero determinant"):
            ProductManifold(degenerate, (1,))
        assert not ProductForm(degenerate, ()).is_nondegenerate()


def test_torus_factor_decides_nondegeneracy_mod_p_with_exact_fallback(
        monkeypatch):
    """The prime form P (dx1 ^ dx2) has determinant P^2, 0 mod P: only the
    exact fallback accepts it.  A T^4 form whose Pfaffian af - be + cd is
    exactly 0, with every entry 2 mod P, is still a zero determinant.  The
    verdict is decided once per form and cached on it."""
    p = ratlin.P
    calls = []
    real = ratlin.nonsingular
    monkeypatch.setattr(ratlin, "nonsingular",
                        lambda a: calls.append(a) or real(a))
    form = ProductManifold(((0, p), (-p, 0)))
    assert form.torus == ((0, p), (-p, 0)) and form.den == 1
    assert form.is_nondegenerate() and form.is_nondegenerate()
    assert calls == [((0, p), (-p, 0))]
    pfaffian_zero = ((0, 1, 1, 1), (-1, 0, 1, 2), (-1, -1, 0, 1),
                     (-1, -2, -1, 0))
    with pytest.raises(ValueError, match="zero determinant"):
        ProductManifold(tuple(tuple((p + 2) * x for x in row)
                              for row in pfaffian_zero))


def test_forms_hold_integer_numerators_over_one_denominator():
    """The blocks over den are W in lowest terms: the torus block and the
    sphere coefficients, all over den, reduced together."""
    form = m = ProductManifold([[0, 25], [-25, 0]], (Fraction(10, 3),), 10)
    assert form.den == 6 and form.torus_dim == 2
    assert form.torus == ((0, 15), (-15, 0)) and form.sphere_coeffs == (2,)
    assert dense(form) == ((0, 15, 0, 0), (-15, 0, 0, 0), (0, 0, 0, 2),
                           (0, 0, -2, 0))
    assert torus_omega(form) == [[0, Fraction(5, 2)], [Fraction(-5, 2), 0]]
    assert sphere_coeffs(form) == (Fraction(1, 3),)
    for other in (ProductForm(((0, 2.5), (-2.5, 0)), (Fraction(2, 6),)),
                  ProductForm(((0, 5), (-5, 0)), (Fraction(2, 3),), 2)):
        assert (dense(other), other.den) == (dense(form), form.den)
    assert (m.torus_dim, m.n_spheres, m.dim) == (2, 1, 4)
    torus = ProductManifold([[0, 25], [-25, 0]], (), 10)
    assert (torus.torus, torus.den) == (((0, 5), (-5, 0)), 2)


def test_forms_differ_in_any_field():
    """Two forms are equal only when torus, sphere_coeffs and den all are:
    one 2x2 block of W is a torus form or one sphere's, and the same
    numerators over another den, or other numerators over the same den,
    are another form.  Planted for the deletion of each field annotation
    of ProductForm, which leaves that field out of __eq__."""
    torus = ProductForm(((0, 1), (-1, 0)))
    assert dense(torus) == dense(ProductForm(None, (1,)))
    assert torus != ProductForm(None, (1,))
    assert ProductForm(None, (1,)) != ProductForm(None, (2,))
    assert torus != ProductForm(((0, 1), (-1, 0)), (), 2)
    assert ProductForm(((0, 1), (-1, 0)), (), 2).torus == torus.torus
    assert torus != ProductForm(((0, 2), (-2, 0)))
    assert torus == ProductForm(((0, 1), (-1, 0)))


def test_factors_and_forms_hold_fractions():
    """Library callers may pass ints, Fractions or floats; manifolds and
    forms hold the exact value of each as numerators over one denominator
    (a float converts exactly)."""
    m = ProductManifold(((0, 0.5), (-0.5, 0)), (0.1,))
    form = ProductForm(((0, 0.5), (-0.5, 0)), (0.1,))
    assert (dense(m), m.den) == (dense(form), form.den)
    # the manifold is its checked form, but never equals a bare form
    assert m != form and form != m
    assert m == ProductManifold(((0, 0.5), (-0.5, 0)), (0.1,))
    assert ProductManifold(((0, 0.5), (-0.5, 0))).torus == \
        ((0, 1), (-1, 0))
    assert ProductManifold(((0, 0.5), (-0.5, 0))).den == 2
    assert torus_omega(form) == [[0, Fraction(1, 2)], [Fraction(-1, 2), 0]]
    assert sphere_coeffs(form) == (Fraction(0.1),)


def test_sphere_factor_rejects_nonpositive_area():
    for spheres in ((0.0,), (-1.0,), (1, 0), (Fraction(-1, 3),)):
        with pytest.raises(ValueError, match="^spheres: .*positive"):
            ProductManifold(((0, 1), (-1, 0)), spheres)


def test_empty_manifold_rejected():
    for empty in ((), (None, ()), ((), (), 5)):
        with pytest.raises(ValueError, match="empty manifold"):
            ProductManifold(*empty)


def test_layout_and_basepoint():
    m = s2xt2()
    assert m.torus_dim == 2 and m.n_spheres == 1
    assert m.dim == 4 and m.b1 == 2
    assert m.sphere_offset(0) == 2
    bp = m.basepoint()
    assert list(bp) == [0.0, 0.0, 0.0, -1.0]
    with pytest.raises(IndexError):
        m.sphere_offset(1)


@pytest.mark.parametrize("name", sorted(
    p.stem for p in (Path(cli.__file__).parent / "scenarios").glob("*.ini")))
def test_every_form_answers_the_manifolds_shape(name):
    """The layout lives on every form: omega_prime, a bare ProductForm,
    reports the manifold's.  The manifold is its form, checked: it holds
    the same nums and den as the unchecked ProductForm of its torus block
    and sphere coefficients (the conftest oracles), and its sphere_coeffs
    are theirs over den."""
    sc = cli.load_scenario(cli.bundled_scenario_path(name))
    m = sc.manifold
    form = hamclass.integralize_with_retry(m, sc.max_denominator).omega_prime
    assert type(form) is ProductForm
    assert (form.dim, form.n_spheres, form.torus_dim, form.b1) \
        == (m.dim, m.n_spheres, m.torus_dim, m.b1)
    assert form.basepoint() == m.basepoint()
    offsets = [m.sphere_offset(f) for f in range(m.n_spheres)]
    assert [form.sphere_offset(f) for f in range(m.n_spheres)] == offsets
    assert offsets == list(range(m.torus_dim, m.dim, 2))
    t, s = torus_omega(m), sphere_coeffs(m)
    over_3 = ([[3 * x for x in row] for row in t], [3 * x for x in s], 3)
    checked, bare = ProductManifold(*over_3), ProductForm(*over_3)
    assert (dense(checked), checked.den) == (dense(bare), bare.den) \
        == (dense(m), m.den)
    assert tuple(Fraction(x, m.den) for x in m.sphere_coeffs) == s


def test_wrap():
    m = s2xt2()
    x = wrap(m, np.array([1.25, -0.5, 2.5, 0.3]))
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
    with pytest.raises(ValueError, match="ragged"):
        ActionSpec(((1, 0), (1,)), ((0,), (1,)))   # ragged translations
    with pytest.raises(ValueError, match="ragged"):
        ActionSpec(((1, 0), (0, 1)), ((0,), (1, 1)))  # ragged rotations


def test_effectiveness():
    """Effective means the first r_total Smith invariants are all 1."""
    eff = ActionSpec(((1, 0), (0, 1)), ((), ()))
    assert eff.effectiveness_diagonal() == [1, 1]
    defect = ActionSpec(((2, 0),), ((),))
    assert defect.effectiveness_diagonal() == [2]


def test_sphere_rotation_field_speed_two():
    m = sphere()
    a = ActionSpec(((),), ((2,),))
    assert orbit_matrix(a) == [[2, 0]]
    assert field_vector(m, a, [1]) == [2, 0]
    assert covectors(a, m) == [[0, 1]]


def test_sign_flips_fields_only():
    m = torus2()
    a = ActionSpec(((1, 0),), ((),), sign=-1)
    assert field_vector(m, a, [1]) == [-1, 0]
    assert covectors(a, m) == [[0, -1]]
    # the orbit map ignores the sign convention
    assert orbit_matrix(a) == [[1, 0]]
    moved = apply_torus_element(m, a, [0.25], np.zeros(2))
    assert np.allclose(moved, [0.25, 0.0])


def test_combination_field():
    m = s2xt2()
    a = ActionSpec(((0, 0), (1, 0)), ((1,), (0,)))
    assert ratlin.mat_mul([[2, 3]], orbit_matrix(a)) == [[3, 0, 2, 0]]
    assert field_vector(m, a, [2, 3]) == [3, 0, 2, 0]
    # i_X omega for X = (3, 0 | 2, 0): 3 (0, 1) on the torus, c * 2 on h
    assert covectors(a, m, [[2, 3]]) == [[0, 3, 0, 2]]
    assert covectors(a, m, []) == []


# ---------------------------------------------------------------------------
# the form matrix and the field covectors

def test_pairing_and_contraction_on_torus():
    m = torus2()
    form = m
    assert pairing(m, form, [1, 0], [0, 1]) == 1
    assert (dense(form), form.den) == (((0, 1), (-1, 0)), 1)
    a = ActionSpec(((1, 0),), ((),))
    assert covectors(a, form) == [[0, 1]]


def test_contraction_on_sphere():
    m = sphere(0.5)
    form = m
    assert (dense(form), form.den) == (((0, 1), (-1, 0)), 2)
    a = ActionSpec(((),), ((1,),))
    assert covectors(a, form) == [[0, 0.5]]


def test_contraction_is_the_pairing_covector():
    """(i_X omega)(e_k) = omega(X, e_k), exactly, on every basis vector
    and for both signs."""
    m = s2xt2()
    form = m
    for sign in (1, -1):
        a = ActionSpec(((1, 2),), ((3,),), sign)
        [cov] = covectors(a, form)
        x = field_vector(m, a, [1])
        for k in range(m.dim):
            e = [int(i == k) for i in range(m.dim)]
            assert cov[k] == pairing(m, form, x, e)


rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def products(draw):
    """T^m x (S^2)^n with m in {0, 2, 4}, n <= 3, a random nondegenerate
    rational Omega and rational c, and 1-4 integer generators."""
    m = draw(st.sampled_from((0, 2, 4)))
    n = draw(st.integers(0, 3))
    assume(m + n > 0)
    omega = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            omega[i][j] = draw(rationals)
            omega[j][i] = -omega[i][j]
    assume(m == 0 or ratlin.determinant(pair(omega)[0]) != 0)
    spheres = [Fraction(draw(st.integers(1, 8)), draw(st.integers(1, 4)))
               for _ in range(n)]
    ints = st.integers(-2, 2)
    gens = [(tuple(draw(ints) for _ in range(m)),
             tuple(draw(ints) for _ in range(n)))
            for _ in range(draw(st.integers(1, 4)))]
    assume(all(any(v) or any(s) for v, s in gens))
    manifold = ProductManifold(omega, spheres)
    action = ActionSpec(tuple(v for v, _ in gens), tuple(s for _, s in gens),
                        draw(st.sampled_from((1, -1))))
    return manifold, action


@given(products(), st.lists(st.lists(st.integers(-3, 3), min_size=4,
                                     max_size=4), min_size=1, max_size=3))
@settings(max_examples=80, deadline=None)
def test_matrix_model_matches_the_oracle(product, combos):
    """Field covectors, isotropy pairings and the cocycle of the integral
    form all agree with the oracle pairing of the oracle fields."""
    m, a = product
    form = m
    basis = [[int(i == k) for i in range(m.dim)]
             for k in range(m.dim)]
    units = [[int(i == j) for i in range(a.r_total)]
             for j in range(a.r_total)]
    combos = [row[:a.r_total] for row in combos]
    for coeffs, covs in ((units, covectors(a, form)),
                         (combos, covectors(a, form, combos))):
        assert covs == [[pairing(m, form, field_vector(m, a, g), e)
                         for e in basis] for g in coeffs]
    fields = [field_vector(m, a, g) for g in units]
    assert fractions(equiv.isotropic_orbit_test(
        a, geom.field_covectors(a, form)).pairings) == [
        [pairing(m, form, u, w) for w in fields] for u in fields]
    cls = classify(m, a, form)
    res = hamclass.integralize_with_retry(form, 64)
    gens = cls.complement_generators
    # Z pairs the field of H_i with the orbit of H_j, which follows the
    # generator data: sign times the field
    mom = moment.generalized_moment(a, res.omega_prime, cls)
    assert equiv.cocycle_matrix(mom) == [
        [a.sign * pairing(m, res.omega_prime, field_vector(m, a, gi),
                          field_vector(m, a, gj)) for gj in gens]
        for gi in gens]


# ---------------------------------------------------------------------------
# fixed points

def test_fixed_points_double_rotation():
    m = ProductManifold(None, (0.5, 0.5))
    a = ActionSpec(((), ()), ((1, 0), (0, 1)))
    assert geom.fixed_point_set(m, a) == "finite"


def test_fixed_points_empty_with_translation():
    m = s2xt2()
    a = ActionSpec(((0, 0), (1, 0)), ((1,), (0,)))
    assert geom.fixed_point_set(m, a) == "empty"


def test_fixed_points_submanifold():
    m = s2xt2()
    a = ActionSpec(((0, 0),), ((1,),))
    # two poles, each times the torus
    assert geom.fixed_point_set(m, a) == "submanifold"


# ---------------------------------------------------------------------------
# sampling and the action

def test_sampling_reproducible_and_in_range():
    """Numerators over the prime P: a in [0, P) on the torus and theta
    slots, the odd 2b - P in [-P, P) on the heights."""
    p = geom.LATTICE
    m = torus2()
    a = sample.sample_points(m, 4, 0)
    b = sample.sample_points(m, 4, 0)
    assert a.dtype == np.int64 and np.array_equal(a, b)
    assert len({tuple(row) for row in a}) == 4
    assert np.all((a >= 0) & (a < p))
    s = sample.sample_points(s2xt2(), 1000, 1)
    assert np.all((s[:, :3] >= 0) & (s[:, :3] < p))
    assert np.all((s[:, 3] >= -p) & (s[:, 3] < p) & (s[:, 3] % 2 == 1))
    # the heights fill both hemispheres
    assert (s[:, 3] < -p // 2).any() and (s[:, 3] > p // 2).any()
    assert not np.array_equal(sample.sample_points(m, 4, 2), a)


def test_sampling_draws_p_again(monkeypatch):
    """A raw draw whose top 31 bits read P is drawn again from the stream
    as it continues: its slot and every later one take the next draws, so
    every slot stays uniform on [0, P)."""
    p = geom.LATTICE
    draws = iter([np.array([[p << 33, 5 << 33], [p << 33, 7 << 33]],
                           dtype=np.uint64),
                  np.array([p << 33, 3 << 33], dtype=np.uint64),
                  np.array([11 << 33], dtype=np.uint64)])

    class Bits:
        def random_raw(self, size):
            out = next(draws)
            assert out.size == np.prod(size)
            return out

    class Rng:
        bit_generator = Bits()

    monkeypatch.setattr(sample.np.random, "default_rng", lambda seed: Rng())
    assert sample.sample_points(torus2(), 2, 0).tolist() == [[5, 7], [3, 11]]


def test_first_rows_do_not_depend_on_the_draw_length():
    """The first k rows of draws of n and of m > k rows are equal, and a
    stream drawn in blocks reads the rows of one draw of their sum."""
    for name, seed in (("two_torus", 4), ("s2xt2_reduce", 1),
                       ("sphere", 9)):
        mom = scenario_moment(cli.load_scenario(
            cli.bundled_scenario_path(name)))
        m = mom.omega_prime
        full = sample.sample_points(m, 5000, seed)
        for k, n in ((1, 1), (1, 2), (17, 37), (1024, 1024), (1000, 3000)):
            assert np.array_equal(sample.sample_points(m, n, seed)[:k],
                                  full[:k])
        stream = sample.Stream(m, seed)
        blocks = [stream.table(mom, 1000)[1][:, :m.dim]] + [
            stream.rows(size) for size in (1024, 2048, 928)]
        assert all(b.dtype == np.int64 for b in blocks)
        assert np.array_equal(np.vstack(blocks), full)


def test_first_rows_do_not_depend_on_the_draw_length_past_a_raw_p(
        monkeypatch):
    """Raw draws of P, also as the first redraw, in rows 2 and 4 of a
    stream of two slots a row: every draw of n rows and every blocking of
    the stream read the same rows, none of them P."""
    p, dim = geom.LATTICE, 2
    values = [(7 * i + 1) << 33 for i in range(40)]
    values[9] = values[4] = values[5] = p << 33

    class Bits:
        def __init__(self):
            self.pos = 0

        def random_raw(self, size):
            k = int(np.prod(size))
            self.pos += k
            return np.array(values[self.pos - k:self.pos],
                            dtype=np.uint64).reshape(size)

    class Rng:
        def __init__(self):
            self.bit_generator = Bits()

    monkeypatch.setattr(sample.np.random, "default_rng", lambda seed: Rng())
    kept = [v >> 33 for v in values if v >> 33 != p]
    want = np.array(kept[:12 * dim]).reshape(12, dim)
    for n in range(1, 13):
        assert np.array_equal(sample.sample_points(torus2(), n, 0),
                              want[:n])
    stream = sample.Stream(torus2(), 0)
    blocks = [stream.rows(size) for size in (3, 1, 2, 6)]
    assert np.array_equal(np.vstack(blocks), want)


def test_apply_torus_element_group_law():
    m = s2xt2()
    a = ActionSpec(((0, 0), (1, 0)), ((1,), (0,)))
    x = sample.sample_points(m, 5, 3) / geom.LATTICE
    one = apply_torus_element(m, a, [0.2, 0.3], x)
    two = apply_torus_element(
        m, a, [0.1, 0.25], apply_torus_element(m, a, [0.1, 0.05], x))
    assert np.allclose(one, two)
    # a full turn of any generator is the identity
    full = apply_torus_element(m, a, [1.0, 0.0], x)
    assert np.allclose(full, x)
    # (n, r_total) params act row by row, exactly as n single calls
    params = np.random.default_rng(4).random((len(x), a.r_total))
    rows = [apply_torus_element(m, a, p, xi) for p, xi in zip(params, x)]
    assert np.array_equal(apply_torus_element(m, a, params, x),
                          np.array(rows))
