"""Period matrices, the Hamiltonian splitting, and integralization.

Oracles: period-matrix entries and H^2 class coefficients are checked
against adaptive quadrature of the form along the loops and over the
2-cycles, the rounding step against Fraction.limit_denominator (one
coefficient) and against each coefficient's own best approximation (many),
and classification preservation over randomized irrational instances.
"""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from momentforge import cli, geom, hamclass, ratlin, sample
from momentforge.geom import ActionSpec, ProductForm, ProductManifold

from conftest import (classify, dense, exact_decimals, field_vector,
                      fractions, pairing, s2xt2, scenario_moment, sphere,
                      sphere_coeffs, torus2, torus_omega)


# ---------------------------------------------------------------------------
# quadrature oracle

def adaptive_simpson(f, a: float, b: float, tol: float = 1e-10,
                     max_evals: int = 2 ** 20) -> float:
    """Adaptive Simpson quadrature with an absolute tolerance: the numeric
    oracle for the closed-form periods."""
    budget = [max_evals]

    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps):
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        if budget[0] < 2:
            return whole
        budget[0] -= 2
        fl, fr = f(lmid), f(rmid)
        left = simpson(lo, mid, flo, fl, fmid)
        right = simpson(mid, hi, fmid, fr, fhi)
        if abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (recurse(lo, mid, flo, fl, fmid, left, eps / 2.0)
                + recurse(mid, hi, fmid, fr, fhi, right, eps / 2.0))

    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    budget[0] -= 3
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol)


def test_adaptive_simpson_oracle_quality():
    assert adaptive_simpson(np.sin, 0.0, np.pi) == pytest.approx(
        2.0, abs=1e-9)
    assert adaptive_simpson(lambda t: t ** 3, 0.0, 1.0) == \
        pytest.approx(0.25, abs=1e-12)


# ---------------------------------------------------------------------------
# period matrix

def test_period_matrix_vs_quadrature():
    """Oracle: the period of i_X omega over the loop t -> t d is the
    integral of omega(X, d) over [0, 1]; entry (j, k) is the loop d = e_k,
    and any other loop is the matching combination of entries."""
    m = s2xt2(c=0.7, omega=((0, 1.5), (-1.5, 0)))
    form = m
    a = ActionSpec(((2, -1), (0, 0), (1, 3)), ((1,), (1,), (-2,)))
    p = fractions(hamclass.period_matrix(a, form))
    for j in range(a.r_total):
        x = field_vector(m, a, [int(i == j) for i in range(a.r_total)])
        for direction in [(1, 0), (0, 1), (2, 3)]:
            tangent = list(direction) + [0, 0]
            numeric = adaptive_simpson(
                lambda t: float(pairing(m, form, x, tangent)),
                0.0, 1.0)
            closed = sum(p[j][k] * d for k, d in enumerate(direction))
            assert closed == pytest.approx(numeric, abs=1e-9)


def test_period_matrix_std_t2(t2_translations):
    m, a = t2_translations
    p = hamclass.period_matrix(a, m)
    assert p == ([[0, 1], [-1, 0]], 1)
    assert any(p[0][0])


def test_period_matrix_sphere_rotation_rows_vanish():
    m = sphere()
    a = ActionSpec(((),), ((1,),))
    p = hamclass.period_matrix(a, m)
    assert fractions(p) == [[]]


def test_period_matrix_mixed(s2xt2_mixed):
    m, a = s2xt2_mixed
    p = hamclass.period_matrix(a, m)
    assert fractions(p) == [[0, 0], [0, 1], [-1, 0]]
    assert not any(p[0][0])


# ---------------------------------------------------------------------------
# classification

def test_classify_trivial_rows():
    # all generators Hamiltonian: c = r_total, r = 0
    m = sphere()
    a = ActionSpec(((), ()), ((1,), (2,)))
    cls = hamclass.classify_action(hamclass.period_matrix(a, m))
    assert cls.c == 2 and cls.r == 0
    assert cls.hamiltonian_basis == ((1, 0), (0, 1))


def test_classify_fully_non_hamiltonian(t2_translations):
    m, a = t2_translations
    cls = hamclass.classify_action(hamclass.period_matrix(a, m))
    assert cls.c == 0 and cls.r == 2
    assert cls.complement_generators == ((1, 0), (0, 1))


def test_classify_mixed(s2xt2_mixed):
    m, a = s2xt2_mixed
    cls = hamclass.classify_action(hamclass.period_matrix(a, m))
    assert cls.c == 1 and cls.r == 2
    assert cls.hamiltonian_basis == ((1, 0, 0),)


def test_classify_saturates_the_kernel():
    # generator 0 rotates at speed 2 only: the kernel direction (1, 0) must
    # come out primitive even though the period data only sees 2x it
    m = sphere()
    a = ActionSpec(((), ()), ((2,), (1,)))
    cls = hamclass.classify_action(hamclass.period_matrix(a, m))
    assert cls.c == 2
    assert all(math.gcd(*[abs(x) for x in v]) == 1
               for v in cls.hamiltonian_basis)


def test_classify_hamiltonian_combination():
    # generators (1,0)+rot and (1,0): the difference is Hamiltonian
    m = s2xt2()
    a = ActionSpec(((1, 0), (1, 0)), ((1,), (0,)))
    cls = hamclass.classify_action(hamclass.period_matrix(a, m))
    assert cls.c == 1 and cls.r == 1
    assert cls.hamiltonian_basis == ((1, -1),)


# ---------------------------------------------------------------------------
# H^2 coefficients

def test_class_coefficients_round_trip():
    m = s2xt2(c=0.75, omega=((0, 1.5), (-1.5, 0)))
    coeffs = hamclass.form_class_coefficients(m)
    assert coeffs == [1.5, 1.5]
    back = hamclass.form_from_class_coefficients(2, coeffs)
    assert torus_omega(back)[0][1] == 1.5
    assert float(sphere_coeffs(back)[0]) == 0.75
    # the torus dimension and the count give the shape: past the torus
    # classes every coefficient is a sphere's
    assert (dense(back), back.den) == (dense(m), m.den)
    point = hamclass.form_from_class_coefficients(0, coeffs)
    spheres = ProductManifold(None, (0.75, 0.75))
    assert (dense(point), point.den) == (dense(spheres), spheres.den)


def test_class_coefficients_vs_quadrature():
    """Oracle: each coefficient is the integral of the form over its
    canonical 2-cycle, integrated numerically over the cycle's parameter
    square: [0, 1]^2 for the coordinate 2-torus (i, j), theta in [0, 1]
    and h in [-1, 1] for a sphere."""
    dense = ((0, 1, 2, 0), (-1, 0, 0.5, 3), (-2, -0.5, 0, 1), (0, -3, -1, 0))
    m = ProductManifold(dense, (0.7, 1.5))
    form = m
    coeffs = hamclass.form_class_coefficients(form)
    labels = [("torus", i, j) for i in range(4) for j in range(i + 1, 4)] \
        + [("sphere", f) for f in range(2)]
    assert len(coeffs) == len(labels) == 8
    for label, coeff in zip(labels, coeffs):
        if label[0] == "torus":
            i, j, lo, hi = label[1], label[2], 0.0, 1.0
        else:
            i = m.sphere_offset(label[1])
            j, lo, hi = i + 1, -1.0, 1.0
        u = [int(k == i) for k in range(m.dim)]
        w = [int(k == j) for k in range(m.dim)]
        numeric = adaptive_simpson(
            lambda s: adaptive_simpson(
                lambda t: float(pairing(m, form, u, w)), lo, hi),
            0.0, 1.0)
        assert float(coeff) == pytest.approx(numeric, abs=1e-9)


def test_class_numerators_order():
    """The torus class, then the sphere's area 2c, over the form's den."""
    m = s2xt2(c=0.75, omega=((0, 1.25), (-1.25, 0)))
    assert (hamclass.class_numerators(m), m.den) == ([5, 6], 4)


def test_class_coefficient_order():
    """Torus classes dx_i ^ dx_j row by row (i < j), then one unit-area
    class per sphere, whose coefficient is the area 2c."""
    omega = ((0, 1, 2, 3), (-1, 0, 4, 5), (-2, -4, 0, 6), (-3, -5, -6, 0))
    m = ProductManifold(omega, (7, 8))
    assert hamclass.form_class_coefficients(m) == [
        1, 2, 3, 4, 5, 6, 14, 16]


# ---------------------------------------------------------------------------
# integralization

def test_integralize_sqrt2():
    form = ProductForm(((0, math.sqrt(2)), (-math.sqrt(2), 0)), ())
    res = hamclass.integralize_form(form, 5)
    assert res.q == (Fraction(7, 5),)
    assert res.k == 5
    assert (res.omega_prime.torus, res.omega_prime.den) \
        == (((0, 7), (-7, 0)), 1)
    assert res.max_deviation == pytest.approx(abs(1.4 - math.sqrt(2)),
                                              abs=1e-12)


def test_integralize_already_integral(t2_translations):
    m, _ = t2_translations
    res = hamclass.integralize_form(m, 64)
    assert res.k == 1
    assert (res.omega_prime.torus, res.omega_prime.den) \
        == (((0, 1), (-1, 0)), 1)
    assert res.max_deviation == 0.0


def test_integralize_sphere_area():
    m = sphere(0.7)
    res = hamclass.integralize_form(m, 5)
    # class coefficient 1.4 rounds to 7/5, scaled to 7
    assert res.k == 5
    assert sphere_coeffs(res.omega_prime) == (Fraction(7, 2),)


def test_integralize_respects_exactness_constraints():
    """A Hamiltonian generator must stay Hamiltonian: the rounded class has
    to keep the same contraction-exactness pattern."""
    m = s2xt2(c=0.5 * math.sqrt(3))
    a = ActionSpec(((0, 0), (1, 0), (0, 1)), ((1,), (0,), (0,)))
    res = hamclass.integralize_with_retry(m, 16)
    cls = hamclass.classify_action(
        hamclass.period_matrix(a, res.omega_prime))
    assert cls == classify(m, a)
    assert cls.c == 1 and cls.r == 2
    coeffs = hamclass.form_class_coefficients(res.omega_prime)
    assert all(Fraction(x).denominator == 1 for x in coeffs)


def test_integralize_randomized_preserves_classification():
    rng = np.random.default_rng(42)
    m, a_spec = s2xt2(), ActionSpec(((0, 0), (1, 0), (0, 1)),
                                    ((1,), (0,), (0,)))
    base = hamclass.classify_action(
        hamclass.period_matrix(a_spec, m))
    for _ in range(20):
        w = float(rng.uniform(0.5, 3.0)) * math.sqrt(2)
        c = float(rng.uniform(0.2, 2.0)) * math.sqrt(3)
        form = ProductForm(((0, w), (-w, 0)), (c,))
        res = hamclass.integralize_with_retry(form, 8)
        got = hamclass.classify_action(
            hamclass.period_matrix(a_spec, res.omega_prime))
        assert got == base
        assert res.omega_prime.is_nondegenerate()


def test_retry_doubles_the_bound():
    """With bound 1 the sqrt(2) coefficient rounds to 1, which is fine here
    (nondegenerate, same classification), so no retry is needed; force a
    retry with a coefficient that rounds to zero."""
    tiny = 1e-3
    form = ProductForm(((0, tiny), (-tiny, 0)), ())
    res = hamclass.integralize_with_retry(form, 1)
    # 1e-3 rounds to 0 at small bounds (degenerate) until the denominator
    # bound admits a nonzero approximation
    assert res.omega_prime.is_nondegenerate()
    assert res.q[0] != 0


def test_retry_bounds_double_up_to_2_16():
    """2/5 rounds to 0 at bound 1 and to 1/2 at bound 2 (at 3 it would be
    1/3).  10^-6 rounds to 0 at every bound up to 2^16: from 3 the bound
    doubles to 49152 and is then capped at 65536, the last one tried.
    Planted for the retry's `2 * bound` raised to `3 * bound`, and for its
    cap `2 ** 16` with the base raised to 3."""
    x = Fraction(2, 5)
    res = hamclass.integralize_with_retry(ProductForm(((0, x), (-x, 0))), 1)
    assert res.k == 2 and res.q == (Fraction(1, 2),)
    x = Fraction(1, 10 ** 6)
    with pytest.raises(hamclass.RoundingBrokeNondegeneracy,
                       match="^max_denominator=65536$"):
        hamclass.integralize_with_retry(ProductForm(((0, x), (-x, 0))), 3)


@given(exact_decimals(), exact_decimals(),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=60, deadline=None)
def test_integral_form_and_deviation_match_fraction_arithmetic(w, c, bound):
    """On 15-17-digit decimal forms the integer scaling and deviation equal
    their Fraction definitions: omega' = k q, and max_deviation is
    float(max |q_i - a_i|) to the bit."""
    m = ProductManifold(((0, w), (-w, 0)), (abs(c),))
    res = hamclass.integralize_with_retry(m, bound)
    coeffs = hamclass.form_class_coefficients(m)
    assert res.max_deviation == float(max(abs(x - y)
                                          for x, y in zip(res.q, coeffs)))
    assert hamclass.form_class_coefficients(res.omega_prime) \
        == [x * res.k for x in res.q]
    assert all(type(x) is int
               for row in dense(res.omega_prime) for x in row)


def class_form(coeffs) -> ProductManifold:
    """The form on T^2 x (S^2)^(len - 1) whose class coefficients are coeffs
    (the sphere ones taken positive)."""
    w = coeffs[0]
    return ProductManifold(((0, w), (-w, 0)),
                           tuple(abs(x) / 2 for x in coeffs[1:]))


def largest_error(coeffs, q) -> Fraction:
    """The largest distance of q x to the nearest integer, over q."""
    return max(abs(round(x * q) - x * q) for x in coeffs) / q


@given(st.lists(exact_decimals().map(lambda x: x + (1 if x > 0 else -1)),
                min_size=1, max_size=6),
       st.integers(min_value=1, max_value=64))
@settings(max_examples=80, deadline=None)
def test_integralize_rounds_on_one_common_denominator(coeffs, bound):
    """Coefficients of magnitude at least 1.05, so none rounds to 0 and the
    form stays nondegenerate: k is at most the bound, every rounded
    coefficient is over k, within 1/(2k) of its own, and the largest error
    is no larger than at 1 or at any coefficient's own best-approximation
    denominator."""
    form = class_form(coeffs)
    res = hamclass.integralize_form(form, bound)
    a = hamclass.form_class_coefficients(form)
    assert 1 <= res.k <= bound
    assert all((x * res.k).denominator == 1 for x in res.q)
    dev = max(abs(x - y) for x, y in zip(res.q, a))
    assert dev == largest_error(a, res.k) <= Fraction(1, 2 * res.k)
    assert res.max_deviation == float(dev) <= 1 / (2 * res.k)
    for q in [1] + [x.limit_denominator(bound).denominator for x in a]:
        assert dev <= largest_error(a, q)


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=30),
                          st.integers(min_value=1, max_value=6)),
                min_size=1, max_size=5),
       st.integers(min_value=0, max_value=8))
@example([(1, 2), (2, 3)], 0)
@settings(max_examples=60, deadline=None)
def test_integralize_keeps_an_exact_class_within_the_bound(pairs, slack):
    """A class whose own denominator L is within the bound keeps it: k = L,
    the coefficients are the class's own, and the deviation is 0, also
    where L is no single coefficient's denominator (1/2 and 2/3, L = 6)."""
    coeffs = [Fraction(n, s) for n, s in pairs]
    lcm = math.lcm(*[x.denominator for x in coeffs])
    res = hamclass.integralize_form(class_form(coeffs), lcm + slack)
    assert res.k == lcm
    assert list(res.q) == hamclass.form_class_coefficients(class_form(coeffs))
    assert res.max_deviation == 0


@given(exact_decimals(), st.integers(min_value=1, max_value=64))
@settings(max_examples=120, deadline=None)
def test_integralize_one_coefficient_is_its_best_approximation(x, bound):
    """With one coefficient the common denominator is the best
    approximation's."""
    best = x.limit_denominator(bound)
    assume(best)
    res = hamclass.integralize_form(class_form([x]), bound)
    assert res.q == (best,) and res.k == best.denominator


@given(exact_decimals(), st.integers(min_value=2, max_value=64))
@settings(max_examples=120, deadline=None)
def test_integralize_exact_tie_goes_to_the_smaller_denominator(x, bound):
    """The midpoint of the nearest fractions below and above x within the
    bound is an exact tie; for a bound of 2 or more their denominators
    differ, and the smaller one wins."""
    dens = range(1, bound + 1)
    lo = max(Fraction(math.floor(x * q), q) for q in dens)
    hi = min(Fraction(math.ceil(x * q), q) for q in dens)
    want = min(lo, hi, key=lambda f: f.denominator)
    assume(lo != hi and want)
    res = hamclass.integralize_form(class_form([(lo + hi) / 2]), bound)
    assert res.q == (want,) and res.k == want.denominator


# ---------------------------------------------------------------------------
# work per op on the exact-forms shape

T12 = Path(__file__).parent / "scenarios" / "t12_dense.ini"


def test_t12_prelude_builds_each_exact_object_once(monkeypatch):
    """On the dense decimal T^12 golden input, one op (load and run) builds
    two forms, the input form and omega_prime, with no rounded candidate
    between them; it decides the nondegeneracy of each once, from its
    torus numerators, and takes no exact determinant of a torus block; and
    it computes the field covectors at most once per form."""
    forms, decided, dets, covs = [], [], [], []
    real_init = geom.ProductForm.__init__

    def built(form, *args):
        real_init(form, *args)
        forms.append(form)

    monkeypatch.setattr(geom.ProductForm, "__init__", built)
    for module, name, log in ((ratlin, "nonsingular", decided),
                              (ratlin, "determinant", dets),
                              (geom, "field_covectors", covs)):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, log=log:
                            log.append(args) or real(*args))
    scenario = cli.load_scenario(T12)
    assert cli.run_scenario(scenario).passed
    assert len(forms) == 2
    assert forms[0] is scenario.manifold
    # each form's torus block is decided, once
    assert [tuple(map(tuple, a)) for (a,) in decided] \
        == [form.torus for form in forms]
    assert dets == []
    assert len(covs) <= 2


@pytest.mark.parametrize("bound", [64, 1024])
def test_t12_integralizes_within_the_bound_on_int64(bound):
    """On the dense T^12 form k stays at most the bound, so the sample table
    and both moment pairings run on int64, not on Python ints."""
    scenario = cli.load_scenario(T12, max_denominator=bound)
    assert hamclass.integralize_with_retry(scenario.manifold, bound).k <= bound
    mom = scenario_moment(scenario)
    assert [p.dtype for p in mom._pairings] == [np.int64, np.int64]
    assert sample.Stream(mom.omega_prime, scenario.seed).table(
        mom, 100)[1].dtype == np.int64


def test_t12_integralizes_at_a_huge_bound():
    """Nothing scans every denominator up to the bound: at 10^12 the
    common denominator is found among the convergents."""
    scenario = cli.load_scenario(T12)
    res = hamclass.integralize_with_retry(scenario.manifold, 10 ** 12)
    assert 10 ** 11 < res.k <= 10 ** 12
    assert res.max_deviation <= 1 / (2 * res.k)
