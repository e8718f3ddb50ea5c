"""Exact linear algebra, verified against independent oracles: exhaustive
denominator scans for rational rounding, the closed-form 4x4 Pfaffian
squared against the determinant, the dense matrix product, and the defining
identities of the normal forms on random integer matrices."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentforge import ratlin

small_ints = st.integers(min_value=-9, max_value=9)


def int_matrix(rows, cols):
    return st.lists(
        st.lists(small_ints, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows)


matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.integers(min_value=1, max_value=4).flatmap(
        lambda c: int_matrix(r, c)))


# ---------------------------------------------------------------------------
# products

@given(matrices, st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=60, deadline=None)
def test_mat_mul_is_the_dense_product(a, cols, data):
    """Skipping zero factors changes no entry."""
    b = data.draw(int_matrix(len(a[0]), cols))
    b = [[Fraction(x, 3) for x in row] for row in b]
    assert ratlin.mat_mul(a, b) == [
        [sum(a[i][k] * b[k][j] for k in range(len(b)))
         for j in range(cols)] for i in range(len(a))]


def test_mat_mul_shapes():
    assert ratlin.mat_mul([], [[1, 2]]) == []     # no rows, whatever b is
    with pytest.raises(ValueError, match="shape mismatch"):
        ratlin.mat_mul([[1, 2]], [[1, 2]])


# ---------------------------------------------------------------------------
# kernels and rank

def test_kernel_of_zero_matrix_is_standard_basis():
    basis = ratlin.rat_kernel_basis([[0, 0, 0], [0, 0, 0]])
    assert basis == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_kernel_example():
    # x + y = 0 on Q^2
    basis = ratlin.rat_kernel_basis([[1, 1]])
    assert len(basis) == 1
    assert basis[0][0] == -basis[0][1]


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate_and_span(m):
    basis = ratlin.rat_kernel_basis(m)
    for v in basis:
        assert ratlin.mat_mul(m, [[x] for x in v]) == [[0]] * len(m)
    # rank-nullity, with rank from the independent Bareiss routine
    assert len(basis) == len(m[0]) - ratlin.integer_rank(m)
    if basis:
        assert ratlin.integer_rank(basis) == len(basis)


def test_rank_trivial_cases():
    assert ratlin.integer_rank([]) == 0
    assert ratlin.integer_rank([[0, 0], [0, 0]]) == 0
    assert ratlin.integer_rank(ratlin.identity(3)) == 3
    assert ratlin.integer_rank([[2, 4], [1, 2]]) == 1


# ---------------------------------------------------------------------------
# normal forms

@given(matrices)
@settings(max_examples=60, deadline=None)
def test_smith_form_identity_and_divisibility(m):
    u, d, v = ratlin.smith_normal_form(m)
    assert ratlin.mat_mul(ratlin.mat_mul(u, m), v) == d
    assert abs(ratlin.determinant(u)) == 1
    assert abs(ratlin.determinant(v)) == 1
    k = min(len(d), len(d[0]) if d else 0)
    diag = [d[i][i] for i in range(k)]
    for i in range(k):
        for j in range(k):
            if i != j:
                assert d[i][j] == 0
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0


def test_smith_zero_and_identity():
    _, d, _ = ratlin.smith_normal_form([[0, 0], [0, 0]])
    assert d == [[0, 0], [0, 0]]
    _, d, _ = ratlin.smith_normal_form(ratlin.identity(3))
    assert d == ratlin.identity(3)


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_hermite_form_identity_and_echelon(m):
    h, u = ratlin.hermite_normal_form(m)
    assert ratlin.mat_mul(u, m) == h
    assert abs(ratlin.determinant(u)) == 1
    # echelon with positive pivots, reduced above
    last = -1
    for row in h:
        nz = next((j for j, x in enumerate(row) if x != 0), None)
        if nz is None:
            continue
        assert nz > last
        last = nz
        assert row[nz] > 0
    for r, row in enumerate(h):
        nz = next((j for j, x in enumerate(row) if x != 0), None)
        if nz is None:
            continue
        for i in range(r):
            assert 0 <= h[i][nz] < row[nz]


def test_invert_unimodular_round_trip():
    m = [[2, 1], [1, 1]]
    assert ratlin.mat_mul(ratlin.invert_unimodular(m), m) == ratlin.identity(2)
    with pytest.raises(ValueError):
        ratlin.invert_unimodular([[2, 0], [0, 1]])


@given(st.integers(min_value=2, max_value=4).flatmap(
    lambda n: int_matrix(2, n)))
@settings(max_examples=60, deadline=None)
def test_saturation_properties(b):
    n = len(b[0])
    sat, comp = ratlin.saturate_and_complement(b, n)
    rank = ratlin.integer_rank(b)
    assert len(sat) == rank
    assert len(comp) == n - rank
    full = sat + comp
    if full:
        assert abs(ratlin.determinant(full)) == 1
    # every original row is an integer combination of the saturated basis
    for row in b:
        if not sat:
            assert not any(row)
            continue
        sol = _solve_integer(sat, row)
        assert sol is not None


def _solve_integer(basis, target):
    """Express target as a rational combination of basis rows; return the
    coefficients if they are integral, else None."""
    aug = ratlin.transpose(basis) if basis else []
    kernel = ratlin.rat_kernel_basis(
        [row + [-t] for row, t in zip(aug, target)])
    for v in kernel:
        if v[-1] != 0:
            coeffs = [x / v[-1] for x in v[:-1]]
            if all(Fraction(c).denominator == 1 for c in coeffs):
                return coeffs
    return None


def test_saturation_example():
    # span of (2, 0) saturates to (1, 0)
    sat, comp = ratlin.saturate_and_complement([[2, 0]], 2)
    assert [abs(x) for x in sat[0]] == [1, 0]
    assert len(comp) == 1


# ---------------------------------------------------------------------------
# rational rounding

def _best_by_scan(x, max_den):
    """Independent oracle: scan every denominator."""
    best = None
    t = Fraction(x)
    for q in range(1, max_den + 1):
        p = round(t * q)
        f = Fraction(p, q)
        key = (abs(f - t), f.denominator)
        if best is None or key < best[0]:
            best = (key, f)
    return best[1]


def test_rational_round_known_values():
    assert ratlin.rational_round(math.sqrt(2), 5) == Fraction(7, 5)
    assert ratlin.rational_round(math.pi, 7) == Fraction(22, 7)
    assert ratlin.rational_round(0.5, 10) == Fraction(1, 2)
    assert ratlin.rational_round(-math.pi, 7) == Fraction(-22, 7)


@given(st.floats(min_value=-10, max_value=10,
                 allow_nan=False, allow_infinity=False),
       st.integers(min_value=1, max_value=40))
@settings(max_examples=120, deadline=None)
def test_rational_round_matches_exhaustive_scan(x, max_den):
    got = ratlin.rational_round(x, max_den)
    want = _best_by_scan(x, max_den)
    assert abs(got - Fraction(x)) == abs(want - Fraction(x))
    assert got.denominator == want.denominator


def test_rational_round_rejects_bad_bound():
    with pytest.raises(ValueError):
        ratlin.rational_round(1.0, 0)


@given(st.lists(small_ints, min_size=6, max_size=6))
@settings(max_examples=60, deadline=None)
def test_antisymmetric_determinant_is_pfaffian_squared(entries):
    """The nondegeneracy test relies on det = Pf^2; the 4x4 Pfaffian has
    the closed form af - be + cd."""
    a, b, c, d, e, f = entries
    m = [[0, a, b, c],
         [-a, 0, d, e],
         [-b, -d, 0, f],
         [-c, -e, -f, 0]]
    assert ratlin.determinant(m) == (a * f - b * e + c * d) ** 2


def test_clear_denominators():
    assert ratlin.clear_denominators(
        [Fraction(1, 2), Fraction(1, 3)]) == [3, 2]
    assert ratlin.clear_denominators([2, 4]) == [1, 2]
    assert ratlin.clear_denominators([0, 0]) == [0, 0]
