"""Exact linear algebra, verified against independent oracles: exhaustive
denominator scans for rational rounding, the closed-form 4x4 Pfaffian
squared against the determinant, the dense matrix product, the defining
identities of the normal forms on random integer matrices, and elimination
over Fractions for the integer kernels."""

import copy
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

# a parsed float token: up to 53 bits over a power of two up to 2^53
dyadics = st.builds(lambda p, e: Fraction(p, 2 ** e),
                    st.integers(min_value=-2 ** 53, max_value=2 ** 53),
                    st.integers(min_value=0, max_value=53))
rationals = st.one_of(
    small_ints,
    st.builds(Fraction, small_ints, st.integers(min_value=1, max_value=9)),
    dyadics)


@st.composite
def rational_matrices(draw, square=False):
    """1-6 rows and columns of rationals.  The last few rows are rational
    combinations of the rows above them, so singular and rank-deficient
    matrices, down to the zero matrix, come up often."""
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = rows if square else draw(st.integers(min_value=1, max_value=6))
    m = [draw(st.lists(rationals, min_size=cols, max_size=cols))
         for _ in range(rows)]
    for i in range(rows - draw(st.integers(min_value=0, max_value=rows)),
                   rows):
        coeffs = draw(st.lists(
            st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 7)]),
            min_size=i, max_size=i))
        m[i] = [sum(f * m[k][j] for k, f in enumerate(coeffs))
                for j in range(cols)]
    return m


@st.composite
def unimodular_matrices(draw):
    """The identity of size 1-6 under random integer row operations."""
    n = draw(st.integers(min_value=1, max_value=6))
    m = ratlin.identity(n)
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        if i != j:
            f = draw(st.integers(min_value=-3, max_value=3))
            m[i] = [x + f * y for x, y in zip(m[i], m[j])]
    if draw(st.booleans()):
        m[0] = [-x for x in m[0]]
    return m


# ---------------------------------------------------------------------------
# products

@given(rational_matrices(), st.integers(min_value=1, max_value=6),
       st.data())
@settings(max_examples=100, deadline=None)
def test_mat_mul_is_the_dense_product(a, cols, data):
    """Skipping zero factors and summing numerators over a common
    denominator change no entry."""
    b = data.draw(st.lists(st.lists(rationals, min_size=cols,
                                    max_size=cols),
                           min_size=len(a[0]), max_size=len(a[0])))
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


# ---------------------------------------------------------------------------
# the integer kernels against elimination over Fractions
#
# The reference oracles below eliminate in Fraction arithmetic, one
# normalised Fraction per step: slow, but exact by construction.

def _fraction_determinant(m):
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [a[i][j] - f * a[c][j] for j in range(n)]
    return det


def _fraction_rref(a, cols):
    """Reduce the Fraction rows a in place; return the pivot columns."""
    pivots = []
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return pivots


def _fraction_rank(m):
    return len(_fraction_rref([[Fraction(x) for x in row] for row in m],
                              len(m[0])))


def _fraction_kernel(m):
    cols = len(m[0])
    a = [[Fraction(x) for x in row] for row in m]
    pivots = _fraction_rref(a, cols)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -a[i][fc]
        basis.append(vec)
    return basis


def _fraction_inverse(m):
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j))
                                       for j in range(n)]
         for i, row in enumerate(m)]
    if _fraction_rref(a, 2 * n)[:n] != list(range(n)):
        raise ValueError("singular matrix")
    out = [row[n:] for row in a]
    if any(x.denominator != 1 for row in out for x in row):
        raise ValueError("matrix is not unimodular")
    return [[int(x) for x in row] for row in out]


def _outcome(f, m):
    try:
        return f(m)
    except ValueError as exc:
        return f"ValueError: {exc}"


@given(rational_matrices(square=True))
@settings(max_examples=150, deadline=None)
def test_determinant_matches_fraction_elimination(m):
    det = ratlin.determinant(m)
    assert type(det) is Fraction
    assert det == _fraction_determinant(m)


@given(rational_matrices())
@settings(max_examples=150, deadline=None)
def test_rank_matches_fraction_elimination(m):
    assert ratlin.integer_rank(m) == _fraction_rank(m)


@given(rational_matrices())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_fraction_rref(m):
    """The reduced row echelon form is canonical, so the bases agree
    vector for vector, as Fractions."""
    basis = ratlin.rat_kernel_basis(m)
    assert basis == _fraction_kernel(m)
    assert all(type(x) is Fraction for v in basis for x in v)


@given(st.one_of(unimodular_matrices(), rational_matrices(square=True)))
@settings(max_examples=150, deadline=None)
def test_inverse_matches_fraction_gauss_jordan(m):
    assert (_outcome(ratlin.invert_unimodular, m)
            == _outcome(_fraction_inverse, m))


@given(rational_matrices(square=True))
@settings(max_examples=60, deadline=None)
def test_kernels_leave_their_input_alone(m):
    """Elimination works on fresh rows: tuple rows are accepted and list
    rows come back unchanged."""
    before = copy.deepcopy(m)
    rows = tuple(tuple(row) for row in m)
    for f in (ratlin.determinant, ratlin.integer_rank,
              ratlin.rat_kernel_basis, lambda a: ratlin.mat_mul(a, a)):
        assert f(rows) == f(m)
    assert (_outcome(ratlin.invert_unimodular, rows)
            == _outcome(ratlin.invert_unimodular, m))
    assert m == before


@given(matrices, st.integers(min_value=1, max_value=4), st.booleans(),
       st.data())
@settings(max_examples=60, deadline=None)
def test_mat_mul_without_denominators_returns_ints(a, cols, as_fractions,
                                                   data):
    """Integral Fractions have no denominator either."""
    b = data.draw(int_matrix(len(a[0]), cols))
    if as_fractions:
        b = [[Fraction(x) for x in row] for row in b]
    assert all(type(x) is int for row in ratlin.mat_mul(a, b) for x in row)
