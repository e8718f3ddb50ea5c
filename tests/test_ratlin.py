"""Exact linear algebra, verified against independent oracles: the
closed-form 4x4 Pfaffian squared against the determinant, the dense matrix
product, the defining identities of the Hermite form, the lattice split's
characterization, the Smith invariants against determinantal divisors, and
elimination over Fractions for the integer kernels.  A rational matrix m
enters a kernel as the library holds it, the pair (N, d) with m = N / d."""

import copy
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from momentforge import ratlin

from conftest import (determinantal_divisor, fraction_determinant,
                      fraction_rank, fractions, pair)

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
def rational_matrices(draw, square=False, integral=False):
    """1-6 rows and columns of rationals, or of small integers when
    integral.  The last few rows are combinations of the rows above them,
    with integer coefficients when integral, so singular and rank-deficient
    matrices, down to the zero matrix, come up often."""
    entries, factors = ((small_ints, [0, 1, -1, 2]) if integral else
                        (rationals, [0, 1, -1, 2, Fraction(1, 2),
                                     Fraction(-3, 7)]))
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = rows if square else draw(st.integers(min_value=1, max_value=6))
    m = [draw(st.lists(entries, min_size=cols, max_size=cols))
         for _ in range(rows)]
    for i in range(rows - draw(st.integers(min_value=0, max_value=rows)),
                   rows):
        coeffs = draw(st.lists(st.sampled_from(factors),
                               min_size=i, max_size=i))
        m[i] = [sum(f * m[k][j] for k, f in enumerate(coeffs))
                for j in range(cols)]
    return m


# ---------------------------------------------------------------------------
# products

@given(rational_matrices(), st.integers(min_value=1, max_value=6),
       st.data())
@settings(max_examples=100, deadline=None)
def test_mat_mul_is_the_dense_product(a, cols, data):
    """Skipping zero factors changes no entry, and the product of the pairs
    (Na, da) and (Nb, db) is (Na Nb, da db)."""
    b = data.draw(st.lists(st.lists(rationals, min_size=cols,
                                    max_size=cols),
                           min_size=len(a[0]), max_size=len(a[0])))
    (na, da), (nb, db) = pair(a), pair(b)
    assert fractions((ratlin.mat_mul(na, nb), da * db)) == [
        [sum(a[i][k] * b[k][j] for k in range(len(b)))
         for j in range(cols)] for i in range(len(a))]


def test_mat_mul_shapes():
    assert ratlin.mat_mul([], [[1, 2]]) == []     # no rows, whatever b is


# ---------------------------------------------------------------------------
# rank

def test_rank_trivial_cases():
    assert ratlin.integer_rank([]) == 0
    assert ratlin.integer_rank([[0, 0], [0, 0]]) == 0
    assert ratlin.integer_rank(ratlin.identity(3)) == 3
    assert ratlin.integer_rank([[2, 4], [1, 2]]) == 1


# ---------------------------------------------------------------------------
# normal forms

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


@given(st.one_of(rational_matrices(), st.integers(1, 6).map(
    lambda n: [[] for _ in range(n)])))
@example([[0, 0], [0, 0]])
@settings(max_examples=150, deadline=None)
def test_lattice_split_is_the_saturated_left_kernel(m):
    """K m = 0 with n - rank m rows, so K spans the left kernel over Q, and
    [K; C] unimodular, so K is a Z-basis of the kernel's integer points
    (a saturated lattice) and C completes it."""
    nums, _ = pair(m)
    k, c = ratlin.lattice_split(nums)
    assert len(k) == len(m) - fraction_rank(m)
    assert all(type(x) is int for row in k + c for x in row)
    assert not any(x for row in ratlin.mat_mul(k, nums) for x in row)
    assert abs(ratlin.determinant(k + c)) == 1


@given(st.integers(2, 5).flatmap(lambda n: st.tuples(
    int_matrix(n, 2), st.integers(-3, 3), st.integers(-3, 3),
    st.sampled_from((1, -1)))))
@settings(max_examples=100, deadline=None)
def test_lattice_split_reads_only_the_column_space(drawn):
    """m and m A, for an invertible A, have one column space, so one
    reduced echelon basis up to sign, one K and one Hermite form of C.
    Planted for the Jordan sweep of `_eliminate` starting at row 1 instead
    of 0, which leaves the first pivot row unreduced and K dependent on m
    itself."""
    m, s, t, e = drawn
    a = [[1, e * s], [t, e * (s * t + 1)]]    # determinant e
    (k1, c1), (k2, c2) = (ratlin.lattice_split(m),
                          ratlin.lattice_split(ratlin.mat_mul(m, a)))
    assert k1 == k2
    assert ratlin._hermite(c1, len(m)) == ratlin._hermite(c2, len(m))


def test_lattice_split_saturates():
    """x / 2 + y / 3 = 0 has the rational solution (1, -3/2); its integer
    points are the multiples of (2, -3)."""
    k, c = ratlin.lattice_split(pair([[Fraction(1, 2)], [Fraction(1, 3)]])[0])
    assert k in ([[2, -3]], [[-2, 3]])
    assert len(c) == 1
    assert ratlin.lattice_split([[], []]) == (ratlin.identity(2), [])


@given(rational_matrices(integral=True))
@example([[0, 0], [0, 0]])
@example([[], []])
@example([[2, 0], [0, 3]])          # diagonal, but 2 does not divide 3
@settings(max_examples=60, deadline=None)
def test_smith_diagonal_matches_determinantal_divisors(m):
    """The k-th Smith invariant is D_k / D_{k-1}, and 0 past the rank."""
    d = [determinantal_divisor(m, k)
         for k in range(min(len(m), len(m[0])) + 1)]
    assert ratlin.smith_diagonal(m) == [
        d[k] // d[k - 1] if d[k] else 0 for k in range(1, len(d))]


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
    [nums], _ = pair([[Fraction(1, 2), Fraction(1, 3)]])
    assert ratlin.clear_denominators(nums) == [3, 2]
    assert ratlin.clear_denominators([2, 4]) == [1, 2]
    assert ratlin.clear_denominators([-6, 4]) == [-3, 2]
    assert ratlin.clear_denominators([0, 0]) == [0, 0]


# ---------------------------------------------------------------------------
# the integer kernels against elimination over Fractions
#
# The reference oracles (conftest.fraction_rank and fraction_determinant)
# eliminate in Fraction arithmetic, one normalised Fraction per step: slow,
# but exact by construction.  The kernels read the numerators of the pair.

@given(rational_matrices(square=True))
@settings(max_examples=150, deadline=None)
def test_determinant_matches_fraction_elimination(m):
    nums, d = pair(m)
    det = ratlin.determinant(nums)
    assert type(det) is int
    assert Fraction(det, d ** len(m)) == fraction_determinant(m)


@given(rational_matrices())
@settings(max_examples=150, deadline=None)
def test_rank_matches_fraction_elimination(m):
    assert ratlin.integer_rank(pair(m)[0]) == fraction_rank(m)


@given(rational_matrices(square=True))
@settings(max_examples=60, deadline=None)
def test_kernels_leave_their_input_alone(m):
    """Elimination works on fresh rows: tuple rows are accepted and list
    rows come back unchanged."""
    m, _ = pair(m)
    before = copy.deepcopy(m)
    rows = tuple(tuple(row) for row in m)
    for f in (ratlin.determinant, ratlin.integer_rank,
              ratlin.lattice_split, lambda a: ratlin.mat_mul(a, a)):
        assert f(rows) == f(m)
    assert m == before


@given(matrices, st.integers(min_value=1, max_value=4), st.booleans(),
       st.data())
@settings(max_examples=60, deadline=None)
def test_mat_mul_without_denominators_returns_ints(a, cols, as_fractions,
                                                   data):
    """Integral Fractions have no denominator either: their pair is over
    1, and the product of integer rows is integer rows."""
    b = data.draw(int_matrix(len(a[0]), cols))
    if as_fractions:
        b, d = pair([[Fraction(x) for x in row] for row in b])
        assert d == 1
    assert all(type(x) is int for row in ratlin.mat_mul(a, b) for x in row)


# ---------------------------------------------------------------------------
# nondegeneracy mod P

P = ratlin.P
# entries near 0, and near multiples of P, whose residues are small
near_p = st.one_of(st.integers(-3, 3), st.integers(-3, 3).map(lambda k: k * P),
                   st.integers(-3, 3).map(lambda k: k * P + 1))


def antisymmetric(n, upper) -> list:
    """The n x n antisymmetric matrix with the given entries above the
    diagonal, row by row."""
    a, it = [[0] * n for _ in range(n)], iter(upper)
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = x = next(it)
            a[j][i] = -x
    return a


@given(st.integers(0, 7).flatmap(lambda n: st.lists(
    near_p, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2).map(
        lambda upper: antisymmetric(n, upper))))
@settings(max_examples=300, deadline=None)
def test_nonsingular_is_a_nonzero_determinant(a):
    assert ratlin.nonsingular(a) == (ratlin.determinant(a) != 0)


def test_nonsingular_falls_back_to_exact_elimination_at_residue_zero(
        monkeypatch):
    """A Pfaffian of residue 0 decides nothing: P J and a T^4 form of
    Pfaffian P are nonsingular, those of Pfaffian P - P and 0 are not, and
    only the exact elimination, run only then, says so.  Pivots off a_01
    are moved there first."""
    calls = []
    real = ratlin._eliminate
    monkeypatch.setattr(ratlin, "_eliminate",
                        lambda a, *args: calls.append(a) or real(a, *args))
    # Pf = a01 a23 - a02 a13 + a03 a12
    assert ratlin.nonsingular(antisymmetric(2, [P]))
    assert ratlin.nonsingular(antisymmetric(4, [P, 1, 1, 1, 1, 1]))
    assert not ratlin.nonsingular(antisymmetric(4, [P, P, 0, 0, 1, 1]))
    # a_01 = 0: row and column 3 are added to 1, reading a_23 below a_13
    assert not ratlin.nonsingular(antisymmetric(4, [0, 0, 1, 0, 0, 1]))
    assert len(calls) == 4
    assert ratlin.nonsingular(antisymmetric(2, [P + 1]))
    assert ratlin.nonsingular(antisymmetric(4, [0, 1, 3, P + 2, 5, 0]))
    assert not ratlin.nonsingular(antisymmetric(3, [1, 2, 3]))
    assert len(calls) == 5


def test_nonsingular_moves_a_far_pivot_into_place():
    """Two singular T^6 forms with a_01 = 0 and their first pivot at a_02
    and at a_03: moving it to a_01 adds row and column c to 1, reading
    a_cl above the diagonal for l > c and -a_lc for l < c.  Planted for
    the 1 of `u[c][l - c - 1]` and of `u[l][c - l - 1]` raised to 2: each
    reads a neighbouring entry, and the wrong complement has a nonzero
    Pfaffian mod P, which would call the form nonsingular."""
    for upper in ([0, -1, 0, 1, 2, -1, -1, 1, -1, 1, 2, 0, 2, 0, 1],
                  [0, 0, 1, -1, 1, 1, -1, 0, 0, 2, -1, -1, 1, 1, 0]):
        a = antisymmetric(6, upper)
        assert ratlin.determinant(a) == 0
        assert not ratlin.nonsingular(a)
