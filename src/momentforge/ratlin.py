"""Exact integer / rational linear algebra.

Matrices are plain Python lists (or tuples) of ints or Fractions, which is
ample at the sizes this package ever sees (matrices up to ~12x12 plus a
handful of homology columns).  The kernels scale each matrix to integer
numerators over one common denominator, compute in Python ints (products,
and fraction-free Bareiss elimination with exact division), and build
Fractions only at the output.  No floating point enters any routine in this
module: scenario numbers are Fractions from parse time on, so every caller
already holds exact data.
"""

from __future__ import annotations

import math
from fractions import Fraction

Vec = list
Mat = list  # list of rows


def _check_rect(m: Mat) -> tuple[int, int]:
    rows = len(m)
    if rows == 0:
        return 0, 0
    cols = len(m[0])
    if any(len(row) != cols for row in m):
        raise ValueError("ragged matrix")
    return rows, cols


def _scaled(m: Mat) -> tuple[Mat, int]:
    """(N, d) with m = N / d: fresh rows of integer numerators over the
    least common denominator d of the entries (ints and Fractions)."""
    d = math.lcm(*[x.denominator for row in m for x in row
                   if type(x) is not int])
    if d == 1:
        return [[x.numerator for x in row] for row in m], 1
    return [[x.numerator * (d // x.denominator) for x in row] for row in m], d


def _eliminate(a: Mat, jordan: bool = False) -> tuple[list, int, int]:
    """Fraction-free (Bareiss) elimination of the integer rows a, in place.

    Every entry stays an integer minor of the input, so each division by
    the previous pivot is exact.  Returns (pivot columns, last pivot, sign
    of the row permutation); for a square nonsingular a the last pivot
    times the sign is the determinant.  With jordan the rows above each
    pivot are cleared too, and every pivot row ends as the last pivot
    times its row of the reduced row echelon form."""
    rows = len(a)
    pivots: list[int] = []
    prev, sign = 1, 1
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        p = a[r]
        head = p[c]
        for i in range(0 if jordan else r + 1, rows):
            if i != r:
                f = a[i][c]
                a[i] = [(head * x - f * y) // prev for x, y in zip(a[i], p)]
        prev = head
        pivots.append(c)
    return pivots, prev, sign


def identity(n: int) -> Mat:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Mat, b: Mat) -> Mat:
    """Exact product, summed in integer numerators; zero factors are
    skipped, since the matrices here are sparse.  Each nonzero entry is one
    Fraction over the product of the two common denominators, or an int
    when neither operand has one.  An empty a has no rows, whatever b is,
    so the product is empty."""
    ra, ca = _check_rect(a)
    rb, cb = _check_rect(b)
    if ra and ca != rb:
        raise ValueError("shape mismatch in mat_mul")
    (na, da), (nb, db) = _scaled(a), _scaled(b)
    d = da * db
    out = []
    for row in na:
        acc = [0] * cb
        for x, b_row in zip(row, nb):
            if x:
                for j, y in enumerate(b_row):
                    if y:
                        acc[j] += x * y
        out.append(acc if d == 1 else
                   [Fraction(v, d) if v else 0 for v in acc])
    return out


def transpose(m: Mat) -> Mat:
    rows, cols = _check_rect(m)
    return [[m[i][j] for i in range(rows)] for j in range(cols)]


def clear_denominators(v: Vec) -> Vec:
    """Scale a rational vector to a primitive integer vector (gcd 1)."""
    [ints], _ = _scaled([v])
    g = math.gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


# ---------------------------------------------------------------------------
# kernels and rank

def rat_kernel_basis(m: Mat) -> list[Vec]:
    """Basis of {x : m x = 0}, exact over the rationals: one vector per
    free column of the reduced row echelon form.

    Returned vectors have reduced Fraction entries and are linearly
    independent; a zero matrix yields the standard basis.
    """
    _, cols = _check_rect(m)
    a, _ = _scaled(m)
    pivots, last, _ = _eliminate(a, jordan=True)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for row, pc in zip(a, pivots):
            vec[pc] = Fraction(-row[fc], last)
        basis.append(vec)
    return basis


def integer_rank(m: Mat) -> int:
    """Rank over Q of an integer (or rational) matrix, by fraction-free
    Bareiss elimination."""
    _check_rect(m)
    return len(_eliminate(_scaled(m)[0])[0])


# ---------------------------------------------------------------------------
# Smith / Hermite normal forms

def smith_normal_form(m: Mat) -> tuple[Mat, Mat, Mat]:
    """(U, D, V) with U m V = D, U and V unimodular, D diagonal with
    d1 | d2 | ... and all di >= 0."""
    rows, cols = _check_rect(m)
    d = [[int(x) for x in row] for row in m]
    u = identity(rows)
    v = identity(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, f):  # row dst += f * row src
        d[dst] = [d[dst][k] + f * d[src][k] for k in range(cols)]
        u[dst] = [u[dst][k] + f * u[src][k] for k in range(rows)]

    def add_col(dst, src, f):
        for row in d:
            row[dst] += f * row[src]
        for row in v:
            row[dst] += f * row[src]

    t = 0
    while t < min(rows, cols):
        # move a nonzero entry to (t, t)
        pos = next(((i, j) for i in range(t, rows) for j in range(t, cols)
                    if d[i][j] != 0), None)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        while True:
            # clear column t
            done = True
            for i in range(t + 1, rows):
                if d[i][t] == 0:
                    continue
                q = d[i][t] // d[t][t]
                add_row(i, t, -q)
                if d[i][t] != 0:
                    swap_rows(t, i)
                    done = False
            for j in range(t + 1, cols):
                if d[t][j] == 0:
                    continue
                q = d[t][j] // d[t][t]
                add_col(j, t, -q)
                if d[t][j] != 0:
                    swap_cols(t, j)
                    done = False
            if not done:
                continue
            # make d[t][t] divide the remaining block
            offender = next(((i, j) for i in range(t + 1, rows)
                             for j in range(t + 1, cols)
                             if d[i][j] % d[t][t] != 0), None)
            if offender is None:
                break
            add_row(t, offender[0], 1)
        t += 1
    for i in range(min(rows, cols)):
        if d[i][i] < 0:
            d[i] = [-x for x in d[i]]
            u[i] = [-x for x in u[i]]
    return u, d, v


def hermite_normal_form(m: Mat) -> tuple[Mat, Mat]:
    """Row-style Hermite normal form: (H, U) with U m = H, U unimodular,
    H upper echelon with positive pivots and reduced entries above them."""
    rows, cols = _check_rect(m)
    h = [[int(x) for x in row] for row in m]
    u = identity(rows)
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if h[i][c] != 0), None)
        if piv is None:
            continue
        h[r], h[piv] = h[piv], h[r]
        u[r], u[piv] = u[piv], u[r]
        while True:
            nz = [i for i in range(r + 1, rows) if h[i][c] != 0]
            if not nz:
                break
            for i in nz:
                q = h[i][c] // h[r][c]
                h[i] = [h[i][k] - q * h[r][k] for k in range(cols)]
                u[i] = [u[i][k] - q * u[r][k] for k in range(rows)]
                if h[i][c] != 0 and abs(h[i][c]) < abs(h[r][c]):
                    h[r], h[i] = h[i], h[r]
                    u[r], u[i] = u[i], u[r]
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [h[i][k] - q * h[r][k] for k in range(cols)]
                u[i] = [u[i][k] - q * u[r][k] for k in range(rows)]
        r += 1
        if r == rows:
            break
    return h, u


def invert_unimodular(m: Mat) -> Mat:
    """Exact inverse of an integer matrix with determinant +-1, by
    fraction-free Gauss-Jordan elimination of [m | I]."""
    n, cols = _check_rect(m)
    if n != cols:
        raise ValueError("not square")
    a, d = _scaled(m)
    for i, row in enumerate(a):
        row += [int(i == j) for j in range(n)]
    pivots, last, _ = _eliminate(a, jordan=True)
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    # m^-1 = d N^-1, and the right block holds last * N^-1
    if any(d * x % last for row in a for x in row[n:]):
        raise ValueError("matrix is not unimodular")
    return [[d * x // last for x in row[n:]] for row in a]


def saturate_and_complement(b: Mat, n: int) -> tuple[Mat, Mat]:
    """Given integer rows b spanning a subspace of Q^n, return
    (saturated basis of span(b) intersected with Z^n, integer rows
    completing it to a unimodular basis of Z^n).

    Uses the Smith form b = U^-1 D W: the first rank(b) rows of W span the
    saturation and the remaining rows complete it.
    """
    if not b:
        return [], identity(n)
    rows, cols = _check_rect(b)
    if cols != n:
        raise ValueError("column count mismatch")
    _, d, v = smith_normal_form(b)
    w = invert_unimodular(v)  # rows of W are a Z-basis of Z^n
    rank = sum(1 for i in range(min(rows, cols)) if d[i][i] != 0)
    return w[:rank], w[rank:]


# ---------------------------------------------------------------------------
# scalar helpers

def rational_round(x, max_denominator: int) -> Fraction:
    """Best rational approximation of x with denominator <= max_denominator.

    Continued-fraction convergents and semiconvergents; on an exact tie in
    the approximation error the smaller denominator wins.
    """
    if max_denominator < 1:
        raise ValueError("max_denominator must be >= 1")
    target = Fraction(x)
    if target.denominator <= max_denominator:
        return target
    # walk the continued fraction of |target|
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = abs(target.numerator), target.denominator
    while True:
        a = n // d
        p2, q2 = a * p1 + p0, a * q1 + q0
        if q2 > max_denominator:
            break
        p0, q0, p1, q1 = p1, q1, p2, q2
        n, d = d, n - a * d
    # best semiconvergent still within the bound, against the last convergent
    k = (max_denominator - q0) // q1
    cands = [Fraction(p1, q1)]
    if k > 0:
        cands.append(Fraction(k * p1 + p0, k * q1 + q0))
    t = abs(target)
    best = min(cands, key=lambda f: (abs(f - t), f.denominator))
    return -best if target < 0 else best


def determinant(m: Mat) -> Fraction:
    """Exact determinant, det N / d^n for m = N / d, by Bareiss elimination.

    For an antisymmetric form it is the square of the Pfaffian, so it is
    zero exactly when the form is degenerate."""
    n, cols = _check_rect(m)
    if n != cols:
        raise ValueError("not square")
    a, d = _scaled(m)
    pivots, last, sign = _eliminate(a)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * last, d ** n)
