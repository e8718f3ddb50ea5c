"""Exact integer / rational linear algebra.

Everything here works on plain Python lists of ints or Fractions, which is
ample at the sizes this package ever sees (matrices up to ~8x8 plus a
handful of homology columns).  No floating point enters any routine in this
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


def identity(n: int) -> Mat:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Mat, b: Mat) -> Mat:
    """Exact product; zero factors are skipped, since the matrices here are
    sparse and a Fraction product costs far more than the test.  An empty
    a has no rows, whatever b is, so the product is empty."""
    ra, ca = _check_rect(a)
    rb, cb = _check_rect(b)
    if ra and ca != rb:
        raise ValueError("shape mismatch in mat_mul")
    out = []
    for row in a:
        acc = [0] * cb
        for x, b_row in zip(row, b):
            if x:
                for j, y in enumerate(b_row):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def transpose(m: Mat) -> Mat:
    rows, cols = _check_rect(m)
    return [[m[i][j] for i in range(rows)] for j in range(cols)]


def clear_denominators(v: Vec) -> Vec:
    """Scale a rational vector to a primitive integer vector (gcd 1)."""
    fracs = [Fraction(x) for x in v]
    scale = math.lcm(*[f.denominator for f in fracs]) if fracs else 1
    ints = [int(f * scale) for f in fracs]
    g = math.gcd(*[abs(x) for x in ints]) if any(ints) else 1
    if g > 1:
        ints = [x // g for x in ints]
    return ints


# ---------------------------------------------------------------------------
# kernels and rank

def rat_kernel_basis(m: Mat) -> list[Vec]:
    """Basis of {x : m x = 0}, exact over the rationals.

    Returned vectors have reduced Fraction entries and are linearly
    independent; an empty or zero matrix yields the standard basis.
    """
    rows, cols = _check_rect(m)
    a = [[Fraction(x) for x in row] for row in m]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [a[i][j] - f * a[r][j] for j in range(cols)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -a[i][fc]
        basis.append(vec)
    return basis


def integer_rank(m: Mat) -> int:
    """Rank over Q of an integer (or rational) matrix, by fraction-free
    Bareiss elimination."""
    rows, cols = _check_rect(m)
    if rows == 0 or cols == 0:
        return 0
    a = [[Fraction(x) for x in row] for row in m]
    # Fractions keep Bareiss exact even when callers pass rational entries.
    rank = 0
    prev = Fraction(1)
    for c in range(cols):
        piv = next((i for i in range(rank, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, rows):
            for j in range(c + 1, cols):
                a[i][j] = (a[rank][c] * a[i][j] - a[i][c] * a[rank][j]) / prev
            a[i][c] = Fraction(0)
        prev = a[rank][c]
        rank += 1
        if rank == rows:
            break
    return rank


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
    """Exact inverse of an integer matrix with determinant +-1."""
    n, cols = _check_rect(m)
    if n != cols:
        raise ValueError("not square")
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[c], a[piv] = a[piv], a[c]
        inv = a[c][c]
        a[c] = [x / inv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [a[i][j] - f * a[c][j] for j in range(2 * n)]
    out = [[a[i][n + j] for j in range(n)] for i in range(n)]
    if any(x.denominator != 1 for row in out for x in row):
        raise ValueError("matrix is not unimodular")
    return [[int(x) for x in row] for row in out]


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
    """Exact determinant by Gaussian elimination over the rationals.

    For an antisymmetric form it is the square of the Pfaffian, so it is
    zero exactly when the form is degenerate."""
    n, cols = _check_rect(m)
    if n != cols:
        raise ValueError("not square")
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
        inv = a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] / inv
                a[i] = [a[i][j] - f * a[c][j] for j in range(n)]
    return det
