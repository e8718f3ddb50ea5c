"""Exact integer linear algebra.

Past the parser an exact matrix is a pair (N, d), integer rows over one
positive denominator.  The kernels read N alone, since a positive scale
changes no rank, kernel, Hermite or Smith form and scales a determinant by
d^n; `mat_mul` multiplies integer rows, so a product of pairs is
(Na Nb, da db), and `lowest` puts a pair in lowest terms.  Rows are plain
Python lists (or tuples) of ints, ample at the sizes this package ever
sees (up to ~12x12 plus a handful of homology columns).  Only `_scaled`,
at the parse boundary, reads Fractions; no floating point enters any
routine in this module.

The Hermite normal form does all the lattice work: `lattice_split` reads a
saturated integer kernel and a basis completing it from the Hermite
transform, and `smith_diagonal` reads the Smith invariants from alternating
Hermite forms, with no transform at all.
"""

from __future__ import annotations

import itertools
import math

Mat = list  # list of rows
P = 2 ** 31 - 1  # the prime of the nondegeneracy test and the sample lattice


def _scaled(m: Mat) -> tuple[Mat, int]:
    """(N, d) with m = N / d: fresh rows of integer numerators over the
    least common denominator d of the entries (ints and Fractions)."""
    d = math.lcm(*[x.denominator for row in m for x in row])
    return [[x.numerator * (d // x.denominator) for x in row] for row in m], d


def lowest(n: Mat, d: int) -> tuple:
    """The pair (N, d) in lowest terms, N as a tuple of int rows: d is then
    the lcm of the reduced denominators of the entries n / d."""
    g = math.gcd(d, *itertools.chain.from_iterable(n))
    return tuple(tuple([x // g for x in row]) for row in n), d // g


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
    """The integer product, with zero factors skipped, since the matrices
    here are sparse.  An empty a has no rows, whatever b is, so the product
    is empty; every b the package passes has rows."""
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for x, b_row in zip(row, b):
            if x:
                for j, y in enumerate(b_row):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def transpose(m: Mat) -> Mat:
    return [list(col) for col in zip(*m)]


def clear_denominators(v: list) -> list:
    """Divide an integer vector by the gcd of its entries, to a primitive
    vector (gcd 1)."""
    g = math.gcd(*v)
    return [x // g for x in v] if g else list(v)


# ---------------------------------------------------------------------------
# rank

def integer_rank(m: Mat) -> int:
    """Rank over Q of an integer matrix, by fraction-free Bareiss
    elimination."""
    return len(_eliminate([list(row) for row in m])[0])


# ---------------------------------------------------------------------------
# the Hermite normal form and the lattice questions it answers

def hermite_normal_form(m: Mat) -> tuple[Mat, Mat]:
    """Row-style Hermite normal form: (H, U) with U m = H, U unimodular,
    H upper echelon with positive pivots and reduced entries above them."""
    rows, cols = len(m), len(m[0])
    a = [list(row) + e for row, e in zip(m, identity(rows))]
    _hermite(a, cols)
    return [row[:cols] for row in a], [row[cols:] for row in a]


def _hermite(h: Mat, cols: int) -> Mat:
    """Reduce the integer rows h in place, and return them, to the Hermite
    form of their first cols columns; row operations act on whole rows."""
    rows = len(h)
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if h[i][c] != 0), None)
        if piv is None:
            continue
        h[r], h[piv] = h[piv], h[r]
        while True:
            nz = [i for i in range(r + 1, rows) if h[i][c] != 0]
            if not nz:
                break
            for i in nz:
                q = h[i][c] // h[r][c]
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                if h[i][c] != 0:    # a remainder, smaller than the pivot
                    h[r], h[i] = h[i], h[r]
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
        for i in range(r):
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
        r += 1
    return h


def lattice_split(m: Mat) -> tuple[Mat, Mat]:
    """(K, C) for an integer matrix m with n rows: K is a Z-basis of the
    integer left kernel {x in Z^n : x m = 0}, which is always saturated,
    and C completes K to a basis of Z^n.

    The left kernel depends only on the column space of m, so m is first
    replaced by the primitive integer rows of that space's reduced echelon
    basis, times the sign of the last pivot: usually far smaller entries
    than m.  K and C are then the rows of the Hermite transform U whose
    Hermite rows vanish and do not; that sign negates C and leaves K."""
    n = len(m)
    a = transpose(m)
    pivots, _, _ = _eliminate(a, jordan=True)
    if not pivots:
        return identity(n), []
    h, u = hermite_normal_form(transpose(
        [clear_denominators(row) for row in a[:len(pivots)]]))
    return ([x for row, x in zip(h, u) if not any(row)],
            [x for row, x in zip(h, u) if any(row)])


def smith_diagonal(m: Mat) -> list:
    """The Smith invariants d1 | d2 | ... of an integer matrix, min(rows,
    cols) of them with the zeros last, without either transform: Hermite
    forms of the matrix and of its transpose alternate until it is
    diagonal (Kannan and Bachem 1979), and gcd / lcm exchanges then make
    each entry divide the next."""
    rows, cols = len(m), len(m[0])
    h = _hermite([list(row) for row in m], cols)
    while any(x for i, row in enumerate(h) for j, x in enumerate(row)
              if i != j):
        h = _hermite(transpose(h), len(h))
    d = [h[i][i] for i in range(min(rows, cols))]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = math.gcd(d[i], d[j]), math.lcm(d[i], d[j])
    return d


# ---------------------------------------------------------------------------
# determinant and nondegeneracy

def determinant(m: Mat) -> int:
    """Exact determinant of an integer matrix, by Bareiss elimination; for
    a pair (N, d) of order n it is det N / d^n.

    For an antisymmetric form it is the square of the Pfaffian, so it is
    zero exactly when the form is degenerate."""
    n = len(m)
    pivots, last, sign = _eliminate([list(row) for row in m])
    return sign * last if len(pivots) == n else 0


def nonsingular(a: Mat) -> bool:
    """Whether the antisymmetric integer matrix a is nonsingular: a nonzero
    Pfaffian mod the prime P proves it, and at residue 0 Bareiss
    elimination decides.  On the upper triangle, u[k][l - k - 1] = a_kl:
    each step takes the Schur complement of the pivot block (0, 1), moving
    a nonzero a_0c to a_01 first by adding row and column c to 1."""
    u = [[x % P for x in row[k + 1:]] for k, row in enumerate(a)]
    while u:
        n = len(u)
        c = next((c for c, x in enumerate(u[0], 1) if x), None)
        if c is None:
            return len(_eliminate([list(row) for row in a])[0]) == len(a)
        if c > 1:
            u[0][0] = u[0][c - 1]
            u[1] = [(x + (u[c][l - c - 1] if l > c else -u[l][c - l - 1]
                          if l < c else 0)) % P
                    for l, x in zip(range(2, n), u[1])]
        inv = pow(u[0][0], -1, P)
        a0, a1 = u[0][1:], u[1]
        r0, r1 = [x * inv % P for x in a0], [x * inv % P for x in a1]
        u = [[(x + b * y - a * z) % P
              for x, y, z in zip(u[k], r0[k - 1:], r1[k - 1:])]
             for k, a, b in zip(range(2, n), a0, a1)]
    return True
