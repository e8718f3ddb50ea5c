"""The explicit manifold universe: flat tori, spheres with area forms, and
their products.

Coordinate conventions, used by every downstream module:

* a point is a flat vector: the torus coordinates (representatives in
  [0,1)) come first, then one (theta, h) pair per sphere with theta-period 1
  and h in [-1, 1];
* the sphere area form is c * dtheta ^ dh, so the total area is 2c and the
  cohomology class is integral iff 2c is an integer;
* the torus form is omega(u, w) = u^T Omega w on R^m / Z^m.

All forms in play are constant in these coordinates, so the action and the
form are two exact matrices: the integer orbit matrix G of an ActionSpec
(one row per generator: its translation, then (speed, 0) per sphere) and
the form matrix W of a ProductForm, with omega(u, w) = u W w^T.  The sign
convention and the contraction rule are applied in field_covectors: the
fundamental field of a generator is sign times its row of G (sign = -1 is
the exp(-t xi) convention; the orbits themselves follow G), and the
covector of i_X omega is X W.  Every period, pairing and cocycle downstream
is a product of these matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import ratlin

# samples lie on (1/LATTICE) Z^dim; momentforge.sample draws them
LATTICE = ratlin.P
# sample.sample_points allocates samples x dim numerators; the CLI rejects
# a sample count above this many entries before drawing anything
MAX_SAMPLE_ENTRIES = 2 ** 22


def _numerators(rows, den: int) -> tuple:
    """(N, d), N / d = rows / den in lowest terms, N a tuple of int rows;
    entries that are not ints or Fractions convert exactly (floats too)."""
    nums, d = ratlin._scaled([[x if type(x) in (int, Fraction) else
                               Fraction(x) for x in row] for row in rows])
    return ratlin.lowest(nums, d * den)


@dataclass(frozen=True, init=False)
class ProductForm:
    """A constant invariant 2-form on T^m x (S^2)^n, built from the torus
    block (None or exact rows) and one dtheta ^ dh coefficient per sphere,
    all over den, and held as its matrix W = nums / den in lowest terms.
    The form owns the flat layout, so every form answers shape questions."""

    nums: tuple
    den: int
    torus_dim: int

    def __init__(self, torus_omega, sphere_coeffs=(), den=1):
        torus = torus_omega or ()
        m = len(torus)
        n = m + 2 * len(sphere_coeffs)
        w = [list(row) + [0] * (n - m) for row in torus]
        w += [[0] * n for _ in range(n - m)]
        for o, c in zip(range(m, n, 2), sphere_coeffs):
            w[o][o + 1], w[o + 1][o] = c, -c
        nums, den = _numerators(w, den)
        for key, value in (("nums", nums), ("den", den), ("torus_dim", m)):
            object.__setattr__(self, key, value)
        object.__setattr__(self, "_nondegenerate", all(self.sphere_coeffs)
                           and ratlin.nonsingular([r[:m] for r in nums[:m]]))

    @property
    def sphere_coeffs(self) -> list:
        """Each sphere's dtheta ^ dh coefficient, as a numerator over den."""
        w = self.nums
        return [w[o][o + 1] for o in range(self.torus_dim, len(w), 2)]

    def is_nondegenerate(self) -> bool:
        """Every sphere coefficient is nonzero and the torus block is
        nonsingular, decided once per form (mod P, with the exact
        fallback)."""
        return self._nondegenerate

    @property
    def n_spheres(self) -> int:
        return (self.dim - self.torus_dim) // 2

    @property
    def dim(self) -> int:
        return len(self.nums)

    @property
    def b1(self) -> int:
        return self.torus_dim

    def sphere_offset(self, f: int) -> int:
        """Index of sphere f's theta coordinate in the flat layout."""
        if not 0 <= f < self.n_spheres:
            raise IndexError("sphere index out of range")
        return self.torus_dim + 2 * f

    def basepoint(self) -> list:
        """Torus origin, spheres at the south pole (theta=0, h=-1), as a
        new list of ints."""
        return [0] * self.torus_dim + [0, -1] * self.n_spheres


@dataclass(frozen=True, init=False)
class ProductManifold(ProductForm):
    """T^m x (S^2)^n with its symplectic form: the torus block
    torus_omega (exact rows, Omega on R^m / Z^m) and one area coefficient
    c per sphere, all over den.  The manifold is its form, checked to be
    symplectic once, when it is built; it never equals a bare ProductForm."""

    def __init__(self, torus_omega=None, spheres=(), den=1):
        torus = torus_omega or ()
        m = len(torus)
        if m % 2 != 0:
            raise ValueError("torus_omega: torus dimension must be even")
        if any(len(row) != m for row in torus):
            raise ValueError("torus_omega: omega must be square")
        if not all(c > 0 for c in spheres):
            raise ValueError("spheres: sphere area coefficient must be "
                             "positive")
        if not m and not spheres:
            raise ValueError("empty manifold: no torus_omega and no spheres")
        super().__init__(torus, spheres, den)
        w = self.nums
        if any(w[i][j] != -w[j][i] for i in range(m) for j in range(i, m)):
            raise ValueError("torus_omega: omega must be antisymmetric")
        if not self.is_nondegenerate():
            raise ValueError("torus_omega: degenerate torus form (zero "
                             "determinant)")


@dataclass(frozen=True)
class ActionSpec:
    """A torus action: per generator an integer translation direction on the
    torus factor and an integer rotation speed on each sphere factor, plus
    the sign of the fundamental fields (see the module docs)."""

    translations: tuple  # per generator, tuple of ints (length torus_dim)
    rotations: tuple     # per generator, tuple of ints (length n_spheres)
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if len(self.translations) != len(self.rotations):
            raise ValueError("translations and rotations disagree on "
                             "generator count")
        for part in (self.translations, self.rotations):
            if len({len(row) for row in part}) > 1:
                raise ValueError("ragged generators: every generator needs "
                                 "the same number of entries")
        for v, s in zip(self.translations, self.rotations):
            if not any(v) and not any(s):
                raise ValueError("trivial generator")
        object.__setattr__(self, "_orbits", [
            list(v) + [x for speed in s for x in (speed, 0)]
            for v, s in zip(self.translations, self.rotations)])

    @property
    def r_total(self) -> int:
        return len(self.translations)

    def orbit_matrix(self) -> list:
        """G, r_total x dim: per generator its orbit direction in flat
        coordinates, the translation and then (speed, 0) per sphere.  It
        does not depend on the sign; it is built once, and callers share it."""
        return self._orbits

    def effectiveness_diagonal(self) -> list:
        """The Smith invariants of the generator matrix, one row (v_j | s_j)
        per generator; the action is effective when the first r_total of
        them are all 1."""
        return ratlin.smith_diagonal(
            [v + s for v, s in zip(self.translations, self.rotations)])


def field_covectors(action: ActionSpec, form: ProductForm) -> tuple:
    """The covectors of i_X omega, one row per generator: sign G W, as
    (N, d), integer numerators over the form's denominator."""
    fields = [[action.sign * x for x in row] for row in action.orbit_matrix()]
    return ratlin.mat_mul(fields, form.nums), form.den


# ---------------------------------------------------------------------------
# fixed points

def fixed_point_set(manifold: ProductForm, action: ActionSpec) -> str:
    """'empty', 'finite' (a finite set of points) or 'submanifold' (of
    positive dimension): the pole combinations on the rotated spheres
    times the torus and the unrotated spheres."""
    if any(any(v) for v in action.translations):
        return "empty"
    rotated = sum(any(r[f] for r in action.rotations)
                  for f in range(manifold.n_spheres))
    finite = manifold.torus_dim == 0 and rotated == manifold.n_spheres
    return "finite" if finite else "submanifold"
