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
form are two exact matrices, neither of them built: the integer orbit
matrix G of an ActionSpec (one row per generator: its translation, then
(speed, 0) per sphere) and the form matrix W, with omega(u, w) = u W w^T:
the block matrix of Omega and one [[0, c], [-c, 0]] per sphere.  An
ActionSpec holds G's translations and speeds, and a ProductForm W's
blocks.  The sign convention and the contraction rule are applied in
field_covectors: the fundamental field of a generator is sign times its
row of G (sign = -1 is the exp(-t xi) convention; the orbits follow G),
and the covector of i_X omega is X W.  That covector is 0 on every theta
slot, where G holds the speeds, and G is 0 on the heights: the periods
are its torus slots, and every pairing and cocycle downstream pairs
those slots with the translations alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import ratlin

# samples lie on (1/LATTICE) Z^dim; momentforge.sample draws them
LATTICE = ratlin.P
# a stage's sample stream draws samples x dim numerators; the CLI rejects
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
    """A constant invariant 2-form on T^m x (S^2)^n, held as its blocks
    over one den in lowest terms: torus, the m x m numerators of Omega,
    and sphere_coeffs, each sphere's dtheta ^ dh coefficient.  The form
    owns the flat layout, so every form answers shape questions."""

    torus: tuple
    sphere_coeffs: tuple
    den: int

    def __init__(self, torus_omega, sphere_coeffs=(), den=1):
        nums, den = _numerators([*(torus_omega or ()), sphere_coeffs], den)
        for key, value in (("torus", nums[:-1]), ("sphere_coeffs", nums[-1]),
                           ("den", den)):
            object.__setattr__(self, key, value)
        object.__setattr__(self, "_nondegenerate", all(self.sphere_coeffs)
                           and ratlin.nonsingular(self.torus))

    def is_nondegenerate(self) -> bool:
        """Every sphere coefficient is nonzero and the torus block is
        nonsingular, decided once per form (mod P, with the exact
        fallback)."""
        return self._nondegenerate

    @property
    def torus_dim(self) -> int:
        return len(self.torus)

    @property
    def n_spheres(self) -> int:
        return len(self.sphere_coeffs)

    @property
    def dim(self) -> int:
        return self.torus_dim + 2 * self.n_spheres

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
        w = self.torus
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

    @property
    def r_total(self) -> int:
        return len(self.translations)

    def effectiveness_diagonal(self) -> list:
        """The Smith invariants of the generator matrix, one row (v_j | s_j)
        per generator; the action is effective when the first r_total of
        them are all 1."""
        return ratlin.smith_diagonal(
            [v + s for v, s in zip(self.translations, self.rotations)])


def field_covectors(action: ActionSpec, form: ProductForm) -> tuple:
    """The covectors of i_X omega, one row per generator: sign G W, as
    (N, d), integer numerators over the form's denominator.  W is block
    diagonal, so a row is sign v Omega, then (0, sign speed c) per sphere."""
    cols, c = list(zip(*form.torus)), form.sphere_coeffs
    return [[action.sign * sum(x * y for x, y in zip(v, col)) for col in cols]
            + [action.sign * x for s, k in zip(speeds, c) for x in (0, s * k)]
            for v, speeds in zip(action.translations, action.rotations)], \
        form.den


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
