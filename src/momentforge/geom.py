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

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import ratlin

# samples lie on (1/LATTICE) Z^dim; momentforge.sample draws them
LATTICE = 2 ** 31 - 1
# sample.sample_points allocates samples x dim numerators; the CLI rejects
# a sample count above this many entries before drawing anything
MAX_SAMPLE_ENTRIES = 2 ** 22


def _fraction_rows(rows) -> tuple:
    """Rows of exact entries: Fractions stay as they are, ints and floats
    convert (a float converts exactly)."""
    return tuple(tuple([x if type(x) is Fraction else Fraction(x)
                        for x in row]) for row in rows)


@dataclass(frozen=True)
class FlatTorusFactor:
    """R^m / Z^m with the constant form u^T Omega w; Omega must be
    antisymmetric and nondegenerate, m even.  Entries are held as
    Fractions, and scaled once to integer numerators over one denominator,
    from which antisymmetry and nondegeneracy are decided."""

    omega: tuple

    def __post_init__(self):
        m = len(self.omega)
        rows = _fraction_rows(self.omega)
        object.__setattr__(self, "omega", rows)
        if m % 2 != 0:
            raise ValueError("torus dimension must be even")
        if any(len(row) != m for row in rows):
            raise ValueError("omega must be square")
        nums, d = ratlin._scaled(rows)
        object.__setattr__(self, "_scaled", (nums, d))
        if any(nums[i][j] != -nums[j][i]
               for i in range(m) for j in range(i, m)):
            raise ValueError("omega must be antisymmetric")
        if m > 0 and ratlin.determinant(nums) == 0:
            raise ValueError("degenerate torus form (zero determinant)")

    @property
    def dim(self) -> int:
        return len(self.omega)


@dataclass(frozen=True)
class SphereFactor:
    """S^2 in cylindrical coordinates (theta, h) with form c dtheta ^ dh;
    c is held as a Fraction."""

    area_coefficient: Fraction

    def __post_init__(self):
        object.__setattr__(self, "area_coefficient",
                           Fraction(self.area_coefficient))
        if not self.area_coefficient > 0:
            raise ValueError("sphere area coefficient must be positive")


@dataclass(frozen=True)
class ProductForm:
    """A constant invariant 2-form on a ProductManifold: the torus block
    plus one dtheta ^ dh coefficient per sphere, all held as Fractions.

    The form is scaled once, when it is built: its matrix W is held as
    integer numerators over one denominator, which field_covectors and the
    nondegeneracy test read, so neither scales W again.  torus_omega may be
    a FlatTorusFactor: the form then reuses the factor's nondegeneracy
    verdict, and its numerators when W is the torus block alone."""

    torus_omega: tuple | None
    sphere_coeffs: tuple

    def __post_init__(self):
        torus = self.torus_omega
        factor = torus if isinstance(torus, FlatTorusFactor) else None
        if torus is not None:
            object.__setattr__(self, "torus_omega",
                               factor.omega if factor else
                               _fraction_rows(torus))
        [coeffs] = _fraction_rows([self.sphere_coeffs])
        object.__setattr__(self, "sphere_coeffs", coeffs)
        object.__setattr__(self, "_scaled", factor._scaled
                           if factor and not coeffs
                           else ratlin._scaled(self.matrix()))
        object.__setattr__(self, "_torus_ok", True if factor else None)

    def matrix(self) -> list:
        """W, dim x dim and exact: the torus block, then [[0, c], [-c, 0]]
        per sphere."""
        m = len(self.torus_omega or ())
        n = m + 2 * len(self.sphere_coeffs)
        w = [[0] * n for _ in range(n)]
        for i, row in enumerate(self.torus_omega or ()):
            w[i][:m] = row
        for f, c in enumerate(self.sphere_coeffs):
            o = m + 2 * f
            w[o][o + 1], w[o + 1][o] = c, -c
        return w

    def is_nondegenerate(self) -> bool:
        if not all(self.sphere_coeffs):
            return False
        if self._torus_ok is None:
            m = len(self.torus_omega or ())
            w = self._scaled[0]
            object.__setattr__(self, "_torus_ok", not m or ratlin.determinant(
                [row[:m] for row in w[:m]]) != 0)
        return self._torus_ok


@dataclass(frozen=True)
class ProductManifold:
    """At most one flat-torus factor plus any number of sphere factors."""

    torus: FlatTorusFactor | None
    spheres: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "spheres", tuple(self.spheres))
        if self.dim == 0:
            raise ValueError("empty manifold")

    @property
    def torus_dim(self) -> int:
        return self.torus.dim if self.torus is not None else 0

    @property
    def n_spheres(self) -> int:
        return len(self.spheres)

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

    def form(self) -> ProductForm:
        return ProductForm(self.torus,
                           tuple(s.area_coefficient for s in self.spheres))

    def basepoint(self) -> list:
        """Torus origin, spheres at the south pole (theta=0, h=-1), as a
        new list of ints."""
        return [0] * self.torus_dim + [0, -1] * self.n_spheres


@dataclass(frozen=True)
class ActionSpec:
    """A torus action: per generator an integer translation direction on the
    torus factor and an integer rotation speed on each sphere factor, plus
    the sign of the fundamental fields (see the module docs)."""

    translations: tuple  # per generator, tuple of ints (length torus_dim)
    rotations: tuple     # per generator, tuple of ints (length n_spheres)
    sign: int = 1

    def __post_init__(self):
        object.__setattr__(
            self, "translations",
            tuple(tuple(int(v) for v in t) for t in self.translations))
        object.__setattr__(
            self, "rotations",
            tuple(tuple(int(s) for s in r) for r in self.rotations))
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

    def generator_matrix(self) -> list:
        """Integer matrix with one row (v_j | s_j) per generator."""
        return [list(v) + list(s)
                for v, s in zip(self.translations, self.rotations)]

    def orbit_matrix(self) -> list:
        """G, r_total x dim: per generator its orbit direction in flat
        coordinates, the translation and then (speed, 0) per sphere.  It
        does not depend on the sign."""
        return [list(v) + [x for speed in s for x in (speed, 0)]
                for v, s in zip(self.translations, self.rotations)]

    def effectiveness_diagonal(self) -> list:
        """The Smith invariants of the generator matrix; the action is
        effective when the first r_total of them are all 1."""
        return ratlin.smith_diagonal(self.generator_matrix())


def field_covectors(action: ActionSpec, form: ProductForm,
                    coeffs=None) -> list:
    """The covectors of i_X omega, sign * (coeffs G) W: one row per
    generator, or per integer combination of generators when coeffs (one
    row of r_total integers per combination) is given.  W enters as the
    numerators the form was scaled to when it was built."""
    rows = action.orbit_matrix()
    if coeffs is not None:
        rows = ratlin.mat_mul(coeffs, rows)
    return ratlin._product(
        *ratlin._scaled([[action.sign * x for x in row] for row in rows]),
        *form._scaled)


# ---------------------------------------------------------------------------
# fixed points

@dataclass(frozen=True)
class FixedPointSet:
    """'empty', a finite list of points, or a positive-dimensional
    submanifold: the pole combinations on the rotated spheres times the
    torus and the unrotated spheres."""

    kind: str                      # 'empty' | 'finite' | 'submanifold'
    points: tuple = ()             # explicit pole coordinates


def fixed_point_set(manifold: ProductManifold,
                    action: ActionSpec) -> FixedPointSet:
    if any(any(v) for v in action.translations):
        return FixedPointSet("empty")
    rotated = [f for f in range(manifold.n_spheres)
               if any(r[f] for r in action.rotations)]
    pole_choices = []
    for combo in itertools.product((-1, 1), repeat=len(rotated)):
        x = manifold.basepoint()
        for f, h in zip(rotated, combo):
            x[manifold.sphere_offset(f) + 1] = h
        pole_choices.append(tuple(x))
    finite = manifold.torus_dim == 0 and len(rotated) == manifold.n_spheres
    return FixedPointSet("finite" if finite else "submanifold",
                         tuple(pole_choices))
