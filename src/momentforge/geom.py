"""The explicit manifold universe: flat tori, spheres with area forms, and
their products.

Coordinate conventions, used by every downstream module:

* a point is a flat float vector: the torus coordinates (representatives in
  [0,1)) come first, then one (theta, h) pair per sphere with theta-period 1
  and h in [-1, 1];
* the sphere area form is c * dtheta ^ dh, so the total area is 2c and the
  cohomology class is integral iff 2c is an integer;
* the torus form is omega(u, w) = u^T Omega w on R^m / Z^m.

All forms in play are constant in these coordinates, which is what keeps the
period and cocycle computations exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import ratlin


@dataclass(frozen=True)
class FlatTorusFactor:
    """R^m / Z^m with the constant form u^T Omega w; Omega must be
    antisymmetric and nondegenerate, m even.  Entries are held as
    Fractions."""

    omega: tuple

    def __post_init__(self):
        m = len(self.omega)
        # floats convert exactly
        rows = tuple(tuple(map(Fraction, row)) for row in self.omega)
        object.__setattr__(self, "omega", rows)
        if m % 2 != 0:
            raise ValueError("torus dimension must be even")
        if any(len(row) != m for row in rows):
            raise ValueError("omega must be square")
        for i in range(m):
            for j in range(m):
                if rows[i][j] != -rows[j][i]:
                    raise ValueError("omega must be antisymmetric")
        if m > 0 and ratlin.determinant(rows) == 0:
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
    plus one dtheta ^ dh coefficient per sphere, all held as Fractions."""

    torus_omega: tuple | None
    sphere_coeffs: tuple

    def __post_init__(self):
        if self.torus_omega is not None:
            object.__setattr__(
                self, "torus_omega",
                tuple(tuple(map(Fraction, row)) for row in self.torus_omega))
        object.__setattr__(self, "sphere_coeffs",
                           tuple(map(Fraction, self.sphere_coeffs)))

    def is_nondegenerate(self) -> bool:
        if not all(self.sphere_coeffs):
            return False
        return not self.torus_omega \
            or ratlin.determinant(self.torus_omega) != 0


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
    def coord_dim(self) -> int:
        return self.dim

    @property
    def b1(self) -> int:
        return self.torus_dim

    def sphere_offset(self, f: int) -> int:
        """Index of sphere f's theta coordinate in the flat layout."""
        if not 0 <= f < self.n_spheres:
            raise IndexError("sphere index out of range")
        return self.torus_dim + 2 * f

    def form(self) -> ProductForm:
        return ProductForm(
            self.torus.omega if self.torus is not None else None,
            tuple(s.area_coefficient for s in self.spheres))

    def basepoint(self) -> np.ndarray:
        """Torus origin, spheres at the south pole (theta=0, h=-1)."""
        x = np.zeros(self.coord_dim)
        for f in range(self.n_spheres):
            x[self.sphere_offset(f) + 1] = -1.0
        return x

    def wrap(self, x: np.ndarray) -> np.ndarray:
        """Reduce torus and theta coordinates mod 1."""
        x = np.array(x, dtype=float)
        m = self.torus_dim
        x[..., :m] = np.mod(x[..., :m], 1.0)
        for f in range(self.n_spheres):
            o = self.sphere_offset(f)
            x[..., o] = np.mod(x[..., o], 1.0)
        return x


@dataclass(frozen=True)
class ActionSpec:
    """A torus action: per generator an integer translation direction on the
    torus factor and an integer rotation speed on each sphere factor.

    sign = +1 makes the fundamental field of a generator equal to its
    translation/rotation data; sign = -1 flips it globally (the exp(-t xi)
    convention).  Both give valid moments; see the module docs.
    """

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

    def effectiveness_diagonal(self) -> list:
        _, d, _ = ratlin.smith_normal_form(self.generator_matrix())
        k = min(len(d), len(d[0]) if d else 0)
        return [d[i][i] for i in range(k)]

    def is_effective(self) -> bool:
        diag = self.effectiveness_diagonal()
        return (len(diag) >= self.r_total
                and all(diag[i] == 1 for i in range(self.r_total)))


@dataclass(frozen=True)
class FundamentalField:
    """Constant field: translation part on the torus factor and an angular
    speed per sphere."""

    translation: tuple
    rotations: tuple

    def coord_vector(self, manifold: ProductManifold) -> list:
        out = list(self.translation) + [0] * (2 * manifold.n_spheres)
        for f, s in enumerate(self.rotations):
            out[manifold.sphere_offset(f)] = s
        return out


def fundamental_field(manifold: ProductManifold, action: ActionSpec,
                      j: int) -> FundamentalField:
    if not 0 <= j < action.r_total:
        raise IndexError("generator index out of range")
    eps = action.sign
    return FundamentalField(
        tuple(eps * v for v in action.translations[j]),
        tuple(eps * s for s in action.rotations[j]))


def combination_field(manifold: ProductManifold, action: ActionSpec,
                      coeffs) -> FundamentalField:
    """Fundamental field of an integer combination of generators."""
    m = manifold.torus_dim
    v = [0] * m
    s = [0] * manifold.n_spheres
    for c, tr, ro in zip(coeffs, action.translations, action.rotations):
        for i in range(m):
            v[i] += c * tr[i]
        for f in range(manifold.n_spheres):
            s[f] += c * ro[f]
    eps = action.sign
    return FundamentalField(tuple(eps * x for x in v),
                            tuple(eps * x for x in s))


def pairing_eval(manifold: ProductManifold, form: ProductForm,
                 u, w, x=None):
    """omega_x(u, w) for tangent vectors in flat coordinates.  The point x
    is accepted for interface parity; the forms here are constant."""
    n = manifold.coord_dim
    if len(u) != n or len(w) != n:
        raise ValueError("tangent vector dimension mismatch")
    m = manifold.torus_dim
    total = 0
    if m:
        om = form.torus_omega
        total += sum(u[i] * om[i][j] * w[j]
                     for i in range(m) for j in range(m) if om[i][j] != 0)
    for f, c in enumerate(form.sphere_coeffs):
        o = manifold.sphere_offset(f)
        total += c * (u[o] * w[o + 1] - u[o + 1] * w[o])
    return total


def contraction_covector(manifold: ProductManifold, form: ProductForm,
                         fld: FundamentalField) -> list:
    """The constant covector of i_X omega in flat coordinates, i.e. the
    vector a with (i_X omega)(w) = <a, w>."""
    m = manifold.torus_dim
    out = [0] * manifold.coord_dim
    if m:
        om = form.torus_omega
        for j in range(m):
            out[j] = sum(fld.translation[i] * om[i][j] for i in range(m))
    for f, c in enumerate(form.sphere_coeffs):
        o = manifold.sphere_offset(f)
        # i_X (c dtheta ^ dh) = c X_theta dh - c X_h dtheta; X_h = 0 here
        out[o + 1] = c * fld.rotations[f]
    return out


# ---------------------------------------------------------------------------
# homology

@dataclass(frozen=True)
class TorusLoop:
    """t -> basepoint + t * direction on the torus factor, direction in Z^m."""

    direction: tuple
    basepoint: tuple = None

    def __post_init__(self):
        d = tuple(int(v) for v in self.direction)
        for v, raw in zip(d, self.direction):
            if v != raw:
                raise ValueError("open curve: direction must be integral")
        object.__setattr__(self, "direction", d)
        if self.basepoint is not None:
            object.__setattr__(self, "basepoint", tuple(self.basepoint))


@dataclass(frozen=True)
class TorusTwoCycle:
    i: int
    j: int


@dataclass(frozen=True)
class SphereTwoCycle:
    sphere_index: int


def homology_bases(manifold: ProductManifold):
    """Coordinate loops as the H_1 basis; coordinate 2-tori plus sphere
    classes as the H_2 basis."""
    m = manifold.torus_dim
    loops = [TorusLoop(tuple(int(i == k) for i in range(m)))
             for k in range(m)]
    cycles = [TorusTwoCycle(i, j) for i in range(m) for j in range(i + 1, m)]
    cycles += [SphereTwoCycle(f) for f in range(manifold.n_spheres)]
    return loops, cycles


# ---------------------------------------------------------------------------
# fixed points and sampling

@dataclass(frozen=True)
class FixedPointSet:
    """'empty', a finite list of points, or a positive-dimensional
    submanifold described by the free coordinate ranges."""

    kind: str                      # 'empty' | 'finite' | 'submanifold'
    points: tuple = ()             # finite case: explicit coordinates
    free_factors: tuple = ()       # submanifold case: factor descriptions
    description: str = ""


def fixed_point_set(manifold: ProductManifold,
                    action: ActionSpec) -> FixedPointSet:
    if any(any(v) for v in action.translations):
        return FixedPointSet("empty",
                             description="nonzero translation direction")
    rotated = [f for f in range(manifold.n_spheres)
               if any(r[f] for r in action.rotations)]
    still = [f for f in range(manifold.n_spheres) if f not in rotated]
    pole_choices = []
    import itertools
    for combo in itertools.product((-1.0, 1.0), repeat=len(rotated)):
        x = manifold.basepoint()
        for f, h in zip(rotated, combo):
            x[manifold.sphere_offset(f) + 1] = h
        pole_choices.append(tuple(x))
    if manifold.torus_dim == 0 and not still:
        return FixedPointSet(
            "finite", points=tuple(pole_choices),
            description=f"{len(pole_choices)} pole combinations")
    free = []
    if manifold.torus_dim:
        free.append(f"torus factor (dim {manifold.torus_dim})")
    free += [f"sphere {f} (unrotated)" for f in still]
    return FixedPointSet(
        "submanifold", points=tuple(pole_choices), free_factors=tuple(free),
        description="pole combinations on rotated spheres times "
                    + ", ".join(free))


def apply_torus_element(manifold: ProductManifold, action: ActionSpec,
                        params, points: np.ndarray) -> np.ndarray:
    """Act with the group element exp(sum_j params_j * eta_j): translate the
    torus coordinates and rotate each sphere.  The orbit direction is the
    generator data itself, independent of the sign convention (which only
    flips the fundamental fields).

    params has shape (r_total,), one element acting on every point, or
    (n, r_total), row i acting on point i."""
    params = np.asarray(params, dtype=float)
    out = np.array(points, dtype=float)
    m = manifold.torus_dim
    for j, (v, s) in enumerate(zip(action.translations, action.rotations)):
        t = params[..., j]
        for i in range(m):
            out[..., i] += t * v[i]
        for f in range(manifold.n_spheres):
            out[..., manifold.sphere_offset(f)] += t * s[f]
    return manifold.wrap(out)


def sample_points(manifold: ProductManifold, n: int, seed: int) -> np.ndarray:
    """Seeded uniform samples; h is uniform on [-1,1], which is the uniform
    area measure on the sphere."""
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    out = np.empty((n, manifold.coord_dim))
    m = manifold.torus_dim
    out[:, :m] = rng.random((n, m))
    for f in range(manifold.n_spheres):
        o = manifold.sphere_offset(f)
        out[:, o] = rng.random(n)
        out[:, o + 1] = rng.uniform(-1.0, 1.0, n)
    return out
