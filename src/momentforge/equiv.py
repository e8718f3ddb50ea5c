"""Equivariance structure of the circle-valued part: the integer cocycle
matrix, the affine torus self-action it defines, and the isotropy /
fixed-point / local-freeness verdict chain."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geom, ratlin
from .geom import ActionSpec, ProductForm, ProductManifold
from .hamclass import ActionClassification
from .moment import CIRCLE_TOL, GeneralizedMoment, circle_distance


class NonIntegerPeriod(Exception):
    """A cocycle entry failed the integrality check: the form fed in was
    not actually integral."""


class FixedPointChainBroken(Exception):
    """The action has fixed points, yet one of their consequences (isotropic
    orbits, a vanishing cocycle, an invariant circle part) fails."""


def cocycle_matrix(manifold: ProductManifold, action: ActionSpec,
                   omega_prime: ProductForm,
                   classification: ActionClassification,
                   basepoint=None) -> list:
    """Z[i][j] = integral of the i-th generator's contracted form over the
    j-th circle orbit through the basepoint.  Entries are exact and must be
    integers; the diagonal must vanish.

    The orbits only wind on the torus factor (sphere orbits are latitude
    circles, which pair to zero), so the entries reduce to exact pairings of
    the translation directions; the basepoint drops out.
    """
    gens = classification.complement_generators
    r = len(gens)
    z = [[0] * r for _ in range(r)]
    for i in range(r):
        fld = geom.combination_field(manifold, action, gens[i])
        cov = geom.contraction_covector(manifold, omega_prime, fld)
        for j in range(r):
            orbit = geom.combination_field(manifold, action, gens[j])
            # orbit direction is the generator data itself (+v), not the
            # sign-twisted fundamental field
            vj = [action.sign * x for x in orbit.translation]
            entry = sum(cov[k] * vj[k] for k in range(manifold.torus_dim))
            if entry.denominator != 1:
                raise NonIntegerPeriod(f"Z[{i}][{j}] = {entry}")
            z[i][j] = entry
    for i in range(r):
        if z[i][i] != 0:
            raise NonIntegerPeriod(f"nonzero diagonal Z[{i}][{i}] = {z[i][i]}")
    return z


def affine_apply(z: list, s, t) -> np.ndarray:
    """The affine self-action of the r-torus defined by Z, in additive form:
    output_i = t_i + sum_j Z[i][j] s_j mod 1."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    r = len(z)
    if s.shape[-1] != r or t.shape[-1] != r:
        raise ValueError("dimension mismatch")
    zmat = np.array(z, dtype=float) if r else np.zeros((0, 0))
    return np.mod(t + s @ zmat.T, 1.0)


@dataclass(frozen=True)
class EquivarianceReport:
    n_samples: int
    max_mu2_error: float
    max_mu1_invariance_error: float
    passed: bool


def equivariance_check(manifold: ProductManifold, action: ActionSpec,
                       moment: GeneralizedMoment, z: list,
                       n_samples: int = 1000, seed: int = 0,
                       tol: float = CIRCLE_TOL) -> EquivarianceReport:
    """Sample group elements t of the non-Hamiltonian subtorus and points x;
    compare mu2(t.x) with the affine action applied to mu2(x), and check
    that mu1 is invariant under the subtorus."""
    gens = moment.classification.complement_generators
    r = len(gens)
    rng = np.random.default_rng(seed)
    pts = geom.sample_points(manifold, n_samples, seed + 1)
    svals = rng.random((n_samples, r))
    params = svals @ np.array(gens, dtype=float).reshape(r, action.r_total)
    moved = geom.apply_torus_element(manifold, action, params, pts)
    max_mu2 = 0.0
    max_mu1 = 0.0
    if r:
        expected = affine_apply(z, svals, moment.mu2_values(pts))
        max_mu2 = circle_distance(moment.mu2_values(moved), expected)
    if moment.c:
        max_mu1 = float(np.max(np.abs(moment.mu1_values(moved)
                                      - moment.mu1_values(pts))))
    passed = max_mu2 < tol and max_mu1 < tol
    return EquivarianceReport(n_samples, max_mu2, max_mu1, passed)


@dataclass(frozen=True)
class IsotropyReport:
    pairings: tuple      # r_total x r_total generator pairings
    isotropic: bool
    point_independent: bool


def isotropic_orbit_test(manifold: ProductManifold, action: ActionSpec,
                         omega_prime: ProductForm,
                         points=None) -> IsotropyReport:
    """Evaluate all generator pairings; orbits are isotropic iff every one
    vanishes.  The pairings are constant over this universe, which is
    verified directly when sample points are supplied."""
    n = action.r_total
    fields = [geom.fundamental_field(manifold, action, j) for j in range(n)]
    vecs = [f.coord_vector(manifold) for f in fields]
    pairings = [[geom.pairing_eval(manifold, omega_prime, vecs[i], vecs[j])
                 for j in range(n)] for i in range(n)]
    point_independent = True
    if points is not None:
        for x in np.atleast_2d(points):
            for i in range(n):
                for j in range(n):
                    v = geom.pairing_eval(manifold, omega_prime,
                                          vecs[i], vecs[j], x)
                    if v != pairings[i][j]:
                        point_independent = False
    isotropic = not any(v for row in pairings for v in row)
    return IsotropyReport(tuple(tuple(row) for row in pairings), isotropic,
                          point_independent)


@dataclass(frozen=True)
class NaturalEquivarianceVerdict:
    has_fixed_points: bool
    orbits_isotropic: bool
    z_is_zero: bool
    mu2_invariant: bool
    naturally_equivariant: bool
    max_mu2_invariance_error: float


def natural_equivariance_test(manifold: ProductManifold, action: ActionSpec,
                              omega_prime: ProductForm, z: list,
                              moment: GeneralizedMoment,
                              n_samples: int = 200,
                              seed: int = 0) -> NaturalEquivarianceVerdict:
    """Verdict chain: fixed points imply isotropic orbits, a vanishing
    cocycle z (from cocycle_matrix), and full invariance of the circle
    part.  Without fixed points the three properties are still reported
    (isotropy can hold anyway)."""
    fps = geom.fixed_point_set(manifold, action)
    has_fp = fps.kind != "empty"
    iso = isotropic_orbit_test(manifold, action, omega_prime)
    z_zero = all(all(e == 0 for e in row) for row in z)
    max_err = 0.0
    if moment.r:
        rng = np.random.default_rng(seed)
        pts = geom.sample_points(manifold, n_samples, seed + 1)
        params = rng.random((n_samples, action.r_total))
        moved = geom.apply_torus_element(manifold, action, params, pts)
        max_err = circle_distance(moment.mu2_values(moved),
                                  moment.mu2_values(pts))
    mu2_invariant = max_err < CIRCLE_TOL
    if has_fp:
        for holds, what in ((iso.isotropic, "orbits not isotropic"),
                            (z_zero, "cocycle nonzero"),
                            (mu2_invariant, "mu2 not invariant")):
            if not holds:
                raise FixedPointChainBroken(
                    f"fixed points present but {what}")
    natural = iso.isotropic and z_zero and mu2_invariant
    return NaturalEquivarianceVerdict(has_fp, iso.isotropic, z_zero,
                                      mu2_invariant, natural, max_err)


@dataclass(frozen=True)
class LocalFreenessVerdict:
    z_rank: int
    r: int
    hypothesis_holds: bool   # rank(Z) == r
    stabilizers_finite: bool | None  # None when the corollary is silent
    note: str


def local_freeness_check(manifold: ProductManifold, action: ActionSpec,
                         z: list,
                         classification: ActionClassification
                         ) -> LocalFreenessVerdict:
    """If Z has full rank the subtorus action is locally free; the converse
    is never claimed.  Finiteness of stabilizers is read off the integer
    direction matrix of the complement generators."""
    r = classification.r
    rank = ratlin.integer_rank(z) if z else 0
    if rank == r and r > 0:
        dirs = []
        for g in classification.complement_generators:
            fld = geom.combination_field(manifold, action, g)
            dirs.append(list(fld.translation) + list(fld.rotations))
        finite = ratlin.integer_rank(dirs) == r
        note = "rank(Z) = r: action locally free" if finite else \
            "rank(Z) = r but direction matrix degenerate (unexpected)"
        return LocalFreenessVerdict(rank, r, True, finite, note)
    if r == 0:
        return LocalFreenessVerdict(0, 0, True, True, "vacuous: r = 0")
    return LocalFreenessVerdict(rank, r, False, None,
                                "corollary not applicable: rank(Z) < r")
