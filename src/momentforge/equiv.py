"""Equivariance structure of the circle-valued part: the integer cocycle
matrix, the exact certificate that mu2 is equivariant under the affine
torus self-action it defines, and the isotropy / fixed-point /
local-freeness verdict chain."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import geom, ratlin
from .geom import ActionSpec
from .moment import GeneralizedMoment


def _pairings(rows: list, cols: list) -> list:
    """The integer matrix [<row_i, col_j>] on the first len(col_j) slots
    of each row: a covector's torus slots, for a translation col_j."""
    return [[sum(b * a for b, a in zip(col, row)) for col in cols]
            for row in rows]


def _max_abs(m: list, d: int):
    """The largest |entry| of the exact matrix m / d, a Fraction or 0."""
    top = max((abs(x) for row in m for x in row), default=0)
    return Fraction(top, d) if top else 0


def cocycle_matrix(moment: GeneralizedMoment) -> list:
    """Z[i][j] = integral of the i-th generator's contracted form over the
    j-th circle orbit: Z = mu2 (H G)^T for the complement generators H and
    the orbit matrix G, exact.  Sphere orbits are latitude circles, which
    pair to zero (mu2 vanishes on the theta slots, G on the heights), so
    Z = K (H V)^T for K the integral torus slots of mu2 and V the integer
    translations: an integer matrix, and no basepoint enters.  It is
    sign H P H^T (exact_equivariance), so its diagonal is 0."""
    return _pairings(moment.torus_covectors, ratlin.mat_mul(
        moment.classification.complement_generators,
        moment.action.translations))


@dataclass(frozen=True)
class IsotropyReport:
    pairings: tuple      # (N, d): r_total x r_total generator pairings
    isotropic: bool


def isotropic_orbit_test(action: ActionSpec,
                         covectors: tuple) -> IsotropyReport:
    """All generator pairings omega(X_i, X_j): the field covectors (as
    geom.field_covectors gives them) paired with the fields sign G, at
    every point, so their torus slots with sign V for the translations V;
    orbits are isotropic iff every one vanishes."""
    pairings = _pairings(covectors[0], [[action.sign * x for x in v]
                                        for v in action.translations])
    return IsotropyReport((pairings, covectors[1]),
                          not any(map(any, pairings)))


@dataclass(frozen=True)
class EquivarianceReport:
    """The exact certificate's largest residuals."""

    max_mu2_error: Fraction
    max_mu1_invariance_error: Fraction
    passed: bool


def exact_equivariance(moment: GeneralizedMoment, z: list,
                       iso: IsotropyReport) -> EquivarianceReport:
    """The equivariance identity itself, exactly.  Every component is linear
    in the flat coordinates and the subtorus element s moves x to
    x + s (H G), so mu2(s.x) - mu2(x) = z s for z = (mu2 covectors) (H G)^T,
    the cocycle.  mu2 is equivariant under its affine action iff z is the
    pairing of the complement fields under the form, sign H P H^T with
    P = G W G^T the isotropy pairings of iso (isotropic_orbit_test of the
    moment's action and covectors), and mu1 is invariant iff
    (mu1 covectors) (H G)^T = 0, its torus slots times (H V)^T.  The
    errors are the largest residual entries; no points are sampled."""
    h = moment.classification.complement_generators
    sign, (p, dp) = moment.action.sign, iso.pairings
    # the two sides over the common denominator dp
    mu2_error = _max_abs([[x * dp - sign * y for x, y in zip(
        row, form_row)] for row, form_row in zip(
            z, _pairings(ratlin.mat_mul(h, p), h))], dp)
    mu1_error = _max_abs(_pairings(moment.mu1[0], ratlin.mat_mul(
        h, moment.action.translations)), moment.mu1[1])
    return EquivarianceReport(mu2_error, mu1_error,
                              mu2_error == 0 and mu1_error == 0)


@dataclass(frozen=True)
class NaturalEquivarianceVerdict:
    has_fixed_points: bool
    orbits_isotropic: bool
    z_is_zero: bool
    naturally_equivariant: bool
    max_mu2_invariance_error: Fraction


def natural_equivariance(moment: GeneralizedMoment, z: list,
                         iso: IsotropyReport) -> NaturalEquivarianceVerdict:
    """Isotropic orbits (iso, from isotropic_orbit_test), a vanishing
    cocycle z (from cocycle_matrix), and full invariance of the circle
    part.  Fixed points imply all three: with no translation, G is 0 on
    the torus slots, so P = G W G^T = 0.  Without fixed points the three
    are still reported (isotropy can hold anyway).

    mu2 is invariant under the whole torus iff (mu2 covectors) G^T, its
    torus slots times the translations, is 0.  That matrix is sign * H P,
    P = G W G^T the isotropy pairings, so isotropic orbits force it to
    vanish, and with it Z, which is that matrix times H^T."""
    action = moment.action
    has_fp = geom.fixed_point_set(moment.omega_prime, action) != "empty"
    z_zero = all(all(e == 0 for e in row) for row in z)
    max_err = _max_abs(_pairings(moment.torus_covectors,
                                 action.translations), 1)
    natural = iso.isotropic and z_zero and max_err == 0
    return NaturalEquivarianceVerdict(has_fp, iso.isotropic, z_zero,
                                      natural, max_err)


@dataclass(frozen=True)
class LocalFreenessVerdict:
    z_rank: int
    note: str


def local_freeness_check(moment: GeneralizedMoment,
                         z: list) -> LocalFreenessVerdict:
    """If Z has full rank the subtorus action is locally free, with finite
    stabilizers; the converse is never claimed."""
    r = moment.classification.r
    if r == 0:
        return LocalFreenessVerdict(0, "vacuous: r = 0")
    rank = ratlin.integer_rank(z)
    if rank == r:
        # Z = K (H V)^T, so rank Z = r forces rank H V = r, and V is a
        # block of the generator matrix: the direction matrix of H has
        # full rank, so the stabilizers are finite
        return LocalFreenessVerdict(rank, "rank(Z) = r: action locally free")
    return LocalFreenessVerdict(rank, "corollary not applicable: rank(Z) < r")
