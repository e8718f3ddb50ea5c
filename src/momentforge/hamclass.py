"""Period matrices, the Hamiltonian / non-Hamiltonian splitting of the
acting torus, and the perturb-to-integral algorithm for the symplectic form.

A generator is Hamiltonian exactly when its row of loop periods vanishes; in
this universe that happens iff its combined translation direction is zero
(the torus block is nondegenerate), so the Hamiltonian directions act purely
by sphere rotations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import geom, ratlin
from .geom import ActionSpec, ProductForm


class RoundingBrokeNondegeneracy(Exception):
    """The rational rounding produced a degenerate form; retry with a larger
    denominator bound."""


@dataclass(frozen=True)
class ActionClassification:
    """Splitting of the acting torus into its Hamiltonian part (kernel of
    the period pairing) and an integer complement subtorus."""

    hamiltonian_basis: tuple    # c integer vectors: the HNF basis of the
                                # saturated lattice of zero-period
                                # combinations
    complement_generators: tuple  # r integer vectors completing it to a
                                  # basis of Z^r_total, in HNF

    @property
    def c(self) -> int:
        return len(self.hamiltonian_basis)

    @property
    def r(self) -> int:
        return len(self.complement_generators)


def period_matrix(action: ActionSpec, form: ProductForm) -> tuple:
    """The period matrix, r_total x b1, as (N, d): row j holds the exact
    periods of i_{X_j} omega over the H_1 coordinate loops.  These are the
    torus slots of the generators' field covectors, since the period of a
    constant 1-form over the coordinate loop e_k is its k-th entry."""
    m = form.torus_dim
    nums, d = geom.field_covectors(action, form)
    return [row[:m] for row in nums], d


def classify_action(p: tuple) -> ActionClassification:
    """Split the acting torus along the rows of the period matrix p, a
    pair (N, d), which the split reads through N alone."""
    n = len(p[0])
    ham, comp = ratlin.lattice_split(p[0])
    ratlin._hermite(ham, n)
    ratlin._hermite(comp, n)
    return ActionClassification(tuple(map(tuple, ham)),
                                tuple(map(tuple, comp)))


# ---------------------------------------------------------------------------
# integralization

@dataclass(frozen=True)
class IntegralizationResult:
    omega_prime: ProductForm     # integral invariant form (integer periods)
    k: int                       # integer scale applied to the rational form
    q: tuple                     # rational class coefficients of the
                                 # intermediate form, in the H^2 basis order
    max_deviation: float         # sup-norm coefficient distance to omega


def form_class_coefficients(form: ProductForm) -> list:
    """Coefficients of a form in the H^2 basis (these are exactly its
    periods over the canonical 2-cycles), as Fractions."""
    return [Fraction(n, form.den) for n in class_numerators(form)]


def class_numerators(form: ProductForm) -> list:
    """The form's class coefficients as integer numerators over form.den,
    in the order of the invariant integral H^2 basis: the torus coordinate
    classes dx_i ^ dx_j (i < j), then the unit-area sphere classes."""
    w, m = form.nums, form.torus_dim
    return [w[i][j] for i in range(m) for j in range(i + 1, m)] \
        + [2 * c for c in form.sphere_coeffs]


def form_from_class_coefficients(torus_dim: int, coeffs) -> ProductForm:
    """Inverse of form_class_coefficients, for exact coefficients in the
    class_numerators order of a form with this torus dimension; every
    coefficient past the torus classes is a sphere's."""
    m, coeffs = torus_dim, iter(coeffs)
    om = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            om[i][j] = 2 * next(coeffs)
            om[j][i] = -om[i][j]
    return ProductForm(om, list(coeffs), 2)


def integralize_form(form: ProductForm,
                     max_denominator: int) -> IntegralizationResult:
    """Round the class coefficients of a manifold's (nondegenerate) form to
    the best rationals with denominator <= max_denominator, scale them
    integral, and check that the integral form is still nondegenerate.
    The form's own classification then splits the action for omega_prime
    too: the periods are sign V Omega for the translations V, and the
    split reads only their column space, which is V's whenever Omega is
    nonsingular.

    All in integer numerators: each class coefficient n / d rounds to a
    coprime p / s, k is the lcm of the s, and omega_prime's coefficients
    are the integers p k / s.  omega_prime is k times the rounded form, so
    the check reads as it would on it.  The deviation, the largest
    |p d - n s| / (s d), is taken over the common denominator k d and
    divided once, so it is the correctly rounded float.  Raises
    RoundingBrokeNondegeneracy when the denominator bound is too coarse;
    see integralize_with_retry."""
    a, d = class_numerators(form), form.den
    q = [ratlin.rational_round(n, d, max_denominator) for n in a]
    k = math.lcm(*[s for _, s in q])
    omega_prime = form_from_class_coefficients(
        form.torus_dim, [p * (k // s) for p, s in q])
    if not omega_prime.is_nondegenerate():
        raise RoundingBrokeNondegeneracy(
            f"max_denominator={max_denominator}")
    dev = max(abs(p * d - n * s) * (k // s) for (p, s), n in zip(q, a))
    return IntegralizationResult(omega_prime, k,
                                 tuple(Fraction(p, s) for p, s in q),
                                 dev / (k * d))


def integralize_with_retry(form: ProductForm,
                           max_denominator: int) -> IntegralizationResult:
    """Retry policy for the open conditions: double the denominator bound
    until 2**16, then give up."""
    bound = max_denominator
    while True:
        try:
            return integralize_form(form, bound)
        except RoundingBrokeNondegeneracy:
            if bound >= 2 ** 16:
                raise
            bound = min(2 * bound, 2 ** 16)
