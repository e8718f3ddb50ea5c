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
    k: int                       # the common denominator of the rounded
                                 # class, at most the bound: omega_prime
                                 # is k times the rounded form
    q: tuple                     # rounded class coefficients p / k, in
                                 # the H^2 basis order
    max_deviation: float         # sup-norm coefficient distance to omega


def form_class_coefficients(form: ProductForm) -> list:
    """Coefficients of a form in the H^2 basis (these are exactly its
    periods over the canonical 2-cycles), as Fractions."""
    return [Fraction(n, form.den) for n in class_numerators(form)]


def class_numerators(form: ProductForm) -> list:
    """The form's class coefficients as integer numerators over form.den,
    in the order of the invariant integral H^2 basis: the torus coordinate
    classes dx_i ^ dx_j (i < j), then the unit-area sphere classes."""
    w = form.torus
    return [x for i, row in enumerate(w) for x in row[i + 1:]] \
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


def _denominators(n: int, d: int, bound: int) -> list:
    """The denominators up to the bound of the continued-fraction
    convergents of n / d (d > 0), then, where the expansion runs past the
    bound, of its last semiconvergent within it: the best approximation of
    n / d with denominator at most the bound has one of the last two."""
    out, q, last = [], 0, 1
    while d:
        a, n, d = n // d, d, n % d
        if a * q + last > bound:
            out.append((bound - last) // q * q + last)
            break
        q, last = a * q + last, q
        out.append(q)
    return out


def integralize_form(form: ProductForm,
                     max_denominator: int) -> IntegralizationResult:
    """Round the class coefficients of a manifold's (nondegenerate) form to
    fractions over one common denominator k <= max_denominator, scale them
    integral, and check that the integral form is still nondegenerate.
    The form's own classification then splits the action for omega_prime
    too: the periods are sign V Omega for the translations V, and the
    split reads only their column space, which is V's whenever Omega is
    nonsingular.

    Each class coefficient n / d rounds to the nearest p / k (half down),
    and omega_prime's coefficients are the integers p: it is k times the
    rounded form, so the check reads as it would on it.  k is the
    candidate whose largest error |p d - k n| / (k d) is least, the
    smaller on a tie, and any k errs by at most 1 / (2k).  The candidates
    are the class's own denominator if it is within the bound (error 0),
    and every coefficient's convergent denominators up to the bound, 1
    among them, and best-approximation denominator at it; so with one
    coefficient p / k is its best approximation.  Raises
    RoundingBrokeNondegeneracy when the denominator bound is too coarse;
    see integralize_with_retry."""
    a, d = class_numerators(form), form.den
    exact = d // math.gcd(d, *a)
    dens = {exact} if exact <= max_denominator else set()
    for n in a:
        dens.update(_denominators(n, d, max_denominator))

    def error(q):
        return Fraction(max(min(r, d - r) for r in (q * n % d for n in a)),
                        q * d)

    k = min(sorted(dens), key=error)
    p = [-((d - 2 * k * n) // (2 * d)) for n in a]
    omega_prime = form_from_class_coefficients(form.torus_dim, p)
    if not omega_prime.is_nondegenerate():
        raise RoundingBrokeNondegeneracy(
            f"max_denominator={max_denominator}")
    return IntegralizationResult(omega_prime, k,
                                 tuple(Fraction(x, k) for x in p),
                                 float(error(k)))


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
