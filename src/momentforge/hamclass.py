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
from .geom import ActionSpec, ProductForm, ProductManifold


class RoundingBrokeNondegeneracy(Exception):
    """The rational rounding produced a degenerate form; retry with a larger
    denominator bound."""


class RoundingBrokeConditionB(Exception):
    """The rational rounding killed a non-Hamiltonian period; retry with a
    larger denominator bound."""


class SplittingIncomplete(Exception):
    """The Hamiltonian basis and its complement do not together span the
    acting torus."""


@dataclass(frozen=True)
class ActionClassification:
    """Splitting of the acting torus into its Hamiltonian part (kernel of
    the period pairing) and an integer complement subtorus."""

    hamiltonian_basis: tuple    # c integer vectors: the HNF basis of the
                                # saturated lattice of zero-period
                                # combinations
    complement_generators: tuple  # r integer vectors completing it to a
                                  # basis of Z^r_total, in HNF
    r_total: int

    def __post_init__(self):
        object.__setattr__(self, "hamiltonian_basis",
                           tuple(tuple(v) for v in self.hamiltonian_basis))
        object.__setattr__(self, "complement_generators",
                           tuple(tuple(v) for v in self.complement_generators))

    @property
    def c(self) -> int:
        return len(self.hamiltonian_basis)

    @property
    def r(self) -> int:
        return len(self.complement_generators)


def period_matrix(manifold: ProductManifold, action: ActionSpec,
                  form: ProductForm) -> tuple:
    """The period matrix, r_total x b1: row j holds the exact periods of
    i_{X_j} omega over the H_1 coordinate loops.  These are the torus slots
    of the generators' field covectors, since the period of a constant
    1-form over the coordinate loop e_k is its k-th entry."""
    m = manifold.torus_dim
    return tuple(tuple(row[:m]) for row in geom.field_covectors(action, form))


def classify_action(p: tuple) -> ActionClassification:
    """Split the acting torus along the rows of the period matrix p."""
    n = len(p)
    ham, comp = ratlin.lattice_split(p)
    ratlin._hermite(ham, n)
    ratlin._hermite(comp, n)
    cls = ActionClassification(tuple(map(tuple, ham)),
                               tuple(map(tuple, comp)), n)
    if cls.c + cls.r != n:
        raise SplittingIncomplete(
            f"c + r = {cls.c} + {cls.r} does not span r_total = {n}")
    return cls


# ---------------------------------------------------------------------------
# integralization

@dataclass(frozen=True)
class IntegralizationResult:
    omega_prime: ProductForm     # integral invariant form (integer periods)
    k: int                       # integer scale applied to the rational form
    q: tuple                     # rational class coefficients of the
                                 # intermediate form, in the H^2 basis order
    max_deviation: float         # sup-norm coefficient distance to omega
    classification: ActionClassification


def h2_class_labels(manifold: ProductManifold) -> list:
    """Order of the invariant integral H^2 basis: torus coordinate classes
    dx_i ^ dx_j (i < j) then unit-area sphere classes."""
    m = manifold.torus_dim
    labels = [("torus", i, j) for i in range(m) for j in range(i + 1, m)]
    labels += [("sphere", f) for f in range(manifold.n_spheres)]
    return labels


def form_class_coefficients(manifold: ProductManifold,
                            form: ProductForm) -> list:
    """Coefficients of a form in the H^2 basis (these are exactly its
    periods over the canonical 2-cycles)."""
    coeffs = []
    for label in h2_class_labels(manifold):
        if label[0] == "torus":
            coeffs.append(form.torus_omega[label[1]][label[2]])
        else:
            coeffs.append(2 * form.sphere_coeffs[label[1]])
    return coeffs


def form_from_class_coefficients(manifold: ProductManifold,
                                 coeffs) -> ProductForm:
    """Inverse of form_class_coefficients, for exact coefficients."""
    m = manifold.torus_dim
    zero = Fraction(0)
    om = [[zero] * m for _ in range(m)] if m else None
    sph = [zero] * manifold.n_spheres
    for label, q in zip(h2_class_labels(manifold), coeffs):
        if label[0] == "torus":
            om[label[1]][label[2]] = q
            om[label[2]][label[1]] = -q
        else:
            sph[label[1]] = Fraction(q, 2)
    return ProductForm(om, sph)


def integralize_form(manifold: ProductManifold, action: ActionSpec,
                     form: ProductForm,
                     classification: ActionClassification,
                     max_denominator: int) -> IntegralizationResult:
    """Round the form's class coefficients to the best rationals with
    denominator <= max_denominator, check that the rounded form is still
    nondegenerate and splits the action as `classification` (the form's
    own) does, then scale it integral.

    The rounding, the integral scaling and the deviation run in integer
    numerators: each class coefficient n / d rounds to a coprime p / s
    (ratlin.rational_round), k is the lcm of the s, omega_prime's
    coefficients are the integers p k / s, and the deviation, the largest
    |p d - n s| / (s d), is found by cross-multiplication and divided once,
    so it is the correctly rounded float.

    The rounding needs no exactness constraints.  A combination of
    generators is Hamiltonian iff its combined translation vanishes (the
    torus block is nondegenerate), and then its contraction with every
    class has zero loop periods; so no class can break it.  The
    classification re-check stays as the safety net.

    Raises RoundingBrokeNondegeneracy / RoundingBrokeConditionB when the
    denominator bound is too coarse; see integralize_with_retry.
    """
    if not form.is_nondegenerate():
        raise ValueError("input form is degenerate")
    a = form_class_coefficients(manifold, form)
    q = [ratlin.rational_round(x, max_denominator) for x in a]
    candidate = form_from_class_coefficients(manifold, q)
    if not candidate.is_nondegenerate():
        raise RoundingBrokeNondegeneracy(
            f"max_denominator={max_denominator}")
    if classify_action(period_matrix(manifold, action, candidate)) \
            != classification:
        raise RoundingBrokeConditionB(f"max_denominator={max_denominator}")
    k = math.lcm(*[x.denominator for x in q])
    omega_prime = form_from_class_coefficients(
        manifold, [Fraction(x.numerator * (k // x.denominator)) for x in q])
    dev, dev_den = 0, 1
    for x, y in zip(q, a):
        err = abs(x.numerator * y.denominator - y.numerator * x.denominator)
        err_den = x.denominator * y.denominator
        if err * dev_den > dev * err_den:
            dev, dev_den = err, err_den
    return IntegralizationResult(omega_prime, k, tuple(q), dev / dev_den,
                                 classification)


def integralize_with_retry(manifold: ProductManifold, action: ActionSpec,
                           form: ProductForm,
                           classification: ActionClassification,
                           max_denominator: int) -> IntegralizationResult:
    """Retry policy for the open conditions: double the denominator bound
    until 2**16, then give up."""
    bound = max_denominator
    while True:
        try:
            return integralize_form(manifold, action, form, classification,
                                    bound)
        except (RoundingBrokeNondegeneracy, RoundingBrokeConditionB):
            if bound >= 2 ** 16:
                raise
            bound = min(2 * bound, 2 ** 16)
