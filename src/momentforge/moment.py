"""Generalized moment maps: the real-valued Hamiltonian part, the
circle-valued components for the non-Hamiltonian complement, fiber
factorization, and fixed-point local models.

Every component is linear in the flat coordinates, so the moment is two
exact covector matrices, each a pair (N, d) in lowest terms: mu1, one row
per Hamiltonian basis vector, and mu2, one row per complement generator,
the classification's basis times the field covectors that the moment
holds.  mu1_values and mu2_values pair those rows with lattice samples,
exactly; the exact stages pair their torus slots with the translations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from . import geom, ratlin
from .geom import ActionSpec, ProductForm
from .hamclass import ActionClassification


class NotAFixedPoint(Exception):
    pass


@dataclass(frozen=True)
class GeneralizedMoment:
    """mu = (mu1, mu2), both computed against the same integral form
    omega_prime, which answers every shape question the stages ask.  mu1
    holds one exact covector per Hamiltonian basis vector, supported on the
    sphere height slots, and mu2 one per complement generator, its torus
    slots integral: B times covectors, the rows sign G W of
    geom.field_covectors, for B the classification's basis in order.  No
    additive constant enters mu1, since the unit-speed rotation of a
    coefficient-1 sphere gives exactly the height coordinate."""

    action: ActionSpec
    omega_prime: ProductForm
    classification: ActionClassification
    mu1: tuple    # (N, d): c exact covectors, length dim
    mu2: tuple    # (N, d): r exact covectors, length dim
    covectors: tuple = field(repr=False, compare=False)

    @property
    def c(self) -> int:
        return len(self.mu1[0])

    @property
    def r(self) -> int:
        return len(self.mu2[0])

    @cached_property
    def torus_covectors(self) -> tuple:
        """The integral torus slots of mu2 as ints."""
        m, (nums, d) = self.omega_prime.torus_dim, self.mu2
        return tuple(tuple(x // d for x in row[:m]) for row in nums)

    @property
    def mu1_den(self) -> int:
        """The denominator of mu1_values: P times mu1's, which is the lcm
        of the reduced denominators in mu1."""
        return self.mu1[1] * geom.LATTICE

    @property
    def mu2_den(self) -> int:
        """The denominator of mu2_values, likewise from mu2."""
        return self.mu2[1] * geom.LATTICE

    def mu1_values(self, nums):
        """mu1 at the lattice points nums / geom.LATTICE, exactly: one row
        of c numerators over mu1_den per point."""
        return self._pairings[0](nums)

    def mu2_values(self, nums):
        """mu2 at the lattice points nums / geom.LATTICE, exactly: one row
        of r numerators over mu2_den per point, each in [0, mu2_den).  It is
        the real lift along the straight path from the basepoint, mod 1;
        lifts along other paths differ by <covector, lattice vector>, an
        integer, since the torus slots are integral.

        The pairing with nums minus the basepoint's is taken mod mu2_den;
        the coefficients enter as their residues of least absolute value,
        so an integral torus covector K enters only as K mod P, and the
        int64 bound of sample.Pairing holds for covectors of any size on up
        to three slots."""
        return self._pairings[1](nums) % self.mu2_den

    @cached_property
    def _pairings(self) -> tuple:
        """The mu1 and mu2 pairings, set up once per moment, so evaluating
        the moment chunk by chunk costs no more set-up than evaluating it
        once.  The first set-up loads the sampling module, and numpy."""
        from .sample import Pairing
        mod = self.mu2_den
        a2 = [[(a + mod // 2) % mod - mod // 2 for a in row]
              for row in self.mu2[0]]
        base = [b * geom.LATTICE for b in self.omega_prime.basepoint()]
        offsets = [-sum(a * b for a, b in zip(row, base)) % mod for row in a2]
        return (Pairing(self.mu1[0], [0] * self.c, self.mu1_den),
                Pairing(a2, offsets, mod))


def generalized_moment(action: ActionSpec, omega_prime: ProductForm,
                       classification: ActionClassification
                       ) -> GeneralizedMoment:
    """The basis times the field covectors of omega_prime, split at c, each
    part in its own lowest terms; omega_prime is the moment's one form,
    and so its one shape.  classification must be that of a form whose
    periods have the left kernel of omega_prime's (its own, or the form it
    integralizes).  Then the Hamiltonian rows B p vanish on the torus
    slots, and the circle rows C p have rank r, so no torus part is zero,
    and it is integral since omega_prime is."""
    covectors = geom.field_covectors(action, omega_prime)
    c, (nums, d) = classification.c, covectors
    rows = ratlin.mat_mul(classification.hamiltonian_basis
                          + classification.complement_generators, nums)
    return GeneralizedMoment(action, omega_prime, classification,
                             ratlin.lowest(rows[:c], d),
                             ratlin.lowest(rows[c:], d), covectors)


def fiber_connected_factorization(covector) -> int:
    """The d that writes the circle component as (t -> t^d) after a
    fiber-connected map: the gcd of the integral torus covector, nonzero
    for every circle component of a moment (its covectors have rank r)."""
    return math.gcd(*covector)


# ---------------------------------------------------------------------------
# fixed-point local data

def _require_fixed(manifold, action, p):
    if any(any(v) for v in action.translations):
        raise NotAFixedPoint("action translates the torus factor")
    for f in range(manifold.n_spheres):
        if any(r[f] for r in action.rotations):
            if abs(p[manifold.sphere_offset(f) + 1]) != 1:
                raise NotAFixedPoint(f"sphere {f} not at a pole")


def _orientation(manifold: ProductForm, p, f: int) -> int:
    """+1 when p sits at the south pole of sphere f, -1 at the north."""
    return 1 if p[manifold.sphere_offset(f) + 1] < 0 else -1


def local_weights(manifold: ProductForm, action: ActionSpec,
                  p) -> tuple:
    """Isotropy weights of the linearized action, one integer covector
    (over generators) per symplectic plane.  On the plane of sphere f a
    generator weighs orient * (the h entry of its field covector, sign *
    speed * c) / c: sign * speed at the south pole and the opposite at the
    north pole; torus planes are untranslated here and carry weight zero."""
    _require_fixed(manifold, action, p)
    weights = []
    for f in range(manifold.n_spheres):
        unit = _orientation(manifold, p, f) * action.sign
        weights.append(tuple(unit * r[f] for r in action.rotations))
    for k in range(manifold.torus_dim // 2):
        weights.append(tuple(0 for _ in range(action.r_total)))
    return tuple(weights)


@dataclass(frozen=True)
class LocalModelReport:
    max_residual: Fraction  # exact gap between mu1 and the normal form
    minima: tuple          # per mu1 component: is p a minimum
    weight_sign_ok: bool   # weights >= 0 wherever p minimizes
    passed: bool


def local_model_check(moment: GeneralizedMoment, p) -> LocalModelReport:
    """Compare mu1 with the quadratic normal form at a fixed point, exactly,
    and check the minimum/weight-sign consequence.

    In the plane of sphere f the symplectic radius is rho^2 = 2c |h - pole|
    and mu1 is linear in h, so its rho^2 coefficient orient * cov[h] / (2c)
    must equal alpha / 2, alpha the plane's weight paired with the
    component's generator.  mu1 depends on the heights alone, so p
    minimizes it iff orient * cov[h] >= 0 on every sphere."""
    (nums, d), form = moment.mu1, moment.omega_prime
    weights = local_weights(form, moment.action, p)
    coeffs = form.sphere_coeffs
    max_res = Fraction(0)
    minima = []
    sign_ok = True
    for xi, cov in zip(moment.classification.hamiltonian_basis, nums):
        alphas = [sum(w * g for w, g in zip(weight, xi))
                  for weight in weights]
        is_min = True
        for f in range(form.n_spheres):
            h = form.sphere_offset(f) + 1
            slope = _orientation(form, p, f) * cov[h]
            # slope is d times mu1's, so it is compared with c d
            cd = Fraction(coeffs[f] * d, form.den)
            max_res = max(max_res,
                          abs(slope / (2 * cd) - Fraction(alphas[f], 2)))
            is_min = is_min and slope >= 0
        minima.append(is_min)
        if is_min and any(alpha < 0 for alpha in alphas):
            sign_ok = False
    return LocalModelReport(max_res, tuple(minima), sign_ok,
                            max_res == 0 and sign_ok)
