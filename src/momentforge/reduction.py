"""Structural Marsden-Weinstein reduction at regular interior values.

Reducing a circle that rotates a single sphere deletes that sphere factor:
the level set of its height coordinate is the rotation orbit times the rest,
and the quotient by the free circle is again a member of the universe.  This
keeps every downstream check exact and sidesteps orbifold quotients, which
are deliberately out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import hamclass, moment as moment_mod
from .geom import ActionSpec, ProductForm
from .moment import GeneralizedMoment


class NotRegular(Exception):
    pass


class NotFree(Exception):
    pass


# the circle bins heredity_check reports hit when the circle part is onto
CIRCLE_BINS = 50


def reduce_at(moment: GeneralizedMoment, generator: int,
              level) -> GeneralizedMoment:
    """Delete the one sphere the generator rotates and restrict everything
    else.  The level is regular iff that sphere's height is interior (the
    poles are the critical values), and the height is the level divided by
    the height entry of the generator's field covector, exactly.  Returns
    the reduced moment; its form is omega_prime less sphere f, symplectic
    with no check, as omega_prime's torus block is nonsingular and its
    sphere coefficients are positive, and on a point quotient it is the
    empty form, of dimension 0.  The parent moment descends with no
    check: the collapsed orbit lies on the sphere's theta slot, where no
    field covector has an entry, so every parent component is constant on
    it.  Raises ValueError for a generator that translates the torus,
    NotRegular at a critical or outside level, and NotFree where the
    circle does not act freely on the level set."""
    form, action = moment.omega_prime, moment.action
    if any(action.translations[generator]):
        raise ValueError("the reduced circle must act only on sphere factors")
    rotated = [f for f, s in enumerate(action.rotations[generator]) if s]
    if len(rotated) != 1:
        raise NotFree("structural reduction needs a generator rotating "
                      "exactly one sphere")
    f = rotated[0]
    nums, d = moment.covectors
    h = Fraction(level) * d / nums[generator][form.sphere_offset(f) + 1]
    if not -1 < h < 1:
        raise NotRegular(f"sphere {f} at height {h}")
    s = action.rotations[generator][f]
    if abs(s) != 1:
        raise NotFree(f"speed {s} circle has Z/{abs(s)} stabilizers "
                      "on the level set")
    residual = [j for j in range(action.r_total) if j != generator]
    if any(action.rotations[j][f] for j in residual):
        raise NotFree("a residual generator moves the reduced sphere")
    keep = [g for g in range(form.n_spheres) if g != f]
    reduced = ProductForm(form.torus, [form.sphere_coeffs[g] for g in keep],
                          form.den)
    new_action = ActionSpec(
        tuple(action.translations[j] for j in residual),
        tuple(tuple(action.rotations[j][g] for g in keep) for j in residual),
        action.sign)
    cls = hamclass.classify_action(hamclass.period_matrix(new_action,
                                                          reduced))
    return moment_mod.generalized_moment(new_action, reduced, cls)


@dataclass(frozen=True)
class HeredityVerdict:
    applicable: bool
    residual_non_hamiltonian: bool
    circle_bins_hit: int
    passed: bool


def heredity_check(moment: GeneralizedMoment) -> HeredityVerdict:
    """The residual circle action on the reduced space, given by its
    moment, must stay non-Hamiltonian and its circle-valued moment must
    still be surjective.  Both hold iff every residual circle covector has
    a nonzero integer torus part: that is a nonzero period row, and
    x -> <a, x> mod 1 with a nonzero integer a is onto the circle, so
    every one of the CIRCLE_BINS bins is hit.  With no circle part left
    (r = 0, as on a point quotient) the check does not apply."""
    if moment.r == 0:
        return HeredityVerdict(False, False, 0, False)
    onto = all(any(cov) for cov in moment.torus_covectors)
    return HeredityVerdict(True, onto, CIRCLE_BINS if onto else 0, onto)
