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
from .geom import ActionSpec, ProductManifold
from .moment import GeneralizedMoment


class NotRegular(Exception):
    pass


class NotFree(Exception):
    pass


@dataclass(frozen=True)
class ReducedSpace:
    """The quotient by a circle that rotates one sphere, at an interior
    height of that sphere; its form is moment.omega_prime.  A point
    quotient has manifold and moment None.  The parent moment
    descends with no check: the collapsed orbit lies on the sphere's theta
    slot, where no field covector has an entry, so every parent component
    is constant on it."""

    manifold: ProductManifold | None
    moment: GeneralizedMoment | None

    @property
    def dim(self) -> int:
        return self.manifold.dim if self.manifold is not None else 0


def reduce_at(moment: GeneralizedMoment, generator: int,
              level) -> ReducedSpace:
    """Delete the one sphere the generator rotates and restrict everything
    else.  The level is regular iff that sphere's height is interior (the
    poles are the critical values), and the height is the level divided by
    the height entry of the generator's field covector, exactly.  Raises
    ValueError for a generator that translates the torus, NotRegular at a
    critical or outside level, and NotFree where the circle does not act
    freely on the level set."""
    manifold, action = moment.manifold, moment.action
    if any(action.translations[generator]):
        raise ValueError("the reduced circle must act only on sphere factors")
    rotated = [f for f, s in enumerate(action.rotations[generator]) if s]
    if len(rotated) != 1:
        raise NotFree("structural reduction needs a generator rotating "
                      "exactly one sphere")
    f = rotated[0]
    nums, d = moment.covectors
    h = Fraction(level) * d / nums[generator][manifold.sphere_offset(f) + 1]
    if not -1 < h < 1:
        raise NotRegular(f"sphere {f} at height {h}")
    s = action.rotations[generator][f]
    if abs(s) != 1:
        raise NotFree(f"speed {s} circle has Z/{abs(s)} stabilizers "
                      "on the level set")
    residual = [j for j in range(action.r_total) if j != generator]
    if any(action.rotations[j][f] for j in residual):
        raise NotFree("a residual generator moves the reduced sphere")
    keep = [g for g in range(manifold.n_spheres) if g != f]
    if not manifold.torus_dim and not keep:
        # the level set is one free orbit, and no residual generator is
        # left to act on the point it collapses to
        return ReducedSpace(None, None)

    # the reduced form is omega_prime with sphere f dropped from nums / den
    m, w = manifold.torus_dim, moment.omega_prime.nums
    new_manifold = ProductManifold(
        [row[:m] for row in w[:m]],
        [w[m + 2 * g][m + 2 * g + 1] for g in keep], moment.omega_prime.den)
    new_action = ActionSpec(
        tuple(action.translations[j] for j in residual),
        tuple(tuple(action.rotations[j][g] for g in keep) for j in residual),
        action.sign)
    new_form = new_manifold.form
    cls = hamclass.classify_action(hamclass.period_matrix(new_action,
                                                          new_form))
    return ReducedSpace(new_manifold, moment_mod.generalized_moment(
        new_manifold, new_action, new_form, cls))


@dataclass(frozen=True)
class HeredityVerdict:
    applicable: bool
    residual_non_hamiltonian: bool
    circle_bins_hit: int
    passed: bool


def heredity_check(reduced: ReducedSpace,
                   circle_bins: int = 50) -> HeredityVerdict:
    """The residual circle action on the reduced space must stay
    non-Hamiltonian and its circle-valued moment must still be surjective.
    Both hold iff every residual circle covector has a nonzero integer
    torus part: that is a nonzero period row, and x -> <a, x> mod 1 with a
    nonzero integer a is onto the circle, so every one of the circle_bins
    bins is hit.  With no circle part left (r = 0, or a point quotient)
    the check does not apply."""
    mom = reduced.moment
    if mom is None or mom.r == 0:
        return HeredityVerdict(False, False, 0, False)
    onto = all(any(cov) for cov in mom.torus_covectors)
    return HeredityVerdict(True, onto, circle_bins if onto else 0, onto)
