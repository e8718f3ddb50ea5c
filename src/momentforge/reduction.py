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

from . import geom, hamclass, moment as moment_mod, ratlin
from .geom import ActionSpec, ProductForm, ProductManifold
from .moment import GeneralizedMoment


class NotRegular(Exception):
    pass


class NotFree(Exception):
    pass


class NotInvariantOnOrbits(Exception):
    pass


class DegenerateReducedForm(Exception):
    """Deleting the reduced sphere factors left a degenerate form."""


@dataclass(frozen=True)
class ReductionProblem:
    """Reduce the moment's manifold by the subtorus spanned by the given
    generator indices (which must act only on sphere factors) at the given
    mu1 levels, one per reduced generator."""

    moment: GeneralizedMoment
    reduce_indices: tuple
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "reduce_indices",
                           tuple(int(i) for i in self.reduce_indices))
        object.__setattr__(self, "values", tuple(map(Fraction, self.values)))
        if len(self.reduce_indices) != len(self.values):
            raise ValueError("one level value per reduced generator")
        for i in self.reduce_indices:
            if any(self.moment.action.translations[i]):
                raise ValueError(
                    "reduced subtorus must act only on sphere factors")


@dataclass(frozen=True)
class RegularValueVerdict:
    regular: bool
    in_image: bool
    witnesses: tuple   # per reduced generator: (sphere index, height)


def regular_value_check(problem: ReductionProblem) -> RegularValueVerdict:
    """A level is regular iff every reduced sphere height is interior; the
    poles are exactly the critical values (the differential of the height
    vanishes there).  The height inverts the mu1 coordinate of the reduced
    generator on its sphere, exactly: the level divided by the height
    entry of its field covector.  Structural reduction supports a
    generator that rotates exactly one sphere."""
    mom = problem.moment
    nums, d = mom.covectors
    witnesses = []
    regular = True
    in_image = True
    for idx, val in zip(problem.reduce_indices, problem.values):
        rotated = [f for f, s in enumerate(mom.action.rotations[idx]) if s]
        if len(rotated) != 1:
            raise NotFree("structural reduction needs a generator rotating "
                          "exactly one sphere")
        f = rotated[0]
        h = val * d / nums[idx][mom.manifold.sphere_offset(f) + 1]
        witnesses.append((f, h))
        if not -1 <= h <= 1:
            in_image = False
            regular = False
        elif abs(h) == 1:
            regular = False
    return RegularValueVerdict(regular, in_image, tuple(witnesses))


@dataclass(frozen=True)
class ReducedSpace:
    """The quotient and what it inherits; its form is moment.omega_prime.
    When every factor is reduced the quotient is a point: manifold,
    action and moment are None."""

    manifold: ProductManifold | None
    action: ActionSpec | None
    moment: GeneralizedMoment | None
    reduced_spheres: tuple
    level_heights: tuple
    parent: ReductionProblem

    @property
    def dim(self) -> int:
        return self.manifold.dim if self.manifold is not None else 0


def reduce_at(problem: ReductionProblem) -> ReducedSpace:
    """Delete each reduced sphere factor and restrict everything else.
    Raises NotRegular at a critical or outside level, and NotFree where
    the reduced circle does not act freely on the level set."""
    verdict = regular_value_check(problem)
    if not verdict.regular:
        raise NotRegular(f"witnesses: {verdict.witnesses}")
    mom = problem.moment
    manifold, action = mom.manifold, mom.action
    reduced_spheres = []
    for idx, (f, _) in zip(problem.reduce_indices, verdict.witnesses):
        s = action.rotations[idx][f]
        if abs(s) != 1:
            raise NotFree(f"speed {s} circle has Z/{abs(s)} stabilizers "
                          "on the level set")
        if f in reduced_spheres:
            raise NotFree("two reduced generators rotate the same sphere")
        reduced_spheres.append(f)
    if not reduced_spheres:
        return ReducedSpace(manifold, action, mom, (), (), problem)
    keep = [f for f in range(manifold.n_spheres)
            if f not in reduced_spheres]
    residual_idx = [j for j in range(action.r_total)
                    if j not in problem.reduce_indices]
    for j in residual_idx:
        if any(action.rotations[j][f] for f in reduced_spheres):
            raise NotFree("a residual generator moves a reduced sphere")
    heights = tuple(h for _, h in verdict.witnesses)
    if not manifold.torus_dim and not keep:
        # the level set is one free orbit, and no residual generator is
        # left to act on the point it collapses to
        return ReducedSpace(None, None, None, tuple(reduced_spheres),
                            heights, problem)

    new_manifold = _keep_spheres(mom.omega_prime, keep)
    new_action = ActionSpec(
        tuple(action.translations[j] for j in residual_idx),
        tuple(tuple(action.rotations[j][f] for f in keep)
              for j in residual_idx),
        action.sign)
    new_form = new_manifold.form
    covectors = geom.field_covectors(new_action, new_form)
    cls = hamclass.classify_action(
        [row[:new_manifold.torus_dim] for row in covectors[0]])
    new_moment = moment_mod.generalized_moment(new_manifold, new_action,
                                               new_form, cls, covectors)
    return ReducedSpace(new_manifold, new_action, new_moment,
                        tuple(reduced_spheres), heights, problem)


def _keep_spheres(form: ProductForm, keep: list) -> ProductManifold:
    """The manifold whose form is form with every sphere but those in keep
    dropped from nums / den: the reduced manifold and the reduced form."""
    m, w = form.torus_dim, form.nums
    try:
        return ProductManifold([row[:m] for row in w[:m]],
                               [Fraction(w[m + 2 * f][m + 2 * f + 1],
                                         form.den) for f in keep], form.den)
    except ValueError as exc:
        raise DegenerateReducedForm(f"reduced form: {exc}") from exc


def induced_moment(reduced: ReducedSpace) -> GeneralizedMoment:
    """The reduced moment, checked to be well defined: the parent moment
    must be constant on the collapsed orbits of the level set.  A
    component moves along the orbit of generator j by <covector, G_j>, so
    every parent covector must pair to zero with the reduced generators'
    rows of the orbit matrix G."""
    problem = reduced.parent
    parent = problem.moment
    g = parent.action.orbit_matrix()
    orbits = [g[idx] for idx in problem.reduce_indices]
    covs = parent.mu1 + parent.mu2
    if any(x for row in ratlin.mat_mul(orbits, ratlin.transpose(covs))
           for x in row):
        raise NotInvariantOnOrbits(
            "a parent moment component varies along a collapsed orbit")
    return reduced.moment


@dataclass(frozen=True)
class HeredityVerdict:
    applicable: bool
    residual_non_hamiltonian: bool
    circle_bins_hit: int
    circle_bins: int
    surjective: bool
    passed: bool
    note: str = ""


def heredity_check(reduced: ReducedSpace,
                   circle_bins: int = 50) -> HeredityVerdict:
    """The residual circle action on the reduced space must stay
    non-Hamiltonian and its circle-valued moment must still be surjective.
    Both hold iff every residual circle covector has a nonzero integer
    torus part: that is a nonzero period row, and x -> <a, x> mod 1 with a
    nonzero integer a is onto the circle, so every one of the circle_bins
    bins is hit."""
    mom = reduced.moment
    if mom is None or mom.r == 0:
        return HeredityVerdict(False, False, 0, circle_bins, False, False,
                               "vacuous: residual action is Hamiltonian")
    onto = all(any(cov) for cov in mom.torus_covectors)
    return HeredityVerdict(True, onto, circle_bins if onto else 0,
                           circle_bins, onto, onto)
