"""Generalized moment maps: the real-valued Hamiltonian part, the
circle-valued components for the non-Hamiltonian complement, fiber
factorization, and fixed-point local models.

Every component is linear in the flat coordinates, with the constant
covector geom.field_covectors gives for its generator and the integral
form.  Circle components keep their exact integer torus covector alongside
the float evaluator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import geom
from .geom import ActionSpec, ProductForm, ProductManifold
from .hamclass import ActionClassification

CIRCLE_TOL = 1e-9


class NoHamiltonianPart(Exception):
    pass


class GeneratorIsHamiltonian(Exception):
    pass


class NotAFixedPoint(Exception):
    pass


def circle_distance(a, b) -> float:
    """Distance on R/Z: min over integer shifts."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return float(np.max(np.abs(d - np.round(d)))) if d.size else 0.0


@dataclass(frozen=True)
class HamiltonianComponent:
    """One coordinate of mu1: <covector, x>, the covector supported on the
    sphere height slots.  No additive constant: the unit-speed rotation of a
    coefficient-1 sphere gives exactly the height coordinate."""

    generator: tuple          # integer combination of action generators
    covector: tuple           # exact entries, length coord_dim

    def _float_cov(self):
        return np.array([float(x) for x in self.covector])

    def values(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=float) @ self._float_cov()


@dataclass(frozen=True)
class CircleComponent:
    """A circle-valued component: path integral of the contracted form from
    the basepoint along a straight line in the universal cover, seen mod 1."""

    generator: tuple
    covector: tuple           # exact entries; torus slots are integral
    basepoint: tuple
    torus_dim: int

    @property
    def torus_covector(self) -> tuple:
        """The integral torus slots as ints."""
        return tuple(int(x) for x in self.covector[:self.torus_dim])

    def values(self, points: np.ndarray) -> np.ndarray:
        """The real lift along the straight path from the basepoint, mod 1.
        Lifts along other paths differ by <covector, lattice vector>, an
        integer, since the torus slots are integral."""
        pts = np.asarray(points, dtype=float)
        cov = np.array([float(x) for x in self.covector])
        base = np.array(self.basepoint, dtype=float)
        return np.mod(pts @ cov - base @ cov, 1.0)


@dataclass(frozen=True)
class GeneralizedMoment:
    """mu = (mu1, mu2), both computed against the same integral form."""

    manifold: ProductManifold
    action: ActionSpec
    omega_prime: ProductForm
    classification: ActionClassification
    mu1: tuple
    mu2: tuple
    basepoint: tuple

    @property
    def c(self) -> int:
        return len(self.mu1)

    @property
    def r(self) -> int:
        return len(self.mu2)

    def mu1_values(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.empty((pts.shape[0], self.c))
        for i, comp in enumerate(self.mu1):
            out[:, i] = comp.values(pts)
        return out

    def mu2_values(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.empty((pts.shape[0], self.r))
        for i, comp in enumerate(self.mu2):
            out[:, i] = comp.values(pts)
        return out

    def values(self, points: np.ndarray) -> np.ndarray:
        return np.hstack([self.mu1_values(points), self.mu2_values(points)])


def hamiltonian_part(manifold: ProductManifold, action: ActionSpec,
                     omega_prime: ProductForm,
                     classification: ActionClassification) -> tuple:
    """mu1 components, one per Hamiltonian basis vector."""
    if classification.c == 0:
        raise NoHamiltonianPart("the action has no Hamiltonian directions")
    basis = classification.hamiltonian_basis
    covs = geom.field_covectors(action, omega_prime, basis)
    if any(any(cov[:manifold.torus_dim]) for cov in covs):
        raise ValueError("Hamiltonian basis vector has nonzero periods")
    return tuple(HamiltonianComponent(tuple(xi), tuple(cov))
                 for xi, cov in zip(basis, covs))


def circle_component(manifold: ProductManifold, action: ActionSpec,
                     omega_prime: ProductForm, eta) -> CircleComponent:
    """Circle-valued component of a non-Hamiltonian generator (an integer
    combination of the action generators)."""
    [cov] = geom.field_covectors(action, omega_prime, [eta])
    torus = cov[:manifold.torus_dim]
    if not any(torus):
        raise GeneratorIsHamiltonian(
            "all loop periods vanish for this generator")
    if any(x.denominator != 1 for x in torus):
        raise ValueError("form is not integral: non-integer loop periods")
    return CircleComponent(tuple(eta), tuple(cov),
                           tuple(manifold.basepoint()), manifold.torus_dim)


def generalized_moment(manifold: ProductManifold, action: ActionSpec,
                       omega_prime: ProductForm,
                       classification: ActionClassification
                       ) -> GeneralizedMoment:
    mu1 = hamiltonian_part(manifold, action, omega_prime, classification) \
        if classification.c else ()
    mu2 = tuple(circle_component(manifold, action, omega_prime, eta)
                for eta in classification.complement_generators)
    return GeneralizedMoment(manifold, action, omega_prime, classification,
                             mu1, mu2, tuple(manifold.basepoint()))


@dataclass(frozen=True)
class FiberFactorization:
    """Writing the component as (t -> t^d) after a fiber-connected map."""

    d: int
    reduced_covector: tuple


def fiber_connected_factorization(covector) -> FiberFactorization:
    if not any(covector):
        raise ValueError("zero covector has no factorization")
    d = math.gcd(*covector)
    return FiberFactorization(d, tuple(x // d for x in covector))


# ---------------------------------------------------------------------------
# fixed-point local data

@dataclass(frozen=True)
class FixedPointLocalData:
    point: tuple
    weights: tuple        # one integer covector (over generators) per plane
    plane_labels: tuple


def _require_fixed(manifold, action, p):
    if any(any(v) for v in action.translations):
        raise NotAFixedPoint("action translates the torus factor")
    for f in range(manifold.n_spheres):
        if any(r[f] for r in action.rotations):
            h = p[manifold.sphere_offset(f) + 1]
            if abs(abs(h) - 1.0) > 1e-12:
                raise NotAFixedPoint(f"sphere {f} not at a pole")


def _orientation(manifold: ProductManifold, p, f: int) -> int:
    """+1 when p sits at the south pole of sphere f, -1 at the north."""
    return 1 if p[manifold.sphere_offset(f) + 1] < 0 else -1


def local_weights(manifold: ProductManifold, action: ActionSpec,
                  p) -> FixedPointLocalData:
    """Isotropy weights of the linearized action, one covector per
    symplectic plane.  On the plane of sphere f a generator weighs
    orient * (the h entry of its field covector) / c, which is sign * speed
    at the south pole and the opposite at the north pole; torus planes are
    untranslated here and carry weight zero."""
    p = np.asarray(p, dtype=float)
    _require_fixed(manifold, action, p)
    form = manifold.form()
    covs = geom.field_covectors(action, form)
    weights = []
    labels = []
    for f, c in enumerate(form.sphere_coeffs):
        orient = _orientation(manifold, p, f)
        h = manifold.sphere_offset(f) + 1
        weights.append(tuple(orient * cov[h] / c for cov in covs))
        labels.append(f"sphere {f} ({'south' if orient > 0 else 'north'})")
    for k in range(manifold.torus_dim // 2):
        weights.append(tuple(0 for _ in range(action.r_total)))
        labels.append(f"torus plane {k}")
    return FixedPointLocalData(tuple(p), tuple(weights), tuple(labels))


@dataclass(frozen=True)
class LocalModelReport:
    max_residual: Fraction  # exact gap between mu1 and the normal form
    minima: tuple          # per mu1 component: is p a minimum
    weight_sign_ok: bool   # weights >= 0 wherever p minimizes
    circle_covectors_nonzero: bool
    passed: bool


def local_model_check(manifold: ProductManifold, moment: GeneralizedMoment,
                      p) -> LocalModelReport:
    """Compare mu1 with the quadratic normal form at a fixed point, exactly,
    and check the minimum/weight-sign consequence.

    In the plane of sphere f the symplectic radius is rho^2 = 2c |h - pole|
    and mu1 is linear in h, so its rho^2 coefficient orient * cov[h] / (2c)
    must equal alpha / 2, alpha the plane's weight paired with the
    component's generator.  mu1 depends on the heights alone, so p
    minimizes it iff orient * cov[h] >= 0 on every sphere."""
    p = np.asarray(p, dtype=float)
    data = local_weights(manifold, moment.action, p)
    max_res = Fraction(0)
    minima = []
    sign_ok = True
    for comp in moment.mu1:
        alphas = [sum(w * g for w, g in zip(weight, comp.generator))
                  for weight in data.weights]
        is_min = True
        for f, c in enumerate(moment.omega_prime.sphere_coeffs):
            slope = _orientation(manifold, p, f) \
                * comp.covector[manifold.sphere_offset(f) + 1]
            max_res = max(max_res, abs(slope / (2 * c) - alphas[f] / 2))
            is_min = is_min and slope >= 0
        minima.append(is_min)
        if is_min and any(alpha < 0 for alpha in alphas):
            sign_ok = False
    circles_ok = all(any(comp.torus_covector) for comp in moment.mu2)
    passed = max_res == 0 and sign_ok and circles_ok
    return LocalModelReport(max_res, tuple(minima), sign_ok, circles_ok,
                            passed)
