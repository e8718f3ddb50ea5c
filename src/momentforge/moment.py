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

    def _float_cov(self):
        return np.array([float(x) for x in self.covector])

    def raw(self, points: np.ndarray, lattice_offset=None) -> np.ndarray:
        """Real-valued lift along the straight path to points (+ an integer
        lattice offset selecting the homotopy class)."""
        pts = np.asarray(points, dtype=float)
        if lattice_offset is not None:
            pts = pts.copy()
            off = np.asarray(lattice_offset, dtype=float)
            pts[..., :off.shape[-1]] += off
        cov = self._float_cov()
        base = np.array(self.basepoint, dtype=float)
        return pts @ cov - base @ cov

    def values(self, points: np.ndarray) -> np.ndarray:
        return np.mod(self.raw(points), 1.0)


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
class PathIndependenceReport:
    value_a: float
    value_b: float
    difference: float
    difference_is_integer: bool
    equal_mod_one: bool


def path_independence_check(component: CircleComponent, x,
                            offset_a, offset_b) -> PathIndependenceReport:
    """Compare the raw integrals along two lifts of x differing by lattice
    offsets; the gap must be an integer, so the circle values agree."""
    va = float(component.raw(np.asarray(x, dtype=float), offset_a))
    vb = float(component.raw(np.asarray(x, dtype=float), offset_b))
    diff = va - vb
    return PathIndependenceReport(
        va, vb, diff,
        abs(diff - round(diff)) < CIRCLE_TOL,
        circle_distance(va, vb) < CIRCLE_TOL)


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


def local_weights(manifold: ProductManifold, action: ActionSpec,
                  p) -> FixedPointLocalData:
    """Isotropy weights of the linearized action, one covector per
    symplectic plane.  A sphere rotated at speed s carries weight
    sign * s at the south pole and the opposite at the north pole; torus
    planes are untranslated here and carry weight zero."""
    p = np.asarray(p, dtype=float)
    _require_fixed(manifold, action, p)
    eps = action.sign
    weights = []
    labels = []
    for f in range(manifold.n_spheres):
        pole = p[manifold.sphere_offset(f) + 1]
        orient = 1 if pole < 0 else -1
        weights.append(tuple(eps * orient * r[f] for r in action.rotations))
        labels.append(f"sphere {f} ({'south' if pole < 0 else 'north'})")
    for k in range(manifold.torus_dim // 2):
        weights.append(tuple(0 for _ in range(action.r_total)))
        labels.append(f"torus plane {k}")
    return FixedPointLocalData(tuple(p), tuple(weights), tuple(labels))


@dataclass(frozen=True)
class LocalModelReport:
    max_residual: float
    minima: tuple          # per mu1 component: is p a sampled minimum
    weight_sign_ok: bool   # weights >= 0 wherever p minimizes
    circle_covectors_nonzero: bool
    passed: bool


def local_model_check(manifold: ProductManifold, moment: GeneralizedMoment,
                      p, radius: float = 0.1, n_ring: int = 48,
                      seed: int = 0) -> LocalModelReport:
    """Fit the quadratic normal form of mu1 around a fixed point and check
    the minimum/weight-sign consequence."""
    p = np.asarray(p, dtype=float)
    action = moment.action
    _require_fixed(manifold, action, p)
    data = local_weights(manifold, action, p)
    mu1_at_p = moment.mu1_values(p)[0]

    max_res = 0.0
    for f in range(manifold.n_spheres):
        c = float(moment.omega_prime.sphere_coeffs[f])
        o = manifold.sphere_offset(f)
        pole = p[o + 1]
        orient = 1.0 if pole < 0 else -1.0
        for i in range(n_ring):
            rho = radius * (i + 1) / n_ring
            ang = 2 * math.pi * i / n_ring
            xx, yy = rho * math.cos(ang), rho * math.sin(ang)
            pt = p.copy()
            pt[o + 1] = pole + orient * (xx * xx + yy * yy) / (2 * c)
            pt[o] = ang / (2 * math.pi)
            vals = moment.mu1_values(pt)[0]
            for ci, comp in enumerate(moment.mu1):
                alpha = sum(w * g for w, g in
                            zip(data.weights[f], comp.generator))
                model = mu1_at_p[ci] + 0.5 * alpha * (xx * xx + yy * yy)
                max_res = max(max_res, abs(vals[ci] - model))

    samples = geom.sample_points(manifold, 500, seed)
    sampled_mu1 = moment.mu1_values(samples)
    minima = []
    sign_ok = True
    for ci, comp in enumerate(moment.mu1):
        is_min = bool(np.min(sampled_mu1[:, ci]) >= mu1_at_p[ci] - 1e-9)
        minima.append(is_min)
        if is_min:
            for w in data.weights:
                if sum(wi * g for wi, g in zip(w, comp.generator)) < 0:
                    sign_ok = False
    circles_ok = all(any(comp.covector[k] != 0
                         for k in range(manifold.torus_dim))
                     for comp in moment.mu2)
    passed = max_res < 1e-4 and sign_ok and circles_ok
    return LocalModelReport(max_res, tuple(minima), sign_ok, circles_ok,
                            passed)
