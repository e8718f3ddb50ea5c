"""Image structure of the generalized moment: the exact moment polytope of
the Hamiltonian part, product coverage of the full image, the exact
no-extremum predicate, the first-Betti-number bound, and explicit cycle
lifting."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import geom, ratlin
from .geom import ActionSpec, ProductForm, ProductManifold
from .hamclass import ActionClassification
from .moment import CIRCLE_TOL, GeneralizedMoment


class PreconditionViolated(Exception):
    pass


class NoIntegerDirection(Exception):
    pass


# ---------------------------------------------------------------------------
# the exact image of mu1

@dataclass(frozen=True)
class MomentPolytope:
    """Image of mu1: exact vertices plus symmetric facet inequalities
    |<n, p>| <= b, one pair per facet normal n.  Directions that the image
    does not span enter with b = 0."""

    dim: int
    vertices: tuple   # exact points, sorted
    normals: tuple    # exact integer normals
    offsets: tuple    # exact b per normal

    def contains(self, points, tol: float = 1e-9) -> np.ndarray:
        """Facet test over an (N, c) array (or one point); a point counts
        as inside within Euclidean distance tol of every facet."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        n = np.array(self.normals, dtype=float).reshape(len(self.normals),
                                                         self.dim)
        b = np.array(self.offsets, dtype=float)
        slack = b + tol * np.linalg.norm(n, axis=1)
        return np.all(np.abs(p @ n.T) <= slack, axis=1)


def moment_polytope(moment: GeneralizedMoment) -> MomentPolytope:
    """The exact image of mu1.  By Atiyah and Guillemin-Sternberg it is the
    hull of mu1 at the fixed points, the pole images w @ sigma with sigma in
    {-1, 1}^n, where w (c x n) holds the coefficients of the sphere heights;
    that hull is the zonotope sum_f [-w_f, w_f].

    With k = rank w, every (k-1)-subset of generators that spans a
    hyperplane of k independent coordinates gives a facet normal (its
    cofactor vector); the left kernel of w pins the remaining directions.
    A pole image is a vertex when its tight normals have rank k."""
    manifold = moment.manifold
    c = moment.c
    w = [[comp.covector[manifold.sphere_offset(f) + 1]
          for f in range(manifold.n_spheres)] for comp in moment.mu1]
    rows: list = []
    for i in range(c):
        if ratlin.integer_rank([w[j] for j in rows + [i]]) > len(rows):
            rows.append(i)
    k = len(rows)
    gens = [g for g in zip(*w) if any(g)]

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    facets = set()
    for subset in itertools.combinations(gens, k - 1) if k else ():
        cof = [(-1) ** j * ratlin.determinant(
            [[g[i] for i in rows if i != row] for g in subset])
            for j, row in enumerate(rows)]
        if any(cof):
            cof = ratlin.clear_denominators(cof)
            sign = -1 if next(x for x in cof if x) < 0 else 1
            full = dict(zip(rows, cof))
            facets.add(tuple(sign * full.get(i, 0) for i in range(c)))
    normals = sorted(facets)
    offsets = [sum(abs(dot(nv, g)) for g in gens) for nv in normals]
    vertices = set()
    for sigma in itertools.product((-1, 1), repeat=len(gens)):
        v = tuple(dot(sigma, [g[i] for g in gens]) for i in range(c))
        tight = [nv for nv, b in zip(normals, offsets) if abs(dot(nv, v)) == b]
        if ratlin.integer_rank(tight) == k:
            vertices.add(v)
    if k < c:
        pinned = ratlin.rat_kernel_basis(gens) if gens else ratlin.identity(c)
        normals += [tuple(ratlin.clear_denominators(e)) for e in pinned]
        offsets += [0] * len(pinned)
    return MomentPolytope(c, tuple(sorted(vertices)), tuple(normals),
                          tuple(offsets))


# ---------------------------------------------------------------------------
# coverage

@dataclass(frozen=True)
class CoverageReport:
    grid_resolution: int
    fraction: float
    n_counted_cells: int
    n_hit_cells: int
    empty_cells: tuple   # first few witnesses, as flat cell indices


def product_coverage_check(manifold: ProductManifold,
                           moment: GeneralizedMoment,
                           grid_resolution: int, n: int,
                           seed: int) -> CoverageReport:
    """Bin image samples over (cells of the box around the mu1 polytope) x
    (circle bins) and report the hit fraction.  Only mu1 cells whose every
    corner lies in the polytope count in the denominator."""
    pts = geom.sample_points(manifold, n, seed)
    mu1, mu2 = moment.mu1_values(pts), moment.mu2_values(pts)
    c, r = moment.c, moment.r
    res = grid_resolution
    shape = (res,) * (c + r) if c + r else (1,)
    counted = np.ones(shape, dtype=bool)
    if c:
        polytope = moment_polytope(moment)
        half = np.abs(np.array(polytope.vertices, dtype=float)).max(axis=0)
        lo = -half
        span = np.where(half > 0, 2 * half, 1.0)
        mu1_idx = np.clip(((mu1 - lo) / span * res).astype(int), 0, res - 1)
        # corner lattice of the mu1 cells; a cell counts when all 2^c of
        # its corners lie in the polytope
        axes = [lo[i] + np.arange(res + 1) / res * span[i] for i in range(c)]
        lattice = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        inside = polytope.contains(lattice.reshape(-1, c), tol=1e-12)
        inside = inside.reshape((res + 1,) * c)
        interior = np.ones((res,) * c, dtype=bool)
        for corner in np.ndindex(*([2] * c)):
            interior &= inside[tuple(slice(b, b + res) for b in corner)]
        counted &= interior.reshape((res,) * c + (1,) * r)
    else:
        mu1_idx = np.zeros((n, 0), dtype=int)
    mu2_idx = np.clip((mu2 * res).astype(int), 0, res - 1)
    idx = np.hstack([mu1_idx, mu2_idx])
    hit = np.zeros(shape, dtype=bool)
    flat = np.ravel_multi_index(tuple(idx.T), shape) if c + r else \
        np.zeros(n, dtype=int)
    hit.ravel()[flat] = True
    n_counted = int(counted.sum())
    n_hit = int((hit & counted).sum())
    empty = np.flatnonzero(counted & ~hit)[:16]
    fraction = n_hit / n_counted if n_counted else 1.0
    return CoverageReport(res, fraction, n_counted, n_hit,
                          tuple(int(e) for e in empty))


@dataclass(frozen=True)
class ExtremumReport:
    covectors_nonzero: tuple
    passed: bool


def circle_extremum_check(moment: GeneralizedMoment) -> ExtremumReport:
    """Exact no-local-extremum test for the circle components.  A component
    is x -> <a, x> mod 1 on the torus coordinates (plus sphere terms); a
    nonzero integer covector a makes it a submersion onto the circle, so it
    has no local extremum; a zero covector fails the check."""
    if moment.r < 1:
        raise ValueError("no circle components to check")
    nonzero = tuple(any(comp.torus_covector) for comp in moment.mu2)
    return ExtremumReport(nonzero, all(nonzero))


# ---------------------------------------------------------------------------
# Betti bound

@dataclass(frozen=True)
class BettiReport:
    rank: int
    r: int
    b1: int
    bound_holds: bool
    equality: bool


def betti_bound_check(manifold: ProductManifold, action: ActionSpec,
                      form: ProductForm,
                      classification: ActionClassification) -> BettiReport:
    """Rank of the period matrix restricted to the complement generators
    must equal r (totally non-Hamiltonian restriction) and r <= b1."""
    rows = [cov[:manifold.torus_dim] for cov in geom.field_covectors(
        action, form, classification.complement_generators)]
    rank = ratlin.integer_rank(rows) if rows else 0
    if rank < classification.r:
        raise PreconditionViolated(
            "some combination of complement generators is Hamiltonian")
    b1 = manifold.b1
    return BettiReport(rank, classification.r, b1,
                       classification.r <= b1, classification.r == b1)


# ---------------------------------------------------------------------------
# cycle lifting

@dataclass(frozen=True)
class CycleLift:
    direction: tuple        # integer torus direction of the loop
    winding: int            # exact winding of the last circle component
    base_point: tuple
    max_frozen_deviation: float
    verified: bool


def cycle_lift(manifold: ProductManifold, moment: GeneralizedMoment,
               mu1_target=(), circle_targets=()) -> CycleLift:
    """Build a loop whose image freezes mu1 and the first r-1 circle
    coordinates at the target while winding the last circle a minimal
    (gcd-limited) number of times."""
    r = moment.r
    if r < 1:
        raise ValueError("need at least one circle component")
    m = manifold.torus_dim
    covs = [comp.torus_covector for comp in moment.mu2]
    first, last = covs[:-1], covs[-1]

    if first:
        kernel = ratlin.rat_kernel_basis([list(cv) for cv in first])
        rows = [ratlin.clear_denominators(v) for v in kernel]
        lattice, _ = ratlin.saturate_and_complement(rows, m)
    else:
        lattice = ratlin.identity(m)
    pairs = [sum(last[k] * w[k] for k in range(m)) for w in lattice]
    if not any(pairs):
        raise NoIntegerDirection(
            "last covector vanishes on the admissible lattice")
    # integer combination achieving the gcd of the pairings
    g, combo = 0, [0] * len(pairs)
    for i, v in enumerate(pairs):
        if v == 0:
            continue
        if g == 0:
            g, combo = v, [0] * len(pairs)
            combo[i] = 1
        else:
            gg = math.gcd(g, v)
            # solve a*g + b*v = +-gg
            a, b = _bezout(g, v)
            combo = [a * x for x in combo]
            combo[i] += b
            g = a * g + b * v
    u = [sum(combo[i] * lattice[i][k] for i in range(len(lattice)))
         for k in range(m)]
    k_wind = sum(last[k] * u[k] for k in range(m))

    x0 = _preimage_point(manifold, moment, mu1_target, circle_targets)
    ts = np.linspace(0.0, 1.0, 101)
    path = np.tile(x0, (ts.size, 1))
    for kk in range(m):
        path[:, kk] += ts * u[kk]
    dev = 0.0
    if moment.c:
        mu1v = moment.mu1_values(path)
        dev = max(dev, float(np.max(np.abs(mu1v - mu1v[0]))))
    if r > 1:
        mu2v = moment.mu2_values(path)[:, :-1]
        d = mu2v - mu2v[0]
        dev = max(dev, float(np.max(np.abs(d - np.round(d)))))
    raw = moment.mu2[-1].raw(path)
    measured = raw[-1] - raw[0]
    verified = dev < CIRCLE_TOL and abs(measured - k_wind) < CIRCLE_TOL
    return CycleLift(tuple(u), k_wind, tuple(x0), dev, verified)


def _bezout(a: int, b: int) -> tuple:
    old_r, rr = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while rr:
        q = old_r // rr
        old_r, rr = rr, old_r - q * rr
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_s, old_t


def _preimage_point(manifold, moment, mu1_target, circle_targets):
    """Deterministic preimage of (mu1_target, circle_targets) for the first
    r-1 circle coordinates, by solving the linear component equations."""
    x0 = np.array(manifold.basepoint(), dtype=float)
    m = manifold.torus_dim
    if moment.c:
        if len(mu1_target) != moment.c:
            raise ValueError("mu1 target length mismatch")
        # heights enter mu1 linearly; solve on the h slots
        hslots = [manifold.sphere_offset(f) + 1
                  for f in range(manifold.n_spheres)]
        a = np.array([[float(comp.covector[s]) for s in hslots]
                      for comp in moment.mu1])
        base_vals = moment.mu1_values(x0)[0]
        rhs = np.asarray(mu1_target, dtype=float) - base_vals
        sol, *_ = np.linalg.lstsq(a, rhs, rcond=None)
        if not np.allclose(a @ sol, rhs, atol=1e-9):
            raise ValueError("mu1 target not attainable")
        for s, dh in zip(hslots, sol):
            x0[s] += dh
            if not -1.0 <= x0[s] <= 1.0:
                raise ValueError("mu1 target outside the image")
    if len(circle_targets) != moment.r - 1:
        raise ValueError("circle target length mismatch")
    if circle_targets:
        a = np.array([[float(c) for c in comp.torus_covector]
                      for comp in moment.mu2[:-1]])
        current = moment.mu2_values(x0)[0][:-1]
        rhs = np.asarray(circle_targets, dtype=float) - current
        rhs -= np.round(rhs)
        sol, *_ = np.linalg.lstsq(a, rhs, rcond=None)
        err = a @ sol - rhs
        err -= np.round(err)
        if not np.allclose(err, 0.0, atol=1e-9):
            raise ValueError("circle target not attainable")
        x0[:m] += sol
    return manifold.wrap(x0)
