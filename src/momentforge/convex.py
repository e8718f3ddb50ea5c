"""Image structure of the generalized moment: convex hulls of the
Hamiltonian part, product coverage of the full image, the exact
no-extremum predicate, the first-Betti-number bound, and explicit cycle
lifting."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geom, ratlin
from .geom import ActionSpec, ProductForm, ProductManifold
from .hamclass import ActionClassification, PeriodMatrix, period_matrix
from .moment import CIRCLE_TOL, GeneralizedMoment


class PreconditionViolated(Exception):
    pass


class NoIntegerDirection(Exception):
    pass


# ---------------------------------------------------------------------------
# hulls

@dataclass(frozen=True)
class MomentPolytope:
    """Convex image of mu1 in dimension c <= 3, as a vertex list plus a
    tolerant membership predicate."""

    dim: int
    vertices: tuple
    _equations: tuple = ()   # 3d case: (normal..., offset) per facet

    def contains(self, point, tol: float = 1e-9) -> bool:
        p = np.atleast_1d(np.asarray(point, dtype=float))
        if self.dim == 0:
            return True
        if self.dim == 1:
            lo, hi = self.vertices[0][0], self.vertices[-1][0]
            return lo - tol <= p[0] <= hi + tol
        if self.dim == 2:
            v = self.vertices
            if len(v) == 1:
                return bool(np.allclose(p, v[0], atol=tol))
            if len(v) == 2:
                a, b = np.array(v[0]), np.array(v[1])
                d = b - a
                t = np.dot(p - a, d) / np.dot(d, d)
                return bool(np.linalg.norm(a + np.clip(t, 0, 1) * d - p)
                            <= tol)
            for i in range(len(v)):
                a = np.array(v[i])
                b = np.array(v[(i + 1) % len(v)])
                cross = (b[0] - a[0]) * (p[1] - a[1]) \
                    - (b[1] - a[1]) * (p[0] - a[0])
                if cross < -tol:
                    return False
            return True
        for eq in self._equations:
            if np.dot(eq[:-1], p) + eq[-1] > tol:
                return False
        return True


def _monotone_chain(points: np.ndarray) -> list:
    pts = sorted(set(map(tuple, points.tolist())))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def convex_hull(points) -> MomentPolytope:
    """Hull of mu1 samples: a point for c = 0, an interval for c = 1,
    monotone chain for c = 2, and scipy's incremental hull for c = 3."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1) if pts.size else pts.reshape(0, 0)
    c = pts.shape[1] if pts.size else 0
    if c == 0:
        return MomentPolytope(0, ((),))
    if c == 1:
        return MomentPolytope(1, ((float(pts.min()),),
                                  (float(pts.max()),)))
    if c == 2:
        if len({tuple(p) for p in pts.tolist()}) == 1:
            return MomentPolytope(2, (tuple(pts[0]),))
        hull = _monotone_chain(pts)
        return MomentPolytope(2, tuple(tuple(p) for p in hull))
    if c == 3:
        from scipy.spatial import ConvexHull
        hull = ConvexHull(pts)
        verts = tuple(tuple(pts[i]) for i in sorted(hull.vertices))
        eqs = tuple(tuple(eq) for eq in hull.equations)
        return MomentPolytope(3, verts, eqs)
    raise ValueError("hulls supported only up to dimension 3")


# ---------------------------------------------------------------------------
# sampling and coverage

@dataclass(frozen=True)
class ImageSamples:
    points: np.ndarray
    mu1: np.ndarray
    mu2: np.ndarray


def moment_image_sample(manifold: ProductManifold, moment: GeneralizedMoment,
                        n: int, seed: int) -> ImageSamples:
    pts = geom.sample_points(manifold, n, seed)
    return ImageSamples(pts, moment.mu1_values(pts), moment.mu2_values(pts))


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
    """Bin image samples over (interior cells of the hull of mu1) x (circle
    bins) and report the hit fraction.  Cells meeting the hull boundary are
    excluded from the denominator."""
    samples = moment_image_sample(manifold, moment, n, seed)
    c, r = moment.c, moment.r
    res = grid_resolution
    hull = convex_hull(samples.mu1) if c else None
    if c:
        lo = samples.mu1.min(axis=0)
        hi = samples.mu1.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)
        mu1_idx = np.clip(((samples.mu1 - lo) / span * res).astype(int),
                          0, res - 1)
    else:
        mu1_idx = np.zeros((n, 0), dtype=int)
    mu2_idx = np.clip((samples.mu2 * res).astype(int), 0, res - 1)
    idx = np.hstack([mu1_idx, mu2_idx])
    shape = (res,) * (c + r) if c + r else (1,)
    hit = np.zeros(shape, dtype=bool)
    flat = np.ravel_multi_index(tuple(idx.T), shape) if c + r else \
        np.zeros(n, dtype=int)
    hit.ravel()[flat] = True

    # interior mask over the mu1 axes
    if c:
        interior = np.ones((res,) * c, dtype=bool)
        for cell in np.ndindex(*([res] * c)):
            corners_in = True
            for corner in np.ndindex(*([2] * c)):
                pt = lo + (np.array(cell) + np.array(corner)) / res * span
                if not hull.contains(pt, tol=1e-12):
                    corners_in = False
                    break
            interior[cell] = corners_in
        counted = interior.reshape((res,) * c + (1,) * r)
        counted = np.broadcast_to(counted, shape)
    else:
        counted = np.ones(shape, dtype=bool)
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
    p = period_matrix(manifold, action, form)
    exact = p.exact()
    rows = []
    for g in classification.complement_generators:
        rows.append([sum(gi * exact[j][k] for j, gi in enumerate(g))
                     for k in range(p.cols)])
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


def cycle_lift(manifold: ProductManifold, action: ActionSpec,
               moment: GeneralizedMoment, mu1_target=(),
               circle_targets=()) -> CycleLift:
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
    return CycleLift(tuple(u), int(k_wind), tuple(x0), dev, verified)


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
