"""Image structure of the generalized moment: the exact moment polytope of
the Hamiltonian part, the first-Betti-number bound, and explicit cycle
lifting.  The sampled coverage of the full image is
sample.product_coverage_check."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import ratlin
from .moment import GeneralizedMoment

# moment_polytope visits 2^len(pole_generators(moment)) pole images
MAX_POLES = 2 ** 16


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


# ---------------------------------------------------------------------------
# the exact image of mu1

@dataclass(frozen=True)
class MomentPolytope:
    """Image of mu1: exact vertices plus symmetric facet inequalities
    |<n, p>| <= b, one pair per facet normal n.  Directions that the image
    does not span enter with b = 0."""

    dim: int
    vertices: tuple   # integer rows over den, sorted
    normals: tuple    # integer normals
    offsets: tuple    # integer b per normal, over den
    den: int

    def contains(self, nums, den: int, half=0):
        """Exact box test over an (N, c) array of integer numerators over
        den: true where the box centred at a row, with half-widths
        half / den (one int, or one per axis), lies in the polytope, that
        is where |<n, centre>| + <|n|, half> <= b for every facet n.  A
        point is a box with half = 0; float numerators raise TypeError."""
        from . import sample
        half = [half] * self.dim if isinstance(half, int) else half
        return sample.within(self.normals, [
            b * den // self.den - _dot(map(abs, nv), half)
            for nv, b in zip(self.normals, self.offsets)], nums)


def pole_generators(moment: GeneralizedMoment) -> list:
    """The nonzero columns of w, one per sphere whose height enters mu1."""
    form, (nums, _) = moment.omega_prime, moment.mu1
    return [g for g in ([cov[form.sphere_offset(f) + 1] for cov in nums]
                        for f in range(form.n_spheres)) if any(g)]


def moment_polytope(moment: GeneralizedMoment) -> MomentPolytope:
    """The exact image of mu1.  By Atiyah and Guillemin-Sternberg it is the
    hull of mu1 at the fixed points, the pole images w @ sigma with sigma in
    {-1, 1}^n, where w (c x n) holds the coefficients of the sphere heights;
    that hull is the zonotope sum_f [-w_f, w_f].

    With k = rank w, every (k-1)-subset of generators that spans a
    hyperplane of k independent coordinates gives a facet normal (its
    cofactor vector); the left kernel of w pins the remaining directions.
    A pole image is a vertex when its tight normals have rank k.  All of
    it runs on the integer numerators of w over mu1's denominator d, which
    the vertices and offsets keep."""
    c, d = moment.c, moment.mu1[1]
    gens = pole_generators(moment)
    # pivot columns: the greedy independent rows of w
    rows = ratlin._eliminate([list(g) for g in gens])[0]
    k = len(rows)

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
    offsets = [sum(abs(_dot(nv, g)) for g in gens) for nv in normals]
    coords = [[g[i] for g in gens] for i in range(c)]
    vertices = set()
    for sigma in itertools.product((-1, 1), repeat=len(gens)):
        v = tuple(_dot(sigma, row) for row in coords)
        tight = [nv for nv, b in zip(normals, offsets)
                 if abs(_dot(nv, v)) == b]
        if len(tight) >= k and ratlin.integer_rank(tight) == k:
            vertices.add(v)
    # the left kernel of w, which is coords', pins the unspanned directions
    pinned = ratlin.lattice_split(coords)[0]
    normals += [tuple(e) for e in pinned]
    offsets += [0] * len(pinned)
    return MomentPolytope(c, tuple(sorted(vertices)), tuple(normals),
                          tuple(offsets), d)


# ---------------------------------------------------------------------------
# Betti bound

@dataclass(frozen=True)
class BettiReport:
    rank: int
    r: int
    b1: int
    bound_holds: bool
    equality: bool


def betti_bound_check(moment: GeneralizedMoment) -> BettiReport:
    """Rank of the period matrix restricted to the complement generators,
    the torus slots of mu2: r, as the complement completes the period
    matrix's left kernel to a basis, so r <= b1, the column count."""
    r = moment.classification.r
    rank = ratlin.integer_rank(moment.torus_covectors)
    b1 = moment.omega_prime.b1
    return BettiReport(rank, r, b1, r <= b1, r == b1)


# ---------------------------------------------------------------------------
# cycle lifting

@dataclass(frozen=True)
class CycleLift:
    direction: tuple        # integer torus direction of the loop
    winding: int            # exact winding of the last circle component
    max_frozen_deviation: Fraction  # largest exact |<frozen covector, u>|
    verified: bool


def cycle_lift(moment: GeneralizedMoment) -> CycleLift:
    """An integer torus direction u whose loop x + t u freezes mu1 and the
    first r-1 circle coordinates while winding the last circle a minimal
    (gcd-limited) number of times.  Every component is linear, so along the
    loop a component moves by <covector, u> t from any base point: the
    frozen deviation is the largest such pairing, exactly, and the winding
    is <last, u>, nonzero since the covectors have rank r.  mu1 has no
    torus slots and u is admissible, so the deviation is 0.

    The admissible lattice {u in Z^m : <first_i, u> = 0} is the integer
    left kernel of the first covectors as columns; the moment needs a
    circle part (r >= 1)."""
    m = moment.omega_prime.torus_dim
    covs = list(moment.torus_covectors)
    first, last = covs[:-1], covs[-1]
    lattice, _ = ratlin.lattice_split(
        [[cov[k] for cov in first] for k in range(m)])
    u, winding = [0] * m, 0
    for w in lattice:
        # extend u so that <last, u> is the gcd of the pairings so far
        a, b = _bezout(winding, _dot(last, w))
        u = [a * x + b * y for x, y in zip(u, w)]
        winding = _dot(last, u)
    # the frozen pairings, over mu1's denominator d
    nums, d = moment.mu1
    deviation = max([abs(_dot(cov, u)) * d for cov in first]
                    + [abs(_dot(cov[:m], u)) for cov in nums], default=0)
    return CycleLift(tuple(u), winding, Fraction(deviation, d),
                     deviation == 0)


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
