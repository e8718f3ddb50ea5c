"""Shared builders for the recurring corpus instances, the exact pairs (N, d)
of the library and their Fraction rows, the field and pairing oracles
written out from the README conventions, elimination over Fractions, the
Fraction oracles of the moment at lattice samples and of the moment
polytope, the orbit matrix G and the dense equivariance products over it,
the float oracles of the moment and the torus action, the exact lattice
oracle of sampled equivariance, the single-pass coverage check, the
determinantal divisors of an integer matrix, and a strategy for decimal
coefficients of the exact-forms shape."""

import itertools
import math
from collections import namedtuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from momentforge import geom, hamclass, moment, ratlin, sample
from momentforge.geom import ActionSpec, ProductManifold

STD2 = ((0, 1), (-1, 0))
STD4 = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))
STD6 = ((0, 1, 0, 0, 0, 0), (-1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0),
        (0, 0, -1, 0, 0, 0), (0, 0, 0, 0, 0, 1), (0, 0, 0, 0, -1, 0))


def pair(rows) -> tuple:
    """Exact rows (ints, Fractions or floats) as the library holds them:
    (N, d), integer rows over one positive denominator, in lowest terms."""
    rows = [[Fraction(x) for x in row] for row in rows]
    d = math.lcm(*[x.denominator for row in rows for x in row])
    nums = [[int(x * d) for x in row] for row in rows]
    g = math.gcd(d, *itertools.chain.from_iterable(nums))
    return [[x // g for x in row] for row in nums], d // g


def fractions(p) -> list:
    """The rows of the pair p = (N, d) as Fractions."""
    nums, d = p
    return [[Fraction(x, d) for x in row] for row in nums]


def torus_omega(form) -> list:
    """The torus block of a form, as Fraction rows."""
    return fractions((form.torus, form.den))


def sphere_coeffs(form) -> tuple:
    """The dtheta ^ dh coefficient of each sphere of a form, as Fractions."""
    return tuple(Fraction(c, form.den) for c in form.sphere_coeffs)


def dense(form) -> tuple:
    """The form matrix W, which the library never builds, as integer rows
    over form.den: the torus block, then [[0, c], [-c, 0]] per sphere,
    zero elsewhere."""
    m, n = form.torus_dim, form.dim
    w = [list(row) + [0] * (n - m) for row in form.torus]
    w += [[0] * n for _ in range(n - m)]
    for o, c in zip(range(m, n, 2), form.sphere_coeffs):
        w[o][o + 1], w[o + 1][o] = c, -c
    return tuple(map(tuple, w))


def orbit_matrix(action) -> list:
    """G, which the library never builds, r_total x dim: per generator its
    orbit direction in flat coordinates, the translation and then
    (speed, 0) per sphere.  It does not depend on the sign."""
    return [list(v) + [x for speed in s for x in (speed, 0)]
            for v, s in zip(action.translations, action.rotations)]


def _times_transposed(a, b) -> list:
    """a b^T, one entry per (row of a, row of b)."""
    return [[sum(x * y for x, y in zip(u, w)) for w in b] for u in a]


DenseEquivariance = namedtuple(
    "DenseEquivariance", "cocycle pairings max_mu2_error "
    "max_mu1_invariance_error max_mu2_invariance_error")


def dense_equivariance(mom) -> DenseEquivariance:
    """equiv's exact products over every slot of G, in Fractions: the
    cocycle mu2 (H G)^T, the isotropy pairings P = covectors (sign G)^T,
    the certificate residuals |mu2 (H G)^T - sign H P H^T| and
    |mu1 (H G)^T|, and the invariance error |mu2 G^T|, each residual its
    largest entry."""
    sign, g = mom.action.sign, orbit_matrix(mom.action)
    h = mom.classification.complement_generators
    hg = _times_transposed(h, list(zip(*g)))
    z = _times_transposed(fractions(mom.mu2), hg)
    p = _times_transposed(fractions(mom.covectors),
                          [[sign * x for x in row] for row in g])
    hph = _times_transposed(_times_transposed(h, list(zip(*p))), h)

    def top(m):
        return max((abs(x) for row in m for x in row), default=Fraction(0))

    return DenseEquivariance(
        z, p, top([[x - sign * y for x, y in zip(u, w)]
                   for u, w in zip(z, hph)]),
        top(_times_transposed(fractions(mom.mu1), hg)),
        top(_times_transposed(fractions(mom.mu2), g)))


def fraction_rref(a, cols):
    """Reduce the Fraction rows a in place, one normalised Fraction per
    step; return the pivot columns."""
    pivots = []
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return pivots


def fraction_rank(m):
    return len(fraction_rref([[Fraction(x) for x in row] for row in m],
                             len(m[0]) if m else 0))


def fraction_determinant(m):
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [a[i][j] - f * a[c][j] for j in range(n)]
    return det


def classify(m, a, form=None):
    """The classification integralization starts from: that of the form
    itself (the manifold's own form by default)."""
    return hamclass.classify_action(
        hamclass.period_matrix(a, form or m))


def covectors(a, form, coeffs=None):
    """geom.field_covectors as Fraction rows: one per generator, or one per
    integer combination of generators in coeffs."""
    nums, d = geom.field_covectors(a, form)
    return fractions((ratlin.mat_mul(ratlin.identity(a.r_total)
                                     if coeffs is None else coeffs, nums), d))


def field_vector(m, a, coeffs):
    """The fundamental field of sum_j coeffs_j X_j in flat coordinates:
    sign times the combined translation on the torus coordinates and sign
    times the combined speed on each sphere's theta slot (h does not
    move)."""
    x = [0] * m.dim
    for g, v, s in zip(coeffs, a.translations, a.rotations):
        for i, vi in enumerate(v):
            x[i] += a.sign * g * vi
        for f, sf in enumerate(s):
            x[m.sphere_offset(f)] += a.sign * g * sf
    return x


def pairing(m, form, u, w):
    """omega(u, w) = u^T Omega w on the torus block plus
    c (u_theta w_h - u_h w_theta) on each sphere."""
    k, omega = m.torus_dim, torus_omega(form)
    total = sum(u[i] * omega[i][j] * w[j]
                for i in range(k) for j in range(k))
    for f, c in enumerate(sphere_coeffs(form)):
        o = m.sphere_offset(f)
        total += c * (u[o] * w[o + 1] - u[o + 1] * w[o])
    return total


def scenario_moment(sc):
    """The generalized moment of a loaded scenario, built as the CLI
    builds it."""
    res = hamclass.integralize_with_retry(sc.manifold,
                                          sc.max_denominator)
    return moment.generalized_moment(sc.action, res.omega_prime,
                                     classify(sc.manifold, sc.action))


def lattice_oracle(mom, nums):
    """mu at the points nums / P in Fractions, one (mu1, mu2) pair of
    tuples per row: covector . x, and for mu2 covector . (x - basepoint)
    reduced mod 1."""
    p = geom.LATTICE
    base = [Fraction(int(b)) for b in mom.omega_prime.basepoint()]
    out = []
    for row in nums.tolist():
        x = [Fraction(n, p) for n in row]
        mu1 = tuple(sum(a * xi for a, xi in zip(cov, x))
                    for cov in fractions(mom.mu1))
        mu2 = tuple(sum(a * (xi - b) for a, xi, b in zip(cov, x, base)) % 1
                    for cov in fractions(mom.mu2))
        out.append((mu1, mu2))
    return out


def circle_distance(a, b) -> float:
    """Distance on R/Z: min over integer shifts."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return float(np.max(np.abs(d - np.round(d)))) if d.size else 0.0


def _floats(row) -> np.ndarray:
    return np.array([float(x) for x in row])


def float_mu1(mom, points) -> np.ndarray:
    """mu1 at float points, one column per Hamiltonian covector."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty((pts.shape[0], mom.c))
    for i, row in enumerate(fractions(mom.mu1)):
        out[:, i] = pts @ _floats(row)
    return out


def float_mu2(mom, points) -> np.ndarray:
    """The real lift along the straight path from the basepoint, mod 1.
    Lifts along other paths differ by <covector, lattice vector>, an
    integer, since the torus slots are integral."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    base = mom.omega_prime.basepoint()
    out = np.empty((pts.shape[0], mom.r))
    for i, row in enumerate(fractions(mom.mu2)):
        cov = _floats(row)
        out[:, i] = np.mod(pts @ cov - base @ cov, 1.0)
    return out


def wrap(manifold, x) -> np.ndarray:
    """Reduce torus and theta coordinates mod 1."""
    x = np.array(x, dtype=float)
    m = manifold.torus_dim
    x[..., :m] = np.mod(x[..., :m], 1.0)
    for f in range(manifold.n_spheres):
        o = manifold.sphere_offset(f)
        x[..., o] = np.mod(x[..., o], 1.0)
    return x


def apply_torus_element(manifold, action, params, points) -> np.ndarray:
    """Act with the group element exp(sum_j params_j * eta_j): translate the
    torus coordinates and rotate each sphere along the orbit matrix G, which
    does not depend on the sign.

    params has shape (r_total,), one element acting on every point, or
    (n, r_total), row i acting on point i."""
    params = np.asarray(params, dtype=float)
    out = np.array(points, dtype=float)
    m = manifold.torus_dim
    for j, (v, s) in enumerate(zip(action.translations, action.rotations)):
        t = params[..., j]
        for i in range(m):
            out[..., i] += t * v[i]
        for f in range(manifold.n_spheres):
            out[..., manifold.sphere_offset(f)] += t * s[f]
    return wrap(manifold, out)


def affine_apply(z, s, t) -> np.ndarray:
    """The affine self-action of the r-torus defined by Z, in additive form:
    output_i = t_i + sum_j Z[i][j] s_j mod 1."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    r = len(z)
    if s.shape[-1] != r or t.shape[-1] != r:
        raise ValueError("dimension mismatch")
    zmat = np.array(z, dtype=float) if r else np.zeros((0, 0))
    return np.mod(t + s @ zmat.T, 1.0)


SampledEquivariance = namedtuple(
    "SampledEquivariance", "max_mu2_error max_mu1_invariance_error passed")


def equivariance_check(manifold, action, moment, z, n_samples=1000,
                       seed=0) -> SampledEquivariance:
    """Sample lattice group elements t = S / P of the non-Hamiltonian
    subtorus and lattice points x; compare mu2(t.x) with the affine action
    applied to mu2(x), and check that mu1 is invariant under the subtorus.
    The move is integer arithmetic mod P on the numerators and every value
    is exact, so a large covector aliases nothing: the errors are exact
    Fractions, and the check passes when both are 0."""
    gens = moment.classification.complement_generators
    p = geom.LATTICE
    rng = np.random.default_rng(seed)
    nums = sample.sample_points(manifold, n_samples, seed + 1)
    s = rng.integers(0, p, (n_samples, len(gens))).astype(object)
    params = s @ np.array(gens, dtype=object).reshape(len(gens),
                                                      action.r_total)
    moved = nums.astype(object)
    orbit = np.array(orbit_matrix(action), dtype=object)
    slots = list(range(manifold.torus_dim)) + [
        manifold.sphere_offset(f) for f in range(manifold.n_spheres)]
    moved[:, slots] = (moved[:, slots] + params @ orbit[:, slots]) % p
    moved = moved.astype(np.int64)
    max_mu2 = max_mu1 = Fraction(0)
    if gens:
        den = moment.mu2_den
        shift = s @ np.array(z, dtype=object).T * (den // p)
        gap = (moment.mu2_values(moved).astype(object)
               - moment.mu2_values(nums) - shift) % den
        max_mu2 = Fraction(int(np.minimum(gap, den - gap).max()), den)
    if moment.c:
        gap = (moment.mu1_values(moved).astype(object)
               - moment.mu1_values(nums))
        max_mu1 = Fraction(int(abs(gap).max()), moment.mu1_den)
    return SampledEquivariance(max_mu2, max_mu1, max_mu2 == max_mu1 == 0)


def full_draw_coverage(mom, polytope, res, n, seed):
    """sample.product_coverage_check in one pass over the whole n-row draw,
    as it ran before the early exit: every sample is binned, and the
    counted mask is tested on all res^c cell centres at once."""
    nums = sample.sample_points(mom.omega_prime, n, seed)
    mu1_num, mu2_num = mom.mu1_values(nums), mom.mu2_values(nums)
    mu1_den, mu2_den = mom.mu1_den, mom.mu2_den
    c, r = mom.c, mom.r
    shape = (res,) * (c + r) if c + r else (1,)
    counted = np.ones(shape, dtype=bool)
    flat = np.zeros(n, dtype=np.int64)
    if c:
        [xs], e = ratlin.lowest([[max(abs(v[i]) for v in polytope.vertices)
                                  for i in range(c)]], polytope.den)
        spans = [2 * x or e for x in xs]
        for col, x, s in zip(mu1_num.T, xs, spans):
            num = col.astype(sample.exact_dtype(s * mu1_den * res)) * e \
                + x * mu1_den
            flat = flat * res + np.clip(num * res // (s * mu1_den), 0,
                                        res - 1).astype(np.int64)
        dtype = sample.exact_dtype(2 * res * e * max(spans))
        centres = np.indices((res,) * c, dtype).reshape(c, -1).T * 2 + 1
        centres *= np.array(spans, dtype)
        centres -= np.array(xs, dtype) * 2 * res
        counted &= polytope.contains(centres, 2 * res * e, spans).reshape(
            (res,) * c + (1,) * r)
    dtype = sample.exact_dtype(mu2_den * res)
    for col in mu2_num.T:
        flat = flat * res + (col.astype(dtype) * res // mu2_den).astype(
            np.int64)
    hit = np.zeros(shape, dtype=bool)
    hit.ravel()[flat] = True
    n_counted = int(counted.sum())
    n_hit = int((hit & counted).sum())
    empty = np.flatnonzero(counted & ~hit)[:16]
    fraction = n_hit / n_counted if n_counted else 1.0
    return sample.CoverageReport(res, fraction, n_counted, n_hit,
                                 tuple(int(e) for e in empty))


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def fraction_moment_polytope(mom):
    """convex.moment_polytope computed in Fraction arithmetic on w itself:
    the greedy independent rows, the cofactor normals, the offsets and the
    tight-normal rank test of every pole image."""
    form = mom.omega_prime
    c = mom.c
    w = [[cov[form.sphere_offset(f) + 1]
          for f in range(form.n_spheres)] for cov in fractions(mom.mu1)]
    rows = []
    for i in range(c):
        if fraction_rank([w[j] for j in rows + [i]]) > len(rows):
            rows.append(i)
    k = len(rows)
    gens = [g for g in zip(*w) if any(g)]

    facets = set()
    for subset in itertools.combinations(gens, k - 1) if k else ():
        cof = [(-1) ** j * fraction_determinant(
            [[g[i] for i in rows if i != row] for g in subset])
            for j, row in enumerate(rows)]
        if any(cof):
            d = math.lcm(*[x.denominator for x in cof])
            g = math.gcd(*[int(x * d) for x in cof])
            cof = [int(x * d) // g for x in cof]
            sign = -1 if next(x for x in cof if x) < 0 else 1
            full = dict(zip(rows, cof))
            facets.add(tuple(sign * full.get(i, 0) for i in range(c)))
    normals = sorted(facets)
    offsets = [sum(abs(_dot(nv, g)) for g in gens) for nv in normals]
    vertices = set()
    for sigma in itertools.product((-1, 1), repeat=len(gens)):
        v = tuple(_dot(sigma, [g[i] for g in gens]) for i in range(c))
        tight = [nv for nv, b in zip(normals, offsets)
                 if abs(_dot(nv, v)) == b]
        if fraction_rank(tight) == k:
            vertices.add(v)
    if k < c:
        pinned = ratlin.lattice_split(pair(w)[0])[0]
        normals += [tuple(e) for e in pinned]
        offsets += [0] * len(pinned)
    return (tuple(sorted(vertices)), tuple(normals), tuple(offsets))


def determinantal_divisor(m, k):
    """D_k(m), the gcd of all k x k minors of the integer matrix m, with
    D_0 = 1 (and D_k = 0 past the rank).  The Smith invariants are
    D_k / D_{k-1} while D_k is nonzero."""
    if k == 0:
        return 1
    cols = len(m[0]) if m else 0
    return math.gcd(*(int(ratlin.determinant([[m[i][j] for j in cs]
                                              for i in rs]))
                      for rs in itertools.combinations(range(len(m)), k)
                      for cs in itertools.combinations(range(cols), k)))


def torus2(omega=STD2):
    return ProductManifold(omega)


def torus4():
    return ProductManifold(STD4)


def sphere(c=0.5):
    return ProductManifold(None, (c,))


def s2xs2(c1=0.5, c2=0.5):
    return ProductManifold(None, (c1, c2))


def s2xt2(c=1, omega=STD2):
    return ProductManifold(omega, (c,))


@pytest.fixture
def t2_translations():
    """Standard T^2 with both coordinate translations."""
    return torus2(), ActionSpec(((1, 0), (0, 1)), ((), ()))


@pytest.fixture
def s2xs2_rotations():
    """Unit-area S^2 x S^2 with one rotation per factor."""
    return s2xs2(), ActionSpec(((), ()), ((1, 0), (0, 1)))


@pytest.fixture
def s2xt2_mixed():
    """S^2 x T^2 with a Hamiltonian rotation and two translations."""
    return s2xt2(), ActionSpec(((0, 0), (1, 0), (0, 1)),
                               ((1,), (0,), (0,)))


@st.composite
def exact_decimals(draw):
    """Class coefficients as the exact-forms workload writes them and the
    parser reads them: decimals of 15-17 significant digits, magnitude in
    [0.05, 2], either sign."""
    sig = draw(st.integers(min_value=15, max_value=17))
    exp, lo, hi = draw(st.sampled_from(((sig + 1, 5, 10), (sig, 1, 10),
                                        (sig - 1, 1, 2))))
    digits = draw(st.integers(min_value=lo * 10 ** (sig - 1),
                              max_value=hi * 10 ** (sig - 1) - 1))
    return draw(st.sampled_from((1, -1))) * Fraction(digits, 10 ** exp)
