"""Acceptance gate: the twelve primary criteria, one test each, each
emitting a single pass/fail line.  Tolerances are stated inline; every
numeric target was either derived independently (flood-fill fiber counting,
exhaustive rounding scans) or taken from the concrete worked values."""

import math
import time
from collections import deque
from fractions import Fraction

import numpy as np
import pytest

from momentforge import (cli, convex, equiv, geom, hamclass, moment,
                         reduction, sample)
from momentforge.geom import ActionSpec, ProductForm, ProductManifold

from conftest import (affine_apply, circle_distance, classify,
                      equivariance_check, field_vector, pairing)

BUNDLED = ["two_torus", "two_torus_sqrt2", "t4_split", "sphere", "s2xs2",
           "s2xt2_reduce", "t2_gcd2"]


def verdict(n, ok, text):
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {n}: {text}"


def scenario(name):
    return cli.load_scenario(cli.bundled_scenario_path(name))


def pipeline(m, a, max_den=64):
    res = hamclass.integralize_with_retry(m, max_den)
    mom = moment.generalized_moment(a, res.omega_prime, classify(m, a))
    z = equiv.cocycle_matrix(mom)
    return res, mom, z


def test_criterion_01_two_torus_fidelity():
    t0 = time.perf_counter()
    sc = scenario("two_torus")
    ok = True
    for sign, flip in ((1, 1.0), (-1, -1.0)):
        a = ActionSpec(sc.action.translations, sc.action.rotations, sign)
        res, mom, z = pipeline(sc.manifold, a)
        nums = sample.sample_points(sc.manifold, 1000, 0)
        pts = nums / geom.LATTICE
        expect = np.mod(flip * np.stack([pts[:, 1], -pts[:, 0]], axis=1),
                        1.0)
        ok &= circle_distance(mom.mu2_values(nums) / mom.mu2_den,
                              expect) < 1e-9
        if sign == 1:
            ok &= z == [[0, 1], [-1, 0]]
        rep = equivariance_check(sc.manifold, a, mom, z, n_samples=1000,
                                 seed=0)
        ok &= rep.max_mu2_error < 1e-9
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    verdict(1, ok, "2-torus circle moment is [q, -p] with the rotation "
                   f"cocycle, equivariant to 1e-9 ({elapsed:.2f}s)")


def test_criterion_02_period_integrality():
    t0 = time.perf_counter()
    ok = True
    for name in BUNDLED:
        sc = scenario(name)
        res, mom, _ = pipeline(sc.manifold, sc.action, sc.max_denominator)
        # the period over the coordinate loop e_k is the k-th torus slot
        for cov in mom.torus_covectors:
            for p in cov:
                ok &= abs(p - round(p)) < 1e-9
        for coeff in hamclass.form_class_coefficients(res.omega_prime):
            ok &= Fraction(coeff).denominator == 1
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    verdict(2, ok, "all bundled loop periods within 1e-9 of integers and "
                   "all H^2 periods exactly integral "
                   f"({elapsed:.2f}s)")


def test_criterion_03_integralization():
    t0 = time.perf_counter()
    sc = scenario("two_torus_sqrt2")
    res = hamclass.integralize_with_retry(sc.manifold, 5)
    ok = (res.omega_prime.torus, res.omega_prime.den) \
        == (((0, 7), (-7, 0)), 1) and res.k == 5
    # 20 randomized irrational instances must keep the classification
    rng = np.random.default_rng(7)
    m = ProductManifold(((0, 1), (-1, 0)), (1.0,))
    a = ActionSpec(((0, 0), (1, 0), (0, 1)), ((1,), (0,), (0,)))
    base = hamclass.classify_action(hamclass.period_matrix(a, m))
    for _ in range(20):
        w = float(rng.uniform(0.5, 3.0)) * math.sqrt(2)
        c = float(rng.uniform(0.2, 2.0)) * math.pi / 3.0
        form = ProductForm(((0, w), (-w, 0)), (c,))
        r2 = hamclass.integralize_with_retry(form, 8)
        got = hamclass.classify_action(
            hamclass.period_matrix(a, r2.omega_prime))
        ok &= got == base and r2.omega_prime.is_nondegenerate()
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    verdict(3, ok, "sqrt(2) form integralizes to 7x standard at bound 5; "
                   "classification preserved on 20 random irrational "
                   f"instances ({elapsed:.2f}s)")


def test_criterion_04_cocycle_structure():
    ok = True
    for name in BUNDLED:
        sc = scenario(name)
        res, mom, z = pipeline(sc.manifold, sc.action, sc.max_denominator)
        r = len(z)
        ok &= all(z[i][i] == 0 for i in range(r))
        ok &= all(z[i][j] == -z[j][i] for i in range(r) for j in range(r))
        gens = mom.classification.complement_generators
        for i in range(r):
            vi = field_vector(sc.manifold, sc.action, gens[i])
            for j in range(r):
                vj = field_vector(sc.manifold, sc.action, gens[j])
                pair = pairing(sc.manifold, res.omega_prime, vi, vj)
                ok &= Fraction(z[i][j]) == Fraction(pair)
    z = [[0, 2], [-2, 0]]
    rng = np.random.default_rng(11)
    for _ in range(100):
        s1, s2, t = rng.random((3, 2))
        once = affine_apply(z, s1 + s2, t)
        twice = affine_apply(z, s2, affine_apply(z, s1, t))
        ok &= circle_distance(once, twice) < 1e-9
    verdict(4, ok, "cocycle has zero diagonal, is the exact form pairing "
                   "(antisymmetric), and the affine action law composes")


def test_criterion_05_fixed_point_chain():
    ok = True
    for name in BUNDLED:
        sc = scenario(name)
        res, mom, z = pipeline(sc.manifold, sc.action, sc.max_denominator)
        fps = geom.fixed_point_set(sc.manifold, sc.action)
        nat = equiv.natural_equivariance(
            mom, z, equiv.isotropic_orbit_test(mom.action, mom.covectors))
        if fps != "empty":
            ok &= nat.orbits_isotropic and nat.z_is_zero
            ok &= nat.max_mu2_invariance_error < 1e-9
    sc = scenario("two_torus")
    neg = equiv.isotropic_orbit_test(
        sc.action, geom.field_covectors(sc.action, sc.manifold))
    ok &= not neg.isotropic
    verdict(5, ok, "fixed points force isotropic orbits, zero cocycle, and "
                   "invariant circle moments; 2-torus control fails "
                   "isotropy")


def test_criterion_06_convexity():
    t0 = time.perf_counter()
    sc = scenario("s2xt2_reduce")
    res, mom, _ = pipeline(sc.manifold, sc.action)
    nums = sample.sample_points(sc.manifold, 100000, 0)
    mu1 = (mom.mu1_values(nums) / mom.mu1_den)[:, 0]
    circ = (mom.mu2_values(nums) / mom.mu2_den)[:, 0]
    ok = mu1.min() <= -0.95 and mu1.max() >= 0.95
    # 50x50 grid over [-1, 1] x S^1, interior height rows only
    hbin = np.clip(((mu1 + 1.0) / 2.0 * 50).astype(int), 0, 49)
    cbin = np.clip((circ * 50).astype(int), 0, 49)
    hit = np.zeros((50, 50), dtype=bool)
    hit[hbin, cbin] = True
    interior = hit[1:49, :]
    fraction = interior.sum() / interior.size
    ok &= fraction >= 0.99
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    verdict(6, ok, "height x circle image covers interior cells at "
                   f"fraction {fraction:.4f} >= 0.99, hull within 0.05 of "
                   f"[-1, 1] ({elapsed:.2f}s)")


def test_criterion_07_betti_bound():
    ok = True
    for name in BUNDLED:
        sc = scenario(name)
        _, mom, _ = pipeline(sc.manifold, sc.action, sc.max_denominator)
        rep = convex.betti_bound_check(mom)
        ok &= rep.rank == rep.r and rep.bound_holds
        if name == "two_torus":
            ok &= rep.equality and rep.r == 2
    verdict(7, ok, "complement period rank equals r and r <= b1 "
                   "everywhere; 2-torus attains r = b1 = 2")


def test_criterion_08_cycle_lift():
    ok = True
    for name in ("t4_split", "two_torus"):
        sc = scenario(name)
        _, mom, _ = pipeline(sc.manifold, sc.action)
        lift = convex.cycle_lift(mom)
        ok &= lift.verified
        ok &= lift.max_frozen_deviation < 1e-9
        ok &= abs(lift.winding) == 1
    verdict(8, ok, "lifted loops freeze the designated coordinates to "
                   "1e-9 and wind exactly once")


def test_criterion_09_reduction_heredity():
    sc = scenario("s2xt2_reduce")
    _, mom, _ = pipeline(sc.manifold, sc.action)
    reduced = reduction.reduce_at(mom, 0, 0.0)
    her = reduction.heredity_check(reduced)
    ok = (reduced.omega_prime.torus_dim == 2
          and reduced.omega_prime.n_spheres == 0)
    ok &= her.residual_non_hamiltonian and her.circle_bins_hit == 50
    # two-stage variant: S^2 x S^2 x T^2 reduced one sphere at a time
    m = ProductManifold(((0, 1), (-1, 0)), (1.0, 1.0))
    a = ActionSpec(((0, 0), (0, 0), (1, 0), (0, 1)),
                   ((1, 0), (0, 1), (0, 0), (0, 0)))
    _, mom2, _ = pipeline(m, a)
    stage1 = reduction.reduce_at(mom2, 0, 0.0)
    ok &= reduction.heredity_check(stage1).passed
    stage2 = reduction.reduce_at(stage1, 0, 0.5)
    ok &= reduction.heredity_check(stage2).passed
    verdict(9, ok, "reduced 2-torus keeps a nonzero residual period and "
                   "covers all 50 circle bins; two-stage variant passes "
                   "stage-wise")


def _flood_fill_components(c1, c2, grid=200, level=0.37):
    thr = 0.6 * (abs(c1) + abs(c2)) / grid
    i = np.arange(grid)
    f = np.mod((c1 * i[:, None] + c2 * i[None, :]) / grid - level, 1.0)
    mask = np.minimum(f, 1.0 - f) < thr
    todo = {(int(a), int(b)) for a, b in zip(*np.nonzero(mask))}
    comps = 0
    while todo:
        comps += 1
        queue = deque([todo.pop()])
        while queue:
            a, b = queue.popleft()
            for da in (-1, 0, 1):
                for db in (-1, 0, 1):
                    nb = ((a + da) % grid, (b + db) % grid)
                    if nb in todo:
                        todo.remove(nb)
                        queue.append(nb)
    return comps


def test_criterion_10_fiber_connectedness():
    t0 = time.perf_counter()
    ok = True
    for c1 in range(-6, 7):
        for c2 in range(-6, 7):
            if c1 == 0 and c2 == 0:
                continue
            d = moment.fiber_connected_factorization((c1, c2))
            found = _flood_fill_components(c1, c2)
            ok &= found == d
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    verdict(10, ok, "gcd component count matches flood-fill fiber counting "
                    f"on a 200^2 grid for all covectors up to 6 "
                    f"({elapsed:.2f}s)")


def test_criterion_11_local_model():
    m = ProductManifold(None, (1.0, 1.0))
    a = ActionSpec(((), ()), ((2, 0), (0, 3)))
    _, mom, _ = pipeline(m, a)
    south = m.basepoint()
    rep = moment.local_model_check(mom, south)
    weights = moment.local_weights(m, a, south)
    ok = rep.max_residual < 1e-4
    ok &= weights == ((2, 0), (0, 3))   # rotation speeds, south signs
    ok &= all(rep.minima) and rep.weight_sign_ok and rep.passed
    north = south.copy()
    north[1] = 1.0
    ok &= moment.local_weights(m, a, north) == ((-2, 0), (0, 3))
    verdict(11, ok, "quadratic fit residual < 1e-4 near poles; weights are "
                    "the signed rotation speeds and nonnegative at the "
                    "minimizing fixed point")


def test_criterion_12_determinism(tmp_path):
    ok = True
    for name in BUNDLED:
        sc = scenario(name)
        d1 = tmp_path / f"{name}_1"
        d2 = tmp_path / f"{name}_2"
        f1 = cli.emit_report(cli.run_scenario(sc), d1)
        f2 = cli.emit_report(cli.run_scenario(sc), d2)
        for a, b in zip(f1, f2):
            ok &= a.read_bytes() == b.read_bytes()
    verdict(12, ok, "repeated runs of every bundled scenario emit "
                    "byte-identical reports")
