"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import math
import random
import time

from elastica import elliptic
from elastica.elliptic import (
    ellint_E,
    ellint_F_inc,
    ellint_K,
    jacobi,
    jacobi_add,
    jacobi_derivs_k,
    jacobi_recip_modulus,
)
from elastica.expmap import elastic_energy_closed, exp_map
from elastica.maxwell import (
    MaxwellStratum,
    f2,
    find_k0,
    find_kstar,
    g1_n2,
    in_maxwell,
    p1_roots,
    p_g1,
    u_a1,
    h1,
)
from elastica.oracle import attainable, bvp_shoot, integrate_extremal
from elastica.phase import Covector, wrap_angle
from elastica.expmap import State
from elastica.symmetry import reflect_covector, reflect_state

from conftest import CRITERION_8, n1, n2

K_RECT = 1.0 / math.sqrt(2.0)


def verdict(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def gap(a, b):
    return max(abs(a.x - b.x), abs(a.y - b.y), abs(wrap_angle(a.theta - b.theta)))


def test_criterion_1_constants():
    find_k0.cache_clear()
    find_kstar.cache_clear()
    elliptic._agm_scale.cache_clear()
    t0 = time.perf_counter()
    k0 = float(find_k0())
    kstar, ustar = find_kstar()
    elapsed = time.perf_counter() - t0
    kstar = float(kstar)
    res_k0 = abs(2.0 * ellint_E(k0) - ellint_K(k0))
    res_kstar = abs(h1(math.pi - u_a1(kstar), kstar))
    ok = (
        abs(k0 - 0.909) < 1e-3
        and abs(kstar - 0.841) < 1e-3
        and abs(ustar - 1.954) < 1e-3
        and res_k0 < 1e-12
        and res_kstar < 1e-12
        and elapsed < 1.0
    )
    verdict(
        1,
        ok,
        f"k0={k0:.6f} k*={kstar:.6f} u*={ustar:.6f} "
        f"residuals=({res_k0:.2e}, {res_kstar:.2e}) in {elapsed:.3f}s",
    )


def test_criterion_2_closed_form_identities():
    K = ellint_K(K_RECT)
    E = ellint_E(K_RECT)
    lemniscatic = math.gamma(0.25) ** 2 / (4.0 * math.sqrt(math.pi))
    d1 = abs(K - lemniscatic)
    d2 = abs(2.0 * E - K - math.pi / (2.0 * K))
    ok = d1 < 1e-12 and d2 < 1e-12
    verdict(2, ok, f"|K - Gamma(1/4)^2/(4 sqrt(pi))|={d1:.2e}, |2E-K-pi/(2K)|={d2:.2e}")


def test_criterion_3_oracle_equivalence(fixture25):
    t0 = time.perf_counter()
    worst = 0.0
    for lam in fixture25:
        for t in (0.5, 1.0, 2.0, 5.0):
            numeric, _, _ = integrate_extremal(lam, t)
            worst = max(worst, gap(exp_map(lam, t), numeric))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-7 and elapsed < 30.0
    verdict(3, ok, f"max |closed - RK4| = {worst:.3e} over 25 x 4 cases in {elapsed:.1f}s")


def test_criterion_4_symmetry_commutation():
    rng = random.Random(42)
    worst_q = worst_j = 0.0
    for _ in range(100):
        lam = Covector(
            rng.uniform(-math.pi, math.pi),
            rng.uniform(-4.0, 4.0),
            rng.uniform(0.0, 6.0),
        )
        t = rng.uniform(0.1, 4.0)
        i = rng.choice((1, 2, 3))
        li = reflect_covector(i, lam, t)
        worst_q = max(worst_q, gap(reflect_state(i, exp_map(lam, t)), exp_map(li, t)))
        worst_j = max(
            worst_j,
            abs(elastic_energy_closed(lam, t) - elastic_energy_closed(li, t)),
        )
    ok = worst_q < 1e-8 and worst_j < 1e-9
    verdict(4, ok, f"endpoint gap {worst_q:.3e}, energy gap {worst_j:.3e} over 100 draws")


def _maxwell_members():
    """Ten members of each nonempty Maxwell cell, with the realizing reflection."""
    k0 = float(find_k0())
    kstar = float(find_kstar()[0])
    cells = []

    ks = [0.15 + 0.085 * j for j in range(10)]
    rs = [0.5 + 0.15 * j for j in range(10)]

    members = []
    for k, r in zip(ks, rs):
        sr = math.sqrt(r)
        members.append((n1(k, (0.3 + 0.02 * k) / sr, r), 4.0 * ellint_K(k) / sr, 1))
    cells.append(("N1 x MAX1", MaxwellStratum.MAX1, members))

    members = []
    for k, r in zip(ks, rs):
        sr = math.sqrt(r)
        members.append((n1(k, 0.37 / sr, r), 2.0 * p1_roots(k, 1) / sr, 2))
    cells.append(("N1 x MAX2", MaxwellStratum.MAX2, members))

    members = []
    for k, r in zip(ks, rs):
        sr = math.sqrt(r)
        members.append((n1(k, 0.0, r), 4.0 * ellint_K(k) / sr, 3))
    cells.append(("N1 x MAX3+", MaxwellStratum.MAX3_PLUS, members))

    members = []
    for j in range(10):
        k = kstar + (0.99 - kstar) * (j + 0.5) / 10.0
        r = rs[j]
        sr = math.sqrt(r)
        pg = p_g1(k)
        sn2 = jacobi(pg, k).sn ** 2
        rhs = (2.0 * k * k * sn2 - 1.0) / (k * k * sn2)
        tau = ellint_F_inc(math.asin(math.sqrt(rhs)), k)
        u0 = (tau - pg) % (4.0 * ellint_K(k))
        members.append((n1(k, u0 / sr, r), 2.0 * pg / sr, 3))
    cells.append(("N1 x MAX3-", MaxwellStratum.MAX3_MINUS, members))

    members = []
    for k, r in zip(ks, rs):
        sr = math.sqrt(r)
        members.append((n2(k, 0.31 / sr, r), 2.0 * k * ellint_K(k) / sr, 1))
    cells.append(("N2 x MAX1", MaxwellStratum.MAX1, members))

    members = []
    for k, r in zip(ks, rs):
        sr = math.sqrt(r)
        members.append((n2(k, 0.0, r), 2.0 * k * ellint_K(k) / sr, 3))
    cells.append(("N2 x MAX3+", MaxwellStratum.MAX3_PLUS, members))

    members = []
    for j in range(10):
        c = (-1.0) ** j * (0.5 + 0.35 * j)
        members.append((Covector(0.2 * j - 0.9, c, 0.0), 2.0 * math.pi / abs(c), 1))
    cells.append(("N6 x MAX1", MaxwellStratum.MAX1, members))

    return cells


def test_criterion_5_maxwell_realization():
    worst_end = 0.0
    worst_mid = math.inf
    checked = 0
    for name, stratum, members in _maxwell_members():
        assert len(members) == 10
        for lam, t, i in members:
            assert stratum in in_maxwell(lam, t), (name, lam, t)
            li = reflect_covector(i, lam, t)
            end = gap(exp_map(lam, t), exp_map(li, t))
            jgap = abs(
                elastic_energy_closed(lam, t) - elastic_energy_closed(li, t)
            )
            qm, qim = exp_map(lam, t / 2.0), exp_map(li, t / 2.0)
            mid = max(abs(qm.x - qim.x), abs(qm.y - qim.y))
            worst_end = max(worst_end, end, jgap)
            worst_mid = min(worst_mid, mid)
            checked += 1
    ok = worst_end < 1e-7 and worst_mid > 1e-4
    verdict(
        5,
        ok,
        f"{checked} members over 7 cells: worst endpoint/energy gap "
        f"{worst_end:.3e}, smallest midpoint separation {worst_mid:.3e}",
    )


def test_criterion_6_root_localization():
    t0 = time.perf_counter()
    k0 = float(find_k0())
    kstar = float(find_kstar()[0])
    grid = [0.005 + 0.99 * j / 199.0 for j in range(200)]

    for k in grid:
        K = ellint_K(k)
        p11 = p1_roots(k, 1)
        assert K < p11 < 3.0 * K
        if k < k0 - 1e-6:
            assert 2.0 * K < p11 < 3.0 * K, k
        elif k > k0 + 1e-6:
            assert K < p11 < 2.0 * K, k

    for k in grid:
        if k < kstar:
            continue
        K = ellint_K(k)
        pg = p_g1(k)
        assert K / 2.0 < pg < 1.5 * K, k
        if k < k0 - 1e-6:
            assert K < pg < 1.5 * K, k
        elif k > k0 + 1e-6:
            assert K / 2.0 < pg < K, k
        p11 = p1_roots(k, 1)
        assert pg < min(2.0 * K, p11), k

    for k in grid:
        K = ellint_K(k)
        for j in range(1, 25):
            assert g1_n2(j * K / 25.0, k) > 0.0, k

    for k in grid:
        K = ellint_K(k)
        signs = {math.copysign(1.0, f2(0.02 + (5.0 * K - 0.02) * j / 29.0, k)) for j in range(30)}
        assert len(signs) == 1, k

    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    verdict(6, ok, f"200-point grid: localizations, ordering, signs in {elapsed:.1f}s")


def test_criterion_7_elliptic_property_suite():
    rng = random.Random(7)

    worst_pyth = 0.0
    for _ in range(1000):
        u, k = rng.uniform(-15, 15), rng.uniform(0, 1)
        jv = jacobi(u, k)
        worst_pyth = max(
            worst_pyth,
            abs(jv.sn**2 + jv.cn**2 - 1.0),
            abs(jv.dn**2 + k * k * jv.sn**2 - 1.0),
        )
    assert worst_pyth < 1e-12

    worst_per = 0.0
    for _ in range(200):
        u, k = rng.uniform(-8, 8), rng.uniform(0.05, 0.98)
        K = ellint_K(k)
        a, b = jacobi(u, k), jacobi(u + 4.0 * K, k)
        worst_per = max(worst_per, abs(a.sn - b.sn), abs(a.cn - b.cn))
    assert worst_per < 1e-11

    worst_add = 0.0
    for _ in range(1000):
        u, v, k = rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.02, 0.98)
        a, d = jacobi_add(u, v, k), jacobi(u + v, k)
        worst_add = max(
            worst_add,
            abs(a.sn - d.sn),
            abs(a.cn - d.cn),
            abs(a.dn - d.dn),
            abs(a.eps - d.eps),
        )
    assert worst_add < 1e-11

    worst_dk = 0.0
    for _ in range(50):
        u, k = rng.uniform(-3, 3), rng.uniform(0.15, 0.9)
        h = 1e-6
        p, m = jacobi(u, k + h), jacobi(u, k - h)
        ds, dc, dd, de = jacobi_derivs_k(u, k)
        for got, fd in (
            (ds, (p.sn - m.sn) / (2 * h)),
            (dc, (p.cn - m.cn) / (2 * h)),
            (dd, (p.dn - m.dn) / (2 * h)),
            (de, (p.eps - m.eps) / (2 * h)),
        ):
            worst_dk = max(worst_dk, abs(got - fd) / max(1.0, abs(fd)))
    assert worst_dk < 1e-5

    # degenerations at the extreme moduli, against first-order expansions
    for i in range(-10, 11):
        u = 0.5 * i
        jv = jacobi(u, 1e-8)
        assert abs(jv.sn - math.sin(u)) < 1e-8
        assert abs(jv.cn - math.cos(u)) < 1e-8
        k = 1.0 - 1e-8
        kp2 = (1.0 - k) * (1.0 + k)
        jv = jacobi(u, k)
        th, se = math.tanh(u), 1.0 / math.cosh(u)
        shch = math.sinh(u) * math.cosh(u)
        assert abs(jv.sn - (th + 0.25 * kp2 * (shch - u) * se * se)) < 1e-8
        assert abs(jv.dn - (se + 0.25 * kp2 * (shch + u) * th * se)) < 1e-8

    worst_recip = 0.0
    for _ in range(200):
        u, k = rng.uniform(-4, 4), rng.uniform(0.1, 0.95)
        direct = jacobi(u, k)
        back = jacobi_recip_modulus(u * k, k)
        worst_recip = max(
            worst_recip,
            abs(back.sn / k - direct.sn),
            abs(back.cn - direct.dn),
            abs(back.dn - direct.cn),
        )
    assert worst_recip < 1e-11

    verdict(
        7,
        True,
        f"identities {worst_pyth:.1e}, periodicity {worst_per:.1e}, "
        f"addition {worst_add:.1e}, k-derivs {worst_dk:.1e}, recip {worst_recip:.1e}",
    )


def test_criterion_8_attainable_and_bvp():
    # boundary fixtures of the exact-time attainable set
    assert attainable(State(1.0, 0.0, 0.0), 1.0)
    assert not attainable(State(0.0, 1.0, 0.0), 1.0)
    assert not attainable(State(1.0, 0.0, 1e-6), 1.0)
    assert not attainable(State(1.0 + 1e-9, 0.0, 0.0), 1.0)
    assert attainable(State(0.5, 0.0, 2.0), 1.0)
    assert attainable(State(0.0, 0.0, 3.0), 0.1)

    forward = CRITERION_8
    assert len(forward) == 20

    worst_res = 0.0
    worst_j = 0.0
    for lam, t1 in forward:
        q1 = exp_map(lam, t1)
        J = elastic_energy_closed(lam, t1)
        sols = bvp_shoot(q1, t1, starts=100)
        assert sols, (lam, t1)
        best_res = math.inf
        best_j = math.inf
        for s in sols:
            res = gap(exp_map(s.lam, t1), q1)
            best_res = min(best_res, res)
            best_j = min(best_j, abs(s.energy - J))
        worst_res = max(worst_res, best_res)
        worst_j = max(worst_j, best_j)
    ok = worst_res < 1e-8 and worst_j < 1e-8
    verdict(
        8,
        ok,
        f"20 forward targets inverted: residual {worst_res:.2e}, "
        f"energy recovery {worst_j:.2e}",
    )
