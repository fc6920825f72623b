"""The exponential map and the pendulum flow against a 40-digit evaluation of their closed forms.

The reference inverts the covector to its elliptic coordinates at 40 digits
(mpmath), evaluates the Jacobi functions and epsilon at u0 and at
u0 + sqrt(r) t, and feeds them to the oscillating-stratum quadratures.  The
rotating strata go through the reciprocal modulus, the minus branches
through the inversion (beta, c) -> (-beta, -c), and the separatrix through
tanh and sech.  So it shares the formulas but none of the float evaluation
with `exp_map`.  Endpoint errors are the max over x, y and theta per
max(1, t); energy errors are per max(1, J).
"""

import math
import random
import sys

import pytest

from elastica.elliptic import jacobi_recip_modulus
from elastica.expmap import (CIRCLE_SERIES_MAX, _circle_columns, _endpoint, _modulus_column, elastic_energy_closed,
                             exp_map, sample_elastica)
from elastica.oracle import _symmetry_columns
from elastica.phase import OSCILLATING, ROTATING, SEPARATRIX, flow_vertical, stratify, wrap_angle

from conftest import STEPPED_N2_SMALL_K, n1, n2, n3

mp = pytest.importorskip("mpmath")

TIMES = (0.37, 1.9, 7.3, 40.0)
SEED = 1616

# The worst errors of the previous map, which inverted the covector through
# to_elliptic (a floating-point incomplete integral) and evaluated jacobi at
# u0 and at u0 + sqrt(r) t, on exactly these inputs, rounded up in the third
# digit: (endpoint, energy).
INVERTING_MAP_WORST = {
    "fixtures": (4.50e-15, 2.14e-14),
    "N1": (4.17e-15, 2.39e-14),
    "N1 k < 0.05": (2.22e-14, 2.09e-13),
    "N2": (8.99e-14, 1.64e-15),
    "N2 k < 0.05": (3.15e-10, 5.76e-16),
    "N3": (6.67e-16, 7.78e-16),
}


def _quadratures(k, sr, t, start, end):
    """The oscillating-stratum endpoint and energy from (sn, cn, dn, eps) at both ends."""
    s0, c0, d0, e0 = start
    sn, cn, dn, eps = end
    dE = eps - e0
    k2 = k * k
    theta = 2 * mp.atan2(k * (d0 * sn - s0 * dn), d0 * dn + k2 * s0 * sn)
    x = (2 / sr) * d0**2 * dE + (4 * k2 / sr) * d0 * s0 * (c0 - cn) \
        + (2 * k2 / sr) * s0**2 * (sr * t - dE) - t
    y = (2 * k / sr) * (2 * d0**2 - 1) * (c0 - cn) - (2 * k / sr) * s0 * d0 * (2 * dE - sr * t)
    return x, y, theta, 2 * sr * (dE - (1 - k2) * sr * t)


def _values(u, m):
    """(sn, cn, dn, eps) at u, parameter m = k^2; eps on its unreduced branch."""
    sn, cn, dn = (mp.ellipfun(f, u, m=m) for f in ("sn", "cn", "dn"))
    am = mp.atan2(sn, cn)
    am += 2 * mp.pi * mp.nint((mp.pi * u / (2 * mp.ellipk(m)) - am) / (2 * mp.pi))
    return sn, cn, dn, mp.ellipe(am, m)


def reference(beta, c, r, t, family, sign=1):
    """(x, y, theta, J) of the covector on N1 (family 1), N2 (2) or N3 (3), at 40 digits."""
    beta, c, r, t = mp.mpf(beta), mp.mpf(c), mp.mpf(r), mp.mpf(t)
    if sign < 0:
        x, y, theta, J = reference(-beta, -c, r, t, family)
        return x, -y, -theta, J
    sr = mp.sqrt(r)
    if family == 3:
        u0 = mp.asinh(mp.tan(beta / 2))
        start, end = ((mp.tanh(u), mp.sech(u), mp.sech(u), mp.tanh(u)) for u in (u0, u0 + sr * t))
        return _quadratures(mp.mpf(1), sr, t, start, end)
    kappa = mp.sqrt(mp.sin(beta / 2) ** 2 + c * c / (4 * r))
    if family == 1:
        m = kappa * kappa
        u0 = mp.ellipf(mp.atan2(mp.sin(beta / 2), c / (2 * sr)), m)
        return _quadratures(kappa, sr, t, _values(u0, m), _values(u0 + sr * t, m))
    # rotating: modulus 1/kappa at the argument w = kappa u
    k = 1 / kappa
    m = k * k

    def at(w):
        sn, cn, dn, eps = _values(w, m)
        return k * sn, dn, cn, eps / k - (1 - m) / m * (k * w)

    w0 = mp.ellipf(beta / 2, m)
    return _quadratures(kappa, sr, t, at(w0), at(w0 + sr * t / k))


def flow_reference(beta, c, r, t, family, sign=1):
    """(beta_t, c_t) of the pendulum flow on N1 (family 1) or N2 (2), at 40 digits.

    ellipf inverts the covector to its phase, which moves by sqrt(r) t (by
    sqrt(r) t / k at the rotating modulus k = 1/kappa), and ellipfun
    evaluates it there: none of `flow_vertical`'s start point or addition.
    """
    beta, c, r, t = mp.mpf(beta), mp.mpf(c), mp.mpf(r), mp.mpf(t)
    if sign < 0:
        b, ct = flow_reference(-beta, -c, r, t, family)
        return -b, -ct
    sr = mp.sqrt(r)
    kappa = mp.sqrt(mp.sin(beta / 2) ** 2 + c * c / (4 * r))
    if family == 1:
        m = kappa * kappa
        u = mp.ellipf(mp.atan2(mp.sin(beta / 2), c / (2 * sr)), m) + sr * t
        sn, cn, dn = (mp.ellipfun(f, u, m=m) for f in ("sn", "cn", "dn"))
        return 2 * mp.atan2(kappa * sn, dn), 2 * kappa * sr * cn
    k = 1 / kappa
    w = mp.ellipf(beta / 2, k * k) + sr * t / k
    # ellipfun may return a complex value with a zero imaginary part
    sn, cn, dn = (mp.re(mp.ellipfun(f, w, m=k * k)) for f in ("sn", "cn", "dn"))
    return 2 * mp.atan2(sn, cn), 2 * sr / k * dn


def _seeded():
    """(group, covector) on N1, N2+- and N3+-, moduli log-uniform down to 1e-3."""
    rng = random.Random(SEED)
    out = []
    for _ in range(16):
        r = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        sr = math.sqrt(r)
        for lo, hi, small in ((1e-3, 0.05, " k < 0.05"), (0.05, 0.999, "")):
            k = math.exp(rng.uniform(math.log(lo), math.log(hi)))
            out.append(("N1" + small, n1(k, rng.uniform(0.0, 8.0) / sr, r)))
            out.append(("N2" + small, n2(k, rng.uniform(0.0, 4.0) / sr, r, rng.choice((1, -1)))))
        out.append(("N3", n3(rng.uniform(-6.0, 6.0) / sr, r, rng.choice((1, -1)))))
    return out


def _exact(lam, t):
    s = stratify(lam)
    if s.family in (1, 2, 3):
        return reference(lam.beta, lam.c, lam.r, t, s.family, s.sign or 1)
    if s.family == 6:
        c = mp.mpf(lam.c)
        return mp.sin(c * t) / c, (1 - mp.cos(c * t)) / c, c * t, c * c * t / 2
    return mp.mpf(t), 0, 0, 0


@pytest.fixture(scope="module")
def worst(fixture25, cell_covectors):
    """Worst (endpoint, energy) error of each group over TIMES."""
    cases = [("fixtures", lam) for lam in (*fixture25, *cell_covectors.values())] + _seeded()
    out = {}
    with mp.workdps(40):
        for group, lam in cases:
            for t in TIMES:
                x, y, theta, J = _exact(lam, t)
                q = exp_map(lam, t)
                dq = max(abs(q.x - float(x)), abs(q.y - float(y)),
                         abs(wrap_angle(q.theta - float(theta)))) / max(1.0, t)
                dJ = abs(elastic_energy_closed(lam, t) - float(J)) / max(1.0, abs(float(J)))
                e, j = out.get(group, (0.0, 0.0))
                out[group] = (max(e, dq), max(j, dJ))
    print("\n".join(f"{g}: endpoint {e:.2e}, energy {j:.2e}" for g, (e, j) in sorted(out.items())))
    return out


@pytest.mark.parametrize("group", sorted(INVERTING_MAP_WORST))
def test_no_worse_than_the_inverting_map(worst, group):
    endpoint, energy = worst[group]
    bound_endpoint, bound_energy = INVERTING_MAP_WORST[group]
    assert endpoint <= bound_endpoint and energy <= bound_energy


def test_rotating_small_modulus_keeps_digits(worst):
    # the inverting map lost digits as 1/k^2 here; what is left grows as
    # 1/k, the conditioning of theta ~ c t = 2 sqrt(r) t / k
    assert worst["N2 k < 0.05"][0] < 1e-12


def test_oscillating_small_modulus_energy_keeps_digits(worst):
    # the energy is 2 sqrt(r) (d + k^2 sqrt(r) t) with d = eps increment -
    # sqrt(r) t carried whole; formed as 2 sqrt(r) (dE - (1 - k^2) sqrt(r) t)
    # it lost digits as 1/k^2 (1.0e-13 here)
    assert worst["N1 k < 0.05"][1] <= INVERTING_MAP_WORST["N1"][1]


def test_flow_vertical():
    # N1 and N2+- covectors with moduli log-uniform from 1e-5 to 0.999, at t
    # up to 10.  beta_t is measured in units of its reach, the amplitude
    # kappa on N1 and the turn max(1, |c| t) on N2, and c_t in units of its
    # largest value 2 sqrt(r) max(kappa, 1).  Worst measured 8.3e-15, and
    # 1.5e-14 over four other seeds, on N1 at kappa below 1e-3 and t near 9.
    # A modulus formed from (E + r)/(2r), which cancels as E nears -r, was
    # 2.1e-8 off here
    rng = random.Random(SEED)
    worst = 0.0
    with mp.workdps(40):
        for _ in range(100):
            r = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
            sr = math.sqrt(r)
            k = math.exp(rng.uniform(math.log(1e-5), math.log(0.999)))
            for lam in (n1(k, rng.uniform(0.0, 8.0) / sr, r),
                        n2(k, rng.uniform(0.0, 4.0) / sr, r, rng.choice((1, -1)))):
                s = stratify(lam)
                if s not in OSCILLATING + ROTATING:
                    continue  # a tolerance band took it
                t = rng.uniform(0.0, 10.0)
                b, c = flow_reference(lam.beta, lam.c, lam.r, t, s.family, s.sign or 1)
                b0, c0 = mp.mpf(lam.beta), mp.mpf(lam.c)
                kappa = float(mp.sqrt(mp.sin(b0 / 2) ** 2 + c0 * c0 / (4 * lam.r)))
                reach = kappa if s in OSCILLATING else max(1.0, 2.0 * sr * kappa * t)
                out = flow_vertical(lam, t)
                err = max(abs(wrap_angle(out.beta - float(b))) / reach,
                          abs(out.c - float(c)) / (2.0 * sr * max(kappa, 1.0)))
                worst = max(worst, err)
    assert worst < 3e-14


def test_separatrix_symmetry_columns(fixture25, cell_covectors):
    # J d_f and J d_s of the Newton step against the derivatives of the
    # 40-digit closed form along the flow and the dilation, both of which
    # keep a covector on the separatrix
    lams = [lam for lam in (*fixture25, *cell_covectors.values()) if stratify(lam) in SEPARATRIX]
    lams += [lam for group, lam in _seeded() if group == "N3"]
    worst = 0.0
    with mp.workdps(40):
        for lam in lams:
            sign = stratify(lam).sign
            b, c, r = mp.mpf(lam.beta), mp.mpf(lam.c), mp.mpf(lam.r)
            for t in TIMES:
                end = _endpoint(lam, t)
                dirs = ((c, -r * mp.sin(b), 0), (0, c, 2 * r))
                for d, col in zip(dirs, _symmetry_columns(lam.c, end, t)):
                    ref = [float(mp.diff(
                        lambda e: reference(b + e * d[0], c + e * d[1], r + e * d[2], t, 3, sign)[i], 0
                    )) for i in range(3)]
                    err = max(abs(a - x) for a, x in zip(col, ref))
                    worst = max(worst, err / max(1.0, *map(abs, ref)))
    assert worst < 1e-13


def test_modulus_column(fixture25, cell_covectors):
    # J D of the Newton step's third column against the derivative of the
    # 40-digit closed form along D, a central difference of step 1e-15 at
    # 40 digits, on N1 and N2+-, moduli down to 1e-3 and up to 1/1e-3
    # included.  Worst measured 2.2e-14, on N1 at k = 0.99 and t = 40
    lams = [lam for lam in (*fixture25, *cell_covectors.values())
            if stratify(lam) in OSCILLATING + ROTATING]
    lams += [lam for group, lam in _seeded() if group != "N3"]
    worst = 0.0
    with mp.workdps(40):
        h = mp.mpf(10) ** -15
        for lam in lams:
            s = stratify(lam)
            v = [mp.mpf(e) for e in (lam.beta, lam.c, lam.r)]
            for t in TIMES:
                end = _endpoint(lam, t)
                kap, a0, a = end[6]
                d, jd = _modulus_column(kap, math.sqrt(lam.r), t, a0, *a)
                qp, qm = (reference(*(x + e * h * y for x, y in zip(v, d)), t, s.family,
                                    s.sign or 1) for e in (1, -1))
                ref = [float((p - m) / (2 * h)) for p, m in zip(qp[:3], qm[:3])]
                err = max(abs(x - y) for x, y in zip(jd, ref))
                worst = max(worst, err / max(1.0, *map(abs, ref)))
    assert worst < 5e-14


def _circle_linearization(c, t):
    """The derivatives of the endpoint at t along the axes (h1, c, h3) of h at r = 0, at 40 digits.

    dtheta(s) integrates the curvature's move (1 - cos(c s))/c along h1, 1
    along c and sin(c s)/c along h3; dx and dy are Gauss-Legendre
    quadratures of -sin(c s) dtheta(s) and cos(c s) dtheta(s).
    """
    c, t = mp.mpf(c), mp.mpf(t)
    pts = mp.linspace(0, t, int(abs(c * t) / 4) + 2)
    out = []
    for dtheta in (lambda s: (c * s - mp.sin(c * s)) / c**2, lambda s: s, lambda s: (1 - mp.cos(c * s)) / c**2):
        dx = -mp.quad(lambda s: mp.sin(c * s) * dtheta(s), pts, method="gauss-legendre")
        dy = mp.quad(lambda s: mp.cos(c * s) * dtheta(s), pts, method="gauss-legendre")
        out.append((dx, dy, dtheta(t)))
    return out


def test_circle_columns():
    # the Newton step's columns on the circles against the 40-digit
    # linearization, |c| from 1e-6 to 100, on both sides of the series
    # cutoff, per the column's largest entry.  The phase c t is rounded by
    # half an ulp, which moves the columns by about eps |c t|: worst
    # measured 4.5e-16 for |c t| <= 73, at c t = 1.1 (closed form), and
    # 9.2e-15 at c t = 190
    cases = [(c, t) for c in (1e-6, -1e-4, 1e-2, -0.3, 1.0, 3.0, -10.0, 100.0)
             for t in (0.37, 1.9, 7.3) if abs(c * t) < 200]
    cases += [(CIRCLE_SERIES_MAX * f / 1.9, 1.9) for f in (0.9, 1.0 - 1e-9, 1.0 + 1e-9, 1.1)]
    with mp.workdps(40):
        for c, t in cases:
            bound = 4.0 * sys.float_info.epsilon * max(1.0, abs(c * t))
            for col, ref in zip(_circle_columns(c, t), _circle_linearization(c, t)):
                ref = [float(e) for e in ref]
                err = max(abs(a - b) for a, b in zip(col, ref)) / max(map(abs, ref))
                assert err <= bound, (c, t, err)


@pytest.mark.parametrize("k", [1e-2, 1e-3, 1e-4])
def test_reciprocal_modulus_eps_keeps_digits(k):
    # eps(u, 1/k) = u + (eps(w) - w)/k at w = u/k.  Formed as eps(w)/k -
    # (1 - k^2) u/k^2 it is off by about 1e-16 u/k^2, and with the zeta sum
    # over the scale's c_i, half differences that cancel as k -> 0, by
    # about 1e-16/k
    with mp.workdps(40):
        for u in (0.3, 2.0, 9.5):
            w = mp.mpf(u) / mp.mpf(k)
            exact = u + (_values(w, mp.mpf(k) ** 2)[3] - w) / k
            assert abs(jacobi_recip_modulus(u, k).eps - float(exact)) < 4e-16 * max(1.0, u)


def test_stepped_and_direct_theta_within_ulps_of_the_truth():
    # where theta runs to |c| t1 = 4000 neither path is exact: against the
    # 40-digit theta both are within 4 ulps of |c| t1, at every 100th point
    # and at 9751, where they differ most (stepped 1.40e-12, direct 3.25e-13)
    lam, t1, n = STEPPED_N2_SMALL_K
    step = t1 / (n - 1)
    samples = sample_elastica(lam, t1, n)
    ulps = 4.0 * math.ulp(abs(lam.c) * t1)
    with mp.workdps(40):
        for i in (*range(0, n, 100), 9751):
            theta = float(_exact(lam, i * step)[2])
            assert abs(wrap_angle(samples[i].theta - theta)) < ulps
            assert abs(wrap_angle(_endpoint(lam, i * step)[2] - theta)) < ulps
