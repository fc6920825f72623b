"""Jacobi elliptic integrals and functions on the real modulus k in [0, 1].

Everything is built on the arithmetic-geometric mean (AGM): complete
integrals come straight from the AGM scale, incomplete integrals from the
ascending Landen transformation of the amplitude, and the Jacobi functions
sn/cn/dn together with the amplitude am and Jacobi's epsilon function (the
incomplete second-kind integral of the amplitude) from the descending
recursion over the same scale.  The degenerate moduli k = 0 and k = 1 are
dispatched to their trigonometric/hyperbolic closed forms instead of being
approached as limits.

The epsilon function is returned unreduced: eps(u + 2K) = eps(u) + 2E, so
differences eps(b) - eps(a) over long arguments are meaningful.

The figure-eight modulus k0, the root of 2E(k) = K(k), is found here by
Brent's method, the root finder every Maxwell root curve uses too.
"""

from __future__ import annotations

import math
import sys
import warnings
from functools import lru_cache
from typing import NamedTuple

AGM_MAX_ITER = 32
AGM_TOL = 1e-15
_TWO_PI = 2.0 * math.pi

# Below this distance from k = 0 or k = 1 the modulus derivatives are
# dominated by the 1/(k (1 - k^2)) factor and lose digits.
DERIV_CONDITIONING_LIMIT = 1e-3

BRENT_XTOL = 1e-15
BRENT_RTOL = 8.9e-16
_BRENT_MAXITER = 100
K_RECT = 1.0 / math.sqrt(2.0)


class EllipticDomainError(ValueError):
    """Argument outside the real domain of the requested function."""


class EllipticDivergenceError(ValueError):
    """The requested integral diverges (k = 1 endpoint)."""


class _SameSignError(ValueError):
    """`_brentq`'s bracket has no sign change: f has one sign at both ends."""


class _ModulusFields(NamedTuple):
    k: float
    kprime: float = float("nan")


class Modulus(_ModulusFields):
    """Elliptic modulus k in [0, 1] with its cached complement k' = sqrt(1-k^2)."""

    __slots__ = ()

    def __new__(cls, k: float, kprime: float = float("nan")):
        kf = float(k)
        if not 0.0 <= kf <= 1.0 or math.isnan(kf):
            raise EllipticDomainError(f"modulus must lie in [0, 1], got {kf}")
        if math.isnan(kprime):
            # (1-k)(1+k) avoids cancellation for k near 1
            kprime = math.sqrt((1.0 - kf) * (1.0 + kf))
        elif abs(kf * kf + kprime**2 - 1.0) > 1e-14:
            raise EllipticDomainError("kprime inconsistent with k")
        return tuple.__new__(cls, (kf, kprime))

    def __float__(self) -> float:
        return self.k


class JacobiValues(NamedTuple):
    """Values sn u, cn u, dn u, the amplitude am u, and epsilon eps = E(u)."""

    sn: float
    cn: float
    dn: float
    am: float
    eps: float


def _as_k(k) -> float:
    """Accept a Modulus or a bare float and return the float modulus."""
    kf = float(k)
    if 0.0 <= kf <= 1.0:  # false for NaN
        return kf
    raise EllipticDomainError(f"modulus must lie in [0, 1], got {kf}")


@lru_cache(maxsize=512)
def _shift_scale(k: float):
    """The AGM recursion for modulus k in (0, 1), as the shifted descending pass needs it.

    With a_0 = 1, b_0 = k', c_0 = k and a_i, b_i, c_i the arithmetic mean,
    geometric mean and half difference of a_(i-1) and b_(i-1), truncated at
    the first |c_n| < AGM_TOL, returns (K, 2^n a_n, a, k', sigma, z): K(k),
    the factor from u to the phase at the bottom of the scale, the tuple
    a = (a_0, ..., a_n), k', sigma = 1 - E/K, summed directly so that it
    keeps its digits as k -> 0, and the weights z_1 = k^2/(4 a_1),
    z_(i+1) = z_i^2/(4 a_(i+1)) of the shifted pass, equal to the c_i
    without their cancellation as k -> 0.  It holds no b_i, c_i or pass
    pairs, which only `_agm_scale` adds: `expmap._endpoint` evaluates at a
    new modulus for every BVP candidate, and there each value the scale
    holds is a cost.
    """
    kp = math.sqrt((1.0 - k) * (1.0 + k))
    a, z = [1.0], []
    an, bn, zi = 1.0, kp, k
    # E = K (1 - sum of 2^(i-1) c_i^2 over i = 0..n), summed in that order;
    # the weight w ends at 2^n
    w, s = 1.0, 0.5 * k * k
    for _ in range(AGM_MAX_ITER):
        cn = 0.5 * (an - bn)
        an, bn = 0.5 * (an + bn), math.sqrt(an * bn)
        zi = zi * zi / (4.0 * an)
        a.append(an)
        z.append(zi)
        s += w * cn * cn
        w *= 2.0
        if abs(cn) < AGM_TOL:
            break
    # tuples: the cache holds each scale, and a tuple is smaller than a list
    return math.pi / (2.0 * an), w * an, tuple(a), kp, s, tuple(z)


@lru_cache(maxsize=512)
def _agm_scale(k: float):
    """AGM scale for modulus k in (0, 1): `_shift_scale` with E(k), the b_i and c_i, and the pass pairs.

    Returns (K, E, 2^n a_n, a, b, c, sigma, z, c_pass, z_pass), with K,
    2^n a_n, a, sigma and z those of `_shift_scale`, E(k) = K (1 - sigma),
    b = (b_0, ..., b_(n-1)) and c = (c_1, ..., c_n), each b_i and c_i formed
    from a_(i-1) and b_(i-1) as the recursion forms it.  c_pass holds the
    pairs (c_i, c_i/a_i) and z_pass the pairs (z_i, z_i/a_i), for
    i = n, ..., 1 in the order `_jacobi_agm` descends, so that a pass at
    this modulus takes no division per level.
    """
    K, unit, a, bn, s, z = _shift_scale(k)
    b, c, c_pass, z_pass = [], [], [], []
    # an = a_(i-1), ai = a_i and zi = z_i for i = 1..n
    for an, ai, zi in zip(a, a[1:], z):
        b.append(bn)
        ci = 0.5 * (an - bn)
        c.append(ci)
        c_pass.append((ci, ci / ai))
        z_pass.append((zi, zi / ai))
        bn = math.sqrt(an * bn)
    c_pass.reverse()
    z_pass.reverse()
    return K, K * (1.0 - s), unit, a, tuple(b), tuple(c), s, z, tuple(c_pass), tuple(z_pass)


def ellint_K(k) -> float:
    """Complete elliptic integral of the first kind K(k)."""
    kf = _as_k(k)
    if kf == 1.0:
        raise EllipticDivergenceError("K(k) diverges as k -> 1")
    if kf == 0.0:
        return math.pi / 2.0
    return _agm_scale(kf)[0]


def ellint_E(k) -> float:
    """Complete elliptic integral of the second kind E(k)."""
    kf = _as_k(k)
    if kf == 0.0:
        return math.pi / 2.0
    if kf == 1.0:
        return 1.0
    return _agm_scale(kf)[1]


def _brentq(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """Root of f in the sign-changing bracket [a, b] by Brent's method.

    An operation-for-operation port of the C routine brentq.c behind
    `optimize.brentq` (Brent 1973, ch. 4), so every root is bit-identical to
    it: inverse quadratic extrapolation or secant interpolation when the step
    is short enough, bisection otherwise, stopping when half the bracket is
    below delta = (xtol + rtol |x|) / 2.  A NaN function value raises
    ValueError, a bracket without a sign change its subclass
    `_SameSignError`; no convergence within 100 iterations raises
    RuntimeError.
    """

    def fval(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre = fval(xpre)
    fcur = fval(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise _SameSignError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C divides to an infinite or NaN step, which the test below rejects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                # bisect
                spre = scur = sbis
        else:
            # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fval(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations, value is {xcur}")


def _k0_defect(k: float) -> float:
    """2E(k) - K(k), positive below the figure-eight modulus k0 and zero at it."""
    return 2.0 * ellint_E(k) - ellint_K(k)


@lru_cache(maxsize=1)
def find_k0() -> float:
    """The unique modulus in (1/sqrt(2), 1) with 2E(k) = K(k) (figure-eight)."""
    return _brentq(_k0_defect, K_RECT, 1.0 - 1e-12, xtol=BRENT_XTOL, rtol=BRENT_RTOL)


def _reduce_phase(phi: float):
    """Split phi = phi_red + m*pi with phi_red in [-pi/2, pi/2]."""
    m = math.floor(phi / math.pi + 0.5)
    return phi - m * math.pi, m


def _incomplete_agm(phi: float, k: float):
    """(F, E) at amplitude phi in [-pi/2, pi/2] for k in (0, 1).

    Ascending Landen transformation of the amplitude; the zeta sum over the
    scale gives the second-kind integral through E = Z + (E/K) F.
    """
    sign = 1.0
    if phi < 0.0:
        sign, phi = -1.0, -phi
    K, E, unit, a_, b_, c_, _, _, _, _ = _agm_scale(k)
    phi_i = phi
    sp = math.sin(phi_i)
    zeta = 0.0
    for a, b, c in zip(a_, b_, c_):
        d = math.atan2(b * sp, a * math.cos(phi_i))
        d += _TWO_PI * math.floor((phi_i - d) / _TWO_PI + 0.5)
        phi_i = phi_i + d
        sp = math.sin(phi_i)
        zeta += c * sp
    F = phi_i / unit
    return sign * F, sign * (zeta + E / K * F)


def ellint_F_inc(phi: float, k) -> float:
    """Incomplete first-kind integral F(phi, k), any real phi.

    Extended by quasi-periodicity F(phi + pi) = F(phi) + 2K.  At k = 1 it is
    the inverse Gudermannian asinh(tan phi), which keeps its digits up to
    phi = +-pi/2; the equal atanh(sin phi) loses them as sin phi nears +-1.
    A NaN phi raises EllipticDomainError, and so does phi = +-inf for k in
    (0, 1); F(+-inf, 0) = +-inf, and F(+-inf, 1) diverges.
    """
    kf = _as_k(k)
    if not math.isfinite(phi) and (math.isnan(phi) or 0.0 < kf < 1.0):
        raise EllipticDomainError(f"elliptic integrals need a finite amplitude, got {phi}")
    if kf == 1.0:
        if abs(phi) >= math.pi / 2.0:
            raise EllipticDivergenceError("F(phi, 1) diverges for |phi| >= pi/2")
        return math.asinh(math.tan(phi))
    if kf == 0.0:
        return phi
    phi_red, m = _reduce_phase(phi)
    F, _ = _incomplete_agm(phi_red, kf)
    return F + 2.0 * m * ellint_K(kf)


def ellint_E_inc(phi: float, k) -> float:
    """Incomplete second-kind integral E(phi, k), any real phi.

    Extended by quasi-periodicity E(phi + pi) = E(phi) + 2E.  A NaN phi
    raises EllipticDomainError, and so does phi = +-inf for k in (0, 1];
    E(+-inf, 0) = +-inf.
    """
    kf = _as_k(k)
    if not math.isfinite(phi) and (math.isnan(phi) or kf > 0.0):
        raise EllipticDomainError(f"elliptic integrals need a finite amplitude, got {phi}")
    if kf == 0.0:
        return phi
    if kf == 1.0:
        phi_red, m = _reduce_phase(phi)
        return math.sin(phi_red) + 2.0 * m
    phi_red, m = _reduce_phase(phi)
    _, E = _incomplete_agm(phi_red, kf)
    return E + 2.0 * m * ellint_E(kf)


def _jacobi_agm(u: float, k: float, shifted: bool = False):
    """jacobi at real u for k in (0, 1), by the descending pass over the AGM scale.

    The zeta sum of the pass is the Jacobi zeta function Z (A&S 17.6), and
    eps = Z + (E/K) u.  With shifted=True it returns the plain tuple (sn,
    cn, dn, eps(u) - u), with no am, and eps(u) - u = Z(u) - sigma u, with
    sigma = 1 - E/K from the scale, and Z summed over the scale's weights
    z_i rather than its half differences c_i, which cancel as k -> 0.  So it
    keeps its digits as k -> 0, where eps(u) - u formed from eps(u) would
    not.

    The pass reads the scale's pairs (c_i, c_i/a_i), or (z_i, z_i/a_i) when
    shifted, from i = n down to 1; c/a * sp rounds as (c/a) * sp, so the
    stored ratio gives every value the bits of a division per level.
    """
    K, E, unit, _, b_, _, sigma, _, c_pass, z_pass = _agm_scale(k)
    m = math.floor(u / (2.0 * K) + 0.5)
    u_red = u - 2.0 * K * m

    phi = unit * u_red
    zeta = 0.0
    for c, ca in z_pass if shifted else c_pass:
        sp = math.sin(phi)
        zeta += c * sp
        s = ca * sp
        if s > 1.0:
            s = 1.0
        elif s < -1.0:
            s = -1.0
        phi = 0.5 * (phi + math.asin(s))

    sn_r = math.sin(phi)
    cn_r = math.cos(phi)
    kp = b_[0]
    dn = math.sqrt(cn_r * cn_r + kp * kp * sn_r * sn_r)
    sgn = -1.0 if m % 2 else 1.0
    if shifted:
        return sgn * sn_r, sgn * cn_r, dn, zeta - sigma * u
    eps = zeta + E / K * u_red + 2.0 * m * E
    return JacobiValues(sgn * sn_r, sgn * cn_r, dn, phi + m * math.pi, eps)


def jacobi(u: float, k) -> JacobiValues:
    """sn, cn, dn, am and eps at real u, modulus k in [0, 1].

    The amplitude and epsilon are the continuous (unreduced) branches:
    am(u + 2K) = am(u) + pi and eps(u + 2K) = eps(u) + 2E.  u = +-inf is
    accepted only at k = 1, where the hyperbolic forms take their limits.
    """
    kf = _as_k(k)
    if not math.isfinite(u) and (kf != 1.0 or math.isnan(u)):
        raise EllipticDomainError(f"Jacobi functions need a finite argument, got {u}")
    if kf == 0.0:
        return JacobiValues(math.sin(u), math.cos(u), 1.0, u, u)
    if kf == 1.0:
        t = math.tanh(u)
        if abs(u) >= 709.0:
            # cosh and sinh overflow: sech has underflowed, am has saturated
            return JacobiValues(t, 0.0, 0.0, math.copysign(math.pi / 2.0, u), t)
        s = 1.0 / math.cosh(u)
        return JacobiValues(t, s, s, math.atan(math.sinh(u)), t)
    return _jacobi_agm(u, kf)


def jacobi_recip_modulus(u: float, k) -> JacobiValues:
    """Jacobi values at modulus 1/k > 1, expressed through modulus k in (0, 1).

    With w = u/k: sn(u, 1/k) = k sn(w, k), cn(u, 1/k) = dn(w, k),
    dn(u, 1/k) = cn(w, k) and eps(u, 1/k) = u + (eps(w, k) - w)/k.  The last
    takes eps(w, k) - w = Z(w) - (1 - E/K) w from `_jacobi_agm`, so no two
    terms of size u/k^2 cancel as k -> 0.  The rotating-pendulum amplitude
    is bounded, so am is the principal branch.
    """
    kf = _as_k(k)
    if kf == 0.0:
        raise EllipticDomainError("reciprocal-modulus transform undefined at k = 0")
    if kf == 1.0:
        return jacobi(u, 1.0)
    sn, cn, dn, d = _recip_shifted(u, kf)
    return JacobiValues(sn, cn, dn, math.atan2(sn, cn), u + d)


def _shifted(u: float, k: float):
    """(sn, cn, dn, d) at real u and modulus k in (0, 1].

    Below k = 1, d = eps(u) - u from the shifted descending pass, which keeps
    its digits as k -> 0.  At k = 1, d = eps(u) = tanh u, which is bounded,
    where eps(u) - u would lose the digits of tanh u to u.
    """
    if k == 1.0:
        sn, cn, dn, _, eps = jacobi(u, 1.0)
        return sn, cn, dn, eps
    if not math.isfinite(u):
        raise EllipticDomainError(f"Jacobi functions need a finite argument, got {u}")
    return _jacobi_agm(u, k, True)


def _recip_shifted(u: float, k: float):
    """(sn, cn, dn, eps(u) - u) at modulus 1/k > 1, through modulus k in (0, 1).

    The transform of `jacobi_recip_modulus`: eps(u, 1/k) - u = (eps(w) - w)/k
    at w = u/k.
    """
    w = u / k
    if not math.isfinite(w):
        raise EllipticDomainError(f"Jacobi functions need a finite argument, got u/k = {w}")
    sn, cn, dn, d = _jacobi_agm(w, k, True)
    return k * sn, dn, cn, d / k


def _add(a, b, k: float):
    """(sn, cn, dn, eps) at u + v from those at u and at v (DLMF 22.8).

    eps(u + v) = eps u + eps v - k^2 sn u sn v sn(u + v), a rule that holds
    unchanged for eps(u) - u in place of eps u.  The formulas are
    the group law of the curve sn^2 + cn^2 = 1, dn^2 + k^2 sn^2 = 1, so they
    hold off the real branch too: a minus-branch pendulum state carries its
    sign in (sn, cn), and k > 1 is a reciprocal modulus.  The denominator
    1 - k^2 sn^2 u sn^2 v is taken as the equal dn^2 u + k^2 sn^2 u cn^2 v,
    which does not cancel as k -> 1.  At k = 1 the curve is the two lines
    cn = f dn, f = +-1 (dn >= 0), and both terms underflow once |u| and |v|
    pass about 354.  So with f_u, f_v the lines of u and v, e = f_u f_v and
    e sn u sn v >= 0, the tanh and sech addition rules
    sn(u + v) = (f_v sn u + f_u sn v) / (1 + e sn u sn v) and
    (cn, dn)(u + v) = (cn u cn v, dn u dn v) / (1 + e sn u sn v) are taken
    instead.  Otherwise, both past 354, the values no longer determine u + v.
    """
    su, cu, du, eu = a
    sv, cv, dv, ev = b
    if k == 1.0:
        fu = -1.0 if cu < 0.0 else 1.0
        fv = -1.0 if cv < 0.0 else 1.0
        e = fu * fv
        if e * su * sv >= 0.0:
            den = 1.0 + e * su * sv
            sn = (fv * su + fu * sv) / den
            return sn, cu * cv / den, du * dv / den, eu + ev - su * sv * sn
    k2 = k * k
    den = du * du + k2 * su * su * cv * cv
    sn = (su * cv * dv + sv * cu * du) / den
    cn = (cu * cv - su * du * sv * dv) / den
    dn = (du * dv - k2 * su * cu * sv * cv) / den
    return sn, cn, dn, eu + ev - k2 * su * sv * sn


def jacobi_add(u: float, v: float, k) -> JacobiValues:
    """Jacobi values at u + v from the addition formulas (no evaluation at u+v).

    At k = 1 with u and v of opposite signs, both past about 354, sech^2 u
    and sech^2 v are subnormal or zero and the values no longer determine
    u + v: that raises EllipticDomainError.
    """
    kf = _as_k(k)
    ju = jacobi(u, kf)
    jv = jacobi(v, kf)
    if kf == 1.0 and ju.sn * jv.sn < 0.0 and ju.dn * ju.dn + jv.dn * jv.dn < sys.float_info.min:
        raise EllipticDomainError(f"at k = 1, u = {u} and v = {v} of opposite signs past "
                                  "about 354 no longer determine u + v")
    sn, cn, dn, eps = _add((ju.sn, ju.cn, ju.dn, ju.eps), (jv.sn, jv.cn, jv.dn, jv.eps), kf)
    am = math.atan2(sn, cn)
    if kf < 1.0:
        # restore the unreduced amplitude branch; am - pi*w/(2K) stays in
        # (-pi/2, pi/2), so rounding to the nearest 2*pi multiple is safe
        est = math.pi * (u + v) / (2.0 * ellint_K(kf))
        am += _TWO_PI * math.floor((est - am) / _TWO_PI + 0.5)
    return JacobiValues(sn, cn, dn, am, eps)


def jacobi_derivs_k(u: float, k):
    """Partial derivatives of (sn, cn, dn, eps) with respect to the modulus k.

    Valid for k in (0, 1); warns when the 1/(k (1-k^2)) prefactor makes the
    evaluation ill-conditioned near the endpoints.
    """
    kf = _as_k(k)
    if kf == 0.0 or kf == 1.0:
        raise EllipticDomainError("modulus derivatives need k in (0, 1)")
    if kf < DERIV_CONDITIONING_LIMIT or 1.0 - kf * kf < DERIV_CONDITIONING_LIMIT:
        warnings.warn(
            "jacobi_derivs_k is ill-conditioned for k near 0 or 1 "
            f"(k = {kf:.3e})",
            RuntimeWarning,
            stacklevel=2,
        )
    jv = jacobi(u, kf)
    sn, cn, dn, eps = jv.sn, jv.cn, jv.dn, jv.eps
    kp2 = (1.0 - kf) * (1.0 + kf)
    dsn = (
        u * cn * dn / kf
        + kf / kp2 * sn * cn * cn
        - eps * cn * dn / (kf * kp2)
    )
    dcn = (
        -u * sn * dn / kf
        - kf / kp2 * sn * sn * cn
        + eps * sn * dn / (kf * kp2)
    )
    ddn = (
        -kf / kp2 * sn * sn * dn
        - kf * u * sn * cn
        + kf / kp2 * eps * sn * cn
    )
    deps = kf / kp2 * sn * cn * dn - kf * u * sn * sn - kf / kp2 * eps * cn * cn
    return dsn, dcn, ddn, deps
