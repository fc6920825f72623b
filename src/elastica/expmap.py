"""Closed-form exponential mapping: covector -> endpoint of its elastica.

The endpoint (x_t, y_t, theta_t) of the unit-speed curve driven by the
pendulum solution, together with its bending energy J_t, is expressed
through Jacobi functions on the oscillating stratum, through the *same*
expressions at modulus k = 1 on the separatrix (where the Jacobi functions
are hyperbolic), through the reciprocal-modulus transform of them on the
rotating strata (one code path, no second transcription), and through
circular/linear motion in the degenerate cases.

On N1, N2+- and N3+- the covector is itself a point of its Jacobi curve at
the algebraic modulus kappa, kappa^2 = sin^2(beta/2) + c^2/(4r):
sin(beta/2) = kappa sn u0, cos(beta/2) = dn u0, c/(2 sqrt r) = kappa cn u0.
So the start values need no evaluation, and a minus branch carries its sign
in (sn u0, cn u0).  The values at u0 + sqrt(r) t follow from one Jacobi
evaluation at sqrt(r) t and the addition formulas, which also give the
epsilon increment, so eps(u0) is never formed.

The tangent angle always satisfies theta_t = beta_t - beta_0.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .elliptic import K_RECT, _add, _recip_shifted, _shifted, find_k0
from .phase import (
    CIRCULAR,
    ROTATING,
    SEPARATRIX,
    STRAIGHT,
    Covector,
    stratify,
    to_elliptic,
    wrap_angle,
)

CLASS_K_TOL = 1e-9

# A sampled curve is stepped by the addition formulas from an anchor, the
# covector itself and then a direct `jacobi` evaluation, taken again after at
# most REANCHOR_POINTS points and whenever the Jacobi argument would run more
# than REANCHOR_SPAN past it: as k -> 1 a stepped error grows like
# e^(argument advance).
REANCHOR_POINTS = 32
REANCHOR_SPAN = 4.0
CIRCLE_SERIES_MAX = 1.0


class _StateFields(NamedTuple):
    x: float
    y: float
    theta: float


class State(_StateFields):
    """Group element (x, y, theta) reached by the elastica; theta in (-pi, pi]."""

    __slots__ = ()

    def __new__(cls, x: float, y: float, theta: float):
        return tuple.__new__(cls, (x, y, wrap_angle(theta)))


class ElasticaClass(Enum):
    LINE = "Line"
    INFLECTIONAL_SMALL_K = "InflectionalSmallK"
    RECTANGULAR = "Rectangular"
    INFLECTIONAL_MID_K = "InflectionalMidK"
    FIGURE_EIGHT = "FigureEight"
    INFLECTIONAL_LARGE_K = "InflectionalLargeK"
    CRITICAL = "Critical"
    NON_INFLECTIONAL = "NonInflectional"
    CIRCLE = "Circle"


def _endpoint_oscillating(
    k: float, sr: float, t: float, a0: tuple, sn: float, cn: float, dn: float, d: float,
):
    """Endpoint and bending energy from the oscillating-stratum quadratures.

    Written for algebraic modulus k, with the start values a0 = (sn, cn, dn,
    0) and (sn, cn, dn, d) at t, where d = dE - sqrt(r) t and dE is the
    epsilon increment over [0, t]; at k = 1 they are the hyperbolic ones of
    the separatrix, and at k > 1 (the reciprocal modulus) those of the
    rotating strata.  d is carried whole because dE and sqrt(r) t cancel in
    x and in the energy as k -> 0.  At k = 1, where epsilon = tanh is
    bounded, d is dE itself.
    """
    s0, c0, d0, _ = a0
    k2 = k * k
    sin_half = k * (d0 * sn - s0 * dn)
    cos_half = d0 * dn + k2 * s0 * sn
    theta = 2.0 * math.atan2(sin_half, cos_half)
    # c0 - cn = (sn - s0)(sn + s0)/(c0 + cn) as cn^2 + sn^2 = 1: it keeps the
    # digits the difference loses where c0 and cn are both near +-1, as on
    # the rotating strata (k > 1), where they differ by O(1/k^2)
    dc = (sn - s0) * (sn + s0) / (c0 + cn) if c0 * cn > 0.5 else c0 - cn
    w = sr * t
    if k == 1.0:
        dE = energy = d
        dw = d - w
    else:
        dE = d + w
        dw = d
        energy = d + k2 * w
    x = t - (2.0 / sr) * (-d0 * d0 * dw - 2.0 * k2 * d0 * s0 * dc + k2 * s0 * s0 * dE)
    y = (2.0 * k / sr) * ((2.0 * d0 * d0 - 1.0) * dc - s0 * d0 * (2.0 * dE - w))
    return x, y, theta, 2.0 * sr * energy


def _modulus_column(
    k: float, sr: float, t: float, a0: tuple, sn: float, cn: float, dn: float, d: float,
):
    """The modulus direction D at a covector, and the derivative of its endpoint along D.

    Takes the arguments of `_endpoint_oscillating`, at k != 1.  With
    A(u) = (u - eps(u)/k'^2)/k, D is d/dk at fixed u0 and sqrt(r) minus
    A(u0) d/du0: the A(u0) term is a multiple of the pendulum flow, so
    neither u0 nor eps(u0) is needed.  With g = k/k'^2, the Jacobi values
    move along D as
    - D sn u0 = g sn cn^2, D cn u0 = -g sn^2 cn, D dn u0 = -g sn^2 dn at u0;
    - at u0 + w, with dA = A(u0 + w) - A(u0) = (w - dE/k'^2)/k, as
      D sn = dA cn dn + g sn cn^2, D cn = -dA sn dn - g sn^2 cn,
      D dn = -dA k^2 sn cn - g sn^2 dn and
      D d = dA dn^2 + g (sn cn dn - sn0 cn0 dn0) + d/k.
    These hold unchanged on the rotating strata, k > 1 and k'^2 < 0.
    Returns (D, J D): D = (2 sn0 dn0, 2 sqrt(r) cn0 (dn0^2 - k^2), 0)/k'^2 in
    (beta, c, r), and J D the derivative of (x, y, theta) along it, the
    chain rule through `_endpoint_oscillating`.
    """
    s0, c0, d0, _ = a0
    k2 = k * k
    kp2 = (1.0 - k) * (1.0 + k)
    g = k / kp2
    w = sr * t
    dE = d + w
    # w - dE/k'^2 = -(d + k^2 w)/k'^2, which does not cancel as k -> 0
    da = -(d + k2 * w) / (k * kp2)
    gs2 = g * s0 * s0
    ds0, dc0, dd0 = g * s0 * c0 * c0, -gs2 * c0, -gs2 * d0
    gsn = g * sn
    dsn = da * cn * dn + gsn * cn * cn
    dcn = -da * sn * dn - gsn * sn * cn
    ddn = -da * k2 * sn * cn - gsn * sn * dn
    dd = da * dn * dn + g * (sn * cn * dn - s0 * c0 * d0) + d / k
    # theta = 2 atan2(sin_half, cos_half), both explicit in k
    p = d0 * sn - s0 * dn
    sin_half = k * p
    cos_half = d0 * dn + k2 * s0 * sn
    dsin = p + k * (dd0 * sn + d0 * dsn - ds0 * dn - s0 * ddn)
    dcos = dd0 * dn + d0 * ddn + 2.0 * k * s0 * sn + k2 * (ds0 * sn + s0 * dsn)
    dtheta = 2.0 * (cos_half * dsin - sin_half * dcos) / (sin_half * sin_half + cos_half * cos_half)
    dc = c0 - cn
    ddc = dc0 - dcn
    dx = (-2.0 / sr) * (
        -2.0 * d0 * dd0 * d - d0 * d0 * dd
        - 4.0 * k * d0 * s0 * dc - 2.0 * k2 * ((dd0 * s0 + d0 * ds0) * dc + d0 * s0 * ddc)
        + 2.0 * k * s0 * s0 * dE + k2 * s0 * (2.0 * ds0 * dE + s0 * dd)
    )
    h = 2.0 * dE - w
    y_k = (2.0 * d0 * d0 - 1.0) * dc - s0 * d0 * h
    dy = (2.0 / sr) * (y_k + k * (
        4.0 * d0 * dd0 * dc + (2.0 * d0 * d0 - 1.0) * ddc
        - (ds0 * d0 + s0 * dd0) * h - 2.0 * s0 * d0 * dd
    ))
    direction = (2.0 * s0 * d0 / kp2, 2.0 * sr * c0 * (d0 * d0 - k2) / kp2, 0.0)
    return direction, (dx, dy, dtheta)


def _circle_columns(c: float, t: float):
    """The derivatives of the endpoint at t along the axes of h = (-r cos beta, c, -r sin beta) at r = 0.

    There the curve is the circle of curvature c (the line at c = 0), and to
    first order c' = -r sin beta = h3 cos(c s) + h1 sin(c s).  Integrated
    twice, with z = i c t and S(m0, a) the sum over m >= m0 of a(m) z^(m -
    m0)/(m + 1)!: dtheta along h3 + i dtheta along h1 is t^2 S(1, 1), and
    dx + i dy is i t^2 S(1, m) along c, i c t^4 S(3, 2^(m-1) - m) along h1
    and i t^3 S(2, 2^(m-1) - 1) along h3.  S is summed as a series below
    |z| = CIRCLE_SERIES_MAX, where its closed form in e^z cancels.  Returns
    the three columns (dx, dy, dtheta).
    """
    u = c * t
    z = 1j * u

    def series(m0, a0, a1, a2):
        # S(m0, a) for a(m) = a0 + a1 m + a2 2^m; the sum over m >= 0 is
        # a0 (e^z - 1)/z + a1 (e^z - (e^z - 1)/z) + a2 (e^2z - 1)/(2 z)
        coef = [(a0 + a1 * m + a2 * 2.0**m) / math.factorial(m + 1) for m in range(m0 + 24)]
        if abs(z) < CIRCLE_SERIES_MAX:  # the terms are below 1e-18 from m = 24
            return sum(coef[m] * z ** (m - m0) for m in range(m0, m0 + 24))
        e = complex(math.cos(u), math.sin(u))  # e^z
        full = (a0 * (e - 1.0) + 0.5 * a2 * (e * e - 1.0)) / z + a1 * (e - (e - 1.0) / z)
        return (full - sum(coef[m] * z**m for m in range(m0))) / z**m0

    t2 = t * t
    th = t2 * series(1, 1.0, 0.0, 0.0)
    zc = 1j * t2 * series(1, 0.0, 1.0, 0.0)
    z1 = 1j * c * t2 * t2 * series(3, 0.0, -1.0, 0.5)
    z3 = 1j * t2 * t * series(2, -1.0, 0.0, 0.5)
    return (z1.real, z1.imag, th.imag), (zc.real, zc.imag, t), (z3.real, z3.imag, th.real)


def _start(lam: Covector, s):
    """The per-covector start values on N1, N2+- and N3+-: (sqrt(r), kap, a0, k, jac).

    a0 = (sn, cn, dn, eps) at u0 and modulus kap, eps measured from u0, and
    jac the shifted Jacobi routine at modulus k: `_recip_shifted` at k =
    1/kap on the rotating strata, kap > 1, and `_shifted` at k = kap
    elsewhere.
    """
    sr = math.sqrt(lam.r)
    sb, cb = math.sin(0.5 * lam.beta), math.cos(0.5 * lam.beta)
    if s in SEPARATRIX:
        # kap is 1 within the stratify band: keep beta, take the sign of c
        return sr, 1.0, (sb, math.copysign(cb, lam.c), cb, 0.0), 1.0, _shifted
    ch = 0.5 * lam.c / sr
    kap = math.sqrt(sb * sb + ch * ch)
    a0 = (sb / kap, ch / kap, cb, 0.0)
    if s in ROTATING:
        return sr, kap, a0, 1.0 / kap, _recip_shifted
    return sr, kap, a0, kap, _shifted


def _endpoint(lam: Covector, t: float, s=None):
    """(x, y, theta, J, c_t, stratum, jac) of the elastica of lam at t.

    c_t is the curvature at t, the pendulum velocity.  On N1 and N2+- jac =
    (kappa, a0, (sn, cn, dn, d)) holds the modulus and the arguments
    `_endpoint_oscillating` took, for `_modulus_column`; elsewhere it is
    None.  s is stratify(lam), which a caller that has it passes.
    """
    if s is None:
        s = stratify(lam)
    if s in STRAIGHT:
        return t, 0.0, 0.0, 0.0, 0.0, s, None
    if s in CIRCULAR:
        c = lam.c
        ct = c * t
        # 1 - cos ct = 2 sin^2(ct/2), which does not cancel for small ct
        sh = math.sin(0.5 * ct)
        return math.sin(ct) / c, 2.0 * sh * sh / c, ct, 0.5 * c * c * t, c, s, None
    sr, kap, a0, k, jac = _start(lam, s)
    a = _add(a0, jac(sr * t, k), kap)
    # the curvature c_t = 2 sqrt(r) kap cn
    return (*_endpoint_oscillating(kap, sr, t, a0, *a), 2.0 * sr * kap * a[1], s,
            (kap, a0, a) if kap != 1.0 else None)


def exp_map(lam: Covector, t: float) -> State:
    """Endpoint of the elastica of lam at a finite arc length t >= 0."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"exp_map needs finite t >= 0, got {t}")
    return State(*_endpoint(lam, t)[:3])


def sample_elastica(lam: Covector, t1: float, n: int) -> list[State]:
    """n uniformly spaced endpoint samples over [0, t1], endpoints included.

    On N1, N2+- and N3+- the points step by the addition formulas from
    anchors; elsewhere each is evaluated by `_endpoint`.
    """
    if n < 2:
        raise ValueError("need at least two samples")
    if not 0.0 < t1 < math.inf:
        raise ValueError(f"need finite t1 > 0, got {t1}")
    step = t1 / (n - 1)
    s = stratify(lam)
    if s in STRAIGHT or s in CIRCULAR:
        return [State(*_endpoint(lam, i * step, s)[:3]) for i in range(n)]
    sr, kap, a0, k, jac = _start(lam, s)
    # the error grows with the argument of jacobi at modulus k
    hw = sr * step / k if s in ROTATING else sr * step
    if (REANCHOR_POINTS - 1) * hw <= REANCHOR_SPAN:
        run = REANCHOR_POINTS
    else:
        run = 1 + int(REANCHOR_SPAN // hw)
    if run > 1:
        jh = jac(sr * step, k)
    out = []
    for i in range(n):
        t = i * step
        if i % run:
            a = _add(a, jh, kap)
        else:
            a = _add(a0, jac(sr * t, k), kap) if i else a0
        x, y, theta, _ = _endpoint_oscillating(kap, sr, t, a0, *a)
        out.append(State(x, y, theta))
    return out


def classify(lam: Covector) -> ElasticaClass:
    """Euler's nine classes by stratum and modulus; moduli match to CLASS_K_TOL."""
    s = stratify(lam)
    if s in STRAIGHT:
        return ElasticaClass.LINE
    if s in CIRCULAR:
        return ElasticaClass.CIRCLE
    if s in SEPARATRIX:
        return ElasticaClass.CRITICAL
    if s in ROTATING:
        return ElasticaClass.NON_INFLECTIONAL
    k = to_elliptic(lam).k
    k0 = find_k0()
    if abs(k - K_RECT) <= CLASS_K_TOL:
        return ElasticaClass.RECTANGULAR
    if abs(k - k0) <= CLASS_K_TOL:
        return ElasticaClass.FIGURE_EIGHT
    if k < K_RECT:
        return ElasticaClass.INFLECTIONAL_SMALL_K
    if k < k0:
        return ElasticaClass.INFLECTIONAL_MID_K
    return ElasticaClass.INFLECTIONAL_LARGE_K


def elastic_energy_closed(lam: Covector, t: float) -> float:
    """Bending energy (1/2) integral of curvature^2 over [0, t], in closed form.

    The curvature along the extremal is the pendulum velocity c_s; its
    square integrates through the epsilon function (oscillating, separatrix
    at k = 1, and rotating by the reciprocal-modulus transform), and is zero
    exactly on the line strata.  Computed by `_endpoint`, with the endpoint.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"elastic energy needs finite t >= 0, got {t}")
    return _endpoint(lam, t)[3]
