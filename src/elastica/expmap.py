"""Closed-form exponential mapping: covector -> endpoint of its elastica.

The endpoint (x_t, y_t, theta_t) of the unit-speed curve driven by the
pendulum solution, together with its bending energy J_t, is expressed
through Jacobi functions on the oscillating stratum, through the *same*
expressions at modulus k = 1 on the separatrix (where the Jacobi functions
are hyperbolic), through the reciprocal-modulus transform of them on the
rotating strata (one code path, no second transcription), and through
circular/linear motion in the degenerate cases.

On N1, N2+- and N3+- the covector is itself a point u0 of its Jacobi curve
at the algebraic modulus kappa (`phase._start`), so the start values need
no evaluation, and a minus branch carries its sign in (sn u0, cn u0).  The
values at u0 + sqrt(r) t follow from one Jacobi evaluation at sqrt(r) t and
the addition formulas, which also give the epsilon increment, so eps(u0)
is never formed.

`_endpoint` evaluates one endpoint in one body on N1, N2+- and N3+-: it
takes the Jacobi values at sqrt(r) t from `elliptic._shifted` or
`_recip_shifted` (tanh and sech at k = 1) and holds the start values, the
addition formulas and the quadratures, in the operations of `phase._start`
and `elliptic._add`, so its bits are theirs.  The stepped loop of
`sample_elastica` does the addition step and the quadratures in its own
body with the same bits, which a test pins point by point; only its anchors
call `_add` and the shifted routine.

The tangent angle always satisfies theta_t = beta_t - beta_0.
"""

from __future__ import annotations

import math
from enum import Enum

from .elliptic import K0, K_RECT, _add, _recip_shifted, _shifted
from .phase import (
    CIRCULAR,
    ROTATING,
    SEPARATRIX,
    STRAIGHT,
    TWO_PI,
    Covector,
    State,
    _check_integer,
    _start,
    stratify,
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


def _modulus_column(
    k: float, sr: float, t: float, a0: tuple, sn: float, cn: float, dn: float, d: float,
):
    """The modulus direction D at a covector, and the derivative of its endpoint along D.

    Takes k = kappa, sqrt(r), t and the values a0 and (sn, cn, dn, d) of
    `_endpoint`'s jac, at k != 1.  With
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
    chain rule through `_endpoint`'s quadratures.
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


def _endpoint(lam: Covector, t: float):
    """(x, y, theta, J, c_t, stratum, jac) of the elastica of lam at t.

    c_t is the curvature at t, the pendulum velocity.  On N1 and N2+- jac =
    (kappa, a0, (sn, cn, dn, d)) holds the algebraic modulus and the values
    at u0 and at u0 + sqrt(r) t, for `_modulus_column`; elsewhere it is None.

    On N1, N2+- and N3+- the values at sqrt(r) t come from `_shifted`, or
    `_recip_shifted` on N2+-, and the body calls nothing else.  The start
    values are those of `_start` and the addition step that of `_add`, with
    their bits, and the quadratures are taken at the algebraic modulus
    kappa: below kappa = 1, d = eps - sqrt(r) t is carried whole, as eps and
    sqrt(r) t cancel in x and J when kappa -> 0; at kappa = 1, where
    eps = tanh is bounded, d is eps.  The stepped loop of
    `sample_elastica` writes out the step and the quadratures the same way.
    """
    s = stratify(lam)
    if s in STRAIGHT:
        return t, 0.0, 0.0, 0.0, 0.0, s, None
    beta, c, r = lam
    if s in CIRCULAR:
        ct = c * t
        # 1 - cos ct = 2 sin^2(ct/2), which does not cancel for small ct
        sh = math.sin(0.5 * ct)
        return math.sin(ct) / c, 2.0 * sh * sh / c, ct, 0.5 * c * c * t, c, s, None
    sr = math.sqrt(r)
    sb, d0 = math.sin(0.5 * beta), math.cos(0.5 * beta)
    u = sr * t
    sep = s in SEPARATRIX
    if sep:
        # kap is 1 within the stratify band; the start point keeps beta and
        # takes the sign of c, and lies on the line cn = f dn, f = +-1
        kap, s0, c0 = 1.0, sb, math.copysign(d0, c)
        f = -1.0 if c0 < 0.0 else 1.0
        sv, cv, dv, ev = _shifted(u, 1.0)
    else:
        ch = 0.5 * c / sr
        kap = math.sqrt(sb * sb + ch * ch)
        s0, c0 = sb / kap, ch / kap
        sv, cv, dv, ev = _recip_shifted(u, 1.0 / kap) if s in ROTATING else _shifted(u, kap)
    # products the formulas share, each rounded as there: (-d0) d0 = -(d0 d0)
    # and (2 d0) d0 = 2 (d0 d0) exactly
    k2 = kap * kap
    d2 = d0 * d0
    ks = k2 * s0
    kss = ks * s0
    # the start point a0 at u0 and its sum with u, as `_add` forms it, eps(u0)
    # = 0: at k = 1 by the tanh and sech rules while they hold (the values at
    # u lie on cn = dn); otherwise ev is never -0.0, so 0.0 + ev is ev
    if sep and f * s0 * sv >= 0.0:
        den = 1.0 + f * s0 * sv
        sn = (s0 + f * sv) / den
        cn, dn = c0 * cv / den, d0 * dv / den
        d = 0.0 + ev - s0 * sv * sn
    else:
        den = d2 + kss * cv * cv
        sn = (s0 * cv * dv + sv * c0 * d0) / den
        cn = (c0 * cv - s0 * d0 * sv * dv) / den
        dn = (d0 * dv - ks * c0 * sv * cv) / den
        d = ev - ks * sv * sn
    # the quadratures, with dw = eps - u and dE = eps
    theta = 2.0 * math.atan2(kap * (d0 * sn - s0 * dn), d0 * dn + ks * sn)
    # c0 - cn = (sn - s0)(sn + s0)/(c0 + cn) as cn^2 + sn^2 = 1: it keeps the
    # digits the difference loses where c0 and cn are both near +-1, as on
    # the rotating strata, where they differ by O(1/kap^2)
    dc = (sn - s0) * (sn + s0) / (c0 + cn) if c0 * cn > 0.5 else c0 - cn
    if sep:
        dw, dE, jac = d - u, d, None
        energy = d
    else:
        dw, dE, jac = d, d + u, (kap, (s0, c0, d0, 0.0), (sn, cn, dn, d))
        energy = d + k2 * u
    x = t - (2.0 / sr) * (-d2 * dw - 2.0 * k2 * d0 * s0 * dc + kss * dE)
    y = (2.0 * kap / sr) * ((2.0 * d2 - 1.0) * dc - s0 * d0 * (2.0 * dE - u))
    return x, y, theta, 2.0 * sr * energy, 2.0 * sr * kap * cn, s, jac  # c_t = 2 sqrt(r) kap cn


def exp_map(lam: Covector, t: float) -> State:
    """Endpoint of the elastica of lam at a finite arc length t >= 0."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"exp_map needs finite t >= 0, got {t}")
    return State(*_endpoint(lam, t)[:3])


def sample_elastica(lam: Covector, t1: float, n: int) -> list[State]:
    """n uniformly spaced endpoint samples over [0, t1], endpoints included.

    On N1, N2+- and N3+- the points step by the addition formulas from
    anchors, each anchor the covector itself or u0 plus a direct Jacobi
    evaluation; elsewhere each point is the endpoint in closed form.  The
    loop does the addition step and the quadratures in its own body, in
    the operations and order of `_add` and of `_endpoint`'s quadratures, so
    its bits are theirs; on the separatrix it takes their k = 1 branches.
    Only the anchors call `_add` and the shifted Jacobi routine.  Its points
    are built as `State` builds them.
    """
    n = _check_integer(n, "sample_elastica", "n")
    if n < 2:
        raise ValueError(f"sample_elastica needs n >= 2 samples, got {n}")
    if not 0.0 < t1 < math.inf:
        raise ValueError(f"need finite t1 > 0, got {t1}")
    step = t1 / (n - 1)
    s = stratify(lam)
    # off the Jacobi curve each point is `_endpoint`'s, and theta is wrapped
    # as `phase.wrap_angle` wraps it
    new = tuple.__new__
    if s in STRAIGHT:
        return [new(State, (i * step, 0.0, 0.0)) for i in range(n)]
    if s in CIRCULAR:
        c = lam.c
        out = []
        for i in range(n):
            ct = c * (i * step)
            sh = math.sin(0.5 * ct)
            theta = math.remainder(ct, TWO_PI)
            if theta <= -math.pi:
                theta += TWO_PI
            out.append(new(State, (math.sin(ct) / c, 2.0 * sh * sh / c, theta)))
        return out
    sr, kap, a0, k, jac = _start(lam, s)
    # the error grows with the argument of jacobi at modulus k
    hw = sr * step / k if s in ROTATING else sr * step
    if (REANCHOR_POINTS - 1) * hw <= REANCHOR_SPAN:
        run = REANCHOR_POINTS
    else:
        run = 1 + int(REANCHOR_SPAN // hw)
    if run > 1:
        sv, cv, dv, ev = jac(sr * step, k)
    sep = s in SEPARATRIX
    # the constants of `_add` and the quadratures, each product rounded as
    # there, where it is a left factor
    s0, c0, d0, _ = a0
    k2 = kap * kap
    ks = k2 * s0
    kss = ks * s0
    d2 = d0 * d0
    cross = 2.0 * k2 * d0 * s0
    sd = s0 * d0
    odd = 2.0 * d0 * d0 - 1.0
    xs, ys = 2.0 / sr, 2.0 * kap / sr
    sn, cn, dn, d = a0
    out = []
    for i in range(n):
        t = i * step
        if i % run:
            # sn, cn, dn, d at the previous point plus the step, as `_add` forms
            # it: at k = 1 by the tanh and sech rules while they hold, with cn =
            # f dn the line of the previous point (the step's is cn = dn)
            if sep and (f := -1.0 if cn < 0.0 else 1.0) * sn * sv >= 0.0:
                den = 1.0 + f * sn * sv
                s1 = (sn + f * sv) / den
                sn, cn, dn, d = s1, cn * cv / den, dn * dv / den, d + ev - sn * sv * s1
            else:
                den = dn * dn + k2 * sn * sn * cv * cv
                s1 = (sn * cv * dv + sv * cn * dn) / den
                sn, cn, dn, d = (s1, (cn * cv - sn * dn * sv * dv) / den,
                                 (dn * dv - k2 * sn * cn * sv * cv) / den, d + ev - k2 * sn * sv * s1)
        elif i:
            sn, cn, dn, d = _add(a0, jac(sr * t, k), kap)
        w = sr * t
        theta = 2.0 * math.atan2(kap * (d0 * sn - s0 * dn), d0 * dn + ks * sn)
        theta = math.remainder(theta, TWO_PI)
        if theta <= -math.pi:
            theta += TWO_PI
        dc = (sn - s0) * (sn + s0) / (c0 + cn) if c0 * cn > 0.5 else c0 - cn
        if sep:
            dw, dE = d - w, d
        else:
            dw, dE = d, d + w
        out.append(new(State, (t - xs * (-d2 * dw - cross * dc + kss * dE),
                               ys * (odd * dc - sd * (2.0 * dE - w)), theta)))
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
    k = _start(lam, s)[1]
    if abs(k - K_RECT) <= CLASS_K_TOL:
        return ElasticaClass.RECTANGULAR
    if abs(k - K0) <= CLASS_K_TOL:
        return ElasticaClass.FIGURE_EIGHT
    if k < K_RECT:
        return ElasticaClass.INFLECTIONAL_SMALL_K
    if k < K0:
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
