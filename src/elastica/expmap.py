"""Closed-form exponential mapping: covector -> endpoint of its elastica.

The endpoint (x_t, y_t, theta_t) of the unit-speed curve driven by the
pendulum solution, together with its bending energy J_t, is expressed
through Jacobi functions on the oscillating stratum, through the *same*
expressions at modulus k = 1 on the separatrix (where the Jacobi functions
are hyperbolic), through the reciprocal-modulus transform of them on the
rotating strata (one code path, no second transcription), and through
circular/linear motion in the degenerate cases.  Minus branches are obtained
from plus branches by the phase-space inversion (beta, c) -> (-beta, -c),
which acts on endpoints as (theta, x, y) -> (-theta, x, -y) and leaves J
unchanged.

The tangent angle always satisfies theta_t = beta_t - beta_0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .elliptic import JacobiValues, _add, _recip_modulus, jacobi, jacobi_recip_modulus
from .phase import (
    CIRCULAR,
    ROTATING,
    SEPARATRIX,
    STRAIGHT,
    Covector,
    _to_elliptic,
    stratify,
    to_elliptic,
    wrap_angle,
)

CLASS_K_TOL = 1e-9

# A sampled curve is stepped by the addition formulas from a direct `jacobi`
# anchor, taken again after at most REANCHOR_POINTS points and whenever the
# Jacobi argument would run more than REANCHOR_SPAN past it: as k -> 1 a
# stepped error grows like e^(argument advance).
REANCHOR_POINTS = 32
REANCHOR_SPAN = 4.0


@dataclass(frozen=True)
class State:
    """Group element (x, y, theta) reached by the elastica; theta in (-pi, pi]."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", wrap_angle(self.theta))


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
    k: float, sr: float, t: float, sgn: float, j0: JacobiValues,
    sn: float, cn: float, dn: float, eps: float,
):
    """Endpoint and bending energy from the oscillating-stratum quadratures.

    Written for algebraic modulus k, with the Jacobi values j0 at the start
    and (sn, cn, dn, eps) at t; at k = 1 they are the hyperbolic ones of the
    separatrix, and fed with reciprocal-modulus Jacobi values (and k > 1) it
    yields the rotating-stratum values as well.  sgn is -1.0 on the inverted
    minus branches and +1.0 otherwise.
    """
    s0, c0, d0, _, e0 = j0
    dE = eps - e0
    k2 = k * k
    sin_half = k * (d0 * sn - s0 * dn)
    cos_half = d0 * dn + k2 * s0 * sn
    theta = 2.0 * math.atan2(sin_half, cos_half)
    x = (
        (2.0 / sr) * d0 * d0 * dE
        + (4.0 * k2 / sr) * d0 * s0 * (c0 - cn)
        + (2.0 * k2 / sr) * s0 * s0 * (sr * t - dE)
        - t
    )
    y = (2.0 * k / sr) * (2.0 * d0 * d0 - 1.0) * (c0 - cn) - (
        2.0 * k / sr
    ) * s0 * d0 * (2.0 * dE - sr * t)
    return x, sgn * y, sgn * theta, 2.0 * sr * (dE - (1.0 - k2) * sr * t)


def _pointwise(at: Callable[[float], tuple]) -> Callable[[float, int], list]:
    """(step, n) -> the States of the closure `at` at t = i*step for i < n."""
    return lambda step, n: [State(*at(i * step)[:3]) for i in range(n)]


def _prepare(lam: Covector, grid: bool = False) -> Callable:
    """Precompute the per-covector data; return t -> (x, y, theta, J).

    With grid=True it returns (step, n) -> the States at t = i*step for
    i < n instead.  On N1, N2+- and N3+- that path steps by the addition
    formulas from anchors evaluated directly; elsewhere it evaluates each
    point.
    """
    s = stratify(lam)

    if s in STRAIGHT:

        def line(t: float):
            return t, 0.0, 0.0, 0.0

        return _pointwise(line) if grid else line

    if s in CIRCULAR:
        c = lam.c

        def circle(t: float):
            ct = c * t
            return math.sin(ct) / c, (1.0 - math.cos(ct)) / c, ct, 0.5 * c * c * t

        return _pointwise(circle) if grid else circle

    # a minus branch is evaluated on its plus-branch image under the inversion,
    # stratified again: wrap_angle(beta - pi) in the N5 test rounds differently
    # at -beta
    sgn = float(s.sign or 1)
    ec = _to_elliptic(lam, s) if sgn > 0 else to_elliptic(Covector(-lam.beta, -lam.c, lam.r))
    sr = math.sqrt(ec.r)
    k = ec.k
    u0 = sr * ec.phi
    # the rotating strata evaluate the same quadratures at modulus 1/k > 1;
    # on the separatrix k is exactly 1 and jacobi takes its hyperbolic forms
    if s in ROTATING:
        k_alg, jac = 1.0 / k, jacobi_recip_modulus
    else:
        k_alg, jac = k, jacobi
    j0 = jac(u0, k)

    if not grid:

        def elliptic(t: float):
            sn, cn, dn, _, eps = jac(u0 + sr * t, k)
            return _endpoint_oscillating(k_alg, sr, t, sgn, j0, sn, cn, dn, eps)

        return elliptic

    # the steps are taken in the argument w = u/kw of jacobi at modulus k:
    # u/k on the rotating strata, whose values then take the transform
    rotating = s in ROTATING
    kw = k if rotating else 1.0

    def stepped(step: float, n: int) -> list[State]:
        hw = sr * step / kw
        if (REANCHOR_POINTS - 1) * hw <= REANCHOR_SPAN:
            run = REANCHOR_POINTS
        else:
            run = 1 + int(REANCHOR_SPAN // hw)
        if run > 1:
            sn, cn, dn, _, eps = jacobi(hw, k)
            jh = sn, cn, dn, eps
        out = []
        for i in range(n):
            t = i * step
            u = u0 + sr * t
            if i % run:
                a = _add(a, jh, k)
            else:
                # eps is stepped from 0 at the anchor: its increments keep
                # their digits where eps itself is large
                sn, cn, dn, _, ea = jacobi(u / kw, k)
                a = sn, cn, dn, 0.0
            sn, cn, dn, eps = a[0], a[1], a[2], ea + a[3]
            if rotating:
                sn, cn, dn, eps = _recip_modulus(sn, cn, dn, eps, u, k)
            x, y, theta, _ = _endpoint_oscillating(k_alg, sr, t, sgn, j0, sn, cn, dn, eps)
            out.append(State(x, y, theta))
        return out

    return stepped


def exp_map(lam: Covector, t: float) -> State:
    """Endpoint of the elastica of lam at a finite arc length t >= 0."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"exp_map needs finite t >= 0, got {t}")
    x, y, theta, _ = _prepare(lam)(t)
    return State(x, y, theta)


def sample_elastica(lam: Covector, t1: float, n: int) -> list[State]:
    """n uniformly spaced endpoint samples over [0, t1], endpoints included."""
    if n < 2:
        raise ValueError("need at least two samples")
    if not 0.0 < t1 < math.inf:
        raise ValueError(f"need finite t1 > 0, got {t1}")
    return _prepare(lam, grid=True)(t1 / (n - 1), n)


def classify(lam: Covector) -> ElasticaClass:
    """Euler's nine classes by stratum and modulus; moduli match to CLASS_K_TOL."""
    from .maxwell import K_RECT, find_k0  # deferred import: avoids a module cycle

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
    exactly on the line strata.  Computed by the same per-stratum
    preparation as the endpoint.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"elastic energy needs finite t >= 0, got {t}")
    return _prepare(lam)(t)[3]
