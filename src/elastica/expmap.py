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

from .elliptic import JacobiValues, jacobi, jacobi_recip_modulus
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
    k: float, sr: float, t: float, sgn: float, j0: JacobiValues, jt: JacobiValues
):
    """Endpoint and bending energy from the oscillating-stratum quadratures.

    Written for algebraic modulus k; at k = 1 the Jacobi values are the
    hyperbolic ones of the separatrix, and fed with reciprocal-modulus Jacobi
    values (and k > 1) it yields the rotating-stratum values as well.  sgn is
    -1.0 on the inverted minus branches and +1.0 otherwise.
    """
    dE = jt.eps - j0.eps
    k2 = k * k
    sin_half = k * (j0.dn * jt.sn - j0.sn * jt.dn)
    cos_half = j0.dn * jt.dn + k2 * j0.sn * jt.sn
    theta = 2.0 * math.atan2(sin_half, cos_half)
    x = (
        (2.0 / sr) * j0.dn * j0.dn * dE
        + (4.0 * k2 / sr) * j0.dn * j0.sn * (j0.cn - jt.cn)
        + (2.0 * k2 / sr) * j0.sn * j0.sn * (sr * t - dE)
        - t
    )
    y = (2.0 * k / sr) * (2.0 * j0.dn * j0.dn - 1.0) * (j0.cn - jt.cn) - (
        2.0 * k / sr
    ) * j0.sn * j0.dn * (2.0 * dE - sr * t)
    return x, sgn * y, sgn * theta, 2.0 * sr * (dE - (1.0 - k2) * sr * t)


def _prepare(lam: Covector) -> Callable[[float], tuple]:
    """Precompute the per-covector data; return t -> (x, y, theta, J)."""
    s = stratify(lam)

    if s in STRAIGHT:

        def line(t: float):
            return t, 0.0, 0.0, 0.0

        return line

    if s in CIRCULAR:
        c = lam.c

        def circle(t: float):
            ct = c * t
            return math.sin(ct) / c, (1.0 - math.cos(ct)) / c, ct, 0.5 * c * c * t

        return circle

    # a minus branch is evaluated on its plus-branch image under the inversion
    sgn = float(s.sign or 1)
    ec = to_elliptic(lam if sgn > 0 else Covector(-lam.beta, -lam.c, lam.r))
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

    def elliptic(t: float):
        return _endpoint_oscillating(k_alg, sr, t, sgn, j0, jac(u0 + sr * t, k))

    return elliptic


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
    at = _prepare(lam)
    step = t1 / (n - 1)
    return [State(*at(i * step)[:3]) for i in range(n)]


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
