"""Discrete symmetries: the reflection group acting on endpoints and covectors.

The three reflections of the pendulum phase cylinder generate, with the
identity, the dihedral group D2.  They lift to extremal trajectories and
descend both to the endpoint space (acting on (theta, x, y)) and to the
initial covector (acting through the terminal vertical state).  Modulo time
reversal and rotations, reflection 1 flips an elastic arc in the center of
its chord, reflection 2 in the middle perpendicular of the chord, and
reflection 3 in the chord itself.

Fixed points of the endpoint action are the sets {theta = 0}, {P = 0} and
the two lines {y = 0, theta in {0, pi}}, where P = x sin(theta/2)
- y cos(theta/2); fixed points of the covector action are read off the
midpoint coordinate tau in each stratum.
"""

from __future__ import annotations

import math
from enum import IntEnum
from typing import NamedTuple

from .elliptic import jacobi
from .expmap import State
from .phase import (
    CIRCULAR,
    ROTATING,
    SEPARATRIX,
    STRAIGHT,
    Covector,
    EllipticCoords,
    Stratum,
    _check_time,
    _check_tol,
    flow_vertical,
    stratify,
    to_elliptic,
    wrap_angle,
)


class Reflection(IntEnum):
    """The three nontrivial elements of the dihedral symmetry group."""

    CHORD_CENTER = 1
    CHORD_PERPENDICULAR = 2
    CHORD = 3


def compose(i, j) -> int:
    """Group composition; 0 encodes the identity element.

    Each reflection is its own inverse and composes two others into the
    third, so the group is the Klein four-group: XOR on 0..3.
    """
    i, j = int(i), int(j)
    if not (0 <= i <= 3 and 0 <= j <= 3):
        raise ValueError(f"compose needs elements in 0..3, got {i} and {j}")
    return i ^ j


class MaxwellCoords(NamedTuple):
    """Midpoint/half-length coordinates (tau, p) of an elastic arc.

    tau marks the arc midpoint in the rectified phase, p half the rectified
    arc length: p = sqrt(r) t / 2 on the oscillating stratum and separatrix,
    p = sqrt(r) t / (2k) on the rotating strata.
    """

    tau: float
    p: float


def reflect_state(i, q: State) -> State:
    """Action of reflection i on an endpoint (theta, x, y); an involution."""
    i = Reflection(i)
    ct, st = math.cos(q.theta), math.sin(q.theta)
    if i is Reflection.CHORD_CENTER:
        return State(q.x * ct + q.y * st, -q.x * st + q.y * ct, -q.theta)
    if i is Reflection.CHORD_PERPENDICULAR:
        return State(q.x * ct + q.y * st, q.x * st - q.y * ct, q.theta)
    return State(q.x, -q.y, -q.theta)


def reflect_covector(i, lam: Covector, t: float) -> Covector:
    """Action of reflection i on a covector, through its time-t vertical state.

    Preserves r and the pendulum energy.  The action depends on t: the
    reflected trajectory is the one meeting the original at time t, which
    must be finite.
    """
    i = Reflection(i)
    _check_time(t, "reflect_covector")
    if i is Reflection.CHORD:
        return Covector(-lam.beta, -lam.c, lam.r)
    lt = flow_vertical(lam, t)
    if i is Reflection.CHORD_CENTER:
        return Covector(lt.beta, -lt.c, lam.r)
    return Covector(-lt.beta, lt.c, lam.r)


def _half_angle(theta: float) -> float:
    """Representative theta/2 in (-pi/2, pi/2] of the normalized angle."""
    return 0.5 * wrap_angle(theta)


def P_of(q: State) -> float:
    """P = x sin(theta/2) - y cos(theta/2); zero iff q is fixed by reflection 2.

    Defined up to sign (the theta/2 representative); only the zero set and
    |P| are contract-stable.
    """
    h = _half_angle(q.theta)
    return q.x * math.sin(h) - q.y * math.cos(h)


def Q_of(q: State) -> float:
    """Q = x cos(theta/2) + y sin(theta/2); companion rotation of P."""
    h = _half_angle(q.theta)
    return q.x * math.cos(h) + q.y * math.sin(h)


def is_fixed_state(i, q: State, tol: float = 1e-9) -> bool:
    """Whether the endpoint q lies on the fixed-point set of reflection i."""
    i = Reflection(i)
    _check_tol(tol)
    if i is Reflection.CHORD_CENTER:
        return abs(wrap_angle(q.theta)) < tol
    if i is Reflection.CHORD_PERPENDICULAR:
        scale = max(1.0, math.hypot(q.x, q.y))
        return abs(P_of(q)) < tol * scale
    return m3_branch(q, tol) is not None


def m3_branch(q: State, tol: float = 1e-9) -> str | None:
    """Branch of the chord-reflection fixed set: "plus" (theta=0), "minus" (theta=pi)."""
    _check_tol(tol)
    if abs(q.y) >= tol:
        return None
    th = wrap_angle(q.theta)
    if abs(th) < tol:
        return "plus"
    if abs(abs(th) - math.pi) < tol:
        return "minus"
    return None


def _arc_coords(ec: EllipticCoords, t: float) -> MaxwellCoords:
    """(tau, p) of the arc [0, t] of the extremal with elliptic coordinates ec."""
    sr = math.sqrt(ec.r)
    if ec.stratum in ROTATING:
        p = sr * t / (2.0 * ec.k)
        return MaxwellCoords(tau=sr * ec.psi + p, p=p)
    p = sr * t / 2.0
    return MaxwellCoords(tau=sr * ec.phi + p, p=p)


def maxwell_coords(lam: Covector, t: float) -> MaxwellCoords:
    """(tau, p) of the arc [0, t] of lam's extremal; needs lam in N1/N2/N3 and a finite t."""
    _check_time(t, "maxwell_coords")
    return _arc_coords(to_elliptic(lam), t)


def _fixes(i, stratum: Stratum, jt, tol: float) -> bool:
    """Whether reflection i fixes an N1 or rotating arc whose midpoint has Jacobi values jt.

    On N1 reflection 1 fixes it when cn tau = 0 and reflection 2 when
    sn tau = 0; on the rotating strata only reflection 2 does, when
    sn tau cn tau = 0.  Reflection 3 fixes neither.
    """
    if stratum is Stratum.N1:
        if i == 1:
            return abs(jt.cn) <= tol
        return i == 2 and abs(jt.sn) <= tol
    return i == 2 and abs(jt.sn * jt.cn) <= tol


def is_fixed_covector(i, lam: Covector, t: float, tol: float = 1e-9) -> bool:
    """Whether reflection i maps lam's trajectory over [0, t] to itself.

    Per-stratum conditions on the midpoint coordinate tau; reflections 1 and
    3 fix nothing in the rotating, separatrix and circular strata, and the
    equilibrium strata are fixed by everything.  t must be finite.
    """
    i = Reflection(i)
    _check_time(t, "is_fixed_covector")
    _check_tol(tol)
    s = stratify(lam)
    if s in STRAIGHT:
        return True
    if s in CIRCULAR:
        if i is Reflection.CHORD_PERPENDICULAR:
            return abs(wrap_angle(2.0 * lam.beta + lam.c * t)) < tol
        return False
    ec = to_elliptic(lam)
    mc = _arc_coords(ec, t)
    if s in SEPARATRIX:
        return i is Reflection.CHORD_PERPENDICULAR and abs(mc.tau) < tol
    return _fixes(i, s, jacobi(mc.tau, ec.k), tol)
