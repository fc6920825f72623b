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
Jacobi values at the arc midpoint: `_start`'s point moved by the half-length.
"""

from __future__ import annotations

import math
from enum import IntEnum
from typing import NamedTuple

from .elliptic import _add, _shifted
from .phase import (
    CIRCULAR,
    ROTATING,
    STRAIGHT,
    Covector,
    State,
    Stratum,
    _check_time,
    _check_tol,
    _start,
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
    """Midpoint tau and half-length p of an elastic arc [0, t] in the rectified phase.

    p = sqrt(r) t / (2k) on the rotating strata and sqrt(r) t / 2 elsewhere.
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


def _arc(lam: Covector, s: Stratum):
    """(sqrt(r), k, b0): b0 = (sn, cn, dn, 0) at tau0 and modulus k; s = stratify(lam).

    On N1 b0 is `_start`'s a0.  On N2+- and N3+- it is w0 = kap u0 at
    k = 1/kap, (sigma kap sn u0, dn u0, sigma cn u0, 0) with sigma = s.sign,
    the minus branch on its plus image.  The midpoint is _add(b0, _shifted(p, k), k).
    """
    sr, kap, (sn0, cn0, dn0, _), k, _ = _start(lam, s)
    if s is Stratum.N1:
        return sr, k, (sn0, cn0, dn0, 0.0)
    return sr, k, (s.sign * kap * sn0, dn0, s.sign * cn0, 0.0)


def _half_length(s: Stratum, sr: float, k: float, t: float) -> float:
    """Half-length p of the arc [0, t] on stratum s, as `MaxwellCoords` has it."""
    return sr * t / (2.0 * k) if s in ROTATING else sr * t / 2.0


def maxwell_coords(lam: Covector, t: float) -> MaxwellCoords:
    """(tau, p) of the arc [0, t] of lam's extremal; needs lam in N1/N2/N3 and a finite t."""
    _check_time(t, "maxwell_coords")
    ec = to_elliptic(lam)
    sr = math.sqrt(ec.r)
    p = _half_length(ec.stratum, sr, ec.k, t)
    return MaxwellCoords(tau=sr * (ec.psi if ec.stratum in ROTATING else ec.phi) + p, p=p)


def _fixes(i, stratum: Stratum, jt, tol: float) -> bool:
    """Whether reflection i fixes an arc on N1, N2+- or N3+- whose midpoint has Jacobi values jt.

    jt starts (sn, cn).  On N1 reflection 1 fixes it when cn tau = 0 and
    reflection 2 when sn tau = 0; on N2+- only reflection 2 does, when
    sn tau cn tau = 0, and on N3+- only reflection 2, when sn tau = tanh tau
    = 0.  Reflection 3 fixes none of them.
    """
    if stratum in ROTATING:
        return i == 2 and abs(jt[0] * jt[1]) <= tol
    if i == 1:
        return stratum is Stratum.N1 and abs(jt[1]) <= tol
    return i == 2 and abs(jt[0]) <= tol


def is_fixed_covector(i, lam: Covector, t: float, tol: float = 1e-9) -> bool:
    """Whether reflection i maps lam's trajectory over [0, t] to itself.

    Per-stratum conditions on the Jacobi values at the arc midpoint;
    reflections 1 and 3 fix nothing on the rotating, separatrix and circular
    strata, and everything fixes the equilibria.  t must be finite.
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
    sr, k, b0 = _arc(lam, s)
    return _fixes(i, s, _add(b0, _shifted(_half_length(s, sr, k, t), k), k), tol)
