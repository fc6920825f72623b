"""Pendulum phase space over the initial fiber: strata and rectifying coordinates.

A covector (beta, c, r) drives the generalized pendulum

    beta' = c,   c' = -r sin(beta),   r' = 0,

whose energy E = c^2/2 - r cos(beta) partitions the fiber into strata: the
oscillating region (E between -r and r), the rotating region (E > r), the
separatrices, the equilibria, and the gravity-free cases r = 0.  On the three
nondegenerate families the flow is rectified by elliptic coordinates
(k, phi, r): k is a reparametrized energy (the Jacobi modulus) and phi is the
time of motion from the axis {beta = 0, c > 0} (c < 0 on the minus branches),
so that phi_t = phi + t.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .elliptic import ellint_F_inc, ellint_K, jacobi

TWO_PI = 2.0 * math.pi
# stratification half-width per unit of the covector scale max(r, c^2, 1)
STRATIFY_TOL = 1e-9


class UnsupportedStratumError(ValueError):
    """Operation not defined on this stratum."""


def wrap_angle(a: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    w = math.remainder(a, TWO_PI)
    if w <= -math.pi:
        w += TWO_PI
    return w


class _CovectorFields(NamedTuple):
    beta: float
    c: float
    r: float


class Covector(_CovectorFields):
    """Initial vertical state (beta, c, r) of the generalized pendulum.

    beta is normalized to (-pi, pi]; all three must be finite and r nonnegative.
    """

    __slots__ = ()

    def __new__(cls, beta: float, c: float, r: float):
        if not (math.isfinite(beta) and math.isfinite(c) and math.isfinite(r)):
            raise ValueError(f"covector must be finite, got {tuple.__new__(cls, (beta, c, r))}")
        if r < 0.0:
            raise ValueError(f"pendulum constant r must be >= 0, got {r}")
        return tuple.__new__(cls, (wrap_angle(beta), c, r))


class Stratum(Enum):
    N1 = "N1"
    N2_PLUS = "N2plus"
    N2_MINUS = "N2minus"
    N3_PLUS = "N3plus"
    N3_MINUS = "N3minus"
    N4 = "N4"
    N5 = "N5"
    N6_PLUS = "N6plus"
    N6_MINUS = "N6minus"
    N7 = "N7"

    def __init__(self, value: str):
        #: family index 1..7, collapsing the +/- branches
        self.family = int(value[1])
        #: +1 / -1 on the signed branches, 0 elsewhere
        self.sign = 1 if value.endswith("plus") else -1 if value.endswith("minus") else 0


OSCILLATING = (Stratum.N1,)
ROTATING = (Stratum.N2_PLUS, Stratum.N2_MINUS)
SEPARATRIX = (Stratum.N3_PLUS, Stratum.N3_MINUS)
ELLIPTIC_STRATA = OSCILLATING + ROTATING + SEPARATRIX
# the equilibria and the frozen case trace straight lines; N6 traces circles
STRAIGHT = (Stratum.N4, Stratum.N5, Stratum.N7)
CIRCULAR = (Stratum.N6_PLUS, Stratum.N6_MINUS)


class _EllipticCoordsFields(NamedTuple):
    stratum: Stratum
    k: float
    phi: float
    r: float


class EllipticCoords(_EllipticCoordsFields):
    """Rectifying coordinates (stratum, k, phi, r).

    phi is the time coordinate, stored reduced to [0, period); in the
    rotating strata the companion coordinate psi = phi/k is exposed as a
    property.  On the separatrix phi ranges over all reals.  k is stored as a
    float; a Modulus passed in is converted.
    """

    __slots__ = ()

    def __new__(cls, stratum: Stratum, k: float, phi: float, r: float):
        if stratum not in ELLIPTIC_STRATA:
            raise UnsupportedStratumError(
                f"elliptic coordinates exist only on N1/N2/N3, got {stratum}"
            )
        if r <= 0.0:
            raise ValueError("elliptic coordinates need r > 0")
        k = float(k)
        if stratum is Stratum.N1 and not 0.0 < k < 1.0:
            raise ValueError("oscillating stratum needs k in (0, 1)")
        if stratum in ROTATING and not 0.0 < k < 1.0:
            raise ValueError("rotating strata need k in (0, 1)")
        if stratum in SEPARATRIX and k != 1.0:
            raise ValueError("separatrix strata need k = 1")
        return tuple.__new__(cls, (stratum, k, phi, r))

    @property
    def psi(self) -> float:
        """Rotating-stratum companion coordinate psi = phi / k."""
        if self.stratum not in ROTATING:
            raise UnsupportedStratumError("psi is defined on the rotating strata only")
        return self.phi / self.k


def energy(lam: Covector) -> float:
    """Pendulum energy E = c^2/2 - r cos(beta); always >= -r."""
    return 0.5 * lam.c * lam.c - lam.r * math.cos(lam.beta)


def stratify(lam: Covector) -> Stratum:
    """Classify a covector into its stratum.

    The measure-zero boundaries (E = +-r, r = 0, the unstable equilibrium)
    absorb a band of half-width tol = STRATIFY_TOL * max(r, c^2, 1) so the
    classification is deterministic near the separatrices.  Inside the r = 0
    band a circle is told from the frozen line by |c| > STRATIFY_TOL, not by
    tol, which grows as c^2 and would make every |c| >= 1e9 a line.
    """
    r, c = lam.r, lam.c
    tol = STRATIFY_TOL * max(r, c * c, 1.0)
    if r <= tol:
        return (
            (Stratum.N6_PLUS if c > 0 else Stratum.N6_MINUS)
            if abs(c) > STRATIFY_TOL
            else Stratum.N7
        )
    E = energy(lam)
    if E <= -r + tol:
        return Stratum.N4
    # one difference decides both sides of the separatrix band, so that
    # every float lands in exactly one of N2, N3/N5 and N1
    d = E - r
    if d > tol:
        return Stratum.N2_PLUS if c > 0 else Stratum.N2_MINUS
    if d >= -tol:
        # separatrix level: split into the saddle point and the two branches
        if abs(wrap_angle(lam.beta - math.pi)) <= tol:
            return Stratum.N5
        return Stratum.N3_PLUS if c > 0 else Stratum.N3_MINUS
    return Stratum.N1


def period(obj) -> float:
    """Period of the pendulum motion in time: 4K/sqrt(r), 2Kk/sqrt(r), inf, 2pi/|c|.

    Accepts EllipticCoords (N1/N2/N3) or a Covector (additionally N6).
    """
    if isinstance(obj, Covector):
        s = stratify(obj)
        if s in CIRCULAR:
            return TWO_PI / abs(obj.c)
        return period(to_elliptic(obj))
    ec = obj
    sr = math.sqrt(ec.r)
    if ec.stratum is Stratum.N1:
        return 4.0 * ellint_K(ec.k) / sr
    if ec.stratum in ROTATING:
        return 2.0 * ellint_K(ec.k) * ec.k / sr
    if ec.stratum in SEPARATRIX:
        return math.inf
    raise UnsupportedStratumError(f"no period on {ec.stratum}")


def to_elliptic(lam: Covector) -> EllipticCoords:
    """Forward map (beta, c, r) -> (stratum, k, phi, r) on N1, N2+-, N3+-.

    phi is recovered by quadrant-aware inversion of the defining triples: the
    amplitude is taken from atan2 of the (sn, cn) pair, mapped through the
    quasi-periodic incomplete integral, and reduced to [0, period).
    """
    s = stratify(lam)
    r = lam.r
    sr = math.sqrt(r) if r > 0 else 0.0
    if s is Stratum.N1:
        E = energy(lam)
        k = math.sqrt((E + r) / (2.0 * r))
        am = math.atan2(math.sin(0.5 * lam.beta), 0.5 * lam.c / sr)
        sru = ellint_F_inc(am, k) % (4.0 * ellint_K(k))
        return EllipticCoords(s, k, sru / sr, r)
    if s in ROTATING:
        E = energy(lam)
        k = math.sqrt(2.0 * r / (E + r))
        am = math.atan2(s.sign * math.sin(0.5 * lam.beta), math.cos(0.5 * lam.beta))
        srv = ellint_F_inc(am, k) % (2.0 * ellint_K(k))
        return EllipticCoords(s, k, k * srv / sr, r)
    if s in SEPARATRIX:
        sru = ellint_F_inc(s.sign * 0.5 * lam.beta, 1.0)
        return EllipticCoords(s, 1.0, sru / sr, r)
    raise UnsupportedStratumError(f"no elliptic coordinates on {s}")


def from_elliptic(ec: EllipticCoords) -> Covector:
    """Inverse map: evaluate the stratum's defining triple at (k, phi, r)."""
    r = ec.r
    sr = math.sqrt(r)
    k = ec.k
    sgn = float(ec.stratum.sign or 1)
    if ec.stratum in ROTATING:
        jv = jacobi(sr * ec.psi, k)
        beta = 2.0 * math.atan2(sgn * jv.sn, jv.cn)
        return Covector(beta, sgn * 2.0 * sr / k * jv.dn, r)
    # N1, and N3+- at k = 1 where the Jacobi functions are hyperbolic
    jv = jacobi(sr * ec.phi, k)
    beta = 2.0 * math.atan2(sgn * k * jv.sn, jv.dn)
    return Covector(beta, sgn * 2.0 * k * sr * jv.cn, r)


def flow_vertical(lam: Covector, t: float) -> Covector:
    """Closed-form pendulum flow for time t, on every stratum.

    Rectified strata advance phi by t; N6 rotates uniformly; the equilibria
    N4/N5 and the frozen case N7 are returned unchanged (constant motion).
    """
    s = stratify(lam)
    if s in ELLIPTIC_STRATA:
        ec = to_elliptic(lam)
        phi_t = ec.phi + t
        if s not in SEPARATRIX:
            phi_t %= period(ec)
        return from_elliptic(
            EllipticCoords(ec.stratum, ec.k, phi_t, ec.r)
        )
    if s in CIRCULAR:
        return Covector(lam.beta + lam.c * t, lam.c, lam.r)
    # N4 / N5 / N7: equilibria of the vertical subsystem
    return lam
