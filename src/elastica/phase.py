"""Pendulum phase space over the initial fiber: strata and rectifying coordinates.

A covector (beta, c, r) drives the generalized pendulum

    beta' = c,   c' = -r sin(beta),   r' = 0,

whose energy E = c^2/2 - r cos(beta) partitions the fiber into strata: the
oscillating region (E between -r and r), the rotating region (E > r), the
separatrices, the equilibria, and the gravity-free cases r = 0.  On the three
nondegenerate families a covector is a point u0 of its Jacobi curve at the
algebraic modulus kappa, kappa^2 = sin^2(beta/2) + c^2/(4r) = (E + r)/(2r):
sin(beta/2) = kappa sn u0, cos(beta/2) = dn u0, c/(2 sqrt r) = kappa cn u0.
`_start` is the one map from a covector to that point.  The flow moves it by
sqrt(r) t, and the rectifying coordinates (k, phi, r) take the modulus
k = kappa on N1, 1/kappa on N2+- and 1 on N3+-; phi is the time of motion
from the axis {beta = 0, c > 0} (c < 0 on the minus branches), so that
phi_t = phi + t.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .elliptic import _add, _recip_shifted, _shifted, ellint_F_inc, ellint_K, jacobi

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


# the members `stratify` returns, bound once: Stratum.N1 looks a member up
# through EnumType.__getattr__, about 0.14 us a time in CPython 3.11
_N1, _N4, _N5, _N7 = Stratum.N1, Stratum.N4, Stratum.N5, Stratum.N7
_N2_PLUS, _N2_MINUS = Stratum.N2_PLUS, Stratum.N2_MINUS
_N3_PLUS, _N3_MINUS = Stratum.N3_PLUS, Stratum.N3_MINUS
_N6_PLUS, _N6_MINUS = Stratum.N6_PLUS, Stratum.N6_MINUS
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
            (_N6_PLUS if c > 0 else _N6_MINUS)
            if abs(c) > STRATIFY_TOL
            else _N7
        )
    E = energy(lam)
    if E <= -r + tol:
        return _N4
    # one difference decides both sides of the separatrix band, so that
    # every float lands in exactly one of N2, N3/N5 and N1
    d = E - r
    if d > tol:
        return _N2_PLUS if c > 0 else _N2_MINUS
    if d >= -tol:
        # separatrix level: split into the saddle point and the two branches
        if abs(wrap_angle(lam.beta - math.pi)) <= tol:
            return _N5
        return _N3_PLUS if c > 0 else _N3_MINUS
    return _N1


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


def _start(lam: Covector, s: Stratum):
    """The point of lam's Jacobi curve on N1, N2+- and N3+-: (sqrt(r), kap, a0, k, jac).

    kap is the algebraic modulus, a0 = (sn, cn, dn, eps) at u0 and modulus
    kap, eps measured from u0, k the modulus in (0, 1] and jac the shifted
    Jacobi routine at modulus k: `_recip_shifted` at k = 1/kap on the
    rotating strata, kap > 1, and `_shifted` at k = kap elsewhere.  s is
    stratify(lam).
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


def _check_time(t: float, name: str) -> None:
    """Raise ValueError unless the time t given to the function name is finite."""
    if not math.isfinite(t):
        raise ValueError(f"{name} needs a finite t, got {t}")


def _check_tol(tol: float) -> None:
    """Raise ValueError unless the tolerance is finite and > 0, as the CLI's --tol."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")


def to_elliptic(lam: Covector) -> EllipticCoords:
    """Forward map (beta, c, r) -> (stratum, k, phi, r) on N1, N2+-, N3+-.

    k is that of `_start`.  phi is recovered by quadrant-aware inversion of
    its start point: the amplitude is taken from atan2 of an (sn, cn) pair,
    mapped through the quasi-periodic incomplete integral, and reduced to
    [0, period).
    """
    s = stratify(lam)
    if s not in ELLIPTIC_STRATA:
        raise UnsupportedStratumError(f"no elliptic coordinates on {s}")
    sr, kap, (sn0, cn0, dn0, _), k, _ = _start(lam, s)
    if s is Stratum.N1:
        sru = ellint_F_inc(math.atan2(sn0, cn0), k) % (4.0 * ellint_K(k))
        return EllipticCoords(s, k, sru / sr, lam.r)
    # N2+- and N3+- (kap = k = 1): at k = 1/kap, w0 = kap u0 has sn w0 = kap sn u0, cn w0 = dn u0
    srv = ellint_F_inc(math.atan2(s.sign * kap * sn0, dn0), k)
    if s in ROTATING:
        srv %= 2.0 * ellint_K(k)
    return EllipticCoords(s, k, k * srv / sr, lam.r)


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
    """Closed-form pendulum flow for a finite time t, on every stratum.

    On N1, N2+- and N3+- the start point of `_start` moves by sqrt(r) t
    along its Jacobi curve; N6 rotates uniformly; the equilibria N4/N5 and
    the frozen case N7 are returned unchanged (constant motion).
    """
    _check_time(t, "flow_vertical")
    s = stratify(lam)
    if s in ELLIPTIC_STRATA:
        sr, kap, a0, k, jac = _start(lam, s)
        sn, cn, dn, _ = _add(a0, jac(sr * t, k), kap)
        # the curvature c_t = 2 sqrt(r) kap cn, as `expmap._endpoint` has it
        return Covector(2.0 * math.atan2(kap * sn, dn), 2.0 * sr * kap * cn, lam.r)
    if s in CIRCULAR:
        return Covector(lam.beta + lam.c * t, lam.c, lam.r)
    # N4 / N5 / N7: equilibria of the vertical subsystem
    return lam
