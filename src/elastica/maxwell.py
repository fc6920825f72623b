"""Maxwell strata: root equations, threshold constants, and the cut-time bound.

An extremal cannot stay globally optimal past the first time its endpoint is
also reached by a distinct reflected extremal of equal bending energy.  In
the (tau, p) coordinates of an arc those meeting events reduce to scalar
equations: the p-lattice {2Kn} together with the roots of f1 on the
oscillating stratum, the lattice {Kn} on the rotating strata, and the root
curve of g1 (chord reflection through turned tangents) governed by the
constants k0 (figure-eight modulus, 2E = K), k* and u*.

All scalar roots are found by bracketing + Brent, with brackets supplied by
the localization facts encoded here, never by blind scanning.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .elliptic import (
    BRENT_RTOL,
    BRENT_XTOL,
    K_RECT,
    EllipticDomainError,
    _add,
    _brentq,
    _SameSignError,
    _shifted,
    ellint_E_inc,
    ellint_F_inc,
    ellint_K,
    find_k0,
    jacobi,
)
from .phase import (
    CIRCULAR,
    ROTATING,
    SEPARATRIX,
    STRAIGHT,
    Covector,
    Stratum,
    _check_tol,
    stratify,
)
from .symmetry import _arc, _fixes, _half_length

DEFAULT_TOL = 1e-9
KSTAR_GRID_STEP = 1e-3
K0_SNAP = 1e-12  # within this distance of k0, lattice roots are exact
_ROOT_SCAN_MAX = 8  # lattice indices examined when locating first Maxwell times

# separatrix, equilibria and the frozen case: no Maxwell point at any time
_NEVER_MEETS = SEPARATRIX + STRAIGHT


class MaxwellStratum(Enum):
    MAX1 = "MAX1"
    MAX2 = "MAX2"
    MAX3_PLUS = "MAX3plus"
    MAX3_MINUS = "MAX3minus"


_STRATA = tuple(MaxwellStratum)  # the order of _met's flags and of the report's times


class MaxwellReport(NamedTuple):
    """First Maxwell times per reflection stratum and the cut-time upper bound.

    Each time is that of the least searched half-length at which the stratum
    is met, and +inf means "not found there", not "never met".  The
    oscillating search covers the lattice point 2K, the roots p_n^1 up to
    n = _ROOT_SCAN_MAX and, when k >= k*, p_g1; the rotating one covers the
    lattice point K alone, so t1_max2 and t1_max3minus are +inf there
    although MAX3- points lie past K.  The bound is +inf only on the
    separatrix, the equilibria and the frozen case.  For oscillating
    covectors whose midpoint coordinate sits on the tau-lattice (cn tau *
    sn tau = 0 at the bound time) the bound is flagged: there the meeting
    partner degenerates and the bound rests on conjugate-point
    grounds rather than on a Maxwell point.
    """

    stratum: Stratum
    t1_max1: float
    t1_max2: float
    t1_max3plus: float
    t1_max3minus: float
    bound: float
    tau_degenerate: bool = False


# ---------------------------------------------------------------------------
# scalar root functions

def f1(p: float, k) -> float:
    """sn p dn p - (2 eps(p) - p) cn p: perpendicular-reflection equation, oscillating case.

    Odd in p; its positive roots p_n^1 mark arcs meeting their
    middle-perpendicular reflections.
    """
    kf = float(k)
    jv = jacobi(p, kf)
    return jv.sn * jv.dn - (2.0 * jv.eps - p) * jv.cn


def _rotating_k(k, name: str) -> float:
    """float(k) for a rotating-strata function, which divides by k in (0, 1]."""
    kf = float(k)
    if not 0.0 < kf <= 1.0:  # false for NaN
        raise EllipticDomainError(f"{name} needs k in (0, 1], got {kf}")
    return kf


def f2(p: float, k) -> float:
    """[k^2 sn p cn p + dn p ((2-k^2) p - 2 eps(p))] / k: rotating-case companion of f1.

    Vanishes only at p = 0, so non-inflectional arcs never meet their
    middle-perpendicular reflections away from the trivial time.  k must lie
    in (0, 1], else EllipticDomainError.
    """
    kf = _rotating_k(k, "f2")
    jv = jacobi(p, kf)
    return (kf * kf * jv.sn * jv.cn + jv.dn * ((2.0 - kf * kf) * p - 2.0 * jv.eps)) / kf


def g1_n1(p: float, k) -> float:
    """Chord-reflection (turned-tangent) equation on the oscillating stratum.

    (1 - k^2 + k^2 cn^4 p)(2 eps(p) - p) + cn p sn p dn p (2 k^2 sn^2 p - 1);
    behaves like (2/3) p^3 at the origin.
    """
    kf = float(k)
    jv = jacobi(p, kf)
    cn2 = jv.cn * jv.cn
    return (1.0 - kf * kf + kf * kf * cn2 * cn2) * (2.0 * jv.eps - p) + (
        jv.cn * jv.sn * jv.dn * (2.0 * kf * kf * jv.sn * jv.sn - 1.0)
    )


def g1_n2(p: float, k) -> float:
    """Chord-reflection equation on the rotating strata; positive on (0, K).

    k must lie in (0, 1], else EllipticDomainError.
    """
    kf = _rotating_k(k, "g1_n2")
    jv = jacobi(p, kf)
    sn2 = jv.sn * jv.sn
    return (
        kf * kf * jv.cn * jv.sn * jv.dn * (2.0 * sn2 - 1.0)
        + (1.0 - 2.0 * sn2 + kf * kf * sn2 * sn2)
        * (2.0 * jv.eps - (2.0 - kf * kf) * p)
    ) / kf


# ---------------------------------------------------------------------------
# amplitude-variable auxiliaries for the chord-reflection root curve

def _a1_coeffs(k: float):
    """Coefficients of a1(u) = c0 + c1 cos 2u + c2 cos^2 2u, the sign of d/du of h1 over its prefactor.

    c0 = 8 - 10k^2 + 4k^4, c1 = 4k^2(3 - 2k^2) and c2 = 2k^2(2k^2 - 1).
    """
    k2 = k * k
    c0 = 8.0 - 10.0 * k2 + 4.0 * k2 * k2
    c1 = 4.0 * k2 * (3.0 - 2.0 * k2)
    c2 = 2.0 * k2 * (2.0 * k2 - 1.0)
    return c0, c1, c2


def h1(u: float, k) -> float:
    """g1_n1 written in the amplitude variable u = am p."""
    kf = float(k)
    k2 = kf * kf
    cu, su = math.cos(u), math.sin(u)
    return (1.0 - k2 + k2 * cu**4) * (
        2.0 * ellint_E_inc(u, kf) - ellint_F_inc(u, kf)
    ) + cu * su * math.sqrt(1.0 - k2 * su * su) * (2.0 * k2 * su * su - 1.0)


# ---------------------------------------------------------------------------
# constants and root curves

def u_a1(k) -> float:
    """Unique zero of a1 in (pi/4, pi/2] for k in [1/sqrt(2), 1].

    Equals pi/2 at both endpoint moduli; solved from the quadratic in
    cos 2u with the cancellation-free root formula.
    """
    kf = float(k)
    if not K_RECT - 1e-14 <= kf <= 1.0:
        raise ValueError(f"u_a1 needs k in [1/sqrt(2), 1], got {kf}")
    c0, c1, c2 = _a1_coeffs(kf)
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc <= 0.0:
        return math.pi / 2.0
    t = -2.0 * c0 / (c1 + math.sqrt(disc))
    t = max(-1.0, min(0.0, t))
    return 0.5 * math.acos(t)


def _alpha(k: float) -> float:
    """h1 along the curve u = pi - u_a1(k); its largest zero defines k*."""
    return h1(math.pi - u_a1(k), k)


@lru_cache(maxsize=1)
def find_kstar():
    """(k*, u*): threshold below which the chord-reflection stratum is empty.

    k* is the supremum of zeros of alpha(k) = h1(pi - u_a1(k), k) below the
    figure-eight modulus; located by descending from k0 in fixed steps until
    the sign change, then Brent-refined, then verified negative on a grid of
    (k*, k0].
    """
    k0 = find_k0()
    hi = k0
    val_hi = _alpha(hi)
    lo = hi
    while True:
        lo = hi - KSTAR_GRID_STEP
        if lo <= K_RECT:
            raise RuntimeError("no sign change of alpha above 1/sqrt(2)")
        val_lo = _alpha(lo)
        if val_lo >= 0.0 > val_hi or val_lo > 0.0 >= val_hi:
            break
        hi, val_hi = lo, val_lo
    kstar = _brentq(_alpha, lo, hi, xtol=BRENT_XTOL, rtol=BRENT_RTOL)
    for i in range(1, 200):
        kk = kstar + (k0 - kstar) * i / 200.0
        if _alpha(kk) >= 0.0:
            raise RuntimeError(f"alpha not negative on (k*, k0] at k = {kk}")
    ustar = math.pi - u_a1(kstar)
    return kstar, ustar


def u_h1(k) -> float:
    """First positive zero in u of h1(., k), for k in [k*, 1).

    Lies in (pi/2, 3pi/4) below the figure-eight modulus, equals pi/2 there,
    and drops into (pi/4, pi/2) above it.
    """
    kf = float(k)
    kstar, _ = find_kstar()
    if not kstar <= kf < 1.0:
        raise ValueError(f"u_h1 needs k in [k* = {kstar}, 1), got {kf}")
    k0 = find_k0()
    if abs(kf - k0) < K0_SNAP:
        return math.pi / 2.0
    if kf < k0:
        lo, hi = math.pi / 2.0, math.pi - u_a1(kf)
    else:
        lo, hi = u_a1(kf), math.pi / 2.0
    flo, fhi = h1(lo, kf), h1(hi, kf)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    return _brentq(lambda u: h1(u, kf), lo, hi, xtol=BRENT_XTOL, rtol=BRENT_RTOL)


def p_g1(k) -> float:
    """First positive root of g1_n1(., k) for k in [k*, 1): u_h1 mapped through F."""
    kf = float(k)
    kstar, _ = find_kstar()
    if not kstar <= kf < 1.0:
        raise ValueError(f"p_g1 needs k in [k* = {kstar}, 1), got {kf}")
    return ellint_F_inc(u_h1(kf), kf)


def p1_roots(k, n: int) -> float:
    """n-th root p_n^1 of f1, odd in n, localized in (2Kn - K, 2Kn + K).

    For positive n the root sits right of the lattice point 2Kn below the
    figure-eight modulus, on it there, and left of it above.  At k = 0 the
    same bracket holds the roots of tan p = p, the k -> 0 limit.  At large
    n the root can lie within an ulp of a bracket end, where f1 takes the
    sign of the other end: then each end is moved out by one ulp, and a
    bracket that still has no sign change raises ValueError.  The last
    2 * _ROOT_SCAN_MAX solves are kept, so `cut_time_bound` and `in_maxwell`
    on one covector solve each root once.
    """
    kf = float(k)
    if not 0.0 <= kf < 1.0:
        raise ValueError(f"p1_roots needs k in [0, 1), got {kf}")
    if n == 0:
        return 0.0
    if n < 0:
        return -p1_roots(kf, -n)
    return _p1_root(kf, n)


@lru_cache(maxsize=2 * _ROOT_SCAN_MAX)
def _p1_root(kf: float, n: int) -> float:
    """The Brent solve of `p1_roots` for k in [0, 1) and n >= 1."""
    K = ellint_K(kf)
    k0 = find_k0()
    if abs(kf - k0) < K0_SNAP:
        return 2.0 * K * n
    if kf < k0:
        lo, hi = 2.0 * K * n, 2.0 * K * n + K
    else:
        lo, hi = 2.0 * K * n - K, 2.0 * K * n

    def f(p):
        return f1(p, kf)

    try:
        return _brentq(f, lo, hi, xtol=BRENT_XTOL, rtol=BRENT_RTOL)
    except _SameSignError:
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    try:
        return _brentq(f, lo, hi, xtol=BRENT_XTOL, rtol=BRENT_RTOL)
    except _SameSignError:
        raise ValueError(f"p1_roots found no sign change of f1 at k = {kf}, n = {n}") from None


# ---------------------------------------------------------------------------
# Maxwell strata membership and first Maxwell times

def _on_lattice(x: float, step: float, tol: float) -> bool:
    """Whether x lies within tol of a nonzero point of the lattice step*Z."""
    n = round(x / step)
    return n != 0 and abs(x - n * step) <= tol


def _met(stratum, jt, even, f1_root, chord_rhs, at_k0, tol) -> tuple:
    """Whether an N1 or rotating arc meets MAX1, MAX2, MAX3+ and MAX3-, in that order.

    jt starts with sn and cn at the arc's midpoint tau, and the flags say
    which equations its half-length p solves.  even: p lies on the nonzero
    lattice (2K Z on N1, K Z on the rotating strata), where the arc meets
    its reflection-1 image; f1_root: p is a root p_n^1 of f1, where it meets
    its reflection-2 image; chord_rhs: the sn^2 tau that the solved
    chord-reflection equation asks for, else None; at_k0: the modulus is the
    figure-eight one.  A reflection that fixes the arc puts the other one's
    meeting into MAX3+ as well; on the rotating strata into MAX3+ alone.
    """
    fix1 = _fixes(1, stratum, jt, tol)
    fix2 = _fixes(2, stratum, jt, tol)
    return (
        even and not fix1 and not (fix2 and stratum in ROTATING),
        f1_root and not fix2,
        (even and (fix2 or at_k0)) or (f1_root and fix1),
        chord_rhs is not None and abs(jt[0] * jt[0] - chord_rhs) <= tol,
    )


def in_maxwell(lam: Covector, t: float, tol: float = DEFAULT_TOL) -> set:
    """Maxwell strata containing lam at time t, each equation tested at tol.

    Strata are measure-zero, so membership is meaningful only with a
    tolerance contract: lattice conditions compare p to the nearest lattice
    point, function conditions compare residuals against tol, which must be
    finite and > 0.  A circle whose turning angle c t overflows raises
    ValueError.
    """
    if not 0.0 < t < math.inf:
        raise ValueError(f"in_maxwell needs finite t > 0, got {t}")
    _check_tol(tol)
    s = stratify(lam)
    if s in _NEVER_MEETS:
        return set()
    if s in CIRCULAR:
        turn = lam.c * t
        if not math.isfinite(turn):
            raise ValueError(f"in_maxwell: the turning angle c*t overflows at c = {lam.c}, t = {t}")
        if _on_lattice(turn, 2.0 * math.pi, tol):
            return {MaxwellStratum.MAX1, MaxwellStratum.MAX3_PLUS}
        return set()

    sr, k, b0 = _arc(lam, s)
    K = ellint_K(k)
    p = _half_length(s, sr, k, t)
    jp = _shifted(p, k)
    jt = _add(b0, jp, k)
    rotating = s in ROTATING
    if rotating:
        even, f1_root, at_k0, g1 = _on_lattice(p, K, tol), False, False, g1_n2
    else:
        n_f1 = round(p / (2.0 * K))
        even = _on_lattice(p, 2.0 * K, tol)
        f1_root = n_f1 >= 1 and abs(p - p1_roots(k, n_f1)) <= tol
        at_k0, g1 = abs(k - find_k0()) <= tol, g1_n1
    rhs = _chord_sn2(k, jp[0] * jp[0], tol, rotating)
    if rhs is not None and abs(g1(p, k)) > tol:
        rhs = None
    return {m for m, hit in zip(_STRATA, _met(s, jt, even, f1_root, rhs, at_k0, tol)) if hit}


def _chord_sn2(k: float, sn2p: float, tol: float, rotating: bool = False):
    """sn^2 tau that the chord-reflection (MAX3-) system asks for at half-length p.

    (2 k^2 sn^2 p - 1) / (k^2 sn^2 p) oscillating, (2 sn^2 p - 1) / (k^2 sn^2 p)
    rotating; None unless it lies in [-tol, 1 + tol].  k^2 sn^2 p = 0 (also
    by underflow) is the limit -inf, which no tau meets.
    """
    den = k * k * sn2p
    if den == 0.0:
        return None
    rhs = ((2.0 * sn2p if rotating else 2.0 * den) - 1.0) / den
    return rhs if -tol <= rhs <= 1.0 + tol else None


def unit_cut_time_bound(k, rotating: bool, p1: float | None = None) -> float:
    """Cut-time bound at r = 1: 2 min(2K, p_1^1) oscillating, 2kK rotating.

    cut_time_bound divides it by sqrt(r).  p1 is p_1^1 if already solved.
    """
    kf = float(k)
    K = ellint_K(kf)
    if rotating:
        return 2.0 * kf * K
    if kf <= find_k0():
        return 2.0 * (2.0 * K)
    return 2.0 * (p1_roots(kf, 1) if p1 is None else p1)


def cut_time_bound(lam: Covector, tol: float = DEFAULT_TOL) -> MaxwellReport:
    """Upper bound on the cut time, with first per-reflection Maxwell times.

    Oscillating: (2/sqrt(r)) min(2K, p_1^1); rotating: (2k/sqrt(r)) K;
    circular: 2 pi/|c|; +inf on the separatrix, equilibria and the frozen
    case.  Scales like time under the dilation symmetry.  A first time is
    that of the least candidate half-length p (listed in MaxwellReport) at
    which `_met` names the stratum; the roots p_n^1 stop once MAX2 and MAX3+
    are both met.  tol must be finite and > 0.
    """
    _check_tol(tol)
    s = stratify(lam)
    if s in _NEVER_MEETS:
        return MaxwellReport(s, math.inf, math.inf, math.inf, math.inf, math.inf)
    if s in CIRCULAR:
        T = 2.0 * math.pi / abs(lam.c)
        return MaxwellReport(s, T, math.inf, T, math.inf, T)

    sr, k, b0 = _arc(lam, s)
    K = ellint_K(k)
    rotating = s in ROTATING
    first = [math.inf] * 4  # least p per stratum, in _STRATA order
    jts = {}

    def meet(p, even=False, f1_root=False, chord=False, at_k0=False):
        jp = _shifted(p, k)
        jts[p] = jt = _add(b0, jp, k)
        rhs = _chord_sn2(k, jp[0] * jp[0], tol) if chord else None
        for i, hit in enumerate(_met(s, jt, even, f1_root, rhs, at_k0, tol)):
            if hit and p < first[i]:
                first[i] = p

    p1 = None
    if rotating:
        meet(K, even=True)
    else:
        meet(2.0 * K, even=True, at_k0=abs(k - find_k0()) <= tol)
        for n in range(1, _ROOT_SCAN_MAX + 1):
            pn = p1_roots(k, n)
            if n == 1:
                p1 = pn
            meet(pn, f1_root=True)
            if max(first[1], first[2]) < math.inf:  # MAX2 and MAX3+ both met
                break
        if k >= find_kstar()[0]:
            meet(p_g1(k), chord=True)

    scale = 2.0 * k if rotating else 2.0
    unit = unit_cut_time_bound(k, rotating, p1)
    # at r = 1 the bound time t has half-length p = t / 2, one of the candidates
    jb = None if rotating else jts[unit / 2.0]
    return MaxwellReport(
        s,
        *[scale * p / sr for p in first],
        unit / sr,
        tau_degenerate=jb is not None and abs(jb[0] * jb[1]) <= tol,
    )
