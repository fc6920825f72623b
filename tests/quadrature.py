"""Reference quadratures for the tests: adaptive Simpson and the elliptic integrals.

Independent of the AGM: the incomplete integrals of the first and second
kind are summed from their integrands, to cross-check `elastica.elliptic`.
"""

import math


class QuadratureError(RuntimeError):
    """Adaptive Simpson failed to converge within the depth limit."""


def _simpson(f, a, b, fa, fm, fb):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, b, fa, fm, fb, whole, tol, depth):
    if depth > 60:
        raise QuadratureError("adaptive Simpson exceeded depth 60")
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = _simpson(f, a, m, fa, flm, fm)
    right = _simpson(f, m, b, fm, frm, fb)
    if abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return _adaptive(f, a, m, fa, flm, fm, left, tol / 2.0, depth + 1) + _adaptive(
        f, m, b, fm, frm, fb, right, tol / 2.0, depth + 1
    )


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-13) -> float:
    """Adaptive Simpson quadrature of f over [a, b] to absolute tolerance tol."""
    if a == b:
        return 0.0
    fa, fb, fm = f(a), f(b), f(0.5 * (a + b))
    whole = _simpson(f, a, b, fa, fm, fb)
    return _adaptive(f, a, b, fa, fm, fb, whole, tol, 0)


def quad_F(phi: float, k) -> float:
    """First-kind incomplete integral by quadrature, phi in [0, pi/2], k in [0, 1)."""
    kf = float(k)
    if not 0.0 <= kf < 1.0:
        raise ValueError("quad_F needs k in [0, 1)")
    if not 0.0 <= phi <= math.pi / 2.0 + 1e-15:
        raise ValueError("quad_F needs phi in [0, pi/2]")
    k2 = kf * kf
    return adaptive_simpson(
        lambda s: 1.0 / math.sqrt(1.0 - k2 * math.sin(s) ** 2), 0.0, phi
    )


def quad_E(phi: float, k) -> float:
    """Second-kind incomplete integral by quadrature, phi in [0, pi/2], k in [0, 1]."""
    kf = float(k)
    if not 0.0 <= kf <= 1.0:
        raise ValueError("quad_E needs k in [0, 1]")
    if not 0.0 <= phi <= math.pi / 2.0 + 1e-15:
        raise ValueError("quad_E needs phi in [0, pi/2]")
    k2 = kf * kf
    return adaptive_simpson(
        lambda s: math.sqrt(max(0.0, 1.0 - k2 * math.sin(s) ** 2)), 0.0, phi
    )
