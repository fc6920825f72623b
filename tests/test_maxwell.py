import math
import random
import re

import pytest

from elastica import maxwell
from elastica.elliptic import (
    BRENT_RTOL,
    BRENT_XTOL,
    K0,
    EllipticDomainError,
    ellint_E,
    ellint_E_inc,
    ellint_F_inc,
    ellint_K,
    jacobi,
)
from elastica.expmap import elastic_energy_closed, exp_map
from elastica.maxwell import (
    DEFAULT_TOL,
    MaxwellStratum,
    _brentq,
    cut_time_bound,
    f1,
    f2,
    find_k0,
    find_kstar,
    g1_n1,
    g1_n2,
    h1,
    in_maxwell,
    p1_roots,
    p_g1,
    u_a1,
    u_h1,
)
from elastica.phase import Covector, wrap_angle
from elastica.symmetry import reflect_covector

from conftest import n1, n2, n3

K_RECT = 1.0 / math.sqrt(2.0)


class TestRootFunctions:
    def test_f1_odd_and_zero_at_origin(self):
        assert f1(0.0, 0.5) == 0.0
        for p in (0.7, 2.2):
            assert f1(-p, 0.5) == pytest.approx(-f1(p, 0.5), abs=1e-13)

    def test_f1_vanishes_on_lattice_at_figure_eight_modulus(self):
        k0 = float(find_k0())
        assert abs(f1(2.0 * ellint_K(k0), k0)) < 1e-12

    def test_f1_sign_change_in_first_bracket(self):
        k = 0.5
        K = ellint_K(k)
        assert f1(2.0 * K, k) > 0.0 > f1(3.0 * K, k)

    def test_f2_zero_at_origin_and_no_other_roots(self):
        assert f2(0.0, 0.5) == 0.0
        K = ellint_K(0.5)
        vals = [f2(1e-4 + i * (5 * K - 1e-4) / 400, 0.5) for i in range(401)]
        # no sign change anywhere in (0, 5K)
        assert min(vals) > 0.0 or max(vals) < 0.0

    def test_f2_separatrix_limit(self):
        # the k -> 1 limit of the rotating-case equation is hyperbolic
        for p in (0.4, 1.3, 2.6):
            limit = (p - math.tanh(p)) / math.cosh(p)
            assert f2(p, 1.0 - 1e-9) == pytest.approx(limit, abs=1e-7)

    def test_g1_n1_origin_cubic(self):
        assert g1_n1(0.0, 0.4) == 0.0
        for k in (0.3, 0.8):
            assert g1_n1(1e-3, k) == pytest.approx(2.0 / 3.0 * 1e-9, rel=1e-4)

    def test_g1_n1_root_residual(self):
        k = 0.95
        p = p_g1(k)
        assert abs(g1_n1(p, k)) < 1e-11

    def test_g1_n2_positive_inside_first_quarter(self):
        assert g1_n2(ellint_K(0.6) / 2.0, 0.6) > 0.0

    def test_g1_n2_positive_on_grid(self):
        for i in range(1, 20):
            k = i / 20.0
            K = ellint_K(k)
            for j in range(1, 40):
                assert g1_n2(j * K / 40.0, k) > 0.0

    @pytest.mark.parametrize("func", [f2, g1_n2])
    def test_rotating_functions_need_a_positive_modulus(self, func):
        # both divide by k
        name = func.__name__
        for k in (0.0, -0.0, 1.5, math.nan):
            with pytest.raises(EllipticDomainError, match=rf"^{name} needs k in \(0, 1\], got "):
                func(0.7, k)
        assert math.isfinite(func(0.7, 1.0))


# f1 and h1, which Brent evaluates, as they read `jacobi` and the public
# integrals: the references they must match bit for bit, errors included.

def _f1_ref(p, k):
    kf = float(k)
    jv = jacobi(p, kf)
    return jv.sn * jv.dn - (2.0 * jv.eps - p) * jv.cn


def _h1_ref(u, k):
    kf = float(k)
    k2 = kf * kf
    cu, su = math.cos(u), math.sin(u)
    return (1.0 - k2 + k2 * cu**4) * (
        2.0 * ellint_E_inc(u, kf) - ellint_F_inc(u, kf)
    ) + cu * su * math.sqrt(1.0 - k2 * su * su) * (2.0 * k2 * su * su - 1.0)


def _outcome(fn, x, k):
    """fn(x, k) as its float's hex, or the type and message of what it raised."""
    try:
        return fn(x, k).hex()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _seeded_moduli(rng):
    ks = [rng.random() for _ in range(60)]
    ks += [10.0 ** -rng.uniform(1.0, 300.0) for _ in range(15)]
    ks += [1.0 - 10.0 ** -rng.uniform(1.0, 16.0) for _ in range(15)]
    return ks + [0.0, 1.0, K0, K_RECT]


class TestRootFunctionsBitForBit:
    """f1 and h1 read one Jacobi or Landen pass directly, with the bits of the public functions."""

    def test_f1_is_the_jacobi_formula_bit_for_bit(self):
        # p of both signs from 1e-8 to 1e6, k over (0, 1) and its ends
        rng = random.Random(35)
        for k in _seeded_moduli(rng):
            for _ in range(6):
                p = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8.0, 6.0)
                assert _outcome(f1, p, k) == _outcome(_f1_ref, p, k), (p, k)
            for p in (0.0, -0.0, 0.7, -2.5, 1e6, -1e6):
                assert _outcome(f1, p, k) == _outcome(_f1_ref, p, k), (p, k)

    def test_f1_errors_and_non_finite_arguments_unchanged(self):
        # what jacobi raises, or returns at k = 0 and k = 1
        for p in (math.inf, -math.inf, math.nan):
            for k in (0.0, 0.5, 1.0):
                assert _outcome(f1, p, k) == _outcome(_f1_ref, p, k), (p, k)
        for k in (-0.1, 1.5, math.nan, -0.0):
            assert _outcome(f1, 0.7, k) == _outcome(_f1_ref, 0.7, k), k

    def test_h1_is_the_public_integrals_bit_for_bit(self):
        # u past pi/2 reduces the phase with m != 0, so both extensions count
        rng = random.Random(36)
        for k in _seeded_moduli(rng):
            us = [rng.uniform(-4.0 * math.pi, 4.0 * math.pi) for _ in range(6)]
            us += [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8.0, 6.0) for _ in range(3)]
            us += [0.0, -0.0, 1.0, math.pi / 2.0, 2.0, math.pi, -5.0, 1e6]
            for u in us:
                assert _outcome(h1, u, k) == _outcome(_h1_ref, u, k), (u, k)

    def test_h1_errors_and_non_finite_arguments_unchanged(self):
        for u in (math.inf, -math.inf, math.nan):
            for k in (0.0, 0.5, 1.0):
                assert _outcome(h1, u, k) == _outcome(_h1_ref, u, k), (u, k)
        for k in (-0.1, 1.5, math.nan):
            assert _outcome(h1, 0.7, k) == _outcome(_h1_ref, 0.7, k), k


# The amplitude-variable auxiliaries of the chord-reflection root curve.  Only
# the lemmas below use them; the library keeps a1's coefficients for u_a1.


class PoleError(ZeroDivisionError):
    """Evaluation at a pole of the reduced root function."""


def a1(u: float, k) -> float:
    """Quadratic in cos 2u whose sign drives the monotonicity of h2.

    c0 + c1 cos 2u + c2 cos^2 2u with the coefficients of
    `maxwell._a1_coeffs`; equals 8 at u = 0 for every k.
    """
    c0, c1, c2 = maxwell._a1_coeffs(float(k))
    t = math.cos(2.0 * u)
    return c0 + c1 * t + c2 * t * t


def h2(u: float, k) -> float:
    """h1 normalized by its positive prefactor 1 - k^2 + k^2 cos^4 u."""
    kf = float(k)
    den = 1.0 - kf * kf + kf * kf * math.cos(u) ** 4
    if abs(den) < 1e-300:
        raise PoleError(f"h2 pole at u = {u}, k = {kf}")
    return h1(u, kf) / den


def h2_du(u: float, k) -> float:
    """du-derivative of h2; its sign is the sign of a1."""
    kf = float(k)
    k2 = kf * kf
    den = 1.0 - k2 + k2 * math.cos(u) ** 4
    pref = (
        math.sin(u) ** 2
        * math.sqrt(2.0 - k2 + k2 * math.cos(2.0 * u))
        / (4.0 * math.sqrt(2.0) * den * den)
    )
    return pref * a1(u, kf)


def compat_n1(u: float, k) -> float:
    """Compatibility margin 2 k^2 sin^2 u - 1 of the chord-reflection system.

    Nonnegative values make the tau-equation solvable.
    """
    kf = float(k)
    return 2.0 * kf * kf * math.sin(u) ** 2 - 1.0


class TestAmplitudeAuxiliaries:
    def test_a1_at_origin(self):
        for k in (0.2, K_RECT, 0.9, 1.0):
            assert a1(0.0, k) == pytest.approx(8.0, abs=1e-12)

    def test_a1_zero_at_rect_modulus(self):
        assert abs(a1(math.pi / 2.0, K_RECT)) < 1e-12

    def test_h2_times_prefactor_is_h1(self):
        for u in (0.3, 1.2, 2.8):
            for k in (0.5, 0.85, 0.99):
                pref = 1.0 - k * k + k * k * math.cos(u) ** 4
                assert h2(u, k) * pref == pytest.approx(h1(u, k), abs=1e-13)

    def test_h2_derivative_against_finite_differences(self):
        u, k = 1.0, 0.8
        h = 1e-6
        fd = (h2(u + h, k) - h2(u - h, k)) / (2.0 * h)
        assert h2_du(u, k) == pytest.approx(fd, rel=1e-5)

    def test_h2_du_sign_matches_a1(self):
        for u in (0.4, 1.3, 2.0, 2.9):
            for k in (0.75, 0.9):
                prod = h2_du(u, k) * a1(u, k)
                assert prod >= 0.0

    def test_compat_margin(self):
        assert compat_n1(math.pi / 2.0, 1.0) == pytest.approx(1.0)
        assert compat_n1(0.0, 0.9) == pytest.approx(-1.0)


class TestBrent:
    """The in-house Brent against scipy's brentq, of which it is a port."""

    @staticmethod
    def brackets():
        """The f1 and h1 brackets that p1_roots and u_h1 solve, at seeded moduli."""
        rng = random.Random(5)
        k0 = float(find_k0())
        kstar = float(find_kstar()[0])
        out = []
        for _ in range(150):
            k = rng.uniform(0.02, 0.995)
            K = ellint_K(k)
            lo = 2.0 * K * rng.randint(1, 6) - (0.0 if k < k0 else K)
            out.append((lambda p, k=k: f1(p, k), lo, lo + K))
        for _ in range(80):
            k = rng.uniform(kstar, 0.995)
            lo, hi = (math.pi / 2.0, math.pi - u_a1(k)) if k < k0 else (u_a1(k), math.pi / 2.0)
            out.append((lambda u, k=k: h1(u, k), lo, hi))
        return out

    def test_bit_identical_to_scipy(self):
        brentq = pytest.importorskip("scipy.optimize").brentq
        for f, lo, hi in self.brackets():
            ours = _brentq(f, lo, hi)
            ref = brentq(f, lo, hi, xtol=BRENT_XTOL, rtol=BRENT_RTOL)
            assert ours.hex() == ref.hex(), (lo, hi)

    @pytest.mark.parametrize(
        "f",
        [
            lambda x: math.nan if x < 0.1 else x - 0.75,  # at the bracket's start
            lambda x: math.nan if x > 0.9 else x - 0.75,  # at the bracket's end
            lambda x: math.nan if 0.3 < x < 0.9 else x - 0.75,  # at the first step
        ],
        ids=["start", "endpoint", "iterate"],
    )
    def test_nan_value_raises(self, f):
        with pytest.raises(ValueError, match="NaN"):
            _brentq(f, 0.0, 1.0)

    def test_no_sign_change_raises(self):
        with pytest.raises(ValueError, match="different signs"):
            _brentq(lambda x: x * x + 1.0, -1.0, 2.0)

    def test_no_convergence_raises(self):
        # a step function forces bisection, which needs ~150 halvings here
        with pytest.raises(RuntimeError, match="100 iterations"):
            _brentq(lambda x: -1.0 if x < math.pi else 1.0, -1e30, 1e30)


class TestConstants:
    def test_figure_eight_modulus(self):
        k0 = float(find_k0())
        assert abs(k0 - 0.909) < 1e-3
        assert abs(2.0 * ellint_E(k0) - ellint_K(k0)) < 1e-13
        assert K_RECT < k0 < 1.0

    def test_positive_defect_below_k0(self):
        K = ellint_K(K_RECT)
        assert 2.0 * ellint_E(K_RECT) - K == pytest.approx(
            math.pi / (2.0 * K), abs=1e-12
        )

    def test_threshold_constants(self):
        kstar, ustar = find_kstar()
        ks = float(kstar)
        assert abs(ks - 0.841) < 1e-3
        assert abs(ustar - 1.954) < 1e-3
        assert K_RECT < ks < float(find_k0())
        assert math.pi / 2.0 < ustar < 3.0 * math.pi / 4.0
        assert abs(h1(math.pi - u_a1(ks), ks)) < 1e-12
        assert ustar == pytest.approx(math.pi - u_a1(ks), abs=1e-10)

    def test_pinned_constants_are_the_derivation(self):
        # the library reads KSTAR and USTAR; a fresh solve must give their bits
        find_kstar.cache_clear()
        assert repr((maxwell.KSTAR, maxwell.USTAR)) == repr(find_kstar())
        assert find_kstar.cache_info().misses == 1

    def test_pinned_k0_is_the_derivation(self):
        # the library reads K0; a fresh solve must give its bits
        find_k0.cache_clear()
        assert repr(K0) == repr(find_k0())
        assert find_k0.cache_info().misses == 1

    def test_root_curve_domain_starts_at_the_solved_kstar(self):
        kstar = find_kstar()[0]
        for k in (math.nextafter(maxwell.KSTAR, 0.0), maxwell.KSTAR):
            for fn in (u_h1, p_g1):
                if kstar <= k:
                    assert fn(k) > 0.0
                else:
                    with pytest.raises(ValueError, match=re.escape(f"[k* = {kstar}, 1), got {k}")):
                        fn(k)


class TestRootCurves:
    def test_u_a1_endpoints(self):
        assert u_a1(K_RECT) == pytest.approx(math.pi / 2.0, abs=1e-12)
        assert u_a1(1.0) == pytest.approx(math.pi / 2.0, abs=1e-12)
        for k in (0.75, 0.85, 0.95):
            assert math.pi / 4.0 < u_a1(k) < math.pi / 2.0
            assert abs(a1(u_a1(k), k)) < 1e-11

    def test_u_h1_at_figure_eight(self):
        k0 = float(find_k0())
        assert u_h1(k0) == pytest.approx(math.pi / 2.0)
        assert p_g1(k0) == pytest.approx(ellint_K(k0), abs=1e-12)

    def test_u_h1_domain_starts_at_kstar(self):
        kstar, _ = find_kstar()
        assert math.pi / 2.0 < u_h1(kstar) < 3.0 * math.pi / 4.0
        message = re.escape(f"u_h1 needs k in [k* = {kstar}, 1)")
        for k in (kstar - 5e-13, math.nextafter(kstar, 0.0), 1.0):
            with pytest.raises(ValueError, match=message):
                u_h1(k)

    def test_p_g1_domain_starts_at_kstar(self):
        # p_g1 checks its own domain and names itself, not u_h1
        kstar, _ = find_kstar()
        assert p_g1(kstar) > 0.0
        message = re.escape(f"p_g1 needs k in [k* = {kstar}, 1), got ")
        for k in (0.2, kstar - 5e-13, math.nextafter(kstar, 0.0), 1.0, math.nan):
            with pytest.raises(ValueError, match=message):
                p_g1(k)

    def test_p_g1_bracketed_above_k0(self):
        k = 0.95
        K = ellint_K(k)
        p = p_g1(k)
        assert K / 2.0 < p < K
        assert abs(g1_n1(p, k)) < 1e-11
        delta = 1e-6 * K
        assert g1_n1(p - delta, k) * g1_n1(p + delta, k) < 0.0

    def test_p1_roots_origin_and_oddness(self):
        assert p1_roots(0.5, 0) == 0.0
        assert p1_roots(0.5, -1) == -p1_roots(0.5, 1)

    def test_p1_roots_at_zero_modulus(self):
        # the k -> 0 limit: f1(p, 0) = sin p - p cos p, zero where tan p = p
        for n in (1, 2):
            p = p1_roots(0.0, n)
            assert abs(math.tan(p) - p) < 1e-12
            assert p1_roots(1e-6, n) == pytest.approx(p, abs=1e-9)
        assert p1_roots(0.0, 1) == pytest.approx(4.493409457909064, abs=1e-14)
        assert p1_roots(0.0, 2) == pytest.approx(7.725251836937707, abs=1e-14)

    def test_p1_root_at_figure_eight(self):
        k0 = float(find_k0())
        for n in (1, 2, 3):
            assert p1_roots(k0, n) == pytest.approx(2.0 * n * ellint_K(k0))

    def test_p1_first_root_brent_residual(self):
        k = 0.5
        K = ellint_K(k)
        p = p1_roots(k, 1)
        assert 2.0 * K < p < 3.0 * K
        assert abs(f1(p, k)) < 1e-12
        delta = 1e-6 * K
        assert f1(p - delta, k) * f1(p + delta, k) < 0.0

    def test_localization_three_cases(self):
        k0 = float(find_k0())
        for k in (0.2, 0.5, 0.8, 0.88):
            K = ellint_K(k)
            assert 2.0 * K < p1_roots(k, 1) < 3.0 * K
        for k in (0.92, 0.96, 0.99):
            K = ellint_K(k)
            assert K < p1_roots(k, 1) < 2.0 * K
        for n in (1, 2, 3, 4):
            for k in (0.3, 0.7, 0.93):
                K = ellint_K(k)
                assert (2 * n - 1) * K < p1_roots(k, n) < (2 * n + 1) * K

    def test_p1_roots_within_an_ulp_of_the_bracket_end(self):
        # at this n the root lies about 1.7e-6 past the computed end
        # 2Kn + K, whose ulp is 1.9e-6: f1 has one sign at both ends
        k, n = 0.5380237011494544, 3162277660
        K = ellint_K(k)
        p = p1_roots(k, n)
        assert abs(p - (2.0 * K * n + K)) <= 2.0 * math.ulp(p)
        # in_maxwell solves p_n^1 at every t, 40 log-spaced t per decade
        lam = Covector(0.4, 1.0, 1.0)
        for j in range(3 * 40):
            in_maxwell(lam, 10.0 ** (9.0 + j / 40.0))
        rng = random.Random(30)
        for _ in range(100):
            k = rng.uniform(0.05, 0.99)
            n = int(math.exp(rng.uniform(math.log(1e6), math.log(1e13))))
            K = ellint_K(k)
            p = p1_roots(k, n)
            assert (2 * n - 1) * K - 4.0 * math.ulp(p) < p < (2 * n + 1) * K + 4.0 * math.ulp(p)

    def test_p1_roots_are_scipy_brentq_on_f1(self):
        # over the documented bracket: (2Kn, 2Kn + K) below k0, (2Kn - K, 2Kn) above
        brentq = pytest.importorskip("scipy.optimize").brentq
        rng = random.Random(37)
        ks = [0.0, K0 - 1e-3, K0 - 1e-7, K0 + 1e-7, K0 + 1e-3, K_RECT]
        ks += [rng.uniform(0.01, 0.995) for _ in range(24)]
        for k in ks:
            K = ellint_K(k)
            for n in range(1, 9):
                lo, hi = (2.0 * K * n, 2.0 * K * n + K) if k < K0 else (2.0 * K * n - K, 2.0 * K * n)
                ref = brentq(f1, lo, hi, args=(k,), xtol=BRENT_XTOL, rtol=BRENT_RTOL)
                assert p1_roots(k, n).hex() == ref.hex(), (k, n)

    def test_p1_roots_without_a_sign_change_names_k_and_n(self, monkeypatch):
        # a cached (0.3, 2) would be returned without calling f1
        maxwell._p1_root.cache_clear()
        monkeypatch.setattr(maxwell, "f1", lambda p, k: 1.0)
        with pytest.raises(ValueError, match=r"k = 0\.3, n = 2$"):
            p1_roots(0.3, 2)

    @pytest.mark.parametrize("n", [1.5, -1.5, math.nan, math.inf, -math.inf])
    def test_p1_roots_needs_an_integer_n(self, n):
        with pytest.raises(ValueError, match=re.escape(f"p1_roots needs an integer n, got {n}")):
            p1_roots(0.5, n)

    def test_p1_roots_needs_a_finite_bracket(self):
        # 10**400 has no float: 2.0 * K * n would raise OverflowError
        for n in (10**400, -(10**400), 1e308, -1e308):
            message = re.escape(f"p1_roots needs 2K|n| + K finite, got k = 0.5, |n| = {abs(n)}")
            with pytest.raises(ValueError, match=message + "$"):
                p1_roots(0.5, n)
        # a float of integral value is accepted, and is that integer
        assert p1_roots(0.5, 2.0) == p1_roots(0.5, 2)
        assert p1_roots(0.5, -3.0) == -p1_roots(0.5, 3)

    def test_each_covector_solves_its_roots_once(self):
        # cut_time_bound solves p_n^1 for n up to _ROOT_SCAN_MAX; in_maxwell
        # at the bound time 2 * 2K asks for p_1^1 again, in either order
        cache = maxwell._p1_root
        assert cache.cache_info().maxsize == 2 * maxwell._ROOT_SCAN_MAX
        for lam in (n1(0.6, 0.37, 1.0), n1(0.45, 1.1, 2.0)):
            cache.cache_clear()
            rep = cut_time_bound(lam)
            solved = cache.cache_info().misses
            assert solved >= 1
            in_maxwell(lam, rep.bound)
            assert cache.cache_info()[:2] == (1, solved)
        cache.cache_clear()
        in_maxwell(lam, rep.bound)
        assert cache.cache_info()[:2] == (0, 1)
        assert cut_time_bound(lam) == rep
        assert cache.cache_info()[:2] == (1, solved)

    def test_ordering_pg1_below_p1(self):
        kstar = float(find_kstar()[0])
        k0 = float(find_k0())
        for i in range(60):
            k = kstar + (0.999 - kstar) * i / 59.0
            K = ellint_K(k)
            p1 = 2.0 * K if k <= k0 else p1_roots(k, 1)
            assert p_g1(k) < min(2.0 * K, p1)

    def test_compat_positive_on_root_curve(self):
        kstar = float(find_kstar()[0])
        for k in (kstar + 1e-6, 0.87, 0.93, 0.99):
            p = p_g1(k)
            margin = 2.0 * k * k * jacobi(p, k).sn ** 2 - 1.0
            assert 0.0 < margin <= 1.0


def make_max1_oscillating(k=0.6, r=1.0, u0=0.37):
    lam = n1(k, u0 / math.sqrt(r), r)
    return lam, 4.0 * ellint_K(k) / math.sqrt(r)


class TestMembership:
    def test_oscillating_even_lattice(self):
        lam, t = make_max1_oscillating()
        got = in_maxwell(lam, t)
        assert got == {MaxwellStratum.MAX1}

    def test_oscillating_perpendicular_root(self):
        k = 0.6
        lam, _ = make_max1_oscillating(k)
        t = 2.0 * p1_roots(k, 1)
        assert in_maxwell(lam, t) == {MaxwellStratum.MAX2}

    def test_oscillating_chord_plus(self):
        k = 0.6
        lam = n1(k, 0.0, 1.0)
        t = 4.0 * ellint_K(k)
        got = in_maxwell(lam, t)
        assert MaxwellStratum.MAX3_PLUS in got

    def test_oscillating_chord_minus(self):
        k = 0.93
        pg = p_g1(k)
        sn2 = jacobi(pg, k).sn ** 2
        rhs = (2.0 * k * k * sn2 - 1.0) / (k * k * sn2)
        tau = ellint_F_inc(math.asin(math.sqrt(rhs)), k)
        u0 = (tau - pg) % (4.0 * ellint_K(k))
        lam = n1(k, u0, 1.0)
        assert in_maxwell(lam, 2.0 * pg) == {MaxwellStratum.MAX3_MINUS}

    def test_rotating_lattice(self):
        k = 0.7
        K = ellint_K(k)
        lam = n2(k, 0.31, 1.0)
        assert in_maxwell(lam, 2.0 * k * K) == {MaxwellStratum.MAX1}
        lam0 = n2(k, 0.0, 1.0)
        assert in_maxwell(lam0, 2.0 * k * K) == {MaxwellStratum.MAX3_PLUS}

    def test_rotating_chord_minus_beyond_first_quarter(self):
        # roots of the rotating chord-reflection equation exist past K; the
        # compatible one yields a genuine meeting with tangent turned by pi
        from scipy.optimize import brentq

        k = 0.8
        K = ellint_K(k)
        lo, hi = 3.4 * K, 3.5 * K
        assert g1_n2(lo, k) * g1_n2(hi, k) < 0.0
        p = brentq(lambda q: g1_n2(q, k), lo, hi, xtol=1e-15)
        sn2 = jacobi(p, k).sn ** 2
        rhs = (2.0 * sn2 - 1.0) / (k * k * sn2)
        assert 0.0 < rhs < 1.0
        tau = ellint_F_inc(math.asin(math.sqrt(rhs)), k)
        lam = n2(k, (tau - p) % (2.0 * K), 1.0)
        t = 2.0 * k * p
        assert MaxwellStratum.MAX3_MINUS in in_maxwell(lam, t)
        li = reflect_covector(3, lam, t)
        q, qi = exp_map(lam, t), exp_map(li, t)
        assert max(abs(q.x - qi.x), abs(q.y - qi.y)) < 1e-7
        assert abs(abs(q.theta) - math.pi) < 1e-7

    def test_uniform_rotation_full_turns(self):
        lam = Covector(0.4, 1.0, 0.0)
        got = in_maxwell(lam, 2.0 * math.pi)
        assert got == {MaxwellStratum.MAX1, MaxwellStratum.MAX3_PLUS}
        assert in_maxwell(lam, 1.0) == set()

    def test_separatrix_and_degenerate_always_empty(self):
        assert in_maxwell(n3(0.3, 1.0), 2.0) == set()
        assert in_maxwell(Covector(0.0, 0.0, 1.0), 2.0) == set()
        assert in_maxwell(Covector(math.pi, 0.0, 1.0), 2.0) == set()
        assert in_maxwell(Covector(0.3, 0.0, 0.0), 2.0) == set()

    def test_requires_positive_time(self):
        with pytest.raises(ValueError):
            in_maxwell(Covector(0.0, 1.0, 1.0), 0.0)

    def test_circle_turn_overflow_raises(self):
        # c t = inf cannot be placed on the lattice of full turns
        with pytest.raises(ValueError, match="overflows"):
            in_maxwell(Covector(1.0, 2.0, 0.0), 1e308)


class TestMaxwellSemantics:
    # membership certifies a genuine meeting of distinct equal-cost extremals
    CASES = [
        ("MAX1", 1, lambda: make_max1_oscillating()),
        ("MAX2", 2, lambda: (n1(0.6, 0.37, 1.0), 2.0 * p1_roots(0.6, 1))),
        ("MAX3plus", 3, lambda: (n1(0.6, 0.0, 1.0), 4.0 * ellint_K(0.6))),
        ("MAX1", 1, lambda: (n2(0.7, 0.31, 1.0), 1.4 * ellint_K(0.7))),
        ("MAX3plus", 3, lambda: (n2(0.7, 0.0, 1.0), 1.4 * ellint_K(0.7))),
        ("MAX1", 1, lambda: (Covector(0.4, 1.0, 0.0), 2.0 * math.pi)),
    ]

    @pytest.mark.parametrize("name,i,make", CASES)
    def test_meeting_realized(self, name, i, make):
        lam, t = make()
        assert name in {m.value for m in in_maxwell(lam, t)}
        li = reflect_covector(i, lam, t)
        q, qi = exp_map(lam, t), exp_map(li, t)
        assert max(abs(q.x - qi.x), abs(q.y - qi.y), abs(wrap_angle(q.theta - qi.theta))) < 1e-7
        assert abs(
            elastic_energy_closed(lam, t) - elastic_energy_closed(li, t)
        ) < 1e-8
        qm, qim = exp_map(lam, t / 2.0), exp_map(li, t / 2.0)
        assert max(abs(qm.x - qim.x), abs(qm.y - qim.y)) > 1e-4


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_tolerance_must_be_finite_and_positive(cell_covectors, tol):
    # an infinite tol once put Covector(0.3, 1, 1) in MAX3- at t = 2, and a
    # NaN or negative one returned an empty set
    for lam in (Covector(0.3, 1.0, 1.0), *cell_covectors.values()):
        with pytest.raises(ValueError, match="tol"):
            in_maxwell(lam, 2.0, tol=tol)
        with pytest.raises(ValueError, match="tol"):
            cut_time_bound(lam, tol)


class TestCutTimeBound:
    def test_uniform_rotation(self):
        rep = cut_time_bound(Covector(0.4, 2.0, 0.0))
        assert rep.bound == pytest.approx(math.pi)
        assert rep.t1_max1 == pytest.approx(math.pi)

    def test_equilibria_unbounded(self):
        assert cut_time_bound(Covector(0.0, 0.0, 1.0)).bound == math.inf
        assert cut_time_bound(Covector(math.pi, 0.0, 1.0)).bound == math.inf
        assert cut_time_bound(Covector(0.0, 0.0, 0.0)).bound == math.inf
        assert cut_time_bound(n3(0.4, 1.0)).bound == math.inf

    def test_oscillating_below_figure_eight(self):
        lam = n1(0.5, 0.37, 1.0)
        assert cut_time_bound(lam).bound == pytest.approx(4.0 * ellint_K(0.5))

    def test_oscillating_above_figure_eight(self):
        k = 0.95
        lam = n1(k, 0.37, 1.0)
        assert cut_time_bound(lam).bound == pytest.approx(2.0 * p1_roots(k, 1))

    def test_rotating(self):
        k = 0.6
        lam = n2(k, 0.2, 1.0)
        assert cut_time_bound(lam).bound == pytest.approx(2.0 * k * ellint_K(k))

    def test_first_times_enter_report(self):
        lam, t = make_max1_oscillating()
        rep = cut_time_bound(lam)
        assert rep.t1_max1 == pytest.approx(t)
        assert rep.t1_max2 == pytest.approx(2.0 * p1_roots(0.6, 1))
        assert rep.bound == pytest.approx(min(rep.t1_max1, rep.t1_max2))
        assert not rep.tau_degenerate

    def test_degenerate_tau_flagged(self):
        k = 0.6
        K = ellint_K(k)
        # u0 = 2K puts tau on the lattice at the bound time (p = 2K)
        lam = n1(k, 2.0 * K, 1.0)
        assert cut_time_bound(lam).tau_degenerate

    def test_dilation_scaling(self):
        for lam in (n1(0.6, 0.37, 1.0), n2(0.7, 0.31, 1.0), Covector(0.4, 2.0, 0.0)):
            b0 = cut_time_bound(lam).bound
            for s in (-0.8, 0.5, 1.3):
                scaled = Covector(
                    lam.beta, lam.c * math.exp(-s), lam.r * math.exp(-2.0 * s)
                )
                assert cut_time_bound(scaled).bound == pytest.approx(
                    math.exp(s) * b0, rel=1e-9
                )

    def test_bound_is_first_maxwell_time(self):
        # below the figure-eight modulus the bound is the MAX1 time, above it
        # the MAX2 time
        k0 = float(find_k0())
        lam = n1(0.5, 0.37, 1.0)
        rep = cut_time_bound(lam)
        assert rep.bound == rep.t1_max1 <= rep.t1_max2
        lam = n1(0.97, 0.37, 1.0)
        rep = cut_time_bound(lam)
        assert rep.bound == rep.t1_max2 <= rep.t1_max1


def first_times(rep):
    return {
        MaxwellStratum.MAX1: rep.t1_max1,
        MaxwellStratum.MAX2: rep.t1_max2,
        MaxwellStratum.MAX3_PLUS: rep.t1_max3plus,
        MaxwellStratum.MAX3_MINUS: rep.t1_max3minus,
    }


def rotating_at_angle(k, r, beta, sign):
    """N2 covector of modulus k with angle beta: E + r = 2 r / k^2."""
    c = sign * 2.0 * math.sqrt(r * (1.0 / (k * k) - math.sin(0.5 * beta) ** 2))
    return Covector(beta, c, r)


def test_first_times_agree_with_membership_near_tau_lattice():
    # midpoints within a few tol of the tau lattice, where the fixed-point
    # tests sit on their tolerance band: at each finite first time T,
    # in_maxwell names that stratum and no stratum first met after T
    rng = random.Random(1303)
    for i in range(800):
        k, r = rng.uniform(0.05, 0.99), math.exp(rng.uniform(-1.0, 1.0))
        offset = rng.uniform(-6.0, 6.0) * DEFAULT_TOL
        if i % 2:
            # beta near 0 and +-pi puts sn tau cn tau near 0
            beta = rng.choice((0.0, math.pi, -math.pi)) + offset
            lam = rotating_at_angle(k, r, beta, rng.choice((1, -1)))
        else:
            # tau at the lattice candidate 2K or at p_1^1 near a quarter period
            K = ellint_K(k)
            p = rng.choice((2.0 * K, p1_roots(k, 1)))
            tau = rng.randrange(4) * K + offset
            lam = n1(k, (tau - p) / math.sqrt(r), r)
        times = first_times(cut_time_bound(lam))
        for m, T in times.items():
            if math.isfinite(T):
                got = in_maxwell(lam, T)
                assert m in got, (lam, m, got)
                assert all(times[g] <= T for g in got), (lam, m, got)


def test_first_maxwell_times_have_distinct_partners():
    # a Maxwell point by the paper's definition: at each finite first MAX1
    # (MAX2) time t, reflection 1 (2) gives a distinct covector whose
    # extremal reaches the same endpoint at t with the same energy.  Worst
    # measured: endpoints 5.8e-15 apart, energies 7.1e-15, per max(1, t) and
    # max(1, J), and the closest partner 2.6e-3 from its covector
    rng = random.Random(2007)
    met = {1: 0, 2: 0}
    for j in range(400):
        k, r = rng.uniform(0.05, 0.99), math.exp(rng.uniform(-2.0, 2.0))
        if j % 2:
            lam = rotating_at_angle(k, r, rng.uniform(-math.pi, math.pi), rng.choice((1, -1)))
        else:
            lam = n1(k, rng.uniform(0.0, 4.0 * ellint_K(k)), r)
        rep = cut_time_bound(lam)
        for i, t in ((1, rep.t1_max1), (2, rep.t1_max2)):
            if not math.isfinite(t):
                continue
            met[i] += 1
            li = reflect_covector(i, lam, t)
            q, qi = exp_map(lam, t), exp_map(li, t)
            gap = max(abs(q.x - qi.x), abs(q.y - qi.y), abs(wrap_angle(q.theta - qi.theta)))
            assert gap <= 1e-12 * max(1.0, t), (lam, i, t, gap)
            J = elastic_energy_closed(lam, t)
            assert abs(elastic_energy_closed(li, t) - J) <= 1e-12 * max(1.0, J), (lam, i, t)
            assert math.hypot(wrap_angle(li.beta - lam.beta), li.c - lam.c) > 1e-6, (lam, i, t)
    # MAX1 on every covector, MAX2 on every N1 one
    assert met == {1: 400, 2: 200}
