import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastica.elliptic import (
    AGM_MAX_ITER,
    AGM_TOL,
    EllipticDivergenceError,
    EllipticDomainError,
    JacobiValues,
    Modulus,
    _add,
    _agm_scale,
    _jacobi_agm,
    _shift_scale,
    _shifted,
    ellint_E,
    ellint_E_inc,
    ellint_F_inc,
    ellint_K,
    jacobi,
    jacobi_add,
    jacobi_derivs_k,
    jacobi_recip_modulus,
)

from quadrature import quad_E, quad_F

K_RECT = 1.0 / math.sqrt(2.0)


def _agm_recursion(k):
    """The AGM scales from one loop over the recursion, as a reference.

    Returns the tuples of `_agm_scale` and of `_shift_scale`.
    """
    kp = math.sqrt((1.0 - k) * (1.0 + k))
    a, b, c, z = [1.0], [kp], [], []
    # the descending pass's pairs (c_i, c_i/a_i), i = 1..n
    c_pass = []
    an, bn, zi = 1.0, kp, k
    w, s = 1.0, 0.5 * k * k
    for _ in range(AGM_MAX_ITER):
        cn = 0.5 * (an - bn)
        an, bn = 0.5 * (an + bn), math.sqrt(an * bn)
        zi = zi * zi / (4.0 * an)
        a.append(an)
        c.append(cn)
        z.append(zi)
        c_pass.append((cn, cn / an))
        s += w * cn * cn
        w *= 2.0
        if abs(cn) < AGM_TOL:
            break
        b.append(bn)
    K = math.pi / (2.0 * an)
    return ((K, K * (1.0 - s), w * an, tuple(a), tuple(b), tuple(c), tuple(reversed(c_pass))),
            (K, w * an, tuple(a), kp, s, tuple(z)))


def test_scales_are_the_recursion_bit_for_bit():
    # `_shift_scale` runs the recursion and `_agm_scale` forms the b_i and
    # c_i again from its a_i, so both must hold the reference's bits, from
    # k near 0 to k' near 1e-8
    rng = random.Random(29)
    ks = [rng.random() for _ in range(1000)]
    ks += [10.0 ** -rng.uniform(0.0, 300.0) for _ in range(300)]
    ks += [1.0 - 10.0 ** -rng.uniform(0.0, 16.0) for _ in range(300)]
    ks += [math.nextafter(1.0, 0.0), 5e-324, 0.5]
    for k in ks:
        agm, shift = _agm_recursion(k)
        assert repr(_agm_scale.__wrapped__(k)) == repr(agm), k
        assert repr(_shift_scale.__wrapped__(k)) == repr(shift), k


def _descending_reference(u, k, shifted=False):
    """The descending pass with one division c_i/a_i per level, over the scale's a_i and c_i or z_i.

    The bit reference of `_jacobi_agm`, which reads stored pairs, and of
    `_shifted`, its pass over the weights z_i.
    """
    K, E, unit, a_, b_, c_, _ = _agm_scale(k)
    if shifted:
        _, _, _, _, sigma, c_ = _shift_scale(k)
    m = math.floor(u / (2.0 * K) + 0.5)
    u_red = u - 2.0 * K * m
    phi = unit * u_red
    zeta = 0.0
    for c, a in zip(reversed(c_), reversed(a_)):
        sp = math.sin(phi)
        zeta += c * sp
        s = c / a * sp
        if s > 1.0:
            s = 1.0
        elif s < -1.0:
            s = -1.0
        phi = 0.5 * (phi + math.asin(s))
    sn_r = math.sin(phi)
    cn_r = math.cos(phi)
    kp = b_[0]
    dn = math.sqrt(cn_r * cn_r + kp * kp * sn_r * sn_r)
    sgn = -1.0 if m % 2 else 1.0
    if shifted:
        return sgn * sn_r, sgn * cn_r, dn, zeta - sigma * u
    eps = zeta + E / K * u_red + 2.0 * m * E
    return sgn * sn_r, sgn * cn_r, dn, phi + m * math.pi, eps


def test_descending_pass_is_the_division_loop_bit_for_bit():
    # k from 1e-300 to k' near 1e-8, |u| from 1e-8 to 1e6, both passes
    rng = random.Random(32)
    ks = [rng.random() for _ in range(200)]
    ks += [10.0 ** -rng.uniform(1.0, 300.0) for _ in range(100)]
    ks += [1.0 - 10.0 ** -rng.uniform(1.0, 16.0) for _ in range(100)]
    for k in ks:
        for _ in range(5):
            u = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8.0, 6.0)
            for shifted in (False, True):
                got = _shifted(u, k) if shifted else _jacobi_agm(u, k)
                assert repr(got) == repr(_descending_reference(u, k, shifted)), (u, k, shifted)


class TestModulus:
    def test_caches_complement(self):
        m = Modulus(0.6)
        assert m.kprime == pytest.approx(0.8, abs=1e-15)
        assert float(m) == 0.6

    def test_rejects_out_of_range(self):
        with pytest.raises(EllipticDomainError):
            Modulus(1.5)
        with pytest.raises(EllipticDomainError):
            Modulus(-0.1)


class TestCompleteIntegrals:
    def test_K_at_zero_modulus(self):
        assert ellint_K(0.0) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_K_lemniscatic_gamma_value(self):
        # closed form at the rectangular modulus
        expected = math.gamma(0.25) ** 2 / (4.0 * math.sqrt(math.pi))
        assert abs(ellint_K(K_RECT) - expected) < 1e-12

    def test_K_against_quadrature(self):
        assert abs(ellint_K(0.5) - quad_F(math.pi / 2, 0.5)) < 1e-12

    def test_K_strictly_increasing(self):
        ks = [0.01 * i for i in range(100)]
        vals = [ellint_K(k) for k in ks]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_K_divergence_error(self):
        with pytest.raises(EllipticDivergenceError):
            ellint_K(1.0)

    def test_E_endpoints(self):
        assert ellint_E(0.0) == pytest.approx(math.pi / 2, abs=1e-15)
        assert ellint_E(1.0) == 1.0

    def test_legendre_style_relation_at_rect_modulus(self):
        K = ellint_K(K_RECT)
        E = ellint_E(K_RECT)
        assert abs(2 * E - K - math.pi / (2 * K)) < 1e-12

    def test_E_domain(self):
        with pytest.raises(EllipticDomainError):
            ellint_E(1.0001)


class TestIncompleteIntegrals:
    def test_F_at_zero(self):
        assert ellint_F_inc(0.0, 0.37) == 0.0

    def test_F_at_quarter_period(self):
        assert ellint_F_inc(math.pi / 2, 0.8) == pytest.approx(
            ellint_K(0.8), abs=1e-14
        )

    def test_F_against_quadrature(self):
        assert abs(ellint_F_inc(0.7, 0.6) - quad_F(0.7, 0.6)) < 1e-12

    def test_E_inc_against_quadrature(self):
        assert abs(ellint_E_inc(0.9, 0.55) - quad_E(0.9, 0.55)) < 1e-12

    def test_quasi_periodicity(self):
        k = 0.73
        for phi in (-1.2, 0.4, 1.0):
            assert ellint_F_inc(phi + math.pi, k) == pytest.approx(
                ellint_F_inc(phi, k) + 2 * ellint_K(k), abs=1e-12
            )
            assert ellint_E_inc(phi + math.pi, k) == pytest.approx(
                ellint_E_inc(phi, k) + 2 * ellint_E(k), abs=1e-12
            )

    def test_oddness(self):
        assert ellint_F_inc(-0.7, 0.6) == pytest.approx(
            -ellint_F_inc(0.7, 0.6), abs=1e-15
        )

    def test_divergence_at_unit_modulus(self):
        assert ellint_F_inc(0.3, 1.0) == pytest.approx(math.atanh(math.sin(0.3)))
        with pytest.raises(EllipticDivergenceError):
            ellint_F_inc(math.pi / 2, 1.0)

    def test_unit_modulus_finite_next_to_quarter_period(self):
        # sin(phi) rounds to 1 within ~1e-8 of pi/2, where atanh would raise;
        # F(phi, 1) is the inverse Gudermannian and gd(F) must give phi back
        for d in (1e-8, 1e-9, 1e-12, 1e-15, 2.3e-16):
            for phi in (math.pi / 2 - d, d - math.pi / 2):
                F = ellint_F_inc(phi, 1.0)
                assert math.isfinite(F)
                assert math.copysign(1.0, F) == math.copysign(1.0, phi)
                assert math.atan(math.sinh(F)) == pytest.approx(phi, abs=1e-15)

    def test_unit_modulus_accurate_next_to_quarter_period(self):
        # log((1 + sin phi) / cos phi) has no cancellation near pi/2, where
        # atanh(sin phi) loses digits: at d = 1e-4 it is off by about 1e-8
        for d in (0.5, 1e-2, 1e-4, 1e-6, 1e-7):
            for phi in (math.pi / 2 - d, d - math.pi / 2):
                ref = math.copysign(
                    math.log((1.0 + abs(math.sin(phi))) / math.cos(phi)), phi
                )
                assert ellint_F_inc(phi, 1.0) == pytest.approx(ref, rel=4e-15)

    @pytest.mark.parametrize("integral", [ellint_F_inc, ellint_E_inc])
    @pytest.mark.parametrize("k", [0.0, 1e-300, 0.6, math.nextafter(1.0, 0.0), 1.0])
    def test_non_finite_amplitude(self, integral, k):
        # a NaN amplitude never passes; an infinite one is F = E = phi at
        # k = 0 and diverges for F at k = 1
        with pytest.raises(EllipticDomainError, match=r"need a finite amplitude, got nan$"):
            integral(math.nan, k)
        for phi in (math.inf, -math.inf):
            if k == 0.0:
                assert integral(phi, k) == phi
            elif k == 1.0 and integral is ellint_F_inc:
                with pytest.raises(EllipticDivergenceError):
                    integral(phi, k)
            else:
                with pytest.raises(EllipticDomainError, match=rf"need a finite amplitude, got {phi}$"):
                    integral(phi, k)


def _jacobi_ode_oracle(u, k, n=130000):
    """RK4 on am' = dn(am), eps' = dn^2, the defining ODE of the amplitude."""
    k2 = k * k

    def dn_of(am):
        return math.sqrt(1.0 - k2 * math.sin(am) ** 2)

    am = eps = 0.0
    h = u / n
    for _ in range(n):
        d1 = dn_of(am)
        d2 = dn_of(am + 0.5 * h * d1)
        d3 = dn_of(am + 0.5 * h * d2)
        d4 = dn_of(am + h * d3)
        am += h / 6.0 * (d1 + 2 * d2 + 2 * d3 + d4)
        eps += h / 6.0 * (d1 * d1 + 2 * d2 * d2 + 2 * d3 * d3 + d4 * d4)
    return am, eps


class TestJacobi:
    def test_origin(self):
        jv = jacobi(0.0, 0.62)
        assert (jv.sn, jv.cn, jv.dn, jv.am, jv.eps) == (0.0, 1.0, 1.0, 0.0, 0.0)

    def test_values_fields_and_immutability(self):
        assert JacobiValues._fields == ("sn", "cn", "dn", "am", "eps")
        assert JacobiValues(1.0, 2.0, 3.0, 4.0, 5.0).am == 4.0
        jv = jacobi(0.7, 0.62)
        assert tuple(jv) == (jv.sn, jv.cn, jv.dn, jv.am, jv.eps)
        for name in JacobiValues._fields:
            with pytest.raises(AttributeError):
                setattr(jv, name, 0.0)

    def test_record_of_the_plain_pass(self):
        # jacobi wraps the tuple of _jacobi_agm in its record, bit for bit
        for u, k in ((0.7, 0.62), (-1e6, 0.3), (12.5, 1.0 - 1e-12), (3.0, 1e-200)):
            jv = jacobi(u, k)
            assert type(jv) is JacobiValues
            assert type(_jacobi_agm(u, k)) is tuple
            assert repr(tuple(jv)) == repr(_jacobi_agm(u, k))

    def test_zero_modulus_is_circular(self):
        jv = jacobi(1.0, 0.0)
        assert jv.sn == pytest.approx(math.sin(1.0), abs=1e-15)
        assert jv.cn == pytest.approx(math.cos(1.0), abs=1e-15)
        assert jv.dn == 1.0
        assert jv.eps == pytest.approx(1.0, abs=1e-15)

    def test_unit_modulus_is_hyperbolic(self):
        jv = jacobi(0.9, 1.0)
        assert jv.sn == pytest.approx(math.tanh(0.9), abs=1e-15)
        assert jv.cn == pytest.approx(1 / math.cosh(0.9), abs=1e-15)

    def test_unit_modulus_finite_past_cosh_overflow(self):
        # cosh and sinh overflow beyond |u| ~ 710: sech underflows to 0 and
        # the amplitude saturates at +-pi/2 instead of raising OverflowError
        for u, sign in ((711.0, 1.0), (-711.0, -1.0), (1e300, 1.0),
                        (math.inf, 1.0), (-math.inf, -1.0)):
            jv = jacobi(u, 1.0)
            assert (jv.sn, jv.cn, jv.dn, jv.am, jv.eps) == (
                sign, 0.0, 0.0, sign * math.pi / 2, sign
            )
        for u in (-708.9, -30.0, 0.7, 708.9):
            jv = jacobi(u, 1.0)
            assert jv.cn == jv.dn == 1.0 / math.cosh(u)
            assert jv.am == math.atan(math.sinh(u))

    @pytest.mark.parametrize(
        "u, k",
        [(u, k) for k in (0.0, 0.5) for u in (math.inf, -math.inf, math.nan)]
        + [(math.nan, 1.0)],
    )
    def test_non_finite_argument_rejected(self, u, k):
        # only k = 1 takes u = +-inf, as the limits of its hyperbolic forms
        with pytest.raises(EllipticDomainError, match="finite"):
            jacobi(u, k)
        if 0.0 < k < 1.0:
            with pytest.raises(EllipticDomainError, match="finite"):
                jacobi_recip_modulus(u, k)

    def test_against_ode_oracle(self):
        u, k = 1.3, 0.9
        am, eps = _jacobi_ode_oracle(u, k)
        jv = jacobi(u, k)
        assert abs(jv.am - am) < 1e-10
        assert abs(jv.sn - math.sin(am)) < 1e-10
        assert abs(jv.cn - math.cos(am)) < 1e-10
        assert abs(jv.eps - eps) < 1e-10

    def test_periodicity(self):
        k = 0.77
        K = ellint_K(k)
        for u in (-3.1, 0.6, 2.9):
            a, b = jacobi(u, k), jacobi(u + 4 * K, k)
            assert abs(a.sn - b.sn) < 1e-11
            assert abs(a.cn - b.cn) < 1e-11
            assert abs(a.dn - jacobi(u + 2 * K, k).dn) < 1e-11

    def test_eps_quasi_periodicity(self):
        k = 0.77
        K, E = ellint_K(k), ellint_E(k)
        for u in (-3.1, 0.6, 2.9):
            assert abs(jacobi(u + 2 * K, k).eps - jacobi(u, k).eps - 2 * E) < 1e-11

    @pytest.mark.parametrize("k", [0.2, 0.65, 0.93])
    @pytest.mark.parametrize("u", [-2.7, -0.4, 1.1, 3.8])
    def test_u_derivatives_against_finite_differences(self, u, k):
        h = 1e-6
        p, m = jacobi(u + h, k), jacobi(u - h, k)
        jv = jacobi(u, k)
        scale = max(1.0, abs(jv.sn))
        assert abs((p.sn - m.sn) / (2 * h) - jv.cn * jv.dn) < 1e-6 * scale
        assert abs((p.cn - m.cn) / (2 * h) + jv.sn * jv.dn) < 1e-6
        assert abs((p.dn - m.dn) / (2 * h) + k * k * jv.sn * jv.cn) < 1e-6
        assert abs((p.eps - m.eps) / (2 * h) - jv.dn * jv.dn) < 1e-6
        assert abs((p.am - m.am) / (2 * h) - jv.dn) < 1e-6

    def test_degeneration_small_modulus(self):
        k = 1e-8
        for i in range(-10, 11):
            u = 0.5 * i
            jv = jacobi(u, k)
            assert abs(jv.sn - math.sin(u)) < 1e-8
            assert abs(jv.cn - math.cos(u)) < 1e-8
            assert abs(jv.dn - 1.0) < 1e-8
            assert abs(jv.eps - u) < 1e-8

    def test_degeneration_unit_modulus_with_expansion(self):
        # first-order corrections in k'^2 keep the comparison meaningful at
        # |u| up to 5 where sinh(u) cosh(u) amplifies the defect
        k = 1.0 - 1e-8
        kp2 = (1.0 - k) * (1.0 + k)
        for i in range(-10, 11):
            u = 0.5 * i
            jv = jacobi(u, k)
            th, se = math.tanh(u), 1.0 / math.cosh(u)
            shch = math.sinh(u) * math.cosh(u)
            assert abs(jv.sn - (th + 0.25 * kp2 * (shch - u) * se * se)) < 1e-8
            assert abs(jv.cn - (se - 0.25 * kp2 * (shch - u) * th * se)) < 1e-8
            assert abs(jv.dn - (se + 0.25 * kp2 * (shch + u) * th * se)) < 1e-8
            assert abs(jv.eps - (th + 0.25 * kp2 * (u - th + u * th * th))) < 1e-8


@settings(max_examples=200, deadline=None)
@given(
    u=st.floats(-20.0, 20.0),
    k=st.floats(0.0, 1.0),
)
def test_pythagorean_identities(u, k):
    jv = jacobi(u, k)
    assert abs(jv.sn**2 + jv.cn**2 - 1.0) < 1e-12
    assert abs(jv.dn**2 + k * k * jv.sn**2 - 1.0) < 1e-12
    assert jv.dn >= math.sqrt((1 - k) * (1 + k)) - 1e-12


class TestReciprocalModulus:
    def test_origin(self):
        jv = jacobi_recip_modulus(0.0, 0.7)
        assert (jv.sn, jv.cn, jv.dn, jv.am, jv.eps) == (0.0, 1.0, 1.0, 0.0, 0.0)

    def test_matches_transform_formulas(self):
        u, k = 0.8, 0.7
        jv = jacobi_recip_modulus(u, k)
        inner = jacobi(u / k, k)
        assert jv.sn == pytest.approx(k * inner.sn, abs=1e-15)
        assert jv.cn == pytest.approx(inner.dn, abs=1e-15)
        assert jv.dn == pytest.approx(inner.cn, abs=1e-15)
        assert abs(jv.sn**2 + jv.cn**2 - 1.0) < 1e-12
        expected_eps = inner.eps / k - (1 - k * k) / (k * k) * u
        assert jv.eps == pytest.approx(expected_eps, abs=1e-13)

    def test_near_unit_modulus_degenerates_like_jacobi(self):
        k = 1.0 - 1e-10
        u = 0.9
        assert jacobi_recip_modulus(u, k).sn == pytest.approx(
            jacobi(u, 1.0).sn, abs=1e-8
        )

    def test_double_application_is_identity(self):
        # reciprocal transform applied at modulus 1/k recovers modulus k
        for u in (-1.7, 0.35, 2.4):
            for k in (0.3, 0.62, 0.9):
                direct = jacobi(u, k)
                back = jacobi_recip_modulus(u * k, k)
                assert abs(back.sn / k - direct.sn) < 1e-11
                assert abs(back.dn - direct.cn) < 1e-11
                assert abs(back.cn - direct.dn) < 1e-11

    def test_zero_modulus_rejected(self):
        with pytest.raises(EllipticDomainError):
            jacobi_recip_modulus(1.0, 0.0)


class TestAddition:
    def test_zero_shift(self):
        u, k = 1.234, 0.55
        a, d = jacobi_add(u, 0.0, k), jacobi(u, k)
        assert abs(a.sn - d.sn) < 1e-14
        assert abs(a.eps - d.eps) < 1e-14

    def test_double_quarter_period(self):
        k = 0.7
        K = ellint_K(k)
        assert abs(jacobi_add(K, K, k).sn) < 1e-12

    def test_specific_sum(self):
        a, d = jacobi_add(0.4, 0.9, 0.65), jacobi(1.3, 0.65)
        for f in ("sn", "cn", "dn", "am", "eps"):
            assert abs(getattr(a, f) - getattr(d, f)) < 1e-11

    @pytest.mark.parametrize(
        "u, v",
        [(20.0, 20.0), (19.0, 19.5), (-30.0, 29.5), (800.0, -0.5), (400.0, 500.0), (-400.0, -500.0),
         (-355.0, 355.5)],
    )
    def test_unit_modulus(self, u, v):
        # 1 - sn^2 u sn^2 v cancels at k = 1, and past |u| ~ 354 sech^2 underflows
        a = jacobi_add(u, v, 1.0)
        w = u + v
        assert abs(a.sn - math.tanh(w)) < 1e-15
        assert abs(a.eps - math.tanh(w)) < 1e-15
        sech = 1.0 / math.cosh(w) if abs(w) < 709.0 else 0.0
        assert abs(a.cn - sech) <= 1e-15 * sech and abs(a.dn - sech) <= 1e-15 * sech

    @pytest.mark.parametrize(
        "u, v",
        [(0.3, 1.2), (-2.0, 5.0), (20.0, 20.0), (-30.0, 29.5), (400.0, 500.0), (-400.0, -500.0)],
    )
    def test_unit_modulus_minus_branch(self, u, v):
        # the separatrix minus branch is the plus one under (sn, cn, dn) ->
        # (-sn, -cn, dn), so cn = -dn there, and adding v advances u to u + v;
        # past |u| ~ 354 the general denominator dn^2 + sn^2 cn^2 underflows
        ju, jv = jacobi(u, 1.0), jacobi(v, 1.0)
        sn, cn, dn, de = _add((-ju.sn, -ju.cn, ju.dn, 0.0), (jv.sn, jv.cn, jv.dn, jv.eps), 1.0)
        w = u + v
        sech = 1.0 / math.cosh(w) if abs(w) < 709.0 else 0.0
        assert abs(sn + math.tanh(w)) < 2e-15
        assert abs(cn + sech) <= 4e-15 * sech and abs(dn - sech) <= 4e-15 * sech
        # the epsilon increment is the integral of sech^2 over [u, u + v]
        assert abs(de - (math.tanh(w) - math.tanh(u))) < 2e-15

    @pytest.mark.parametrize("u, v", [(-400.0, 400.5), (360.0, -360.5)])
    def test_unit_modulus_opposite_signs_past_limit(self, u, v):
        # tanh u = -tanh v = +-1 and sech^2 u, sech^2 v are subnormal or zero,
        # so the values at u and v no longer determine u + v
        with pytest.raises(EllipticDomainError, match="354"):
            jacobi_add(u, v, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    u=st.floats(-30.0, 30.0),
    v=st.floats(-30.0, 30.0),
    k=st.sampled_from([1.0, 1.0 - 1e-12]),
)
def test_addition_near_unit_modulus(u, v, k):
    a, d = jacobi_add(u, v, k), jacobi(u + v, k)
    tol = 2e-15 if k == 1.0 else 5e-10
    for f in ("sn", "cn", "dn", "eps"):
        assert abs(getattr(a, f) - getattr(d, f)) < tol


class TestModulusDerivatives:
    def test_zero_at_origin(self):
        assert jacobi_derivs_k(0.0, 0.5) == (0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("u,k", [(1.1, 0.5), (0.4, 0.8), (-2.3, 0.33)])
    def test_against_finite_differences(self, u, k):
        h = 1e-6
        p, m = jacobi(u, k + h), jacobi(u, k - h)
        ds, dc, dd, de = jacobi_derivs_k(u, k)
        for got, fd in (
            (ds, (p.sn - m.sn) / (2 * h)),
            (dc, (p.cn - m.cn) / (2 * h)),
            (dd, (p.dn - m.dn) / (2 * h)),
            (de, (p.eps - m.eps) / (2 * h)),
        ):
            assert abs(got - fd) <= 1e-5 * max(1.0, abs(fd))

    def test_consistent_with_period_derivative(self):
        # sn(2K(k), k) vanishes identically, so the partial in k must cancel
        # the drift of the argument: dsn/dk(2K) = 2 dK/dk with the complete
        # integral derivative dK/dk = (E - (1-k^2) K)/(k (1-k^2))
        k = 0.5
        K, E = ellint_K(k), ellint_E(k)
        dK = (E - (1 - k * k) * K) / (k * (1 - k * k))
        ds = jacobi_derivs_k(2 * K, k)[0]
        assert abs(ds - 2 * dK) < 1e-9

    def test_conditioning_warning(self):
        with pytest.warns(RuntimeWarning):
            jacobi_derivs_k(1.0, 1e-5)
