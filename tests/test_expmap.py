import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastica import expmap
from elastica.elliptic import EllipticDomainError, _add, ellint_K
from elastica.expmap import (
    REANCHOR_POINTS,
    REANCHOR_SPAN,
    ElasticaClass,
    State,
    classify,
    elastic_energy_closed,
    exp_map,
    sample_elastica,
)
from elastica.maxwell import find_k0
from elastica.oracle import integrate_extremal
from elastica.phase import (
    ELLIPTIC_STRATA,
    ROTATING,
    SEPARATRIX,
    STRATIFY_TOL,
    Covector,
    EllipticCoords,
    Stratum,
    _start,
    flow_vertical,
    from_elliptic,
    stratify,
    to_elliptic,
    wrap_angle,
)

from conftest import STEPPED_N2_SMALL_K, n1, n2, n3
from quadrature import adaptive_simpson


def endpoint_gap(a, b):
    return max(abs(a.x - b.x), abs(a.y - b.y), abs(wrap_angle(a.theta - b.theta)))


class TestExpMap:
    def test_line(self):
        q = exp_map(Covector(1.0, 0.0, 0.0), 3.0)
        assert (q.x, q.y, q.theta) == (3.0, 0.0, 0.0)

    def test_circle_half_turn(self):
        q = exp_map(Covector(0.0, math.pi, 0.0), 1.0)
        assert q.x == pytest.approx(0.0, abs=1e-15)
        assert q.y == pytest.approx(2.0 / math.pi, abs=1e-15)
        assert q.theta == pytest.approx(math.pi, abs=1e-15)

    def test_identity_at_zero_time(self):
        q = exp_map(Covector(0.7, 1.3, 2.0), 0.0)
        assert endpoint_gap(q, State(0.0, 0.0, 0.0)) < 1e-14

    def test_oscillating_against_rk4(self):
        lam = Covector(0.0, 1.0, 1.0)
        q, _, _ = integrate_extremal(lam, 2.0)
        assert endpoint_gap(exp_map(lam, 2.0), q) < 1e-8

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("u0, r", [(20.0, 4.0), (-20.0, 2.5), (19.0, 4.0), (-12.0, 1.0)])
    def test_separatrix_next_to_saddle_against_rk4(self, u0, r, sign):
        # as sqrt(r)*phi grows, sin(beta/2) nears +-1 and at ~20 rounds to it:
        # the elliptic coordinates must keep their digits and the endpoint
        # follow the pendulum
        lam = n3(u0 / math.sqrt(r), r, sign)
        ec = to_elliptic(lam)
        assert ec.stratum.family == 3
        assert abs(math.sqrt(r) * ec.phi - u0) < 1e-7
        back = from_elliptic(ec)
        assert abs(back.beta - lam.beta) < 1e-15 and abs(back.c - lam.c) < 1e-15
        for t in (0.5, 3.0):
            q, _, J = integrate_extremal(lam, t)
            assert endpoint_gap(exp_map(lam, t), q) < 1e-10
            assert elastic_energy_closed(lam, t) == pytest.approx(J, abs=1e-14)

    def test_rotating_small_modulus_against_rk4(self):
        # k ~ 7e-5, just outside the N6 band: eps at the reciprocal modulus
        # must not be formed from two terms of size u/k^2
        lam = Covector(0.3, 2.0, 5e-9)
        assert stratify(lam) is Stratum.N2_PLUS
        q, _, J = integrate_extremal(lam, 10.0)
        assert endpoint_gap(exp_map(lam, 10.0), q) < 1e-7
        assert abs(elastic_energy_closed(lam, 10.0) - J) < 1e-9

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            exp_map(Covector(0.0, 1.0, 1.0), -0.5)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "call",
        [
            exp_map,
            elastic_energy_closed,
            lambda lam, t: sample_elastica(lam, t, 4),
        ],
        ids=["exp_map", "elastic_energy_closed", "sample_elastica"],
    )
    def test_non_finite_time_rejected(self, call, t):
        with pytest.raises(ValueError, match="finite"):
            call(Covector(0.0, 1.0, 1.0), t)

    @pytest.mark.parametrize("lam, t, message", [
        (Covector(0.5, 0.0, 1e300), 1e200, "got inf"),  # N1: sqrt(r) t overflows
        (Covector(0.3, 3e4, 1.0), 1e305, "got u/k = inf"),  # N2+: sqrt(r) t kappa overflows
    ])
    def test_jacobi_argument_overflow_rejected(self, lam, t, message):
        assert stratify(lam) in (Stratum.N1, Stratum.N2_PLUS)
        full = f"Jacobi functions need a finite argument, {message}"
        with pytest.raises(EllipticDomainError, match=f"^{re.escape(full)}$"):
            exp_map(lam, t)

    def test_oracle_equivalence_spot_checks(self, cell_covectors):
        for lam in cell_covectors.values():
            for t in (0.5, 2.0):
                q, _, _ = integrate_extremal(lam, t)
                assert endpoint_gap(exp_map(lam, t), q) < 1e-7

    def test_tangent_angle_tracks_pendulum(self, cell_covectors):
        for lam in cell_covectors.values():
            for t in (0.8, 3.1):
                q = exp_map(lam, t)
                bt = flow_vertical(lam, t).beta
                assert abs(wrap_angle(q.theta - (bt - lam.beta))) < 1e-10

    def test_flow_curvature_is_the_endpoints(self, fixture25):
        # flow_vertical and the endpoint share the start point and the
        # addition, so c_t is the endpoint's curvature bit for bit, and
        # beta_t - beta_0 is theta to rounding
        for lam in fixture25:
            for t in (0.37, 1.9, 7.3):
                lt, end = flow_vertical(lam, t), expmap._endpoint(lam, t)
                if stratify(lam) in ELLIPTIC_STRATA:
                    assert lt.c == end[4]
                assert abs(wrap_angle(end[2] - (lt.beta - lam.beta))) < 1e-14 * max(1.0, abs(end[2]))

    def test_unit_speed(self, cell_covectors):
        h = 1e-6
        for lam in cell_covectors.values():
            for t in (0.4, 1.9):
                a, b = exp_map(lam, t), exp_map(lam, t + h)
                assert math.hypot(b.x - a.x, b.y - a.y) / h == pytest.approx(
                    1.0, abs=1e-6
                )

    def test_attainability_bound(self, fixture25):
        for lam in fixture25:
            for t in (0.5, 1.0, 4.0):
                q = exp_map(lam, t)
                assert q.x * q.x + q.y * q.y <= t * t * (1 + 1e-12)

    def test_circle_chord_geometry(self):
        c = 1.7
        lam = Covector(0.0, c, 0.0)
        for t in (0.3, 1.1, 2.9):
            q = exp_map(lam, t)
            # endpoints stay on the circle of radius 1/|c| centered at (0, 1/c)
            assert math.hypot(q.x, q.y - 1 / c) == pytest.approx(
                1 / abs(c), abs=1e-12
            )


    def test_circle_small_turn_keeps_its_digits(self):
        # y = 2 sin^2(ct/2)/c: the form 1 - cos ct cancels to 0 here
        y = exp_map(Covector(0.0, 1e-8, 0.0), 1.0).y
        assert abs(y - 5e-9) <= math.ulp(5e-9)

    @pytest.mark.parametrize("c, t", [(1.9e-4, 1.0), (-0.95e-4, 2.0)])
    def test_circle_small_turn_against_series(self, c, t):
        # y = c t^2/2 (1 - u^2/12 + u^4/360 - ...) at u = ct; the next
        # term is below 1e-26 of the first
        u = c * t
        series = 0.5 * c * t * t * (1.0 - u * u / 12.0 + u**4 / 360.0)
        assert exp_map(Covector(0.3, c, 0.0), t).y == pytest.approx(series, rel=1e-15, abs=0.0)


class TestSampling:
    def test_two_point_line(self):
        pts = sample_elastica(Covector(0.0, 0.0, 0.0), 1.0, 2)
        assert [(p.x, p.y, p.theta) for p in pts] == [(0, 0, 0), (1, 0, 0)]

    def test_full_circle_closes(self):
        pts = sample_elastica(Covector(0.0, 2 * math.pi, 0.0), 1.0, 5)
        last = pts[-1]
        assert endpoint_gap(last, State(0.0, 0.0, 0.0)) < 1e-12

    def test_polyline_length_converges_to_arclength(self):
        lam = Covector(1.0, 1.2, 1.0)
        t1 = 2.0
        pts = sample_elastica(lam, t1, 100000)
        length = sum(
            math.hypot(b.x - a.x, b.y - a.y) for a, b in zip(pts, pts[1:])
        )
        assert abs(length - t1) < t1 * 1e-6

    def test_bad_args(self):
        with pytest.raises(ValueError):
            sample_elastica(Covector(0, 1, 1), 1.0, 1)
        with pytest.raises(ValueError):
            sample_elastica(Covector(0, 1, 1), 0.0, 4)

    def test_ends(self, cell_covectors):
        for lam in cell_covectors.values():
            for t1, n in ((0.7, 2), (3.0, 400), (250.0, 1000)):
                pts = sample_elastica(lam, t1, n)
                assert endpoint_gap(pts[0], State(0.0, 0.0, 0.0)) < 1e-12
                assert endpoint_gap(pts[-1], exp_map(lam, t1)) < 1e-12 * max(1.0, t1)

    def test_figure_eight_closes_after_one_period(self):
        k0 = float(find_k0())
        lam = n1(k0, 0.23, 1.0)
        T = 4.0 * ellint_K(k0)
        q = exp_map(lam, T)
        assert math.hypot(q.x, q.y) < 1e-6

    def test_rectangular_polyline_matches_oracle(self):
        # pointwise gap on a shared sample grid dominates the Hausdorff
        # distance between the two polylines
        lam = n1(1.0 / math.sqrt(2.0), 0.4, 1.0)
        t1 = 8.0 * ellint_K(1.0 / math.sqrt(2.0))
        n = 33
        pts = sample_elastica(lam, t1, n)
        worst = 0.0
        for i in range(1, n):
            t = t1 * i / (n - 1)
            q, _, _ = integrate_extremal(lam, t)
            worst = max(worst, math.hypot(pts[i].x - q.x, pts[i].y - q.y))
        assert worst < 1e-6


_STEPPED_STRATA = (Stratum.N1, Stratum.N2_PLUS, Stratum.N2_MINUS, Stratum.N3_PLUS, Stratum.N3_MINUS)


@st.composite
def _stepped_sample(draw):
    """A covector on a stepped stratum, a length t1 with sqrt(r) t1 <= 400, n."""
    stratum = draw(st.sampled_from(_STEPPED_STRATA))
    if stratum in (Stratum.N3_PLUS, Stratum.N3_MINUS):
        k = 1.0
    else:
        k = draw(st.one_of(
            st.floats(1.0 - 1e-9, 1.0, exclude_max=True),
            st.floats(1e-3, 0.06),
            st.floats(0.06, 1.0 - 1e-9),
        ))
    r = math.exp(draw(st.floats(-4.0, 4.0)))
    sr = math.sqrt(r)
    lam = from_elliptic(EllipticCoords(stratum, k, draw(st.floats(-12.0, 12.0)) / sr, r))
    t1 = draw(st.floats(1e-3, 400.0)) / sr
    n = draw(st.one_of(
        st.sampled_from([2, REANCHOR_POINTS, REANCHOR_POINTS + 1, 10_000]),
        st.integers(2, 2000),
    ))
    return lam, t1, n


def _prepare(lam):
    """t -> (x, y, theta, J) of `expmap._endpoint` at lam, without the curvature c_t.

    It keeps the body of `test_stepped_sample_matches_direct` as it was: the
    derandomized examples of a Hypothesis test are seeded by a digest of its
    source.
    """
    return lambda t: expmap._endpoint(lam, t)[:4]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=_stepped_sample())
def test_stepped_sample_matches_direct(case):
    # the addition-formula grid against the closure evaluated point by point
    lam, t1, n = case
    at = _prepare(lam)
    step = t1 / (n - 1)
    for i, q in enumerate(sample_elastica(lam, t1, n)):
        x, y, theta, _ = at(i * step)
        assert endpoint_gap(q, State(x, y, theta)) < 1e-12 * max(1.0, t1)


def test_stepped_sample_large_theta_within_its_conditioning():
    # theta grows as about c t, so a float theta carries a few ulps of
    # |c| t1: on N2 at small k one ulp of the direct path's argument
    # sqrt(r) t / k moves theta by about ulp(|c| t1), and the stepped path
    # builds that argument from anchors and steps.  Here the two paths differ
    # by more than 1e-12 max(1, t1) but by less than 4 more ulps of |c| t1;
    # tests/test_reference.py puts both within 4 ulps of the 40-digit theta
    lam, t1, n = STEPPED_N2_SMALL_K
    step = t1 / (n - 1)
    samples = sample_elastica(lam, t1, n)
    gap = max(endpoint_gap(q, State(*expmap._endpoint(lam, i * step)[:3])) for i, q in enumerate(samples))
    assert 1e-12 * max(1.0, t1) < gap < 1e-12 * max(1.0, t1) + 4.0 * math.ulp(abs(lam.c) * t1)


def _band_covectors(rng, count):
    """Seeded covectors on N1, N2+-, N3+- and in every stratify band, a few tolerances from its edge."""
    out = []
    for _ in range(count):
        r = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        k = rng.choice((rng.uniform(0.02, 0.98), 1.0 - 10.0 ** rng.uniform(-9.0, -2.0),
                        10.0 ** rng.uniform(-4.0, -2.0)))
        sign = rng.choice((1, -1))
        out.append(n1(k, rng.uniform(0.0, 8.0), r))
        out.append(n2(k, rng.uniform(0.0, 4.0), r, sign))
        out.append(n3(rng.uniform(-6.0, 6.0), r, sign))
        tol = STRATIFY_TOL * max(r, 4.0 * r, 1.0)
        # the separatrix band, on either side of E = r
        b = rng.uniform(-0.95 * math.pi, 0.95 * math.pi)
        c2 = max(0.0, 2.0 * r * (1.0 + math.cos(b)) + rng.uniform(-6.0, 6.0) * tol)
        out.append(Covector(b, sign * math.sqrt(c2), r))
        # the saddle and stable-equilibrium bands, and the gravity-free band
        c = rng.uniform(-3.0, 3.0) * tol
        out.append(Covector(math.pi + rng.uniform(-6.0, 6.0) * tol, c, r))
        out.append(Covector(rng.uniform(-6.0, 6.0) * math.sqrt(tol / r), c, r))
        c = rng.choice((rng.uniform(-4.0, 4.0), rng.uniform(-3.0, 3.0) * STRATIFY_TOL))
        out.append(Covector(rng.uniform(-math.pi, math.pi), c,
                            rng.uniform(0.0, 6.0) * STRATIFY_TOL * max(c * c, 1.0)))
    return out


def _endpoint_oscillating(
    k: float, sr: float, t: float, a0: tuple, sn: float, cn: float, dn: float, d: float,
):
    """Endpoint and bending energy from the oscillating-stratum quadratures.

    The bit reference of the quadratures that `expmap._endpoint` and
    `sample_elastica` write out.  Written for algebraic modulus k, with the
    start values a0 = (sn, cn, dn, 0) and (sn, cn, dn, d) at t, where d =
    dE - sqrt(r) t and dE is the epsilon increment over [0, t]; at k = 1
    they are the hyperbolic ones of the separatrix, and at k > 1 (the
    reciprocal modulus) those of the rotating strata.  d is carried whole
    because dE and sqrt(r) t cancel in x and in the energy as k -> 0.  At
    k = 1, where epsilon = tanh is bounded, d is dE itself.
    """
    s0, c0, d0, _ = a0
    k2 = k * k
    sin_half = k * (d0 * sn - s0 * dn)
    cos_half = d0 * dn + k2 * s0 * sn
    theta = 2.0 * math.atan2(sin_half, cos_half)
    # c0 - cn = (sn - s0)(sn + s0)/(c0 + cn) as cn^2 + sn^2 = 1: it keeps the
    # digits the difference loses where c0 and cn are both near +-1, as on
    # the rotating strata (k > 1), where they differ by O(1/k^2)
    dc = (sn - s0) * (sn + s0) / (c0 + cn) if c0 * cn > 0.5 else c0 - cn
    w = sr * t
    if k == 1.0:
        dE = energy = d
        dw = d - w
    else:
        dE = d + w
        dw = d
        energy = d + k2 * w
    x = t - (2.0 / sr) * (-d0 * d0 * dw - 2.0 * k2 * d0 * s0 * dc + k2 * s0 * s0 * dE)
    y = (2.0 * k / sr) * ((2.0 * d0 * d0 - 1.0) * dc - s0 * d0 * (2.0 * dE - w))
    return x, y, theta, 2.0 * sr * energy


def _stepped_reference(lam, t1, n):
    """The points of `sample_elastica` on N1, N2+- and N3+- as calls compose them.

    The loop steps with `_add` and takes each point from
    `_endpoint_oscillating` and `State`, with the anchor spacing and the
    anchors of `sample_elastica`.
    """
    step = t1 / (n - 1)
    s = stratify(lam)
    sr, kap, a0, k, jac = _start(lam, s)
    hw = sr * step / k if s in ROTATING else sr * step
    run = REANCHOR_POINTS
    if (REANCHOR_POINTS - 1) * hw > REANCHOR_SPAN:
        run = 1 + int(REANCHOR_SPAN // hw)
    if run > 1:
        jh = jac(sr * step, k)
    out = []
    for i in range(n):
        t = i * step
        if i % run:
            a = _add(a, jh, kap)
        else:
            a = _add(a0, jac(sr * t, k), kap) if i else a0
        x, y, theta, _ = _endpoint_oscillating(kap, sr, t, a0, *a)
        out.append(State(x, y, theta))
    return out, run


def test_sample_anchors_are_exp_map(fixture25, cell_covectors):
    # on N1, N2+- and N3+- every point is that of the composed loop above,
    # and every anchor, each index i >= 1 with i % run == 0 (index 0 is a0
    # itself), is `exp_map`'s, which `_endpoint` forms in one pass on N1 and
    # N2+-; on the line and circle strata every point is `exp_map`'s.  All
    # compare by repr, so bit for bit.  The times are i * (t1 / (n - 1)), as
    # the grid has them
    lams = [*fixture25, *cell_covectors.values(), *_band_covectors(random.Random(29), 60)]
    anchors = points = 0
    for lam in lams:
        s = stratify(lam)
        for t1, n in ((0.7, 2), (0.7, 3), (7.3, 50), (250.0, 300), (13.5, 1001)):
            step = t1 / (n - 1)
            samples = sample_elastica(lam, t1, n)
            assert len(samples) == n and all(type(q) is State for q in samples)
            first, run = 0, 1
            if s in ELLIPTIC_STRATA:
                reference, run = _stepped_reference(lam, t1, n)
                assert list(map(repr, samples)) == list(map(repr, reference)), (lam, t1, n)
                points += n
                first = run
            indices = range(first, n, run)
            for i in indices:
                assert repr(samples[i]) == repr(exp_map(lam, i * step)), (lam, t1, n, i)
            if first:
                anchors += len(indices)
    assert {stratify(lam) for lam in lams} == set(Stratum)
    assert anchors > 30_000
    assert points > 500_000


def _composed_endpoint(lam, t, s):
    """`expmap._endpoint` on N1, N2+- and N3+- as calls compose it.

    `_start`, the shifted Jacobi routine, `_add` and `_endpoint_oscillating`.
    """
    sr, kap, a0, k, jac = _start(lam, s)
    a = _add(a0, jac(sr * t, k), kap)
    # the curvature c_t = 2 sqrt(r) kap cn
    return (*_endpoint_oscillating(kap, sr, t, a0, *a), 2.0 * sr * kap * a[1], s,
            (kap, a0, a) if kap != 1.0 else None)


def _outcome(f, *args):
    """The repr of f(*args), or the type and message of the exception it raises."""
    try:
        return repr(f(*args))
    except Exception as exc:  # the exception is the outcome compared
        return f"{type(exc).__name__}: {exc}"


def test_endpoint_on_the_separatrix_is_the_composed_reference():
    # the whole tuple (x, y, theta, J, c_t, stratum, jac), by repr, on N3+- and
    # on either side of the separatrix band.  sqrt(r) t runs past 354, where
    # sech^2 underflows, and past 709, where sech does; u0 of either sign
    # takes both the tanh and sech rules of `_add` and its general formula
    rng = random.Random(31)
    lams = []
    for _ in range(40):
        r = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        lams.append(n3(rng.uniform(-22.0, 22.0) / math.sqrt(r), r, rng.choice((1, -1))))
    # the separatrix-band covector of each `_band_covectors` draw of seven;
    # those that stratify snaps to the saddle are dropped
    lams += _band_covectors(rng, 60)[3::7]
    lams = [lam for lam in lams if stratify(lam) in ELLIPTIC_STRATA]
    strata = {stratify(lam) for lam in lams}
    assert set(SEPARATRIX) | {Stratum.N1} <= strata and strata & set(ROTATING)
    signs = {math.copysign(1.0, math.sin(0.5 * lam.beta) * lam.c) for lam in lams
             if stratify(lam) in SEPARATRIX}
    assert signs == {1.0, -1.0}
    for lam in lams:
        s = stratify(lam)
        sr = math.sqrt(lam.r)
        for u in (0.0, 0.3, 17.0, 353.0, 355.0, 708.9, 709.5, 2000.0, 1e6):
            t = u / sr
            assert _outcome(expmap._endpoint, lam, t) == _outcome(_composed_endpoint, lam, t, s), (lam, t)


def test_kappa_is_not_one_off_the_separatrix():
    # `_endpoint` and `sample_elastica` take the k = 1 formulas by the
    # stratum, not by kappa == 1.  That holds because kappa^2 - 1 = (E - r)/(2r)
    # and stratify puts a covector on N1 or N2+- only past the band's
    # half-width tol >= STRATIFY_TOL r, so |kappa - 1| >= about STRATIFY_TOL/4.
    # The covectors lie at the band's two edges, on both sides of each
    rng = random.Random(311)
    counts = {Stratum.N1: 0, Stratum.N2_PLUS: 0, Stratum.N2_MINUS: 0}
    closest = math.inf
    for _ in range(20_000):
        r = 10.0 ** rng.uniform(-12.0, 12.0)
        beta = rng.uniform(-0.99 * math.pi, 0.99 * math.pi)
        c2 = 2.0 * r * (1.0 + math.cos(beta))
        tol = STRATIFY_TOL * max(r, c2, 1.0)
        # E - r = c^2/2 - r (1 + cos beta) within 0.1 % of -tol or of +tol
        c2 += 2.0 * rng.choice((-1.0, 1.0)) * tol * (1.0 + rng.uniform(-1e-3, 1e-3))
        lam = Covector(beta, rng.choice((1.0, -1.0)) * math.sqrt(max(c2, 0.0)), r)
        s = stratify(lam)
        if s in counts:
            counts[s] += 1
            kap = _start(lam, s)[1]
            assert kap != 1.0, lam
            closest = min(closest, abs(kap - 1.0))
    assert min(counts.values()) > 1000
    assert closest > 0.2 * STRATIFY_TOL


class TestClassify:
    def test_line(self):
        assert classify(Covector(math.pi, 0.0, 1.0)) is ElasticaClass.LINE
        assert classify(Covector(0.0, 0.0, 0.0)) is ElasticaClass.LINE

    def test_circle(self):
        assert classify(Covector(0.0, 2.0, 0.0)) is ElasticaClass.CIRCLE

    def test_critical(self):
        assert classify(n3(0.4, 1.0)) is ElasticaClass.CRITICAL

    def test_non_inflectional(self):
        assert classify(n2(0.7, 0.2, 1.0)) is ElasticaClass.NON_INFLECTIONAL

    def test_inflectional_spectrum(self):
        assert classify(n1(0.3, 0.1, 1.0)) is ElasticaClass.INFLECTIONAL_SMALL_K
        assert (
            classify(n1(1 / math.sqrt(2), 0.1, 1.0)) is ElasticaClass.RECTANGULAR
        )
        assert classify(n1(0.8, 0.1, 1.0)) is ElasticaClass.INFLECTIONAL_MID_K
        assert classify(n1(float(find_k0()), 0.1, 1.0)) is ElasticaClass.FIGURE_EIGHT
        assert classify(n1(0.99, 0.1, 1.0)) is ElasticaClass.INFLECTIONAL_LARGE_K


class TestEnergy:
    def test_line_zero(self):
        assert elastic_energy_closed(Covector(2.0, 0.0, 0.0), 5.0) == 0.0
        assert elastic_energy_closed(Covector(0.0, 0.0, 1.0), 5.0) == 0.0

    def test_constant_curvature(self):
        assert elastic_energy_closed(Covector(0.0, 2.0, 0.0), 3.0) == 6.0

    def test_against_quadrature(self):
        lam = n1(0.7, 0.3, 1.0)
        t = 2.0

        def c_squared_half(s):
            return 0.5 * flow_vertical(lam, s).c ** 2

        J = adaptive_simpson(c_squared_half, 0.0, t, tol=1e-12)
        assert abs(elastic_energy_closed(lam, t) - J) < 1e-9

    def test_against_quadrature_all_cells(self, cell_covectors):
        for lam in cell_covectors.values():
            t = 1.3

            def c_squared_half(s):
                return 0.5 * flow_vertical(lam, s).c ** 2

            J = adaptive_simpson(c_squared_half, 0.0, t, tol=1e-12)
            assert abs(elastic_energy_closed(lam, t) - J) < 1e-9

    def test_zero_iff_line_strata(self, fixture25):
        for lam in fixture25:
            J = elastic_energy_closed(lam, 2.0)
            if abs(lam.c) < 1e-12 and (
                lam.r == 0.0 or abs(wrap_angle(lam.beta)) < 1e-12
                or abs(wrap_angle(lam.beta - math.pi)) < 1e-12
            ):
                assert J == 0.0
            else:
                assert J > 0.0
