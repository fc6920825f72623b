import math
import random

import pytest

from elastica.elliptic import Modulus, _add, _shifted, ellint_K, jacobi
from elastica.expmap import State, elastic_energy_closed, exp_map
from elastica.phase import (
    ELLIPTIC_STRATA,
    SEPARATRIX,
    Covector,
    EllipticCoords,
    Stratum,
    energy,
    from_elliptic,
    period,
    stratify,
    wrap_angle,
)
from elastica.symmetry import (
    P_of,
    Q_of,
    _arc,
    _half_length,
    compose,
    is_fixed_covector,
    is_fixed_state,
    m3_branch,
    maxwell_coords,
    reflect_covector,
    reflect_state,
)

from conftest import n1, n2, n3


def random_states(n, seed=0):
    rng = random.Random(seed)
    return [
        State(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi))
        for _ in range(n)
    ]


def states_equal(a, b, tol=1e-12):
    return (
        abs(a.x - b.x) < tol
        and abs(a.y - b.y) < tol
        and abs(wrap_angle(a.theta - b.theta)) < tol
    )


class TestReflectState:
    def test_chord_reflection_example(self):
        q = reflect_state(3, State(2.0, 3.0, 1.0))
        assert (q.x, q.y, q.theta) == (2.0, -3.0, -1.0)

    def test_horizontal_segment_fixed_by_all(self):
        q = State(1.7, 0.0, 0.0)
        for i in (1, 2, 3):
            assert states_equal(reflect_state(i, q), q)

    def test_involutions(self):
        for q in random_states(100, seed=1):
            for i in (1, 2, 3):
                assert states_equal(reflect_state(i, reflect_state(i, q)), q)

    def test_group_table(self):
        for q in random_states(50, seed=2):
            for i, j in ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)):
                k = compose(i, j)
                assert states_equal(
                    reflect_state(i, reflect_state(j, q)), reflect_state(k, q)
                )
        assert compose(1, 1) == 0 and compose(0, 2) == 2

    @pytest.mark.parametrize("i, j", [(4, 1), (0, 5), (-1, 0), (1, -3)])
    def test_compose_rejects_non_elements(self, i, j):
        with pytest.raises(ValueError, match=r"0\.\.3"):
            compose(i, j)


class TestReflectCovector:
    def test_chord_is_time_independent(self):
        lam = Covector(0.4, 1.1, 1.0)
        for t in (0.1, 2.7):
            li = reflect_covector(3, lam, t)
            assert (li.beta, li.c, li.r) == (-0.4, -1.1, 1.0)

    def test_full_period_perpendicular_fixes_axis_start(self):
        lam = from_elliptic(EllipticCoords(Stratum.N1, Modulus(0.6), 0.0, 1.0))
        T = period(Covector(lam.beta, lam.c, lam.r))
        li = reflect_covector(2, lam, T)
        assert abs(wrap_angle(li.beta - lam.beta)) < 1e-9
        assert abs(li.c - lam.c) < 1e-9

    def test_energy_preserved(self, cell_covectors):
        for lam in cell_covectors.values():
            for t in (0.5, 1.9):
                for i in (1, 2, 3):
                    li = reflect_covector(i, lam, t)
                    assert abs(energy(li) - energy(lam)) < 1e-11
                    assert li.r == lam.r

    def test_double_application(self, cell_covectors):
        for lam in cell_covectors.values():
            for t in (0.7, 2.3):
                for i in (1, 2, 3):
                    l2 = reflect_covector(i, reflect_covector(i, lam, t), t)
                    assert abs(wrap_angle(l2.beta - lam.beta)) < 1e-9
                    assert abs(l2.c - lam.c) < 1e-9


class TestPQ:
    def test_zero_angle(self):
        assert P_of(State(2.0, 3.0, 0.0)) == -3.0

    def test_vanishes_on_circles(self):
        lam = Covector(0.7, 1.3, 0.0)
        for t in (0.2, 1.0, 2.8, 5.5):
            assert abs(P_of(exp_map(lam, t))) < 1e-12

    def test_rotation_identity(self):
        for q in random_states(100, seed=3):
            assert P_of(q) ** 2 + Q_of(q) ** 2 == pytest.approx(
                q.x**2 + q.y**2, rel=1e-12
            )


class TestFixedStates:
    def test_origin_axis_point(self):
        q = State(1.0, 0.0, 0.0)
        assert all(is_fixed_state(i, q) for i in (1, 2, 3))
        assert m3_branch(q) == "plus"

    def test_turned_origin(self):
        q = State(0.0, 0.0, math.pi)
        assert is_fixed_state(3, q)
        assert is_fixed_state(2, q)
        assert not is_fixed_state(1, q)
        assert m3_branch(q) == "minus"

    def test_generic_point_fixed_by_none(self):
        q = State(1.0, 1.0, 1.0)
        assert not any(is_fixed_state(i, q) for i in (1, 2, 3))
        assert m3_branch(q) is None

    def test_fixed_iff_reflection_fixes(self):
        for q in random_states(200, seed=4):
            for i in (1, 2, 3):
                fixed = states_equal(reflect_state(i, q), q, tol=1e-9)
                if fixed:
                    assert is_fixed_state(i, q, tol=1e-6)
                if not is_fixed_state(i, q, tol=1e-12):
                    assert not fixed


class TestFixedCovectors:
    def test_oscillating_inflection_midpoint(self):
        k, r, t = 0.6, 1.0, 0.8
        K = ellint_K(k)
        # arrange tau = sqrt(r) phi + sqrt(r) t/2 = K
        lam = n1(k, K - t / 2, r)
        assert is_fixed_covector(1, lam, t)
        assert not is_fixed_covector(2, lam, t)
        assert not is_fixed_covector(3, lam, t)

    def test_oscillating_vertex_midpoint(self):
        k, r, t = 0.6, 1.0, 0.8
        K = ellint_K(k)
        lam = n1(k, (4 * K - t / 2) % (4 * K), r)
        assert is_fixed_covector(2, lam, t)
        assert not is_fixed_covector(1, lam, t)

    def test_separatrix(self):
        lam = n3(-0.5, 1.0)
        assert not is_fixed_covector(1, lam, 1.0)
        assert is_fixed_covector(2, lam, 1.0)  # tau = -0.5 + 0.5 = 0
        assert not is_fixed_covector(3, lam, 1.0)

    def test_rotating_only_perpendicular(self):
        lam = n2(0.7, 0.0, 1.0)
        t = 2.0 * 0.7 * ellint_K(0.7)  # tau lands on the lattice
        assert is_fixed_covector(2, lam, t)
        assert not is_fixed_covector(1, lam, t)
        assert not is_fixed_covector(3, lam, t)

    def test_uniform_rotation(self):
        lam = Covector(0.3, 1.0, 0.0)
        t = 2 * math.pi - 0.6  # 2 beta + c t = 2 pi
        assert is_fixed_covector(2, lam, t)
        assert not is_fixed_covector(2, lam, t + 0.1)
        assert not is_fixed_covector(1, lam, t)

    def test_fixed_covector_implies_fixed_trajectory(self):
        # when the covector is fixed the two extremals coincide everywhere
        k, r, t = 0.6, 1.0, 0.8
        K = ellint_K(k)
        lam = n1(k, K - t / 2, r)
        li = reflect_covector(1, lam, t)
        for s in (0.0, 0.3, 0.62, t):
            assert states_equal(exp_map(lam, s), exp_map(li, s), tol=1e-9)


class TestSeparatrixFixedPoints:
    # reflection 2 fixes a separatrix arc when tanh tau = 0 within tol
    @pytest.mark.parametrize("tol", [1e-9, 1e-6])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_tolerance_edge(self, tol, sign):
        for r, t in ((1.0, 1.0), (0.5, 2.7), (2.0, 0.6)):
            sr = math.sqrt(r)
            for tau, fixed in ((0.5 * tol, True), (-0.5 * tol, True),
                               (2.0 * tol, False), (-2.0 * tol, False)):
                lam = n3((tau - sr * t / 2.0) / sr, r, sign)
                assert stratify(lam) in SEPARATRIX
                assert is_fixed_covector(2, lam, t, tol) is fixed, (r, t, tau)
                assert not is_fixed_covector(1, lam, t, tol)
                assert not is_fixed_covector(3, lam, t, tol)


def test_midpoint_matches_maxwell_coords():
    # the midpoint from the start point and the addition formula against
    # the Jacobi functions at maxwell_coords' tau, which inverts for tau0:
    # |sn|, |cn| and dn, since tau0 is reduced by a half period on N2.
    # Worst measured per max(1, p) over four seeds of this draw: 1.7e-12 on
    # N2, 6.9e-13 on N1 and 3.3e-16 on N3
    rng = random.Random(28)
    for j in range(2000):
        r, t = math.exp(rng.uniform(-2.0, 2.0)), rng.uniform(0.0, 10.0)
        k = 1.0 - math.exp(rng.uniform(math.log(1e-6), math.log(0.98)))
        sign = rng.choice((1, -1))
        lam = (n1(k, rng.uniform(0.0, 8.0), r), n2(k, rng.uniform(0.0, 4.0), r, sign),
               n3(rng.uniform(-4.0, 4.0), r, sign))[j % 3]
        s = stratify(lam)
        sr, k, b0 = _arc(lam, s)
        p = _half_length(s, sr, k, t)
        sn, cn, dn, _ = _add(b0, _shifted(p, k), k)
        mc = maxwell_coords(lam, t)
        assert mc.p == p
        jt = jacobi(mc.tau, k)
        err = max(abs(abs(sn) - abs(jt.sn)), abs(abs(cn) - abs(jt.cn)), abs(dn - jt.dn))
        assert err <= 1e-11 * max(1.0, p), (lam, t, err)


class TestMaxwellCoords:
    def test_oscillating(self):
        lam = n1(0.5, 0.0, 1.0)
        mc = maxwell_coords(lam, 2.0)
        assert mc.tau == pytest.approx(1.0, abs=1e-12)
        assert mc.p == pytest.approx(1.0, abs=1e-12)

    def test_rotating_scaling(self):
        k = 0.5
        lam = n2(k, 0.0, 1.0)
        mc = maxwell_coords(lam, 2.0 * k)
        assert mc.tau == pytest.approx(1.0, abs=1e-12)
        assert mc.p == pytest.approx(1.0, abs=1e-12)

    def test_arc_length_relation(self):
        rng = random.Random(5)
        for _ in range(50):
            r = rng.uniform(0.3, 4.0)
            t = rng.uniform(0.1, 3.0)
            lam = n1(rng.uniform(0.1, 0.95), rng.uniform(0, 1), r)
            assert maxwell_coords(lam, t).p * 2 == pytest.approx(
                math.sqrt(r) * t, rel=1e-12
            )
            k = rng.uniform(0.1, 0.95)
            lam = n2(k, rng.uniform(0, 1), r)
            assert maxwell_coords(lam, t).p * 2 * k == pytest.approx(
                math.sqrt(r) * t, rel=1e-12
            )


BAD_TOLS = (0.0, -1e-9, math.nan, math.inf, -math.inf)
NON_FINITE = (math.nan, math.inf, -math.inf)


class TestInvalidArguments:
    def test_non_finite_time_rejected_on_every_stratum(self, cell_covectors):
        for lam in cell_covectors.values():
            elliptic = stratify(lam) in ELLIPTIC_STRATA
            for t in NON_FINITE:
                for i in (1, 2, 3):
                    with pytest.raises(ValueError, match="finite t"):
                        reflect_covector(i, lam, t)
                    with pytest.raises(ValueError, match="finite t"):
                        is_fixed_covector(i, lam, t)
                if elliptic:
                    with pytest.raises(ValueError, match="finite t"):
                        maxwell_coords(lam, t)

    def test_circle_at_infinite_time(self):
        # the turning angle 2 beta + c t was wrapped as inf: math domain error
        with pytest.raises(ValueError, match="finite t"):
            is_fixed_covector(2, Covector(0.2, 1.0, 0.0), math.inf)

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_tolerance_must_be_finite_and_positive(self, cell_covectors, tol):
        q = State(1.0, 0.0, 0.0)
        for i in (1, 2, 3):
            with pytest.raises(ValueError, match="tol"):
                is_fixed_state(i, q, tol)
            for lam in cell_covectors.values():
                with pytest.raises(ValueError, match="tol"):
                    is_fixed_covector(i, lam, 1.0, tol)
        with pytest.raises(ValueError, match="tol"):
            m3_branch(q, tol)


class TestCommutation:
    def test_exponential_commutation(self, fixture25):
        # reflections are symmetries of the endpoint map
        for lam in fixture25:
            for t in (0.5, 1.4, 3.3):
                q = exp_map(lam, t)
                for i in (1, 2, 3):
                    lhs = reflect_state(i, q)
                    rhs = exp_map(reflect_covector(i, lam, t), t)
                    assert states_equal(lhs, rhs, tol=1e-8)

    def test_energy_invariance(self, fixture25):
        for lam in fixture25:
            for t in (0.6, 2.1):
                J = elastic_energy_closed(lam, t)
                for i in (1, 2, 3):
                    Ji = elastic_energy_closed(reflect_covector(i, lam, t), t)
                    assert abs(J - Ji) < 1e-9
