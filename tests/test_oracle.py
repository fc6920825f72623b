import math
from pathlib import Path

import pytest

from elastica.elliptic import ellint_K
from elastica.expmap import State, elastic_energy_closed, exp_map
from elastica.oracle import (
    IntegratorConfig,
    MaxStepsExceeded,
    UnattainableTargetError,
    attainable,
    bvp_shoot,
    integrate_extremal,
)
from elastica.phase import Covector, energy, wrap_angle

from conftest import n1
from quadrature import quad_E, quad_F

KNIFE_EDGE_GOLDEN = Path(__file__).parent / "golden" / "bvp_knife_edge.txt"


def endpoint_gap(a, b):
    return max(abs(a.x - b.x), abs(a.y - b.y), abs(wrap_angle(a.theta - b.theta)))


class TestIntegrator:
    def test_line(self):
        q, lam_t, J = integrate_extremal(Covector(1.0, 0.0, 0.0), 3.0)
        assert abs(q.x - 3.0) < 1e-11 and q.y == 0.0 and q.theta == 0.0
        assert J == 0.0

    def test_half_circle(self):
        q, _, _ = integrate_extremal(Covector(0.0, 1.0, 0.0), math.pi)
        assert abs(q.x) < 1e-9
        assert abs(q.y - 2.0) < 1e-9
        assert abs(wrap_angle(q.theta - math.pi)) < 1e-9

    def test_agreement_with_closed_form(self):
        lam = n1(0.62, 0.9, 1.0)
        q, lam_t, J = integrate_extremal(lam, 2.0)
        assert endpoint_gap(q, exp_map(lam, 2.0)) < 1e-7
        assert abs(J - elastic_energy_closed(lam, 2.0)) < 1e-7

    def test_convergence_order(self):
        lam = Covector(0.9, 1.1, 1.3)
        ref = exp_map(lam, 2.0)

        def err(step):
            q, _, _ = integrate_extremal(lam, 2.0, IntegratorConfig(step=step))
            return endpoint_gap(q, ref)

        ratio = err(4e-3) / err(2e-3)
        assert 12.0 <= ratio <= 20.0

    def test_conservation_over_long_horizon(self):
        lam = Covector(0.9, 1.1, 1.3)
        _, lam_t, _ = integrate_extremal(lam, 10.0)
        assert abs(energy(lam_t) - energy(lam)) < 1e-9
        assert lam_t.r == lam.r

    def test_max_steps_guard(self):
        # 10 / 1e-7 = 1e8 steps, past the fixed budget of 1e7
        with pytest.raises(MaxStepsExceeded):
            integrate_extremal(Covector(0.0, 1.0, 1.0), 10.0, IntegratorConfig(step=1e-7))

    def test_max_steps_guard_when_step_count_overflows(self):
        # t / step is inf: the guard must fire before the count is truncated
        with pytest.raises(MaxStepsExceeded):
            integrate_extremal(Covector(0.0, 1.0, 1.0), 1.0, IntegratorConfig(step=5e-324))

    @pytest.mark.parametrize("step", [0.0, -1e-4, math.inf, math.nan])
    def test_step_must_be_finite_and_positive(self, step):
        with pytest.raises(ValueError, match="finite and positive"):
            IntegratorConfig(step=step)


class TestQuadrature:
    def test_zero(self):
        assert quad_F(0.0, 0.5) == 0.0

    def test_circular_limit(self):
        assert quad_F(math.pi / 2.0, 0.0) == pytest.approx(math.pi / 2.0, abs=1e-13)

    def test_cross_validates_agm(self):
        assert abs(quad_F(math.pi / 2.0, 0.8) - ellint_K(0.8)) < 1e-12

    def test_second_kind(self):
        assert quad_E(math.pi / 2.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            quad_F(0.3, 1.0)
        with pytest.raises(ValueError):
            quad_F(2.0, 0.5)


class TestAttainable:
    def test_line_endpoint_on_boundary(self):
        assert attainable(State(1.0, 0.0, 0.0), 1.0)

    def test_other_boundary_points_excluded(self):
        assert not attainable(State(0.0, 1.0, 0.0), 1.0)
        assert not attainable(State(1.0, 0.0, 0.5), 1.0)

    def test_interior(self):
        assert attainable(State(0.5, 0.0, 2.0), 1.0)

    def test_exterior(self):
        assert not attainable(State(1.2, 0.3, 0.0), 1.0)

    @pytest.mark.parametrize(
        "q1, t1",
        [
            (State(0.5, 0.0, math.nan), 1.0),
            (State(math.nan, 0.0, 0.0), 1.0),
            (State(0.5, math.inf, 0.0), 1.0),
            (State(0.5, 0.0, 0.0), math.inf),
            (State(0.5, 0.0, 0.0), math.nan),
        ],
    )
    def test_non_finite_rejected(self, q1, t1):
        with pytest.raises(ValueError):
            attainable(q1, t1)
        with pytest.raises(ValueError):
            bvp_shoot(q1, t1, starts=1)


class TestShooting:
    def test_line_target(self):
        sols = bvp_shoot(State(1.0, 0.0, 0.0), 1.0, starts=40)
        assert any(s.energy == 0.0 and s.lam.c == 0.0 for s in sols)
        assert sols[0].energy == min(s.energy for s in sols)

    def test_line_target_past_the_saddle(self):
        # one of the 100 starts steps onto the separatrix within 2e-8 of the
        # saddle, where sin(beta/2) rounds to 1: the shooting must go on
        t1 = 1.001981982727356
        sols = bvp_shoot(State(t1, 0.0, 0.0), t1, starts=100, jobs=1)
        assert any(s.energy == 0.0 and s.lam.c == 0.0 for s in sols)

    def test_circle_target(self):
        sols = bvp_shoot(State(0.0, 2.0 / math.pi, math.pi), 1.0, starts=60)
        best = sols[0]
        assert best.lam.c == pytest.approx(math.pi, abs=1e-8)
        assert best.lam.r == pytest.approx(0.0, abs=1e-8)
        assert best.optimal_candidate

    def test_residuals_verify(self):
        lam_true = n1(0.62, 0.9, 1.0)
        t1 = 1.2
        q1 = exp_map(lam_true, t1)
        sols = bvp_shoot(q1, t1, starts=80)
        assert sols
        for s in sols:
            assert endpoint_gap(exp_map(s.lam, t1), q1) < 1e-8
        J_true = elastic_energy_closed(lam_true, t1)
        assert any(abs(s.energy - J_true) < 1e-8 for s in sols)

    def test_unattainable_rejected(self):
        with pytest.raises(UnattainableTargetError, match="target unattainable") as info:
            bvp_shoot(State(2.0, 0.0, 0.0), 1.0)
        assert isinstance(info.value, ValueError)

    def test_knife_edge_golden(self):
        # criterion 8's n1(0.9, 1.6, 1.0) at t1 = 1.1 converges from four
        # starts of 100 (indices 42, 50, 56 and 99 of start_grid()), and
        # rounding-level changes to the solver or the exponential map move or
        # lose them.  A change meant to alter those bits writes
        # repr(sols) + "\n" to the golden file again and gives its reason in
        # CHANGES.md.
        lam, t1 = n1(0.9, 1.6, 1.0), 1.1
        sols = bvp_shoot(exp_map(lam, t1), t1, starts=100, jobs=1)
        assert repr(sols) + "\n" == KNIFE_EDGE_GOLDEN.read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "lam, t1", [(Covector(0.0, 0.0, 0.0), 1.0), (Covector(0.0, 0.0, 2.0), 1.7)]
    )
    def test_conjugate_locus_pseudo_solutions_dropped(self, lam, t1):
        # small oscillations about the line with sqrt(r) t1 = 2 pi (and 2 z,
        # tan z = z) pass the residual test on the conjugate locus, where the
        # residual is quadratic in the distance; the polish runs on from them
        sols = bvp_shoot(exp_map(lam, t1), t1, starts=100, jobs=1)
        assert [(s.lam, s.energy) for s in sols] == [(Covector(0.0, 0.0, 0.0), 0.0)]

    def test_worker_pool_matches_serial(self):
        q1, t1 = State(0.0, 0.6366, 3.1415926), 1.0
        serial = bvp_shoot(q1, t1, starts=8, jobs=1)
        assert serial
        assert bvp_shoot(q1, t1, starts=8, jobs=2) == serial

    @pytest.mark.parametrize(
        "starts, jobs, flag",
        [
            pytest.param(0, 1, "starts", id="0"),
            pytest.param(-1, 1, "starts", id="-1"),
            pytest.param(2, 0, "jobs", id="jobs-0"),
            pytest.param(2, -3, "jobs", id="jobs-negative"),
        ],
    )
    def test_starts_below_one_rejected(self, starts, jobs, flag):
        with pytest.raises(ValueError, match=flag):
            bvp_shoot(State(0.5, 0.0, 0.0), 1.0, starts=starts, jobs=jobs)

    def test_past_maxwell_point_second_solution_is_cheaper(self):
        # past the cut-time bound the shot trajectory is never the best one
        k = 0.6
        lam = n1(k, 0.37, 1.0)
        bound = 4.0 * ellint_K(k)
        t1 = bound * 1.05
        q1 = exp_map(lam, t1)
        J = elastic_energy_closed(lam, t1)
        sols = bvp_shoot(q1, t1, starts=120)
        assert sols
        assert sols[0].energy < J - 1e-4
