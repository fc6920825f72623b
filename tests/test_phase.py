import math
import random

import pytest

from elastica.elliptic import Modulus, ellint_K
from elastica.phase import (
    ELLIPTIC_STRATA,
    SEPARATRIX,
    STRATIFY_TOL,
    Covector,
    EllipticCoords,
    Stratum,
    UnsupportedStratumError,
    energy,
    flow_vertical,
    from_elliptic,
    period,
    stratify,
    to_elliptic,
    wrap_angle,
)
from elastica.oracle import IntegratorConfig, integrate_extremal


def pendulum_rk4(lam, t, n=100000):
    b, c, r = lam.beta, lam.c, lam.r
    h = t / n
    for _ in range(n):
        k1b, k1c = c, -r * math.sin(b)
        k2b, k2c = c + h / 2 * k1c, -r * math.sin(b + h / 2 * k1b)
        k3b, k3c = c + h / 2 * k2c, -r * math.sin(b + h / 2 * k2b)
        k4b, k4c = c + h * k3c, -r * math.sin(b + h * k3b)
        b += h / 6 * (k1b + 2 * k2b + 2 * k3b + k4b)
        c += h / 6 * (k1c + 2 * k2c + 2 * k3c + k4c)
    return b, c


def random_covectors(n, seed=0, r_max=8.0):
    rng = random.Random(seed)
    return [
        Covector(
            rng.uniform(-math.pi, math.pi),
            rng.uniform(-5.0, 5.0),
            rng.uniform(0.01, r_max),
        )
        for _ in range(n)
    ]


class TestCovector:
    @pytest.mark.parametrize(
        "beta, c, r",
        [
            (math.nan, 1.0, 1.0),
            (math.inf, 1.0, 1.0),
            (0.0, math.nan, 1.0),
            (0.0, -math.inf, 1.0),
            (0.0, 0.0, math.nan),
            (0.0, 0.0, math.inf),
        ],
    )
    def test_non_finite_rejected(self, beta, c, r):
        with pytest.raises(ValueError, match="finite"):
            Covector(beta, c, r)


class TestEnergy:
    def test_stable_equilibrium(self):
        assert energy(Covector(0.0, 0.0, 1.0)) == -1.0

    def test_unstable_equilibrium(self):
        assert energy(Covector(math.pi, 0.0, 1.0)) == 1.0

    def test_generic(self):
        assert energy(Covector(0.0, 1.0, 1.0)) == -0.5

    def test_bounded_below(self):
        for lam in random_covectors(200, seed=1):
            assert energy(lam) >= -lam.r


class TestStratify:
    def test_oscillating(self):
        assert stratify(Covector(0.0, 1.0, 1.0)) is Stratum.N1

    def test_rotating(self):
        assert stratify(Covector(0.0, 3.0, 1.0)) is Stratum.N2_PLUS
        assert stratify(Covector(0.0, -3.0, 1.0)) is Stratum.N2_MINUS

    def test_gravity_free(self):
        assert stratify(Covector(0.3, 0.5, 0.0)) is Stratum.N6_PLUS
        assert stratify(Covector(0.3, -0.5, 0.0)) is Stratum.N6_MINUS
        assert stratify(Covector(1.0, 0.0, 0.0)) is Stratum.N7

    @pytest.mark.parametrize("r", [0.0, 1.0])
    def test_fast_circle_is_not_a_line(self, r):
        # the band around r = 0 grows as c^2, but a circle is told from the
        # frozen line by |c| alone: at |c| = 1e10 it still turns
        assert stratify(Covector(0.0, 1e10, r)) is Stratum.N6_PLUS
        assert stratify(Covector(0.0, -1e10, r)) is Stratum.N6_MINUS

    def test_equilibria(self):
        assert stratify(Covector(0.0, 0.0, 2.0)) is Stratum.N4
        assert stratify(Covector(math.pi, 0.0, 2.0)) is Stratum.N5

    def test_separatrix_branches(self):
        lam = Covector(0.0, 2.0, 1.0)  # E = 2 - 1 = 1 = r
        assert stratify(lam) is Stratum.N3_PLUS
        assert stratify(Covector(0.0, -2.0, 1.0)) is Stratum.N3_MINUS

    def test_band_edges_have_coordinates(self):
        # covectors a few ulps either side of the band edges E = +-r +- tol
        rng = random.Random(11)
        for _ in range(300):
            r = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
            beta = rng.uniform(-0.95 * math.pi, 0.95 * math.pi)
            for edge in (-r, r):
                for side in (-1.0, 1.0):
                    # tol depends on c^2: iterate to the edge's fixed point
                    c = 0.0
                    for _ in range(3):
                        tol = STRATIFY_TOL * max(r, c * c, 1.0)
                        c = math.sqrt(max(0.0, 2.0 * (edge + side * tol + r * math.cos(beta))))
                    for sign in (1.0, -1.0):
                        for ulps in range(-4, 5):
                            cc = sign * c
                            for _ in range(abs(ulps)):
                                cc = math.nextafter(cc, math.copysign(math.inf, ulps))
                            lam = Covector(beta, cc, r)
                            s = stratify(lam)
                            if s not in ELLIPTIC_STRATA:
                                continue
                            k = to_elliptic(lam).k
                            if s in SEPARATRIX:
                                assert k == 1.0, lam
                            else:
                                assert 0.0 < k < 1.0, lam


class TestStratumMembers:
    def test_family_and_sign(self):
        expected = {
            Stratum.N1: (1, 0),
            Stratum.N2_PLUS: (2, 1),
            Stratum.N2_MINUS: (2, -1),
            Stratum.N3_PLUS: (3, 1),
            Stratum.N3_MINUS: (3, -1),
            Stratum.N4: (4, 0),
            Stratum.N5: (5, 0),
            Stratum.N6_PLUS: (6, 1),
            Stratum.N6_MINUS: (6, -1),
            Stratum.N7: (7, 0),
        }
        assert {s: (s.family, s.sign) for s in Stratum} == expected
        assert all(type(s.family) is int and type(s.sign) is int for s in Stratum)


class TestEllipticCoords:
    def test_oscillating_on_axis(self):
        ec = to_elliptic(Covector(0.0, 1.0, 1.0))
        assert ec.stratum is Stratum.N1
        assert float(ec.k) == pytest.approx(0.5, abs=1e-15)
        assert ec.phi == pytest.approx(0.0, abs=1e-15)

    def test_rotating_on_axis(self):
        ec = to_elliptic(Covector(0.0, -3.0, 1.0))
        assert ec.stratum is Stratum.N2_MINUS
        assert float(ec.k) == pytest.approx(2.0 / 3.0, abs=1e-14)
        assert ec.psi == pytest.approx(0.0, abs=1e-13)

    def test_round_trip_specific(self):
        lam = Covector(1.0, 1.2, 1.0)
        back = from_elliptic(to_elliptic(lam))
        assert back.beta == pytest.approx(lam.beta, abs=1e-10)
        assert back.c == pytest.approx(lam.c, abs=1e-10)

    def test_from_elliptic_oscillating_axis(self):
        lam = from_elliptic(EllipticCoords(Stratum.N1, Modulus(0.5), 0.0, 1.0))
        assert lam.beta == 0.0
        assert lam.c == pytest.approx(1.0, abs=1e-15)

    def test_from_elliptic_separatrix_vertex(self):
        lam = from_elliptic(EllipticCoords(Stratum.N3_PLUS, Modulus(1.0), 0.0, 1.0))
        assert lam.beta == 0.0
        assert lam.c == pytest.approx(2.0, abs=1e-15)

    def test_from_elliptic_matches_pendulum_flow(self):
        # starting on the axis (beta=0, c=2 k sqrt(r)) and flowing for phi
        k, phi, r = 0.8, 1.7, 2.0
        lam = from_elliptic(EllipticCoords(Stratum.N1, Modulus(k), phi, r))
        b, c = pendulum_rk4(Covector(0.0, 2.0 * k * math.sqrt(r), r), phi)
        assert wrap_angle(lam.beta - b) == pytest.approx(0.0, abs=1e-9)
        assert lam.c == pytest.approx(c, abs=1e-9)

    def test_round_trips_random(self):
        for lam in random_covectors(400, seed=2):
            if stratify(lam) not in ELLIPTIC_STRATA:
                continue
            ec = to_elliptic(lam)
            back = from_elliptic(ec)
            assert abs(wrap_angle(back.beta - lam.beta)) < 1e-10
            assert abs(back.c - lam.c) < 1e-10
            ec2 = to_elliptic(back)
            assert ec2.stratum is ec.stratum
            assert float(ec2.k) == pytest.approx(float(ec.k), abs=1e-10)
            T = period(ec)
            if math.isfinite(T):
                d = abs(ec2.phi - ec.phi) % T
                assert min(d, T - d) < 1e-10
            else:
                assert abs(ec2.phi - ec.phi) < 1e-10

    def test_small_oscillation_modulus_keeps_digits(self):
        # k is kappa = |sin(beta/2)| at c = 0; formed as sqrt((E + r)/(2r))
        # it lost the digits of 1 - cos(beta), 2.6e-9 relative here
        k = to_elliptic(Covector(1e-4, 0.0, 1.0)).k
        assert abs(k - math.sin(5e-5)) <= 2 * math.ulp(math.sin(5e-5))

    def test_unsupported_strata(self):
        with pytest.raises(UnsupportedStratumError):
            to_elliptic(Covector(0.0, 0.0, 1.0))
        with pytest.raises(UnsupportedStratumError):
            to_elliptic(Covector(0.0, 1.0, 0.0))

    def test_invariant_violation_rejected(self):
        with pytest.raises(ValueError):
            EllipticCoords(Stratum.N1, Modulus(1.0), 0.0, 1.0)
        with pytest.raises(ValueError):
            EllipticCoords(Stratum.N3_PLUS, Modulus(0.5), 0.0, 1.0)
        with pytest.raises(UnsupportedStratumError):
            EllipticCoords(Stratum.N4, Modulus(0.5), 0.0, 1.0)

    @pytest.mark.parametrize(
        "stratum, k, phi, r, name",
        [
            (Stratum.N1, 0.5, math.nan, 1.0, "phi"),
            (Stratum.N2_PLUS, 0.5, math.inf, 1.0, "phi"),
            (Stratum.N3_MINUS, 1.0, -math.inf, 1.0, "phi"),
            (Stratum.N1, 0.5, 0.0, math.inf, "r"),
            (Stratum.N3_PLUS, 1.0, 0.0, math.nan, "r"),
        ],
    )
    def test_non_finite_coordinate_rejected(self, stratum, k, phi, r, name):
        with pytest.raises(ValueError, match=f"need a finite {name}"):
            period(EllipticCoords(stratum, k, phi, r))


class TestPeriod:
    def test_harmonic_limit(self):
        ec = EllipticCoords(Stratum.N1, Modulus(1e-9), 0.0, 1.0)
        assert period(ec) == pytest.approx(2.0 * math.pi, abs=1e-9)

    def test_oscillating_scaling(self):
        ec = EllipticCoords(Stratum.N1, Modulus(0.5), 0.0, 4.0)
        assert period(ec) == pytest.approx(4.0 * ellint_K(0.5) / 2.0, abs=1e-14)

    def test_rotating(self):
        ec = EllipticCoords(Stratum.N2_PLUS, Modulus(0.6), 0.0, 1.0)
        assert period(ec) == pytest.approx(2.0 * ellint_K(0.6) * 0.6, abs=1e-14)

    def test_separatrix_infinite(self):
        ec = EllipticCoords(Stratum.N3_PLUS, Modulus(1.0), 0.0, 1.0)
        assert period(ec) == math.inf

    def test_uniform_rotation(self):
        assert period(Covector(0.2, 4.0, 0.0)) == pytest.approx(math.pi / 2)

    def test_unsupported_stratum(self):
        with pytest.raises(UnsupportedStratumError):
            period(Covector(0.0, 0.0, 1.0))


class TestFlow:
    def test_stable_equilibrium_constant(self):
        lam = Covector(0.0, 0.0, 1.0)
        lt = flow_vertical(lam, 5.0)
        assert lt.beta == 0.0 and lt.c == 0.0

    def test_frozen_gravity_free(self):
        lam = Covector(0.2, 0.0, 0.0)
        lt = flow_vertical(lam, 7.0)
        assert lt == lam

    def test_oscillating_against_rk4(self):
        lam = Covector(0.0, 1.0, 1.0)
        lt = flow_vertical(lam, 2.5)
        b, c = pendulum_rk4(lam, 2.5)
        assert abs(wrap_angle(lt.beta - b)) < 1e-9
        assert abs(lt.c - c) < 1e-9

    def test_energy_conservation(self):
        rng = random.Random(3)
        for lam in random_covectors(300, seed=4):
            t = rng.uniform(0.0, 12.0)
            assert abs(energy(flow_vertical(lam, t)) - energy(lam)) < 1e-11

    def test_rectification(self):
        rng = random.Random(5)
        for lam in random_covectors(300, seed=6):
            if stratify(lam) not in ELLIPTIC_STRATA:
                continue
            t = rng.uniform(0.0, 9.0)
            e0 = to_elliptic(lam)
            e1 = to_elliptic(flow_vertical(lam, t))
            T = period(e0)
            if math.isfinite(T):
                d = abs((e0.phi + t) - e1.phi) % T
                assert min(d, T - d) < 1e-9
            else:
                assert abs(e0.phi + t - e1.phi) < 1e-9

    def test_dilation_covariance(self):
        rng = random.Random(7)
        for lam in random_covectors(100, seed=8):
            t = rng.uniform(0.0, 5.0)
            s = rng.uniform(-1.0, 1.0)
            scaled = Covector(
                lam.beta, lam.c * math.exp(-s), lam.r * math.exp(-2 * s)
            )
            a = flow_vertical(scaled, t * math.exp(s)).beta
            b = flow_vertical(lam, t).beta
            assert abs(wrap_angle(a - b)) < 1e-9

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, cell_covectors, t):
        for lam in cell_covectors.values():
            with pytest.raises(ValueError, match="finite t"):
                flow_vertical(lam, t)

    def test_matches_the_integrated_extremal(self, cell_covectors):
        # against the covector at t of RK4 on the full extremal system, step
        # 1e-3.  Worst measured 3.6e-11, on N3- at t = 7.3, where the
        # separatrix amplifies the RK4 error as e^(sqrt(r) t); 3e-14 off it
        cfg = IntegratorConfig(1e-3)
        for lam in cell_covectors.values():
            for t in (0.37, 1.9, 7.3):
                _, lt, _ = integrate_extremal(lam, t, cfg)
                out = flow_vertical(lam, t)
                assert out.r == lt.r
                assert abs(wrap_angle(out.beta - lt.beta)) < 1e-10, (lam, t)
                assert abs(out.c - lt.c) < 1e-10, (lam, t)

    def test_flow_preserves_strata(self):
        rng = random.Random(9)
        for lam in random_covectors(200, seed=10):
            t = rng.uniform(0.0, 10.0)
            assert stratify(flow_vertical(lam, t)) is stratify(lam)


class TestHamiltonianCoords:
    def test_matches_energy(self):
        # the pendulum energy is the Hamiltonian h1 + h2^2/2 in the paper's
        # coordinates (h1, h2, h3) = (-r cos beta, c, -r sin beta)
        lam = Covector(0.0, 2.0, 3.0)
        assert -lam.r * math.cos(lam.beta) + 0.5 * lam.c * lam.c == energy(lam)
        for lam in random_covectors(200, seed=11):
            h1, h2 = -lam.r * math.cos(lam.beta), lam.c
            assert abs(h1 + 0.5 * h2 * h2 - energy(lam)) < 1e-14 * max(
                1.0, abs(energy(lam))
            )
