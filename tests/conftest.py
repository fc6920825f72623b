import math

import pytest

from elastica.elliptic import Modulus
from elastica.phase import Covector, EllipticCoords, Stratum, from_elliptic


def n1(k, phi, r):
    return from_elliptic(EllipticCoords(Stratum.N1, Modulus(k), phi, r))


def n2(k, psi, r, sign=1):
    s = Stratum.N2_PLUS if sign > 0 else Stratum.N2_MINUS
    return from_elliptic(EllipticCoords(s, Modulus(k), k * psi, r))


def n3(phi, r, sign=1):
    s = Stratum.N3_PLUS if sign > 0 else Stratum.N3_MINUS
    return from_elliptic(EllipticCoords(s, Modulus(1.0), phi, r))


# (covector, t1, n): N2 at k = 7.4e-4, where theta runs to |c| t1 = 4000 and
# a stepped sample and the direct path differ by 1.73e-12 at point 9751
STEPPED_N2_SMALL_K = (
    Covector(0.0, 2716.1399471948966, 1.8443540531869744), 1.4726781674600435, 10_000
)


@pytest.fixture(scope="session")
def cell_covectors():
    """One representative covector per stratum cell."""
    return {
        "N1": n1(0.6, 0.37, 1.0),
        "N2plus": n2(0.7, 0.31, 1.0, +1),
        "N2minus": n2(0.55, 0.8, 1.3, -1),
        "N3plus": n3(0.3, 1.0, +1),
        "N3minus": n3(-0.8, 2.0, -1),
        "N4": Covector(0.0, 0.0, 1.0),
        "N5": Covector(math.pi, 0.0, 2.0),
        "N6plus": Covector(0.4, 2.0, 0.0),
        "N6minus": Covector(0.4, -0.7, 0.0),
        "N7": Covector(1.0, 0.0, 0.0),
    }


@pytest.fixture(scope="session")
def fixture25():
    """25 covectors spanning every stratum cell, for oracle cross-validation."""
    lams = [
        # oscillating, spread over modulus and scale
        n1(0.15, 0.2, 1.0),
        n1(0.45, 1.1, 0.5),
        n1(0.6, 0.37, 1.0),
        n1(0.708, 2.7, 2.0),
        n1(0.85, 0.9, 1.0),
        n1(0.95, 3.3, 0.25),
        n1(0.99, 0.1, 1.0),
        # rotating
        n2(0.25, 0.4, 1.0, +1),
        n2(0.55, 1.3, 2.0, +1),
        n2(0.85, 0.05, 1.0, +1),
        n2(0.4, 0.9, 0.6, -1),
        n2(0.7, 2.2, 1.5, -1),
        # separatrix
        n3(0.0, 1.0, +1),
        n3(1.4, 0.8, +1),
        n3(-2.2, 1.9, -1),
        n3(0.5, 1.0, -1),
        # equilibria
        Covector(0.0, 0.0, 1.0),
        Covector(0.0, 0.0, 3.7),
        Covector(math.pi, 0.0, 1.0),
        Covector(math.pi, 0.0, 0.4),
        # gravity-free
        Covector(0.3, 1.0, 0.0),
        Covector(-1.1, 4.5, 0.0),
        Covector(2.0, -0.8, 0.0),
        Covector(0.0, 0.0, 0.0),
        Covector(-2.9, 0.0, 0.0),
    ]
    assert len(lams) == 25
    return lams
