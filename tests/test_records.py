"""The library's records: immutable named tuples, validated on construction."""

import math

import pytest

from elastica.elliptic import Modulus, ellint_K
from elastica.expmap import State
from elastica.maxwell import MaxwellReport
from elastica.oracle import BvpSolution, IntegratorConfig
from elastica.phase import Covector, EllipticCoords, Stratum
from elastica.symmetry import MaxwellCoords

REPORT_ARGS = (Stratum.N1, 6.4, 9.1, math.inf, math.inf, 6.4)
REPORT = MaxwellReport(*REPORT_ARGS)

# (record, constructor arguments, fields, stored values): the stored values
# carry the normalization, compared with their types
RECORDS = [
    (Modulus, (0.6,), ("k", "kprime"), (0.6, 0.8)),
    (Modulus, (1,), ("k", "kprime"), (1.0, 0.0)),
    (Covector, (-math.pi, 1.5, 2.0), ("beta", "c", "r"), (math.pi, 1.5, 2.0)),
    (EllipticCoords, (Stratum.N1, Modulus(0.6), 0.4, 1.0), ("stratum", "k", "phi", "r"),
     (Stratum.N1, 0.6, 0.4, 1.0)),
    (State, (1.0, 2.0, 7.0), ("x", "y", "theta"), (1.0, 2.0, 7.0 - 2.0 * math.pi)),
    (MaxwellCoords, (0.3, 1.2), ("tau", "p"), (0.3, 1.2)),
    (MaxwellReport, REPORT_ARGS,
     ("stratum", "t1_max1", "t1_max2", "t1_max3plus", "t1_max3minus", "bound", "tau_degenerate"),
     (*REPORT_ARGS, False)),
    (IntegratorConfig, (), ("step",), (1e-4,)),
    (BvpSolution, (Covector(0.3, 0.5, 1.0), 0.06, 1e-16, REPORT, True),
     ("lam", "energy", "residual", "report", "optimal_candidate"),
     (Covector(0.3, 0.5, 1.0), 0.06, 1e-16, REPORT, True)),
]


@pytest.mark.parametrize(
    "record, args, fields, stored", RECORDS,
    ids=[case[0].__name__ + ("_int" if case[1] == (1,) else "") for case in RECORDS],
)
def test_record_fields_and_immutability(record, args, fields, stored):
    rec = record(*args)
    assert record._fields == fields
    assert tuple(rec) == stored
    assert [type(v) for v in rec] == [type(v) for v in stored]
    assert tuple(getattr(rec, name) for name in fields) == stored
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, 0.0)
    twin = record(*args)
    assert twin == rec and hash(twin) == hash(rec)
    assert repr(rec) == f"{record.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(fields, stored)) + ")"


def test_integer_modulus_stored_as_float():
    # a Modulus built from an int converts like one built from a float
    assert float(Modulus(1)) == 1.0 and type(float(Modulus(1))) is float
    assert ellint_K(Modulus(0)) == math.pi / 2.0
    ec = EllipticCoords(Stratum.N3_PLUS, Modulus(1), 0.0, 1.0)
    assert ec.k == 1.0 and type(ec.k) is float
