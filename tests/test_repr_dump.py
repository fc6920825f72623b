import importlib.util
import io
from pathlib import Path

from elastica.phase import Stratum

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "repr_dump.py"


def _repr_dump():
    spec = importlib.util.spec_from_file_location("repr_dump", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _dump(module) -> list[str]:
    out = io.StringIO()
    assert module.main([], out=out) == 0
    return out.getvalue().splitlines()


def test_default_dump_covers_every_stratum_and_repeats():
    module = _repr_dump()
    lines = _dump(module)
    heads = [line.split()[-1] for line in lines if line.startswith("covector ")]
    assert {s.value for s in Stratum} <= set(heads)
    # one to_elliptic, three lines per time, one cut_time_bound, one sample
    assert len(lines) == len(heads) * (4 + 3 * len(module.TIMES))
    assert not any(line.startswith(("bvp_shoot", "knife_edge")) for line in lines)
    # only to_elliptic off N1, N2 and N3 raises
    raised = [line for line in lines if " !" in line]
    assert raised
    assert all(line.startswith("  to_elliptic !UnsupportedStratumError") for line in raised)
    assert _dump(module) == lines
