import importlib.util
import io
from pathlib import Path

from elastica import oracle
from elastica.phase import ELLIPTIC_STRATA, Stratum

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
    # one to_elliptic, one classify, six lines per time (three of them
    # reflect_covector), one cut_time_bound and one sample; on N1, N2 and
    # N3 one maxwell_coords per time too
    elliptic = sum(Stratum(head) in ELLIPTIC_STRATA for head in heads)
    times = len(module.TIMES)
    assert len(lines) == len(heads) * (5 + 6 * times) + elliptic * times
    assert not any(line.startswith(("bvp_shoot", "knife_edge")) for line in lines)
    # only to_elliptic off N1, N2 and N3 raises
    raised = [line for line in lines if " !" in line]
    assert raised
    assert all(line.startswith("  to_elliptic !UnsupportedStratumError") for line in raised)
    assert _dump(module) == lines


def test_bvp_dump_counts_residual_evaluations(monkeypatch):
    module = _repr_dump()
    # two cheap criterion-8 targets, one shooting target, and the
    # knife edge's seeds
    monkeypatch.setattr(module, "CRITERION_8", module.CRITERION_8[17:19])
    monkeypatch.setattr(module, "SHOOTING", module.SHOOTING[-1:])
    residual = oracle._residual
    lines = []
    module.dump_bvp(lines.append)
    assert oracle._residual is residual

    shots = [i for i, line in enumerate(lines) if line.startswith("bvp_shoot ")]
    assert len(shots) == 3
    counts = []
    for i in shots:
        head, count = lines[i + 1].split()
        assert head == "residual_evaluations"
        counts.append(int(count))
    assert all(n > 0 for n in counts)
    assert lines[shots[2] - 1] == f"criterion_8 residual_evaluations {counts[0] + counts[1]}"
    assert sum(line.startswith("knife_edge start ") for line in lines) == module.BVP_SEEDS

    # the count is the number of oracle._residual calls bvp_shoot makes
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return residual(*args)

    monkeypatch.setattr(oracle, "_residual", counted)
    q1, t1, starts = module.SHOOTING[0]
    oracle.bvp_shoot(q1, t1, starts)
    assert calls == counts[2]
