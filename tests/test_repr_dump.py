import hashlib
import importlib.util
import io
import random
from pathlib import Path

import pytest

from elastica import oracle
from elastica.elliptic import ellint_K
from elastica.maxwell import DEFAULT_TOL
from elastica.phase import ELLIPTIC_STRATA, Stratum, to_elliptic
from elastica.symmetry import maxwell_coords

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
    # reflect_covector), one cut_time_bound, one sample and one sample
    # digest; on N1, N2 and N3 one maxwell_coords per time too
    elliptic = sum(Stratum(head) in ELLIPTIC_STRATA for head in heads)
    times = len(module.TIMES)
    assert len(lines) == len(heads) * (6 + 6 * times) + elliptic * times
    digests = [line.split() for line in lines if line.startswith("  sample_elastica_sha256 ")]
    assert len(digests) == len(heads)
    assert all(len(digest) == 64 and int(digest, 16) >= 0 for _, digest in digests)
    sha = hashlib.sha256()
    for t1, n in module.SAMPLE_GRIDS:
        sha.update(repr(module.sample_elastica(module.FIXTURE25[0], t1, n)).encode() + b"\n")
    assert digests[0][1] == sha.hexdigest()
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
    residual, newton_step = oracle._residual, oracle._newton_step
    lines = []
    module.dump_bvp(lines.append)
    assert oracle._residual is residual and oracle._newton_step is newton_step

    shots = [i for i, line in enumerate(lines) if line.startswith("bvp_shoot ")]
    assert len(shots) == 3
    counts, digests = [], []
    for i in shots:
        head, count = lines[i + 1].split()
        assert head == "residual_evaluations"
        counts.append(int(count))
        head, digest = lines[i + 2].split()
        assert head == "trajectory_sha256"
        assert len(digest) == 64 and int(digest, 16) >= 0
        digests.append(digest)
    assert all(n > 0 for n in counts)
    assert len(set(digests)) == 3
    # the whole search repeats, not only its result
    again = []
    module.dump_bvp(again.append)
    assert again == lines
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

    # the digest is the sha256 of the repr of every `_residual` and
    # `_newton_step` return, one per line, in call order
    sha = hashlib.sha256()

    def hashed(fn):
        def call(*args):
            out = fn(*args)
            sha.update(repr(out).encode() + b"\n")
            return out

        return call

    monkeypatch.setattr(oracle, "_residual", hashed(residual))
    monkeypatch.setattr(oracle, "_newton_step", hashed(newton_step))
    oracle.bvp_shoot(q1, t1, starts)
    assert sha.hexdigest() == digests[2]
    monkeypatch.setattr(oracle, "_newton_step", newton_step)

    # and every endpoint evaluation the search makes, the polish's
    # included, is one of those calls
    endpoint = oracle._endpoint
    evaluations = 0

    def counted_endpoint(*args):
        nonlocal evaluations
        evaluations += 1
        return endpoint(*args)

    oracle._seed_table()
    monkeypatch.setattr(oracle, "_endpoint", counted_endpoint)
    oracle.bvp_shoot(q1, t1, starts)
    assert evaluations == counts[2]


def test_bvp_seeds_dump():
    # the eight perfbench bvp targets of seed 4, its held-out target among
    # them with a second N1 solution
    out = io.StringIO()
    assert _repr_dump().main(["--bvp-seeds", "4", "4"], out=out) == 0
    dump = out.getvalue().splitlines()
    shots = [i for i, line in enumerate(dump) if line.startswith("bvp_seed ")]
    assert len(shots) == 8
    # each with its residual evaluations and its trajectory digest
    assert [dump[i + 1].split()[0] for i in shots] == ["residual_evaluations"] * 8
    assert [dump[i + 2].split()[0] for i in shots] == ["trajectory_sha256"] * 8
    lines = [dump[i] for i in shots]
    assert all(line.startswith("bvp_seed 4 State(") for line in lines)
    assert sum("Covector(beta=-1.8086790398304389, c=7.639033036370855, r=71.4487384257491)" in line
               for line in lines) == 1


def test_maxwell_seeds_dump():
    # seed 4's 160 perfbench maxwell inputs, then its 100 band covectors,
    # each through cut_time_bound, in_maxwell and is_fixed_covector 1, 2, 3
    module = _repr_dump()
    out = io.StringIO()
    assert module.main(["--maxwell-seeds", "4", "4"], out=out) == 0
    lines = out.getvalue().splitlines()
    lines = lines[next(i for i, line in enumerate(lines) if line.startswith("maxwell_seed ")):]
    assert len(lines) == 6 * 260
    assert [line.split()[:3] for line in lines[::6]] == (
        [["maxwell_seed", "4", "perfbench"]] * 160 + [["maxwell_seed", "4", "band"]] * 100)
    names = [line.split()[0] for line in lines]
    assert names[:6] == ["maxwell_seed", "cut_time_bound", "in_maxwell", *["is_fixed_covector"] * 3]
    assert names == names[:6] * 260
    assert not any(" !" in line for line in lines)
    # the band's midpoints straddle the MAX3+ test at p_n^1: about a quarter
    # of them meet MAX3+ and are fixed by reflection 1
    band = lines[6 * 160:]
    assert sum("'MAX3plus'" in line for line in band) == 23
    assert sum(line == "  is_fixed_covector 1 True" for line in band) == 23
    for lam, t in module.band_covectors(random.Random(4)):
        tau, K = maxwell_coords(lam, t).tau, ellint_K(to_elliptic(lam).k)
        odd = 2.0 * round((tau / K - 1.0) / 2.0) + 1.0
        assert abs(tau - odd * K) <= 6.0 * DEFAULT_TOL + 1e-12 * tau


def test_compare_counts_changed_lines_per_function(tmp_path):
    module = _repr_dump()
    lines = _dump(module)
    moved = list(lines)
    # one to_elliptic line moved by a relative 1e-6 in one number; a
    # cut_time_bound line whose number of values changed counts as inf
    i = next(i for i, line in enumerate(lines) if line.startswith("  to_elliptic Elliptic"))
    phi = module._NUMBER.findall(lines[i])[-2]
    moved[i] = lines[i].replace(f"phi={phi}", f"phi={float(phi) * (1 + 1e-6)!r}")
    j = next(j for j, line in enumerate(lines) if line.startswith("  cut_time_bound "))
    moved[j] = lines[j] + " 1.0"
    # so does a changed digest, which has no numbers
    h = next(h for h, line in enumerate(lines) if line.startswith("  sample_elastica_sha256 "))
    moved[h] = f"  sample_elastica_sha256 {'f' * 64}"
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("\n".join(lines) + "\n")
    b.write_text("\n".join(moved) + "\n")
    out = io.StringIO()
    assert module.main(["--compare", str(a), str(b)], out=out) == 0
    rows = {row.split()[0]: row.split()[1:] for row in out.getvalue().splitlines()[1:]}
    counts = {}
    for line in lines:
        name = line.split()[0]
        counts[name] = counts.get(name, 0) + 1
    assert {name: int(row[0]) for name, row in rows.items()} == counts
    _, differ, change = rows["to_elliptic"]
    assert int(differ) == 1 and float(change) == pytest.approx(1e-6, rel=1e-3)
    assert rows["cut_time_bound"][1:] == ["1", "inf"]
    assert rows["sample_elastica_sha256"][1:] == ["1", "inf"]
    assert all(row[1:] == ["0", "-"] for name, row in rows.items()
               if name not in ("to_elliptic", "cut_time_bound", "sample_elastica_sha256"))

    # dumps of different lengths are not compared
    b.write_text("\n".join(moved[:-1]) + "\n")
    out = io.StringIO()
    assert module.main(["--compare", str(a), str(b)], out=out) == 1
    assert "not comparable" in out.getvalue()
