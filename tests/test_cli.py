import csv
import io
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from elastica.cli import main
from elastica.elliptic import ellint_K
from elastica.expmap import State
from elastica.maxwell import (
    K_RECT,
    cut_time_bound,
    find_k0,
    find_kstar,
    p1_roots,
    p_g1,
    u_a1,
    u_h1,
    unit_cut_time_bound,
)
from elastica.oracle import integrate_extremal
from elastica.phase import Covector, to_elliptic

from conftest import n1, n2

GOLDEN = Path(__file__).parent / "golden"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def _near(edge):
    """Moduli within a few ulps and a few 1e-13 of a domain edge, both sides."""
    return [edge - 1e-12, edge - 5e-13, edge - 5e-15, math.nextafter(edge, -math.inf),
            edge, math.nextafter(edge, math.inf), edge + 5e-13]


def _project():
    """The ``[project]`` table of the repository's ``pyproject.toml``."""
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as f:
        return tomllib.load(f)["project"]


def _assert_version_runs(env):
    proc = subprocess.run(
        ["elastica", "--version"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"elastica {_project()['version']}"


class TestExp:
    def test_line(self, capsys):
        code, out = run_cli(
            ["exp", "--beta", "0", "--c", "0", "--r", "0", "--t", "3"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["x"] == 3.0 and doc["y"] == 0.0 and doc["theta"] == 0.0
        assert doc["stratum"] == "N7"
        assert doc["elastica_class"] == "Line"

    def test_circle(self, capsys):
        code, out = run_cli(
            ["exp", "--beta", "0", "--c", "3.14159265", "--r", "0", "--t", "1"],
            capsys,
        )
        doc = json.loads(out)
        assert abs(doc["x"]) < 1e-8
        assert doc["y"] == pytest.approx(2.0 / math.pi, abs=1e-8)
        assert doc["theta"] == pytest.approx(math.pi, abs=1e-8)

    def test_matches_oracle(self, capsys):
        flags = ["--beta", "0.3", "--c", "1.1", "--r", "1", "--t", "2"]
        _, out1 = run_cli(["exp", *flags], capsys)
        _, out2 = run_cli(["oracle-exp", *flags], capsys)
        a, b = json.loads(out1), json.loads(out2)
        for key in ("x", "y", "theta", "energy"):
            assert a[key] == pytest.approx(b[key], abs=1e-7)

    def test_degrees_flag(self, capsys):
        _, out1 = run_cli(
            ["exp", "--beta", "90", "--c", "1", "--r", "1", "--t", "1", "--deg"],
            capsys,
        )
        _, out2 = run_cli(
            ["exp", "--beta", str(math.pi / 2), "--c", "1", "--r", "1", "--t", "1"],
            capsys,
        )
        assert json.loads(out1) == json.loads(out2)

    def test_csv_format(self, capsys):
        code, out = run_cli(
            ["exp", "--beta", "0", "--c", "0", "--r", "0", "--t", "1",
             "--format", "csv"],
            capsys,
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:3] == ["x", "y", "theta"]
        assert float(rows[1][0]) == 1.0

    def test_agrees_with_oracle_across_strata(self, fixture25, capsys):
        # 50 cases: every stratum cell at two arc lengths
        for lam in fixture25:
            for t in (0.7, 1.9):
                flags = ["--beta", repr(lam.beta), "--c", repr(lam.c),
                         "--r", repr(lam.r), "--t", str(t)]
                _, out1 = run_cli(["exp", *flags], capsys)
                _, out2 = run_cli(["oracle-exp", *flags], capsys)
                a, b = json.loads(out1), json.loads(out2)
                for key in ("x", "y", "energy"):
                    assert a[key] == pytest.approx(b[key], abs=1e-7)
                dth = (a["theta"] - b["theta"]) % (2 * math.pi)
                assert min(dth, 2 * math.pi - dth) < 1e-7

    def test_fast_circle_matches_oracle(self, capsys):
        # |c| = 1e10 at r = 0 is a circle, not the frozen line: it turns by
        # c t = 1 over t = 1e-10
        flags = ["--beta", "0", "--c", "1e10", "--r", "0", "--t", "1e-10"]
        _, out1 = run_cli(["exp", *flags], capsys)
        _, out2 = run_cli(["oracle-exp", *flags, "--step", "1e-12"], capsys)
        a, b = json.loads(out1), json.loads(out2)
        assert a["stratum"] == "N6plus"
        assert abs(a["theta"] - b["theta"]) < 1e-9

    def test_separatrix_next_to_saddle(self, capsys):
        # sin(beta/2) rounds to 1 on this N3plus covector: its elliptic phase
        # must still be finite
        flags = ["--beta", "3.1415926345200074", "--c", "4.718128120958275e-08",
                 "--r", "6.121358707543794"]
        lam = Covector(3.1415926345200074, 4.718128120958275e-08, 6.121358707543794)
        for t in (1.0, 6.0):
            code, out = run_cli(["exp", *flags, "--t", repr(t)], capsys)
            assert code == 0
            doc = json.loads(out)
            assert doc["stratum"] == "N3plus"
            q, _, _ = integrate_extremal(lam, t)
            for key in ("x", "y", "theta"):
                assert doc[key] == pytest.approx(getattr(q, key), abs=1.2e-8)

    def test_jacobi_argument_overflow_exits_3(self, capsys):
        # sqrt(r) t overflows on N1: the library's domain error, on one line
        code = main(["exp", "--beta", "0.5", "--c", "0", "--r", "1e300", "--t", "1e200"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "error: Jacobi functions need a finite argument, got inf\n"

    def test_rotating_at_separatrix_band_edge(self, capsys):
        # E - r lies just above the band half-width, although E <= r + tol
        # after r + tol rounds up: the covector is rotating, not oscillating
        beta, c, r = -3.116089022382198, -0.37737951228886985, 218.96505120619176
        code, out = run_cli(["exp", f"--beta={beta}", f"--c={c}", "--r", repr(r),
                             "--t", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["stratum"] == "N2minus"
        q, _, J = integrate_extremal(Covector(beta, c, r), 1.0)
        for key in ("x", "y", "theta"):
            assert doc[key] == pytest.approx(getattr(q, key), abs=1e-8)
        assert doc["energy"] == pytest.approx(J, abs=1e-8)


class TestConstants:
    def test_values(self, capsys):
        code, out = run_cli(["constants"], capsys)
        doc = json.loads(out)
        assert abs(doc["k0"] - 0.909) < 1e-3
        assert abs(doc["kstar"] - 0.841) < 1e-3
        assert abs(doc["ustar"] - 1.954) < 1e-3
        assert abs(doc["k0_residual"]) < 1e-12
        assert abs(doc["kstar_residual"]) < 1e-12

    def test_deterministic(self, capsys):
        _, out1 = run_cli(["constants"], capsys)
        _, out2 = run_cli(["constants"], capsys)
        assert out1 == out2


class TestSweep:
    def test_p11_over_K_crosses_two_at_k0(self, capsys):
        k0 = float(find_k0())
        code, out = run_cli(
            ["sweep", "p11", "--kmin", str(k0 - 0.02), "--kmax", str(k0 + 0.02),
             "--n", "5"],
            capsys,
        )
        rows = list(csv.reader(io.StringIO(out)))[1:]
        ratios = [float(r[2]) for r in rows]
        assert ratios[0] > 2.0 > ratios[-1]
        mid = float(rows[2][2])
        assert mid == pytest.approx(2.0, abs=1e-6)

    def test_cutbound_rotating_family(self, capsys):
        code, out = run_cli(
            ["sweep", "cutbound", "--family", "n2", "--kmin", "0.3",
             "--kmax", "0.6", "--n", "2"],
            capsys,
        )
        rows = list(csv.reader(io.StringIO(out)))[1:]
        for row in rows:
            k, v = float(row[0]), float(row[1])
            assert v == pytest.approx(2.0 * k * ellint_K(k), rel=1e-12)

    def test_domain_violation_exit_code(self, capsys):
        code = main(["sweep", "pg1", "--kmin", "0.2", "--kmax", "0.5", "--n", "3"])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: p_g1 needs k in [k* = ")

    @pytest.mark.parametrize(
        "curve, fn, lo",
        [
            ("p11", lambda k: p1_roots(k, 1), 0.0),
            ("pg1", p_g1, find_kstar()[0]),
            ("ua1", u_a1, K_RECT),
            ("uh1", u_h1, find_kstar()[0]),
            ("cutbound", lambda k: unit_cut_time_bound(k, rotating=False), 0.0),
        ],
        ids=["p11", "pg1", "ua1", "uh1", "cutbound"],
    )
    def test_exit_0_exactly_where_curve_returns(self, curve, fn, lo, capsys):
        # the curve's own domain check decides, and its message is the error
        for k in [*_near(lo), *_near(1.0)]:
            code = main(["sweep", curve, f"--kmin={k!r}", f"--kmax={k!r}", "--n", "1"])
            err = capsys.readouterr().err
            try:
                fn(k)
            except ValueError as exc:
                assert (code, err) == (3, f"error: {exc}\n"), k
            else:
                # only u_a1 returns at k = 1, where value / K(k) diverges
                assert code == (3 if k == 1.0 else 0), (k, err)

    def test_p11_from_zero_modulus(self, capsys):
        # the advertised domain [0, 1) includes k = 0, the tan p = p limit
        code, out = run_cli(["sweep", "p11", "--kmin", "0", "--kmax", "0.5", "--n", "3"],
                            capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert float(rows[0][0]) == 0.0
        assert float(rows[0][1]) == pytest.approx(4.493409457909064, abs=1e-12)

    def test_json_format(self, capsys):
        code, out = run_cli(
            ["sweep", "ua1", "--kmin", "0.75", "--kmax", "0.9", "--n", "3",
             "--format", "json"],
            capsys,
        )
        doc = json.loads(out)
        assert len(doc) == 3
        assert set(doc[0]) == {"k", "value", "value_over_K"}

    @pytest.mark.parametrize(
        "family, lam",
        [("n1", n1(0.5, 0.3, 1.0)), ("n1", n1(0.95, 0.3, 1.0)), ("n2", n2(0.6, 0.3, 1.0))],
        ids=["n1_below_k0", "n1_above_k0", "n2"],
    )
    def test_cutbound_is_cut_time_bound_at_unit_r(self, family, lam, capsys):
        # the covector's own modulus, so both sides evaluate the same k
        k = float(to_elliptic(lam).k)
        code, out = run_cli(
            ["sweep", "cutbound", "--family", family, "--kmin", repr(k),
             "--kmax", repr(k), "--n", "1"],
            capsys,
        )
        assert code == 0
        (row,) = list(csv.reader(io.StringIO(out)))[1:]
        assert float(row[1]) == cut_time_bound(lam).bound


class TestElastica:
    def test_csv_polyline(self, capsys):
        code, out = run_cli(
            ["elastica", "--beta", "0", "--c", "6.283185307179586", "--r", "0",
             "--t1", "1", "--n", "9", "--format", "csv"],
            capsys,
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["x", "y", "theta"]
        assert len(rows) == 10
        # full circle closes
        assert abs(float(rows[-1][0])) < 1e-12
        assert abs(float(rows[-1][1])) < 1e-12

    def test_svg_output(self, tmp_path, capsys):
        out_file = tmp_path / "curve.svg"
        code = main(
            ["elastica", "--beta", "0", "--c", "1", "--r", "1", "--t1", "4",
             "--n", "64", "--format", "svg", "-o", str(out_file)]
        )
        assert code == 0
        text = out_file.read_text()
        assert text.startswith('<?xml version="1.0"')
        assert "<polyline" in text
        assert "<title>InflectionalSmallK</title>" in text
        assert 'viewBox="0 0 1000 1000"' in text

    def test_gallery_emits_nine_classes(self, tmp_path, capsys):
        code = main(["elastica", "--beta", "0", "--c", "0", "--r", "0",
                     "--gallery", str(tmp_path), "--n", "128"])
        capsys.readouterr()
        assert code == 0
        files = sorted(p.name for p in tmp_path.glob("*.svg"))
        assert len(files) == 9

    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    def test_non_finite_sample_rejected(self, fmt, capsys):
        # every document writer refuses a non-finite number, whatever its place
        pts = [State(0.0, 0.0, 0.0), State(math.nan, 1.0, 0.5), State(1.0, 1.0, 1.0)]
        with mock.patch("elastica.expmap.sample_elastica", return_value=pts):
            code = main(["elastica", "--beta", "0", "--c", "1", "--r", "1",
                         "--n", "3", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "x is not finite" in captured.err

    def test_io_failure_exit_code(self, tmp_path, capsys):
        code = main(
            ["elastica", "--beta", "0", "--c", "1", "--r", "1", "--t1", "1",
             "-o", str(tmp_path / "no" / "such" / "dir" / "f.svg")]
        )
        assert code == 4


class TestMaxwellCmd:
    def test_uniform_rotation_full_turn(self, capsys):
        code, out = run_cli(
            ["maxwell", "--beta", "0.3", "--c", "1", "--r", "0",
             "--t", str(2 * math.pi)],
            capsys,
        )
        doc = json.loads(out)
        assert doc["membership"] == ["MAX1", "MAX3plus"]
        assert doc["bound"] == pytest.approx(2 * math.pi)

    def test_equilibrium_unbounded(self, capsys):
        code, out = run_cli(
            ["maxwell", "--beta", "0", "--c", "0", "--r", "1", "--t", "1"], capsys
        )
        doc = json.loads(out)
        assert doc["bound"] == "inf"
        assert doc["membership"] == []

    def test_chord_denominator_underflow(self):
        # k^2 sn^2 p underflows to 0 at this tiny half-length p: that is the
        # limit where the chord-reflection equation has no solution
        proc = subprocess.run(
            [sys.executable, "-m", "elastica.cli", "maxwell", "--beta", "3.14159",
             "--c", "1", "--r", "7e-9", "--t", "1e-160"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["membership"] == []
        assert math.isfinite(doc["bound"])

    def test_root_next_to_its_bracket_end(self, capsys):
        # at t = 1e12 in_maxwell solves p_n^1 at an n whose root lies within
        # an ulp of its bracket end
        code, out = run_cli(["maxwell", "--beta", "0.4", "--c", "1", "--r", "1", "--t", "1e12"],
                            capsys)
        assert code == 0
        assert json.loads(out)["stratum"] == "N1"

    @pytest.mark.parametrize(
        "beta, c, r, t_listed",
        [
            (-3.1415926517020325, 1.2182061009891727, 1.7532483171941744, 3.182244781102832),
            (-5.825414817195451e-09, 2.68839649844544, 1.7329310634795903, 4.471211695862266),
        ],
    )
    def test_membership_agrees_with_first_times_in_band(self, capsys, beta, c, r, t_listed):
        # rotating covectors with sn tau cn tau within the tol band at the
        # bound time t: membership names exactly the strata first met at t.
        # t is the library's bound, within a few ulps of the one listed,
        # which the modulus formed from (E + r)/(2r) gave
        t = cut_time_bound(Covector(beta, c, r)).bound
        assert abs(t - t_listed) <= 4 * math.ulp(t_listed)
        _, out = run_cli(
            ["maxwell", f"--beta={beta}", "--c", repr(c), "--r", repr(r), "--t", repr(t)], capsys
        )
        doc = json.loads(out)
        assert doc["bound"] == t
        first = {"MAX1": "t1_max1", "MAX2": "t1_max2", "MAX3plus": "t1_max3plus",
                 "MAX3minus": "t1_max3minus"}
        assert doc["membership"] == [m for m, f in first.items() if doc[f] == t]

    def test_env_tolerance_override(self, capsys, monkeypatch):
        # a loose ELASTICA_TOL widens the lattice bands into membership
        args = ["maxwell", "--beta", "0.3", "--c", "1", "--r", "0",
                "--t", str(2 * math.pi - 1e-4)]
        _, out = run_cli(args, capsys)
        assert json.loads(out)["membership"] == []
        monkeypatch.setenv("ELASTICA_TOL", "1e-3")
        _, out = run_cli(args, capsys)
        assert json.loads(out)["membership"] == ["MAX1", "MAX3plus"]


class TestBvp:
    def test_line_solution(self, capsys):
        code, out = run_cli(
            ["bvp", "--x", "1", "--y", "0", "--theta", "0", "--t1", "1",
             "--starts", "20"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc[0]["energy"] == 0.0
        assert doc[0]["c"] == 0.0

    def test_unattainable_exit_code(self, capsys):
        code = main(
            ["bvp", "--x", "0", "--y", "1.5", "--theta", "0", "--t1", "1"]
        )
        assert code == 5
        assert capsys.readouterr().err == (
            "error: target unattainable; need x^2 + y^2 < t1^2 "
            "or (x, y, theta) = (t1, 0, 0)\n"
        )

    def test_target_scaled_out_of_the_disk_is_unattainable(self, capsys):
        # 5 t1 from the origin: an absolute band of 1e-12 took it for the
        # line's endpoint (t1, 0, 0)
        code = main(["bvp", "--x", "5e-13", "--y", "0", "--theta", "0", "--t1", "1e-13"])
        assert code == 5
        assert capsys.readouterr().out == ""

    def test_t1_too_small_exits_3(self, capsys):
        code = main(["bvp", "--x", "1e-320", "--y", "0", "--theta", "0", "--t1", "1e-310"])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: bvp_shoot needs a larger t1: the seed table dilated to t1 = 1e-310 overflows\n"
        )


_MAXWELL_FULL_TURN = ["maxwell", "--beta", "0.3", "--c", "1", "--r", "0",
                      "--t", "6.283185307179586"]


class TestInvalidInput:
    """Out-of-range counts, tolerances and non-finite numbers exit 2 or 3."""

    @pytest.mark.parametrize(
        "argv, env_tol, expected",
        [
            pytest.param(["sweep", "p11", "--kmin", "0.2", "--kmax", "0.8", "--n", "0"],
                         None, 2, id="sweep-n-0"),
            pytest.param(["sweep", "p11", "--kmin", "0.2", "--kmax", "0.8", "--n", "-3"],
                         None, 2, id="sweep-n-negative"),
            pytest.param(["sweep", "p11", "--kmin", "0.2", "--kmax", "0.8", "--jobs", "2"],
                         None, 2, id="sweep-jobs-removed"),
            pytest.param(["sweep", "p11", "--kmin", "0.8", "--kmax", "0.2"],
                         None, 3, id="sweep-kmin-above-kmax"),
            pytest.param(["bvp", "--x", "1", "--y", "0", "--theta", "0", "--t1", "1",
                          "--starts", "0"], None, 2, id="bvp-starts-0"),
            # bvp has no --jobs flag any more: argparse rejects it, as sweep's
            pytest.param(["bvp", "--x", "0.5", "--y", "0", "--theta", "0", "--t1", "1",
                          "--starts", "2", "--jobs", "0"], None, 2, id="bvp-jobs-0"),
            pytest.param(["bvp", "--x", "0.5", "--y", "0", "--theta", "0", "--t1", "1",
                          "--starts", "2", "--jobs=-4"], None, 2, id="bvp-jobs-negative"),
            pytest.param([*_MAXWELL_FULL_TURN, "--tol", "-1"], None, 2, id="tol-negative"),
            pytest.param([*_MAXWELL_FULL_TURN, "--tol", "0"], None, 2, id="tol-zero"),
            pytest.param([*_MAXWELL_FULL_TURN, "--tol", "nan"], None, 2, id="tol-nan"),
            pytest.param([*_MAXWELL_FULL_TURN, "--tol", "inf"], None, 2, id="tol-inf"),
            pytest.param(_MAXWELL_FULL_TURN, "-1", 3, id="env-tol-negative"),
            pytest.param(_MAXWELL_FULL_TURN, "0", 3, id="env-tol-zero"),
            pytest.param(_MAXWELL_FULL_TURN, "nan", 3, id="env-tol-nan"),
            pytest.param(_MAXWELL_FULL_TURN, "inf", 3, id="env-tol-inf"),
            pytest.param(["exp", "--beta", "0", "--c", "0", "--r", "nan", "--t", "1"],
                         None, 3, id="exp-r-nan"),
            pytest.param(["exp", "--beta", "0", "--c", "0", "--r", "inf", "--t", "1"],
                         None, 3, id="exp-r-inf"),
            pytest.param(["exp", "--beta", "nan", "--c", "1", "--r", "1", "--t", "1"],
                         None, 3, id="exp-beta-nan"),
            pytest.param(["exp", "--beta", "0", "--c=-inf", "--r", "1", "--t", "1"],
                         None, 3, id="exp-c-inf"),
            pytest.param(["exp", "--beta", "0", "--c", "1", "--r", "1", "--t", "nan"],
                         None, 3, id="exp-t-nan"),
            pytest.param(["exp", "--beta", "0", "--c", "1", "--r", "1", "--t", "inf"],
                         None, 3, id="exp-t-inf"),
            pytest.param(["oracle-exp", "--beta", "0", "--c", "1", "--r", "1", "--t", "inf"],
                         None, 3, id="oracle-exp-t-inf"),
            pytest.param(["oracle-exp", "--beta", "0", "--c", "1", "--r", "1", "--t", "1e9"],
                         None, 3, id="oracle-exp-max-steps"),
            pytest.param(["maxwell", "--beta", "0", "--c", "1", "--r", "1", "--t", "inf"],
                         None, 3, id="maxwell-t-inf"),
            pytest.param(["maxwell", "--beta", "1", "--c", "2", "--r", "0", "--t", "1e308"],
                         None, 3, id="maxwell-circle-turn-overflow"),
            pytest.param(["elastica", "--beta", "0", "--c", "1", "--r", "1", "--t1", "nan"],
                         None, 3, id="elastica-t1-nan"),
            pytest.param(["elastica", "--beta", "0", "--c", "1", "--r", "1", "--n", "1"],
                         None, 2, id="elastica-n-1"),
            pytest.param(["bvp", "--x", "0.5", "--y", "0", "--theta", "nan", "--t1", "1",
                          "--starts", "2"], None, 3, id="bvp-theta-nan"),
            pytest.param(["bvp", "--x", "nan", "--y", "0", "--theta", "0", "--t1", "1",
                          "--starts", "2"], None, 3, id="bvp-x-nan"),
            pytest.param(["bvp", "--x", "0.5", "--y", "0", "--theta", "0", "--t1", "inf",
                          "--starts", "2"], None, 3, id="bvp-t1-inf"),
            pytest.param(["exp", "--beta=1e300", "--c", "1", "--r", "1e154", "--t", "1e300"],
                         None, 3, id="exp-jacobi-argument-overflow"),
            pytest.param(["elastica", "--beta=1e300", "--c", "1", "--r", "1e154",
                          "--t1", "1e300"], None, 3, id="elastica-jacobi-argument-overflow"),
            pytest.param(["maxwell", "--beta=1e300", "--c", "1", "--r", "1e154", "--t", "1e300"],
                         None, 3, id="maxwell-jacobi-argument-overflow"),
            pytest.param(["exp", "--beta", "1e9", "--c", "1e-300", "--r", "1e300",
                          "--t", "1e154"], None, 3, id="exp-energy-overflow"),
            pytest.param(["exp", "--beta", "1e9", "--c", "1e-300", "--r", "1e300",
                          "--t", "1e154", "--format", "csv"], None, 3,
                         id="exp-energy-overflow-csv"),
            pytest.param(["oracle-exp", "--beta=1e300", "--c=-1e300", "--r=3.1e115",
                          "--t=0.5", "--step", "0.5"], None, 3, id="oracle-exp-overflow"),
            pytest.param(["oracle-exp", "--beta", "0", "--c", "1", "--r", "1", "--t", "1",
                          "--step", "5e-324"], None, 3, id="oracle-exp-step-count-overflow"),
            pytest.param(["oracle-exp", "--beta", "0", "--c", "1", "--r", "1", "--t", "1",
                          "--step", "inf"], None, 3, id="oracle-exp-step-inf"),
            pytest.param(["elastica", "--beta", "1", "--c", "1", "--r", "1",
                          "--t1", "1.7976931348623157e308", "--n", "5", "--format", "csv"],
                         None, 3, id="elastica-sample-overflow"),
            pytest.param(["elastica", "--beta", "1", "--c", "0", "--r", "0",
                          "--t1", "1.7976931348623157e308", "--n", "5"],
                         None, 3, id="elastica-view-box-overflow"),
        ],
    )
    def test_rejected(self, argv, env_tol, expected, capsys, monkeypatch):
        if env_tol is None:
            monkeypatch.delenv("ELASTICA_TOL", raising=False)
        else:
            monkeypatch.setenv("ELASTICA_TOL", env_tol)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected a flag
            code = exc.code
        captured = capsys.readouterr()
        assert code == expected
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert "error:" in captured.err


def _readme_cli_examples():
    """The `elastica ...` lines of the README's CLI code block, as argv lists."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("elastica ")
    ]


class TestReadme:
    def test_cli_block_is_found(self):
        assert len(_readme_cli_examples()) >= 8

    @pytest.mark.parametrize(
        "argv", _readme_cli_examples(), ids=lambda argv: " ".join(argv[:2])
    )
    def test_cli_example_runs(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("ELASTICA_TOL", raising=False)
        assert main(argv) == 0, capsys.readouterr().err


class TestGolden:
    """Byte-stable outputs for fixed flags (schema and precision freeze)."""

    def test_constants(self, capsys):
        _, out = run_cli(["constants"], capsys)
        assert out.encode() == (GOLDEN / "constants.json").read_bytes()

    def test_exp_circle(self, capsys):
        _, out = run_cli(
            ["exp", "--beta", "0", "--c", "3.141592653589793", "--r", "0",
             "--t", "1"],
            capsys,
        )
        assert out.encode() == (GOLDEN / "exp_circle.json").read_bytes()

    def test_sweep_ua1(self, capsys):
        _, out = run_cli(
            ["sweep", "ua1", "--kmin", "0.7071067811865475", "--kmax", "0.99",
             "--n", "5"],
            capsys,
        )
        assert out.encode() == (GOLDEN / "sweep_ua1.csv").read_bytes()


class TestEntryPoint:
    def test_parse_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "elastica.cli", "exp", "--nonsense"],
            capture_output=True,
        )
        assert proc.returncode == 2

    def test_installed_script(self, tmp_path):
        # The wrapper an installer generates from the declared entry point,
        # so the declaration is checked without installing the package.
        module, attr = _project()["scripts"]["elastica"].split(":")
        bindir = tmp_path / "bin"
        bindir.mkdir()
        script = bindir / "elastica"
        script.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n"
        )
        script.chmod(0o755)
        path = os.pathsep.join([str(bindir), os.environ.get("PATH", "")])
        _assert_version_runs(dict(os.environ, PATH=path))

    @pytest.mark.skipif(
        shutil.which("elastica") is None,
        reason="elastica console script not installed",
    )
    def test_script_on_path(self):
        _assert_version_runs(os.environ)

    def test_cold_import_loads_neither_scipy_nor_numpy(self):
        # the library has no runtime dependency; scipy and numpy are test-only
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, elastica.cli, elastica.oracle, elastica.maxwell; "
             "print(sorted({'scipy', 'numpy'} & set(sys.modules)))"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_cold_import_loads_no_dataclasses_inspect_or_logging(self):
        # the records are named tuples, and only a bvp_shoot that finds no
        # solution imports logging; elastica.cli loads the library lazily,
        # so every library module is imported here
        code = (
            "import sys; bare = set(sys.modules); import elastica.cli, elastica.oracle, elastica.maxwell; "
            "print(sorted({'dataclasses', 'inspect', 'logging'} & (set(sys.modules) - bare)))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_bvp_shoot_loads_neither_scipy_nor_numpy(self):
        # the Newton step's 3x3 least squares is pure Python
        code = (
            "import sys, elastica; "
            "assert elastica.bvp_shoot(elastica.State(0.5, 0.2, 0.3), 1.0, 4); "
            "print(sorted({'scipy', 'numpy'} & set(sys.modules)))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


# powers of ten over the whole finite range: overflow comes from the
# magnitudes, which a log-uniform draw spreads evenly
_POWER = st.integers(-323, 308).map(lambda e: 10.0**e)
# either sign, plus every float hypothesis draws (subnormals, +-inf, NaN)
# and the values where the formulas change branch
_EXTREME = st.one_of(
    _POWER,
    _POWER.map(lambda x: -x),
    st.sampled_from([0.0, -0.0, math.pi, -math.pi, 5e-324, sys.float_info.max,
                     math.inf, -math.inf, math.nan]),
    st.floats(),
)
# r, times and steps are rejected when negative: lean towards valid ones
_NONNEG = st.one_of(_POWER, _EXTREME)
_MODULUS = st.one_of(st.floats(0.0, 1.0), _EXTREME)
# documented fields that hold the string "inf" for an unbounded time
_UNBOUNDED_KEYS = ("bound", "cut_time_bound", "t1_max")


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(["exp", "oracle-exp", "maxwell", "elastica", "sweep"]))
    if command == "sweep":
        curve = draw(st.sampled_from(["p11", "pg1", "ua1", "uh1", "cutbound"]))
        return ["sweep", curve, f"--kmin={draw(_MODULUS)!r}", f"--kmax={draw(_MODULUS)!r}",
                "--n", "3", "--family", draw(st.sampled_from(["n1", "n2"])),
                "--format", draw(st.sampled_from(["csv", "json"]))]
    beta, c, r, t = draw(_EXTREME), draw(_EXTREME), draw(_NONNEG), draw(_NONNEG)
    argv = [command, f"--beta={beta!r}", f"--c={c!r}", f"--r={r!r}"]
    if command == "elastica":
        fmt = draw(st.sampled_from(["csv", "svg"]))
        return [*argv, f"--t1={t!r}", "--n", "5", "--format", fmt]
    if command == "maxwell":
        return [*argv, f"--t={t!r}"]
    argv += [f"--t={t!r}", "--format", draw(st.sampled_from(["json", "csv"]))]
    if command == "oracle-exp":
        step = draw(_NONNEG)
        # keep the RK4 loop short; past the step budget it is rejected at once
        assume(not 1e3 < (abs(t / step) if step else math.inf) < 1e7)
        argv.append(f"--step={step!r}")
    return argv


def _unexpected_non_finite(key, value) -> bool:
    """A field holding a non-finite number it is not documented to hold."""
    if isinstance(value, str):
        if value == "inf" and key.startswith(_UNBOUNDED_KEYS):
            return False
        try:
            value = float(value)
        except ValueError:
            return False
    return isinstance(value, float) and not math.isfinite(value)


def _document_fields(argv, out):
    """(key, value) pairs of an exit-0 document, whatever its format."""
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    if fmt == "svg":
        points = re.search(r'points="([^"]*)"', out).group(1)
        return [("points", v) for v in re.split(r"[ ,]", points)]
    if fmt == "csv":
        header, *rows = csv.reader(io.StringIO(out))
        return [pair for row in rows for pair in zip(header, row)]
    doc = json.loads(out)
    records = doc if isinstance(doc, list) else [doc]
    return [
        (key, v)
        for record in records
        for key, value in record.items()
        for v in (value if isinstance(value, list) else [value])
    ]


class TestFuzz:
    """Extreme, infinite and NaN flags never crash the CLI or leak a non-finite value."""

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(argv=_fuzz_argv())
    def test_exit_code_and_finite_document(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
            os.environ.pop("ELASTICA_TOL", None)
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejected a flag
                code = exc.code
        assert code in (0, 2, 3, 4, 5), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code != 0:
            assert out.getvalue() == ""
            return
        bad = [key for key, value in _document_fields(argv, out.getvalue())
               if _unexpected_non_finite(key, value)]
        assert not bad, out.getvalue()
