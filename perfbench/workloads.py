"""The four benchmark workloads: seeded inputs, the op, and output checks.

Every workload is a closed loop with one caller.  Its inputs form a *pass*,
a list generated from the seed with a fixed composition (strata mix, fixture
groups, command set), so that a run, which always measures whole passes,
sees the same kind of work under every seed.  Layer functions are looked up
through their modules at call time, so the tracer's wrappers are seen.

Each workload provides:
- `inputs(rng)`: the pass;
- `op(inp)`: one operation, returning its outputs;
- `digest(out)`: a small value that must repeat when the input repeats;
- `check(inp, out)`: raises CheckFailed unless the outputs are correct.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import subprocess
import sys
import xml.etree.ElementTree as ET

from elastica import cli, elliptic, expmap, maxwell, oracle, phase, symmetry

# The warm-up op fills the lazy find_k0/find_kstar caches: the cut-time bound
# of an N1 covector with k above k*.  Set-up children run it as WARM_UP_CODE.
WARM_UP_COVECTOR = (0.2, 1.8, 1.0)
WARM_UP_CODE = f"import elastica as e; e.cut_time_bound(e.Covector{WARM_UP_COVECTOR})"


class CheckFailed(AssertionError):
    """An op's outputs failed their correctness check."""


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def warm_up():
    """The same warm-up op the set-up children run."""
    maxwell.cut_time_bound(phase.Covector(*WARM_UP_COVECTOR))


def _gap(a, b) -> float:
    return max(abs(a.x - b.x), abs(a.y - b.y), abs(phase.wrap_angle(a.theta - b.theta)))


# ---------------------------------------------------------------------------
# covectors built from (stratum, k, r) by the pendulum energy relations, so the
# inputs do not depend on the library's own coordinate maps

def _n1(rng, k, r):
    """Oscillating: E + r = 2 r k^2, beta inside the swing amplitude 2 asin k."""
    bmax = 2.0 * math.asin(k)
    b = rng.uniform(-bmax, bmax)
    c = rng.choice((1.0, -1.0)) * 2.0 * math.sqrt(r * max(0.0, k * k - math.sin(0.5 * b) ** 2))
    return phase.Covector(b, c, r)


def _n2(rng, k, r, sign):
    """Rotating: E + r = 2 r / k^2; the sign of c picks N2+ or N2-."""
    b = rng.uniform(-math.pi, math.pi)
    return phase.Covector(b, sign * 2.0 * math.sqrt(r * (1.0 / (k * k) - math.sin(0.5 * b) ** 2)), r)


def _n3(rng, r, sign):
    """Separatrix: E = r, away from the saddle point beta = pi."""
    b = rng.uniform(-0.9 * math.pi, 0.9 * math.pi)
    return phase.Covector(b, sign * 2.0 * math.sqrt(r) * math.cos(0.5 * b), r)


def _r(rng):
    return math.exp(rng.uniform(math.log(0.5), math.log(2.0)))


def _stratified(rng, lo, hi, n):
    """n moduli, one drawn from each of n equal bins of (lo, hi), shuffled.

    Every pass then covers the modulus range evenly, so a pass's cost, which
    depends on k, moves little from seed to seed.
    """
    out = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------

class Sample:
    """Curve sampling and the per-curve closed forms, over every stratum."""

    name = "sample"
    trace_count = 16
    setup_argv = ("-c", WARM_UP_CODE)
    # Per pass: 22 N1/N2 ops, which cost 5-7 ms each, and 11 ops on the other
    # strata, which cost about 1 ms, so the median lies well inside the N1 ops.
    MIX = (("N1", 14), ("N2+", 4), ("N2-", 4), ("N3+", 2), ("N3-", 2),
           ("N4", 1), ("N5", 1), ("N6+", 2), ("N6-", 2), ("N7", 1))
    N_POINTS = 400  # the CLI default
    N_ORACLE = 3  # inputs per pass checked against RK4

    def inputs(self, rng):
        k_n1 = _stratified(rng, 0.05, 0.98, 14)
        k_n2 = _stratified(rng, 0.2, 0.98, 8)
        out = []
        for kind, count in self.MIX:
            for _ in range(count):
                r = _r(rng)
                if kind == "N1":
                    lam = _n1(rng, k_n1.pop(), r)
                elif kind in ("N2+", "N2-"):
                    lam = _n2(rng, k_n2.pop(), r, 1.0 if kind == "N2+" else -1.0)
                elif kind in ("N3+", "N3-"):
                    lam = _n3(rng, r, 1.0 if kind == "N3+" else -1.0)
                elif kind == "N4":
                    lam = phase.Covector(0.0, 0.0, r)
                elif kind == "N5":
                    lam = phase.Covector(math.pi, 0.0, r)
                elif kind in ("N6+", "N6-"):
                    c = rng.uniform(0.3, 3.0)
                    lam = phase.Covector(rng.uniform(-math.pi, math.pi), c if kind == "N6+" else -c, 0.0)
                else:
                    lam = phase.Covector(rng.uniform(-math.pi, math.pi), 0.0, 0.0)
                out.append({"lam": lam, "t1": rng.uniform(0.5, 3.0), "oracle": False})
        rng.shuffle(out)
        for inp in rng.sample(out, self.N_ORACLE):
            inp["oracle"] = True
        return out

    def op(self, inp):
        lam, t1 = inp["lam"], inp["t1"]
        pts = expmap.sample_elastica(lam, t1, self.N_POINTS)
        energy = expmap.elastic_energy_closed(lam, t1)
        cls = expmap.classify(lam)
        refl = tuple(symmetry.reflect_covector(i, lam, t1) for i in (1, 2, 3))
        coords = (
            symmetry.maxwell_coords(lam, t1)
            if phase.stratify(lam) in phase.ELLIPTIC_STRATA
            else None
        )
        return pts, energy, cls, refl, coords

    def digest(self, out):
        pts, energy, cls, refl, coords = out
        return pts[0], pts[len(pts) // 2], pts[-1], energy, cls, refl, coords

    def check(self, inp, out):
        lam, t1 = inp["lam"], inp["t1"]
        pts, energy, cls, refl, coords = out
        _require(len(pts) == self.N_POINTS, "wrong point count")
        _require(_gap(pts[0], expmap.State(0.0, 0.0, 0.0)) < 1e-12, "curve does not start at the identity")
        _require(all(math.isfinite(q.x) and math.isfinite(q.y) for q in pts), "non-finite point")
        _require(isinstance(cls, expmap.ElasticaClass), "no elastica class")
        e0 = phase.energy(lam)
        for li in refl:
            _require(li.r == lam.r and abs(phase.energy(li) - e0) < 1e-9 * max(1.0, abs(e0)),
                     "reflection changed r or the pendulum energy")
        if coords is not None:
            _require(coords.p > 0.0, "non-positive half-length coordinate")
        if inp["oracle"]:
            q, _, j_rk4 = oracle.integrate_extremal(lam, t1)
            _require(_gap(pts[-1], q) < 1e-7, f"endpoint off RK4 by {_gap(pts[-1], q):.2e}")
            _require(abs(energy - j_rk4) < 1e-7, f"energy off RK4 by {abs(energy - j_rk4):.2e}")


class Maxwell:
    """Cut-time bounds and Maxwell-stratum membership: the root finders."""

    name = "maxwell"
    trace_count = 40
    setup_argv = ("-c", WARM_UP_CODE)
    N_N1, N_N2 = 112, 48  # 70 % oscillating, 30 % rotating
    STRATUM_OF_FIELD = {
        "t1_max1": maxwell.MaxwellStratum.MAX1,
        "t1_max2": maxwell.MaxwellStratum.MAX2,
        "t1_max3plus": maxwell.MaxwellStratum.MAX3_PLUS,
        "t1_max3minus": maxwell.MaxwellStratum.MAX3_MINUS,
    }

    def inputs(self, rng):
        lams = [_n1(rng, k, _r(rng)) for k in _stratified(rng, 0.05, 0.99, self.N_N1)]
        lams += [_n2(rng, k, _r(rng), 1.0 - 2.0 * (i % 2))
                 for i, k in enumerate(_stratified(rng, 0.05, 0.99, self.N_N2))]
        out = []
        for i, lam in enumerate(lams):
            rep = maxwell.cut_time_bound(lam)
            inp = {"lam": lam, "expect": None}
            finite = [f for f in self.STRATUM_OF_FIELD if math.isfinite(getattr(rep, f))]
            if i % 2 == 0 and finite:
                # the covector's own first Maxwell time: membership must fire
                field = rng.choice(finite)
                inp["t"] = getattr(rep, field)
                inp["expect"] = self.STRATUM_OF_FIELD[field]
            else:
                inp["t"] = rep.bound * rng.uniform(0.1, 1.5)
            out.append(inp)
        rng.shuffle(out)
        return out

    def op(self, inp):
        lam = inp["lam"]
        return maxwell.cut_time_bound(lam), maxwell.in_maxwell(lam, inp["t"])

    def digest(self, out):
        rep, members = out
        return rep, frozenset(members)

    def check(self, inp, out):
        rep, members = out
        lam, t = inp["lam"], inp["t"]
        ec = phase.to_elliptic(lam)
        k, sr = float(ec.k), math.sqrt(ec.r)
        K = elliptic.ellint_K(k)
        if ec.stratum is phase.Stratum.N1:
            roots = [maxwell.p1_roots(k, n) for n in (1, 2)]
            worst = max(abs(maxwell.f1(p, k)) for p in roots)
            n_f1 = round(sr * t / 2.0 / (2.0 * K))
            if n_f1 >= 1:
                worst = max(worst, abs(maxwell.f1(maxwell.p1_roots(k, n_f1), k)))
            if k >= float(maxwell.find_kstar()[0]):
                worst = max(worst, abs(maxwell.h1(maxwell.u_h1(k), k)))
            _require(worst < 1e-11, f"Brent root residual {worst:.2e}")
            expected = 2.0 * min(2.0 * K, roots[0]) / sr
        else:
            expected = 2.0 * k * K / sr
        _require(abs(rep.bound - expected) <= 1e-12 * expected,
                 f"bound {rep.bound!r} != {expected!r}")
        if inp["expect"] is not None:
            _require(inp["expect"] in members,
                     f"{inp['expect'].value} missing at its own first Maxwell time")


def _fixture(kind, *args):
    """The covector of one criterion-8 target, built as the acceptance test does."""
    S, EC, M = phase.Stratum, phase.EllipticCoords, elliptic.Modulus
    if kind == "n1":
        k, phi, r = args
        return phase.from_elliptic(EC(S.N1, M(k), phi, r))
    if kind == "n2":
        k, psi, r, sign = args
        return phase.from_elliptic(EC(S.N2_PLUS if sign > 0 else S.N2_MINUS, M(k), k * psi, r))
    if kind == "n3":
        phi, r, sign = args
        return phase.from_elliptic(EC(S.N3_PLUS if sign > 0 else S.N3_MINUS, M(1.0), phi, r))
    return phase.Covector(*args)


# Criterion 8's 20 forward targets, (kind, args, t1), in 8 groups of similar
# cost: sorted by normalized bvp_shoot time (0.9 s to 3.0 s per target) and
# cut where the cost jumps least.  A pass takes one target from each group.
BVP_GROUPS = (
    (("n2", (0.35, 0.3, 1.0, 1), 1.0), ("cov", (0.0, 0.0, 0.0), 1.0)),
    (("n2", (0.5, 0.4, 0.8, -1), 1.2), ("cov", (0.0, 0.0, 2.0), 1.7)),
    (("cov", (0.0, -3.5, 0.0), 1.0), ("n1", (0.75, 0.2, 2.0), 0.9)),
    (("cov", (0.0, 2.0, 0.0), 1.3), ("n3", (-0.6, 1.2, -1), 1.1)),
    (("n2", (0.8, 0.1, 1.5, 1), 0.7), ("n1", (0.55, 1.2, 1.0), 1.4), ("n2", (0.6, 0.8, 1.0, 1), 0.9)),
    (("n1", (0.45, 2.4, 0.5), 2.2), ("n1", (0.85, 2.9, 1.2), 1.6), ("n1", (0.62, 0.9, 1.0), 1.2)),
    (("n1", (0.3, 0.5, 1.0), 1.0), ("n3", (0.2, 1.0, 1), 1.5), ("cov", (0.0, 0.9, 0.0), 2.0)),
    (("n2", (0.7, 1.0, 1.0, -1), 0.8), ("n1", (0.2, 0.0, 1.5), 1.3), ("n1", (0.9, 1.6, 1.0), 1.1)),
)

def _jitter(rng, kind, args, t1):
    """A held-out target near a fixture one: same stratum, nearby parameters."""
    a = list(args)
    if kind in ("n1", "n2"):
        a[0] = min(0.97, max(0.1, a[0] + rng.uniform(-0.03, 0.03)))
        a[1] += rng.uniform(-0.1, 0.1)
        a[2] *= math.exp(rng.uniform(-0.1, 0.1))
    elif kind == "n3":
        a[0] += rng.uniform(-0.1, 0.1)
        a[1] *= math.exp(rng.uniform(-0.1, 0.1))
    elif a[1] != 0.0:
        a[1] *= math.exp(rng.uniform(-0.03, 0.03))
    elif a[2] != 0.0:
        a[2] *= math.exp(rng.uniform(-0.1, 0.1))
    return kind, tuple(a), t1 * math.exp(rng.uniform(-0.03, 0.03))


class Bvp:
    """Shooting inversion of the endpoint map on criterion 8's targets."""

    name = "bvp"
    trace_count = 2
    setup_argv = ("-c", WARM_UP_CODE)
    STARTS = 100

    def inputs(self, rng):
        picks = [rng.choice(group) for group in BVP_GROUPS]
        held_out = rng.randrange(len(picks))
        picks[held_out] = _jitter(rng, *picks[held_out])
        rng.shuffle(picks)
        out = []
        for kind, args, t1 in picks:
            lam = _fixture(kind, *args)
            out.append({
                "q1": expmap.exp_map(lam, t1),
                "t1": t1,
                "energy": expmap.elastic_energy_closed(lam, t1),
            })
        return out

    def op(self, inp):
        return oracle.bvp_shoot(inp["q1"], inp["t1"], starts=self.STARTS, jobs=1)

    def digest(self, out):
        return tuple((s.lam, s.energy) for s in out)

    def check(self, inp, out):
        q1, t1 = inp["q1"], inp["t1"]
        _require(
            any(_gap(expmap.exp_map(s.lam, t1), q1) < 1e-9 and abs(s.energy - inp["energy"]) < 1e-8
                for s in out),
            f"no solution hits the target and recovers the energy ({len(out)} solutions)",
        )


CLI_COMMANDS = (
    ("exp", "--beta", "0.3", "--c", "1.1", "--r", "1", "--t", "2"),
    ("oracle-exp", "--beta", "0.3", "--c", "1.1", "--r", "1", "--t", "2"),
    ("constants",),
    ("sweep", "p11", "--kmin", "0.05", "--kmax", "0.99", "--n", "200"),
    ("sweep", "cutbound", "--family", "n2", "--kmin", "0.1", "--kmax", "0.9", "--n", "50"),
    ("elastica", "--beta", "0", "--c", "1", "--r", "1", "--t1", "13.5", "--format", "svg"),
    ("maxwell", "--beta", "0.4", "--c", "1", "--r", "0", "--t", "6.2831853"),
)

_JSON_KEYS = {
    "exp": {"x", "y", "theta", "stratum", "elastica_class", "energy"},
    "oracle-exp": {"x", "y", "theta", "beta_t", "c_t", "energy", "step"},
    "constants": {"k0", "kstar", "ustar", "k0_residual", "kstar_residual", "ustar_identity_residual"},
    "maxwell": {"stratum", "membership", "t1_max1", "t1_max2", "t1_max3plus", "t1_max3minus",
                "bound", "tau_degenerate"},
}


class Cli:
    """The README's CLI examples (all but bvp), each a fresh child process."""

    name = "cli"
    runs_children = True  # each op is a child process (not in traced runs)
    trace_count = len(CLI_COMMANDS)
    setup_argv = ("-m", "elastica.cli", "constants")

    def __init__(self, env, cwd):
        self.env, self.cwd = env, cwd

    def inputs(self, rng):
        cmds = list(CLI_COMMANDS)
        rng.shuffle(cmds)
        return cmds

    def op(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "elastica.cli", *argv],
            capture_output=True, text=True, env=self.env, cwd=self.cwd, timeout=120,
        )
        return proc.returncode, proc.stdout

    def op_in_process(self, argv):
        """The same command through `cli.main` in this process (traced runs)."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
        return rc, buf.getvalue()

    def digest(self, out):
        return out

    def check(self, argv, out):
        rc, text = out
        _require(rc == 0, f"exit code {rc}")
        cmd = argv[0]
        if cmd in _JSON_KEYS:
            doc = json.loads(text)
            _require(set(doc) == _JSON_KEYS[cmd], f"{cmd}: keys {sorted(doc)}")
        elif cmd == "sweep":
            rows = list(csv.reader(io.StringIO(text)))
            n = int(argv[argv.index("--n") + 1])
            _require(rows[0] == ["k", "value", "value_over_K"] and len(rows) == n + 1,
                     f"sweep: {len(rows)} rows")
            _require(all(math.isfinite(float(v)) for row in rows[1:] for v in row), "sweep: non-finite")
        else:
            svg = ET.fromstring(text)
            line = svg.find("{http://www.w3.org/2000/svg}polyline")
            _require(line is not None and len(line.get("points").split()) == 400,
                     "svg: polyline with 400 points expected")


def make(name: str, env, cwd):
    if name == "cli":
        return Cli(env, cwd)
    return {"sample": Sample, "maxwell": Maxwell, "bvp": Bvp}[name]()

