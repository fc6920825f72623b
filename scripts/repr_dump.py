"""Print the repr of the library's public outputs over fixed inputs.

    python3 scripts/repr_dump.py [--bvp] [--bvp-seeds LO HI] > dump.txt

Run it in two checkouts and `diff` the files: equal files mean the outputs
are bit-identical, since a float's repr round-trips exactly.  The script
imports the package from the `src` directory of its own checkout.

The covectors are the test suite's `fixture25` and `cell_covectors` and a
seeded set on all ten strata, including covectors inside the tolerance
bands where `stratify` snaps to a boundary stratum.  Each one is dumped
through `exp_map`, `elastic_energy_closed`, `to_elliptic`, `classify`,
`sample_elastica`, `cut_time_bound`, `in_maxwell`, `reflect_covector` with
each reflection and, on N1, N2 and N3, `maxwell_coords`: every call of the
perfbench `sample` op.  A call that raises prints the exception instead.  With --bvp, `bvp_shoot` follows on the 20
criterion-8 targets, the README example, the shooting tests' targets and
three targets near criterion 8's knife edge, each with the number of
endpoint evaluations it made (calls of `oracle._residual`, which the script
wraps to count them), the criterion-8 total, and each seed `bvp_shoot`
takes on the knife-edge target with its outcome, the certified covector
and its residual (about two seconds).  With --bvp-seeds LO HI, `bvp_shoot`
follows on the perfbench `bvp` inputs of the seeds LO to HI, both included,
eight targets a seed, as `perfbench/workloads.py` (imported, not changed)
draws them.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from elastica import oracle  # noqa: E402
from elastica import (  # noqa: E402
    Covector,
    State,
    bvp_shoot,
    classify,
    cut_time_bound,
    elastic_energy_closed,
    exp_map,
    in_maxwell,
    maxwell_coords,
    reflect_covector,
    sample_elastica,
)
from elastica.elliptic import Modulus  # noqa: E402
from elastica.oracle import BVP_SEEDS, _newton_from, _seeds  # noqa: E402
from elastica.phase import (  # noqa: E402
    ELLIPTIC_STRATA,
    STRATIFY_TOL,
    EllipticCoords,
    Stratum,
    from_elliptic,
    stratify,
    to_elliptic,
)

TIMES = (0.37, 1.9, 7.3)
SAMPLE_T1, SAMPLE_N = 7.3, 33
SEED = 20150


def n1(k, phi, r):
    return from_elliptic(EllipticCoords(Stratum.N1, Modulus(k), phi, r))


def n2(k, psi, r, sign=1):
    s = Stratum.N2_PLUS if sign > 0 else Stratum.N2_MINUS
    return from_elliptic(EllipticCoords(s, Modulus(k), k * psi, r))


def n3(phi, r, sign=1):
    s = Stratum.N3_PLUS if sign > 0 else Stratum.N3_MINUS
    return from_elliptic(EllipticCoords(s, Modulus(1.0), phi, r))


FIXTURE25 = (
    n1(0.15, 0.2, 1.0), n1(0.45, 1.1, 0.5), n1(0.6, 0.37, 1.0), n1(0.708, 2.7, 2.0),
    n1(0.85, 0.9, 1.0), n1(0.95, 3.3, 0.25), n1(0.99, 0.1, 1.0),
    n2(0.25, 0.4, 1.0, +1), n2(0.55, 1.3, 2.0, +1), n2(0.85, 0.05, 1.0, +1),
    n2(0.4, 0.9, 0.6, -1), n2(0.7, 2.2, 1.5, -1),
    n3(0.0, 1.0, +1), n3(1.4, 0.8, +1), n3(-2.2, 1.9, -1), n3(0.5, 1.0, -1),
    Covector(0.0, 0.0, 1.0), Covector(0.0, 0.0, 3.7), Covector(math.pi, 0.0, 1.0),
    Covector(math.pi, 0.0, 0.4),
    Covector(0.3, 1.0, 0.0), Covector(-1.1, 4.5, 0.0), Covector(2.0, -0.8, 0.0),
    Covector(0.0, 0.0, 0.0), Covector(-2.9, 0.0, 0.0),
)

CELL_COVECTORS = (
    n1(0.6, 0.37, 1.0), n2(0.7, 0.31, 1.0, +1), n2(0.55, 0.8, 1.3, -1),
    n3(0.3, 1.0, +1), n3(-0.8, 2.0, -1), Covector(0.0, 0.0, 1.0),
    Covector(math.pi, 0.0, 2.0), Covector(0.4, 2.0, 0.0), Covector(0.4, -0.7, 0.0),
    Covector(1.0, 0.0, 0.0),
)

# criterion 8's forward targets (covector, t1); (n1(0.9, 1.6, 1.0), 1.1) is
# the knife edge, within 0.1 % of the boundary of the attainable set
CRITERION_8 = (
    (n1(0.3, 0.5, 1.0), 1.0), (n1(0.55, 1.2, 1.0), 1.4), (n1(0.62, 0.9, 1.0), 1.2),
    (n1(0.75, 0.2, 2.0), 0.9), (n1(0.9, 1.6, 1.0), 1.1), (n1(0.45, 2.4, 0.5), 2.2),
    (n1(0.2, 0.0, 1.5), 1.3), (n2(0.35, 0.3, 1.0), 1.0), (n2(0.6, 0.8, 1.0), 0.9),
    (n2(0.8, 0.1, 1.5), 0.7), (n2(0.5, 0.4, 0.8, -1), 1.2), (n2(0.7, 1.0, 1.0, -1), 0.8),
    (n3(0.2, 1.0), 1.5), (n3(-0.6, 1.2, -1), 1.1), (Covector(0.0, 2.0, 0.0), 1.3),
    (Covector(0.0, -3.5, 0.0), 1.0), (Covector(0.0, 0.9, 0.0), 2.0),
    (Covector(0.0, 0.0, 0.0), 1.0), (Covector(0.0, 0.0, 2.0), 1.7),
    (n1(0.85, 2.9, 1.2), 1.6),
)
KNIFE_EDGE = CRITERION_8[4]

# (target, t1, starts): the README `bvp` example, the shooting tests, and
# three targets near the knife edge, perfbench bvp's held-out targets at
# seeds 18, 75 and 160
SHOOTING = (
    (State(0.0, 0.6366, 3.1415926), 1.0, 200),
    (State(1.0, 0.0, 0.0), 1.0, 40),
    (State(1.001981982727356, 0.0, 0.0), 1.001981982727356, 100),
    (State(0.0, 2.0 / math.pi, math.pi), 1.0, 60),
    (exp_map(n1(0.62, 0.9, 1.0), 1.2), 1.2, 80),
    (exp_map(n1(0.8809784484564241, 1.5590945131455827, 1.0804417967907978), 1.08012552001473),
     1.08012552001473, 100),
    (exp_map(n1(0.9245843462673118, 1.6358657745755931, 1.0718718460856873), 1.1214303435627788),
     1.1214303435627788, 100),
    (exp_map(n1(0.9023358258191359, 1.6638727101873445, 1.0494349207219336), 1.097968866602552),
     1.097968866602552, 100),
    (State(0.0, 0.6366, 3.1415926), 1.0, 8),
)


def seeded_covectors(rng: random.Random) -> list[Covector]:
    """Covectors on all ten strata, each band placed a few tolerances from its edge."""
    out = []
    for _ in range(12):
        r = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        k = rng.uniform(0.02, 0.995)
        out.append(n1(k, rng.uniform(0.0, 8.0), r))
        out.append(n2(k, rng.uniform(0.0, 4.0), r, rng.choice((1, -1))))
        out.append(n3(rng.uniform(-6.0, 6.0), r, rng.choice((1, -1))))
        out.append(Covector(rng.choice((0.0, 1e-7)), 0.0, r))  # N4
        out.append(Covector(math.pi, 0.0, r))  # N5
        out.append(Covector(rng.uniform(-math.pi, math.pi), rng.uniform(-5.0, 5.0), 0.0))  # N6
        out.append(Covector(rng.uniform(-math.pi, math.pi), 0.0, 0.0))  # N7
    for _ in range(40):
        r = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        tol = STRATIFY_TOL * max(r, 4.0 * r, 1.0)
        # the separatrix band: E - r within a few tol of 0, on either side
        b = rng.uniform(-0.95 * math.pi, 0.95 * math.pi)
        c2 = max(0.0, 2.0 * r * (1.0 + math.cos(b)) + rng.uniform(-6.0, 6.0) * tol)
        out.append(Covector(b, rng.choice((1.0, -1.0)) * math.sqrt(c2), r))
        # the saddle band around beta = pi, and the stable-equilibrium band
        c = rng.uniform(-3.0, 3.0) * tol
        out.append(Covector(math.pi + rng.uniform(-6.0, 6.0) * tol, c, r))
        out.append(Covector(rng.uniform(-6.0, 6.0) * math.sqrt(tol / r), c, r))
        # the gravity-free band: r within a few tol of 0
        c = rng.choice((rng.uniform(-4.0, 4.0), rng.uniform(-3.0, 3.0) * STRATIFY_TOL))
        out.append(Covector(rng.uniform(-math.pi, math.pi), c,
                            rng.uniform(0.0, 6.0) * STRATIFY_TOL * max(c * c, 1.0)))
    return out


def show(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except Exception as exc:  # the dump records raised errors as outputs
        return f"!{type(exc).__name__}: {exc}"


def dump_covector(lam: Covector, write) -> None:
    s = stratify(lam)
    write(f"covector {lam!r} {s.value}")
    write(f"  to_elliptic {show(to_elliptic, lam)}")
    write(f"  classify {show(classify, lam)}")
    for t in TIMES:
        write(f"  exp_map {t!r} {show(exp_map, lam, t)}")
        write(f"  elastic_energy_closed {t!r} {show(elastic_energy_closed, lam, t)}")
        write(f"  in_maxwell {t!r} {show(lambda: sorted(m.value for m in in_maxwell(lam, t)))}")
        for i in (1, 2, 3):
            write(f"  reflect_covector {i} {t!r} {show(reflect_covector, i, lam, t)}")
        if s in ELLIPTIC_STRATA:
            write(f"  maxwell_coords {t!r} {show(maxwell_coords, lam, t)}")
    write(f"  cut_time_bound {show(cut_time_bound, lam)}")
    samples = show(sample_elastica, lam, SAMPLE_T1, SAMPLE_N)
    write(f"  sample_elastica {SAMPLE_T1!r} {SAMPLE_N} {samples}")


def dump_bvp_seeds(lo: int, hi: int, write) -> None:
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    bvp = workloads.Bvp()
    for seed in range(lo, hi + 1):
        for inp in bvp.inputs(random.Random(seed)):
            q1, t1 = inp["q1"], inp["t1"]
            write(f"bvp_seed {seed} {q1!r} {t1!r} {show(bvp.op, inp)}")


def dump_bvp(write) -> None:
    calls = 0
    residual = oracle._residual

    def counted(*args):
        nonlocal calls
        calls += 1
        return residual(*args)

    def shoot(head: str, q1, t1, starts) -> int:
        nonlocal calls
        calls = 0
        write(f"bvp_shoot {head} {starts} {show(bvp_shoot, q1, t1, starts)}")
        write(f"  residual_evaluations {calls}")
        return calls

    oracle._residual = counted
    try:
        counts = [shoot(f"{lam!r} {t1!r}", exp_map(lam, t1), t1, 100) for lam, t1 in CRITERION_8]
        write(f"criterion_8 residual_evaluations {sum(counts)}")
        for q1, t1, starts in SHOOTING:
            shoot(f"{q1!r} {t1!r}", q1, t1, starts)
    finally:
        oracle._residual = residual
    lam, t1 = KNIFE_EDGE
    q1 = exp_map(lam, t1)
    for i, start in enumerate(_seeds(q1, t1, min(100, BVP_SEEDS))):
        out = _newton_from(start, q1, t1)
        write(f"knife_edge start {i} {start!r} {out if out is None else out[:2]!r}")


def main(argv=None, out=sys.stdout) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bvp", action="store_true",
                    help="also dump bvp_shoot on the criterion-8 and shooting-test targets")
    ap.add_argument("--bvp-seeds", type=int, nargs=2, metavar=("LO", "HI"),
                    help="also dump bvp_shoot on the perfbench bvp inputs of seeds LO to HI")
    args = ap.parse_args(argv)

    def write(line: str) -> None:
        out.write(line + "\n")

    for lam in (*FIXTURE25, *CELL_COVECTORS, *seeded_covectors(random.Random(SEED))):
        dump_covector(lam, write)
    if args.bvp:
        dump_bvp(write)
    if args.bvp_seeds:
        dump_bvp_seeds(*args.bvp_seeds, write)
    return 0


if __name__ == "__main__":
    sys.exit(main())
