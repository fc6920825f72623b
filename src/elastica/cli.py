"""Command-line surface: evaluate endpoints, constants, root curves, geometry, BVP.

Every command emits machine-readable output (JSON with stable keys, RFC-4180
CSV, or SVG for geometry).  Exit codes: 0 ok, 2 flag parsing, 3 domain
violation, 4 I/O failure, 5 unattainable target.  Each command imports the
library modules it runs, so a cold start loads only those.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

from . import __version__

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4
EXIT_UNATTAINABLE = 5


def _count(minimum: int):
    """argparse type: an integer >= minimum."""

    def count(text: str) -> int:
        n = int(text)
        if n < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {n}")
        return n

    return count


def _tolerance(text: str) -> float:
    """argparse type: a finite tolerance > 0."""
    tol = float(text)
    if not 0.0 < tol < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return tol


def _env_tol() -> float:
    from .maxwell import DEFAULT_TOL

    raw = os.environ.get("ELASTICA_TOL")
    if not raw:
        return DEFAULT_TOL
    try:
        return _tolerance(raw)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"ELASTICA_TOL {exc}") from None


def _fail(exc: Exception, code: int) -> int:
    """Report exc on stderr; return the exit code."""
    sys.stderr.write(f"error: {exc}\n")
    return code


def _emit(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _require_finite(keys, row):
    """A non-finite number in an output row is an overflowed result: raise.

    Every document writer (JSON, CSV, SVG) calls this on each of its rows.
    """
    for key, value in zip(keys, row):
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{key} is not finite: {value}")


def _json_doc(obj) -> str:
    """A JSON object, or a list of objects, with no non-finite number."""
    for record in obj if isinstance(obj, list) else [obj]:
        _require_finite(record, record.values())
    return json.dumps(obj, indent=2) + "\n"


def _csv_doc(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        _require_finite(header, row)
        w.writerow(row)
    return buf.getvalue()


def _emit_record(doc: dict, args):
    """One record as a JSON object, or as a CSV header and value row."""
    if args.format == "csv":
        keys = list(doc)
        _emit(_csv_doc(keys, [[doc[k] for k in keys]]), args.output)
    else:
        _emit(_json_doc(doc), args.output)


def _emit_table(keys, rows, args):
    """Rows of values as a JSON list of objects, or as a CSV header and rows."""
    if args.format == "csv":
        _emit(_csv_doc(keys, rows), args.output)
    else:
        _emit(_json_doc([dict(zip(keys, row)) for row in rows]), args.output)


def _fin(x: float):
    """JSON-safe number: infinities become the string 'inf'."""
    return x if math.isfinite(x) else "inf"


def _covector(args):
    from .phase import Covector

    scale = math.pi / 180.0 if getattr(args, "deg", False) else 1.0
    return Covector(args.beta * scale, args.c, args.r)


# ---------------------------------------------------------------------------
# commands

def cmd_exp(args):
    from .expmap import classify, elastic_energy_closed, exp_map
    from .phase import stratify

    lam = _covector(args)
    q = exp_map(lam, args.t)
    doc = {
        "x": q.x,
        "y": q.y,
        "theta": q.theta,
        "stratum": stratify(lam).value,
        "elastica_class": classify(lam).value,
        "energy": elastic_energy_closed(lam, args.t),
    }
    _emit_record(doc, args)


def cmd_oracle_exp(args):
    from .oracle import IntegratorConfig, MaxStepsExceeded, integrate_extremal

    lam = _covector(args)
    try:
        q, lam_t, J = integrate_extremal(lam, args.t, IntegratorConfig(step=args.step))
    except MaxStepsExceeded as exc:  # a horizon beyond the step budget
        return _fail(exc, EXIT_DOMAIN)
    doc = {
        "x": q.x,
        "y": q.y,
        "theta": q.theta,
        "beta_t": lam_t.beta,
        "c_t": lam_t.c,
        "energy": J,
        "step": args.step,
    }
    _emit_record(doc, args)


def cmd_constants(args):
    from .elliptic import _k0_defect, find_k0
    from .maxwell import _alpha, find_kstar, u_a1

    k0 = find_k0()
    kstar, ustar = find_kstar()
    doc = {
        "k0": k0,
        "kstar": kstar,
        "ustar": ustar,
        "k0_residual": _k0_defect(k0),
        "kstar_residual": _alpha(kstar),
        "ustar_identity_residual": ustar - (math.pi - u_a1(kstar)),
    }
    _emit_record(doc, args)


_CURVES = ("p11", "pg1", "ua1", "uh1", "cutbound")


def cmd_sweep(args):
    from .elliptic import ellint_K
    from .maxwell import p1_roots, p_g1, u_a1, u_h1, unit_cut_time_bound

    # each curve checks its own modulus domain; only the range's order is ours
    if not args.kmin <= args.kmax:
        raise ValueError(f"sweep needs kmin <= kmax, got {args.kmin} and {args.kmax}")
    n = args.n
    ks = [args.kmin + (args.kmax - args.kmin) * i / (n - 1) for i in range(n)] if n > 1 else [args.kmin]
    curve = {
        "p11": lambda k, family: p1_roots(k, 1),
        "pg1": lambda k, family: p_g1(k),
        "ua1": lambda k, family: u_a1(k),
        "uh1": lambda k, family: u_h1(k),
        "cutbound": lambda k, family: unit_cut_time_bound(k, rotating=family == "n2"),
    }[args.curve]
    values = [(k, curve(k, args.family)) for k in ks]
    rows = [(k, v, v / ellint_K(k)) for k, v in values]
    _emit_table(["k", "value", "value_over_K"], rows, args)


def _svg_polyline(points, title: str) -> str:
    for p in points:
        _require_finite(("x", "y"), p)
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    margin = 0.05 * span
    x0, y0 = min(xs) - margin, min(ys) - margin
    box = span + 2.0 * margin
    if not all(map(math.isfinite, (x0, y0, box))):
        raise ValueError("elastica too large to draw: its view box overflows")
    scale = 1000.0 / box
    # flip y so the mathematical orientation points up
    pts = " ".join(
        f"{(x - x0) * scale:.3f},{(box - (y - y0)) * scale:.3f}" for x, y in zip(xs, ys)
    )
    stroke = 1000.0 * 0.002
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="0 0 1000 1000">\n'
        f"  <title>{title}</title>\n"
        f'  <polyline fill="none" stroke="black" stroke-width="{stroke}" '
        f'points="{pts}"/>\n'
        "</svg>\n"
    )


def cmd_elastica(args):
    from .expmap import classify, sample_elastica

    if args.gallery is not None:
        _gallery(args.gallery, args.n)
        return
    lam = _covector(args)
    rows = [(q.x, q.y, q.theta) for q in sample_elastica(lam, args.t1, args.n)]
    if args.format == "svg":
        _emit(_svg_polyline(rows, classify(lam).value), args.output)
    else:
        _emit(_csv_doc(["x", "y", "theta"], rows), args.output)


def _gallery(outdir: str, n: int):
    """One canonical curve per qualitative class, r = 1 throughout."""
    from .elliptic import K_RECT, find_k0
    from .expmap import classify, sample_elastica
    from .phase import Covector, EllipticCoords, Stratum, from_elliptic, period

    def two_periods(stratum, k):
        ec = EllipticCoords(stratum, k, 0.0, 1.0)
        return from_elliptic(ec), 2.0 * period(ec)

    entries = [
        ("line", Covector(0.0, 0.0, 0.0), 1.0),
        ("inflectional_small_k", *two_periods(Stratum.N1, 0.5)),
        ("rectangular", *two_periods(Stratum.N1, K_RECT)),
        ("inflectional_mid_k", *two_periods(Stratum.N1, 0.85)),
        ("figure_eight", *two_periods(Stratum.N1, find_k0())),
        ("inflectional_large_k", *two_periods(Stratum.N1, 0.97)),
        (
            "critical",
            from_elliptic(EllipticCoords(Stratum.N3_PLUS, 1.0, -3.0, 1.0)),
            6.0,
        ),
        ("non_inflectional", *two_periods(Stratum.N2_PLUS, 0.8)),
        ("circle", Covector(0.0, 2.0 * math.pi, 0.0), 1.0),
    ]
    os.makedirs(outdir, exist_ok=True)
    for name, lam, t1 in entries:
        pts = sample_elastica(lam, t1, n)
        svg = _svg_polyline([(q.x, q.y) for q in pts], classify(lam).value)
        with open(os.path.join(outdir, f"{name}.svg"), "w", encoding="utf-8") as fh:
            fh.write(svg)
    sys.stdout.write(f"wrote {len(entries)} files to {outdir}\n")


def cmd_maxwell(args):
    from .maxwell import cut_time_bound, in_maxwell

    lam = _covector(args)
    tol = args.tol if args.tol is not None else _env_tol()
    membership = sorted(m.value for m in in_maxwell(lam, args.t, tol))
    rep = cut_time_bound(lam, tol)
    doc = {
        "stratum": rep.stratum.value,
        "membership": membership,
        "t1_max1": _fin(rep.t1_max1),
        "t1_max2": _fin(rep.t1_max2),
        "t1_max3plus": _fin(rep.t1_max3plus),
        "t1_max3minus": _fin(rep.t1_max3minus),
        "bound": _fin(rep.bound),
        "tau_degenerate": rep.tau_degenerate,
    }
    _emit(_json_doc(doc), args.output)


def cmd_bvp(args):
    from .expmap import State
    from .oracle import UnattainableTargetError, bvp_shoot

    try:
        sols = bvp_shoot(State(args.x, args.y, args.theta), args.t1, starts=args.starts)
    except UnattainableTargetError as exc:
        return _fail(exc, EXIT_UNATTAINABLE)
    keys = ["beta", "c", "r", "energy", "residual", "cut_time_bound", "optimal_candidate"]
    rows = [
        (s.lam.beta, s.lam.c, s.lam.r, s.energy, s.residual, _fin(s.report.bound), s.optimal_candidate)
        for s in sols
    ]
    _emit_table(keys, rows, args)


# ---------------------------------------------------------------------------
# argument parsing

def _add_covector_flags(p: argparse.ArgumentParser):
    p.add_argument("--beta", type=float, required=True, help="pendulum angle")
    p.add_argument("--c", type=float, required=True, help="initial curvature")
    p.add_argument("--r", type=float, required=True, help="pendulum constant (>= 0)")
    p.add_argument("--deg", action="store_true", help="beta given in degrees")


def _add_output_flags(p: argparse.ArgumentParser, formats=("json", "csv")):
    p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("-o", "--output", default=None, help="write to file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="elastica",
        description="Euler elasticae: endpoints, Maxwell strata, cut-time bounds.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exp", help="closed-form endpoint of an elastica")
    _add_covector_flags(p)
    p.add_argument("--t", type=float, required=True, help="arc length (>= 0)")
    _add_output_flags(p)
    p.set_defaults(func=cmd_exp)

    p = sub.add_parser("oracle-exp", help="endpoint by RK4 integration")
    _add_covector_flags(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--step", type=float, default=1e-4)
    _add_output_flags(p)
    p.set_defaults(func=cmd_oracle_exp)

    p = sub.add_parser("constants", help="threshold moduli k0, k*, u*")
    _add_output_flags(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("sweep", help="tabulate a root curve over the modulus")
    p.add_argument("curve", choices=_CURVES)
    p.add_argument("--kmin", type=float, required=True)
    p.add_argument("--kmax", type=float, required=True)
    p.add_argument("--n", type=_count(1), default=50)
    p.add_argument(
        "--family",
        choices=["n1", "n2"],
        default="n1",
        help="stratum family for the cutbound curve (r = 1)",
    )
    _add_output_flags(p, formats=("csv", "json"))
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("elastica", help="sample an elastica as SVG or CSV")
    _add_covector_flags(p)
    p.add_argument("--t1", type=float, default=1.0, help="total arc length")
    p.add_argument("--n", type=_count(2), default=400, help="sample count (>= 2)")
    p.add_argument("--gallery", default=None, metavar="DIR",
                   help="emit one SVG per qualitative class into DIR and exit")
    _add_output_flags(p, formats=("svg", "csv"))
    p.set_defaults(func=cmd_elastica)

    p = sub.add_parser("maxwell", help="Maxwell strata membership and cut-time bound")
    _add_covector_flags(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--tol", type=_tolerance, default=None)
    _add_output_flags(p, formats=("json",))
    p.set_defaults(func=cmd_maxwell)

    p = sub.add_parser("bvp", help="invert the endpoint map by shooting")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--starts", type=_count(1), default=200)
    _add_output_flags(p)
    p.set_defaults(func=cmd_bvp)

    return ap


def main(argv=None) -> int:
    # required --beta conflicts with negative values looking like flags;
    # argparse handles "--beta=-0.5", documented in the README
    args = build_parser().parse_args(argv)
    try:
        return args.func(args) or EXIT_OK
    except ValueError as exc:
        # the elliptic, stratum and root-curve domain errors
        return _fail(exc, EXIT_DOMAIN)
    except OSError as exc:
        return _fail(exc, EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
