"""Independent numerical ground truth and the boundary-value solver.

The integrator reuses none of the closed forms: the extremal system is
integrated by fixed-step RK4 (fixed, not adaptive, so golden values are
reproducible), to cross-validate the analytic modules.  The boundary-value
problem is solved by damped Newton iteration on the forward map, in the
paper's Hamiltonian coordinates h = (-r cos beta, c, -r sin beta) of se(2)*,
where the flow is polynomial and the endpoint map smooth, also at r = 0.
The starts are seeds from a table of endpoints at t = 1, built on first
use: the dilation (beta, s c, s^2 r) at t/s reaching (x/s, y/s, theta) lets
one table serve every length.  Each line search starts near the scale the
previous one accepted, and a start whose residual stalls is dropped.

The Newton step is solved in the paper's natural directions, written in h,
and makes no endpoint evaluation: the derivatives of the endpoint along the
pendulum flow and the dilation come in closed form from the problem's
symmetries, on N1 and N2+- the one along the modulus from the Jacobi values
the residual already holds, and on the circles and the frozen line those
along the axes of h from elementary integrals.  No Jacobian matrix is formed
and no matrix is inverted; the 3x3 least squares is pure Python, so the
solver needs no numpy.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from bisect import bisect_left
from functools import cache
from typing import NamedTuple

from .expmap import State, _circle_columns, _endpoint, _modulus_column, exp_map
from .phase import CIRCULAR, TWO_PI, Covector, Stratum, _check_integer, stratify, wrap_angle

BVP_RESIDUAL_TOL = 1e-9
BVP_MERGE_DIST = 1e-6
BVP_MAX_ITER = 60
BVP_DAMPING = 0.5
# the line search and stall rules of `_newton_from`; BVP_MIN_SCALE is the
# 13th and smallest scale a search that starts at 1 tries: no start that
# converges on the perfbench bvp targets accepts a scale below 2^-11, so
# smaller ones would only spend evaluations on starts that fail
BVP_SCALE_GROWTH = 4.0
BVP_MIN_SCALE = 2.0**-12
BVP_STALL_RATIO = 0.99
BVP_STALL_ITER = 8
BVP_POLISH_ITER = 12
BVP_POLISH_STEP = 1e-12
# the 3x3 solve takes Cramer's rule where |det| exceeds this times the
# product of the column norms, and the SVD otherwise
CRAMER_MIN = 1e-10
SVD_SWEEPS = 30
# the seed table of `_seed_table`: moduli, (min, max, count) of the
# log-spaced R = sqrt(r) and |c|, and angles per orbit; `_seeds` weighs
# the angle by 1/SEED_THETA_WEIGHT and keeps at most BVP_SEEDS cells
SEED_MODULI = 16
SEED_RADII = (0.3, 30.0, 14)
SEED_PHASES = 24
SEED_CURVATURES = (0.1, 100.0, 40)
SEED_THETA_WEIGHT = 3.0
BVP_SEEDS = 30
RK4_MAX_STEPS = 10_000_000
ATTAINABLE_TOL = 1e-12
# where r = 0 in the stratify band: the Newton directions are the axes of h
_AXIS_STRATA = (*CIRCULAR, Stratum.N7)


class _IntegratorConfigFields(NamedTuple):
    step: float = 1e-4


class IntegratorConfig(_IntegratorConfigFields):
    """Fixed-step RK4 configuration; step * RK4_MAX_STEPS bounds the horizon."""

    __slots__ = ()

    def __new__(cls, step: float = 1e-4):
        if not 0.0 < step < math.inf:
            raise ValueError(f"step must be finite and positive, got {step}")
        return tuple.__new__(cls, (step,))


class MaxStepsExceeded(RuntimeError):
    """Horizon longer than step * RK4_MAX_STEPS."""


def integrate_extremal(
    lam: Covector, t: float, cfg: IntegratorConfig | None = None
):
    """RK4 integration of the full extremal system with accumulated energy.

    State is (beta, c, x, y, theta) plus the running cost J = (1/2) int c^2;
    r is conserved exactly.  Returns (endpoint State, endpoint Covector, J).
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"integration time must be finite and >= 0, got {t}")
    cfg = cfg or IntegratorConfig()
    # compared as a float first: t / step overflows to inf for a tiny step
    if t / cfg.step >= RK4_MAX_STEPS:
        raise MaxStepsExceeded(
            f"horizon {t} needs more than {RK4_MAX_STEPS} steps of {cfg.step}"
        )
    n_full = int(t / cfg.step)
    rem = t - n_full * cfg.step
    steps = itertools.repeat(cfg.step, n_full)
    if rem > 1e-15 * max(1.0, t):
        steps = itertools.chain(steps, (rem,))
    r = lam.r
    b, c, x, y, th, J = lam.beta, lam.c, 0.0, 0.0, 0.0, 0.0
    sin, cos = math.sin, math.cos
    # classic RK4 on (beta, c, x, y, theta, J); theta' = beta' = c, so the
    # two share each stage's increment db
    for h in steps:
        hh = 0.5 * h
        s = h / 6.0
        k1c = -r * sin(b)
        db = hh * c
        b2, c2, th2 = b + db, c + hh * k1c, th + db
        k2c = -r * sin(b2)
        db = hh * c2
        b3, c3, th3 = b + db, c + hh * k2c, th + db
        k3c = -r * sin(b3)
        db = h * c3
        b4, c4, th4 = b + db, c + h * k3c, th + db
        k4c = -r * sin(b4)
        db = s * (c + 2.0 * (c2 + c3) + c4)
        b, c, x, y, th, J = (
            b + db,
            c + s * (k1c + 2.0 * (k2c + k3c) + k4c),
            x + s * (cos(th) + 2.0 * (cos(th2) + cos(th3)) + cos(th4)),
            y + s * (sin(th) + 2.0 * (sin(th2) + sin(th3)) + sin(th4)),
            th + db,
            J + s * (0.5 * c * c + 2.0 * (0.5 * c2 * c2 + 0.5 * c3 * c3) + 0.5 * c4 * c4),
        )
    return State(x, y, th), Covector(b, c, r), J


class UnattainableTargetError(ValueError):
    """A bvp_shoot target outside the exact-time attainable set."""


def attainable(q1: State, t1: float) -> bool:
    """Exact-time attainability from the identity: open disk plus one boundary point.

    True iff |(x, y)| < t1, or (x, y, theta) is the straight-line endpoint
    (t1, 0, 0): x and y within ATTAINABLE_TOL t1 of it, theta within
    ATTAINABLE_TOL.  Nothing is squared and the band is relative to t1, so
    the verdict is the same at every scale.  A non-finite target or time
    raises ValueError.
    """
    if not 0.0 < t1 < math.inf:
        raise ValueError(f"attainable needs finite t1 > 0, got {t1}")
    if not all(map(math.isfinite, (q1.x, q1.y, q1.theta))):
        raise ValueError(f"attainable needs a finite target, got {q1}")
    if math.hypot(q1.x, q1.y) < t1:
        return True
    band = ATTAINABLE_TOL * t1
    return (
        abs(q1.x - t1) <= band
        and abs(q1.y) <= band
        and abs(wrap_angle(q1.theta)) <= ATTAINABLE_TOL
    )


class BvpSolution(NamedTuple):
    """Converged boundary-value solution with its optimality annotations."""

    lam: Covector
    energy: float
    residual: float
    report: MaxwellReport  # of elastica.maxwell; the annotation stays a string
    # t1 <= cut-time bound of lam, and no returned solution has an energy
    # lower by more than the merge tolerance
    optimal_candidate: bool


def _log_grid(lo: float, hi: float, n: int) -> list[float]:
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


def _hamiltonian(lam: Covector):
    """The paper's coordinates h = (-r cos beta, c, -r sin beta) of lam."""
    return (-lam.r * math.cos(lam.beta), lam.c, -lam.r * math.sin(lam.beta))


def _covector(h) -> Covector:
    """The covector of h = (-r cos beta, c, -r sin beta)."""
    return Covector(math.atan2(-h[2], -h[0]), h[1], math.hypot(h[0], h[2]))


@cache
def _seed_table():
    """The endpoints at t = 1 that seed `bvp_shoot`, built on first use.

    N1 and N2+- covectors on SEED_MODULI moduli k = sin(pi (i + 1/2) / (2
    SEED_MODULI)), the SEED_RADII values of R = sqrt(r) and SEED_PHASES
    angles per orbit; N6+- covectors on the SEED_CURVATURES values of |c|;
    and the straight line.  A cell holds one stratum at one R (the circles
    and the line one cell each), its entries sorted by x.  Returns (x, y,
    theta, covectors, cells): flat arrays, the covectors as (beta, c, r)
    triples, and cells as (start, stop) index pairs.
    """
    moduli = [math.sin(math.pi * (i + 0.5) / (2 * SEED_MODULI)) for i in range(SEED_MODULI)]
    angles = [2.0 * math.pi * j / SEED_PHASES for j in range(SEED_PHASES)]

    def cells():
        for R in _log_grid(*SEED_RADII):
            r = R * R
            # an orbit is the energy level E + r = 2 r kappa^2, kappa = k on
            # N1 and 1/k on N2+-, at angles phi uniform in [0, 2 pi): on N1
            # the amplitude, sin(beta/2) = k sin phi and c = 2 k R cos phi;
            # on N2+- beta = phi and c = +-2 R sqrt(1/k^2 - sin^2(beta/2))
            yield [Covector(2.0 * math.asin(k * math.sin(phi)), 2.0 * k * R * math.cos(phi), r)
                   for k in moduli for phi in angles]
            for sign in (1.0, -1.0):
                yield [Covector(phi, sign * 2.0 * R * math.sqrt(1.0 / (k * k) - math.sin(0.5 * phi) ** 2), r)
                       for k in moduli for phi in angles]
        for sign in (1.0, -1.0):
            yield [Covector(0.0, sign * c, 0.0) for c in _log_grid(*SEED_CURVATURES)]
        yield [Covector(0.0, 0.0, 0.0)]

    xs, ys, ths, covs, bounds = array("d"), array("d"), array("d"), array("d"), []
    for cell in cells():
        ends = sorted((_endpoint(lam, 1.0)[:3], i) for i, lam in enumerate(cell))
        bounds.append((len(xs), len(xs) + len(ends)))
        for (x, y, theta), i in ends:
            xs.append(x)
            ys.append(y)
            ths.append(theta)
            covs.extend((cell[i].beta, cell[i].c, cell[i].r))
    return xs, ys, ths, covs, bounds


def _seeds(q1: State, t1: float, n: int) -> list[Covector]:
    """The n best seeds for the target q1 at t1, from `_seed_table` by dilation.

    (beta, s c, s^2 r) at t/s reaches (x/s, y/s, theta), so the target is
    looked up at t = 1 as (x/t1, y/t1, theta) and each entry's covector is
    mapped back as (beta, c/t1, r/t1^2).  Each cell gives its entry nearest
    the target in max(|dx|, |dy|, |dtheta|/SEED_THETA_WEIGHT), and the n
    nearest of those are kept, the nearest first.  A t1 so small that a
    kept seed's (c/t1, r/t1^2) is not finite (t1 below about 2e-153) raises
    ValueError.
    """
    xs, ys, ths, covs, cells = _seed_table()
    x, y, theta = q1.x / t1, q1.y / t1, q1.theta
    best = []
    for lo, hi in cells:
        # scan out from x both ways: the entries are sorted by x, and |dx|
        # bounds the distance below
        mid = bisect_left(xs, x, lo, hi)
        d, near = math.inf, -1
        for side in (range(mid, hi), range(mid - 1, lo - 1, -1)):
            for i in side:
                dx = abs(xs[i] - x)
                if dx >= d:
                    break
                dy = abs(ys[i] - y)
                if dy >= d:
                    continue
                dt = abs(ths[i] - theta)
                di = max(dx, dy, min(dt, TWO_PI - dt) / SEED_THETA_WEIGHT)
                if di < d:
                    d, near = di, i
        best.append((d, near))
    best.sort()
    t2 = t1 * t1
    seeds = []
    for _, i in best[:n]:
        c, r = covs[3 * i + 1] / t1, covs[3 * i + 2] / t2 if t2 else math.inf
        if not (math.isfinite(c) and r < math.inf):
            raise ValueError(f"bvp_shoot needs a larger t1: the seed table dilated to t1 = {t1} overflows")
        seeds.append(Covector(covs[3 * i], c, r))
    return seeds


def _residual(h, q1: State, t1: float):
    """Endpoint miss (dx, dy, dtheta) of h = (-r cos beta, c, -r sin beta) at t1, and end.

    end = (x, y, theta, J, c_t, stratum, jac) is what `expmap._endpoint`
    returns at t1, c_t the curvature there; the Newton step reuses it.
    """
    end = _endpoint(_covector(h), t1)
    return (end[0] - q1.x, end[1] - q1.y, wrap_angle(end[2] - q1.theta)), end


def _max_norm(res) -> float:
    """Largest |component| of a residual; NaN if any component is NaN."""
    a, b, c = map(abs, res)
    if a != a or b != b or c != c:  # NaN is the one float unequal to itself
        return math.nan
    return max(a, b, c)


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _lstsq3(cols, b):
    """Minimum-norm least-squares solution of A x = b, A given by its three columns.

    Cramer's rule where |det A| > CRAMER_MIN |A_1| |A_2| |A_3|.  Otherwise a
    one-sided Jacobi SVD: rotations V orthogonalize the columns, A V = U S,
    and x = V S+ U^T b, with the singular values at or below 3 eps s_max
    dropped, the cutoff of numpy.linalg.lstsq with rcond=None.  So a zero
    column gets a zero component.
    """
    # Cramer's rule, the triple products written out in scalars
    (p1, p2, p3), (q1, q2, q3), (s1, s2, s3) = cols
    b1, b2, b3 = b
    c1, c2, c3 = q2 * s3 - q3 * s2, q3 * s1 - q1 * s3, q1 * s2 - q2 * s1
    det = p1 * c1 + p2 * c2 + p3 * c3
    norms = (p1 * p1 + p2 * p2 + p3 * p3) * (q1 * q1 + q2 * q2 + q3 * q3) * (s1 * s1 + s2 * s2 + s3 * s3)
    if abs(det) > CRAMER_MIN * math.sqrt(norms):
        return [
            (b1 * c1 + b2 * c2 + b3 * c3) / det,
            (p1 * (b2 * s3 - b3 * s2) + p2 * (b3 * s1 - b1 * s3) + p3 * (b1 * s2 - b2 * s1)) / det,
            (p1 * (q2 * b3 - q3 * b2) + p2 * (q3 * b1 - q1 * b3) + p3 * (q1 * b2 - q2 * b1)) / det,
        ]
    eps = sys.float_info.epsilon
    a = [list(col) for col in cols]
    v = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]  # the columns of V
    for _ in range(SVD_SWEEPS):
        rotated = False
        for i, j in ((0, 1), (0, 2), (1, 2)):
            p, q, g = _dot(a[i], a[i]), _dot(a[j], a[j]), _dot(a[i], a[j])
            if not abs(g) > eps * math.sqrt(p * q):
                continue
            rotated = True
            zeta = (q - p) / (2.0 * g)
            t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
            cs = 1.0 / math.hypot(1.0, t)
            sn = cs * t
            for m in (a, v):
                m[i], m[j] = (
                    [cs * e - sn * f for e, f in zip(m[i], m[j])],
                    [sn * e + cs * f for e, f in zip(m[i], m[j])],
                )
        if not rotated:
            break
    s2 = [_dot(col, col) for col in a]
    cut = (3.0 * eps) ** 2 * max(s2)
    x = [0.0, 0.0, 0.0]
    for col, vi, si in zip(a, v, s2):
        if si > cut:
            f = _dot(col, b) / si
            x = [e + f * w for e, w in zip(x, vi)]
    return x


def _symmetry_columns(c: float, end, t1: float):
    """J d_f and J d_s of `_newton_step` at curvature c, from the end `_residual` returned at t1."""
    x, y, theta, _, ct = end[:5]
    cos, sin = math.cos(theta), math.sin(theta)
    return (cos - 1.0 + c * y, sin - c * x, ct - c), (t1 * cos - x, t1 * sin - y, t1 * ct)


def _newton_step(h, res, end, t1: float):
    """Least-squares Newton step in h, or None if it is not finite.

    end is what `_residual` returned with res at h.  The step is solved in
    three directions d_1, d_2, d_3 at h, from the residual's derivatives J
    d_i along them: [J d_1, J d_2, J d_3] y = -res by `_lstsq3`, minimum
    norm in y, and the step is y_1 d_1 + y_2 d_2 + y_3 d_3.  All closed
    form, in h = (h1, c, h3) = (-r cos beta, c, -r sin beta), with no
    endpoint evaluation.  On N6+- and N7 (r = 0 in the stratify band) the
    directions are the axes of h, with `expmap._circle_columns`.
    Elsewhere: the flow d_f = (-c h3, h3, c h1), where left-invariance,
    exp(lam, s + t) = exp(lam, s) exp(flow(lam, s), t), gives J d_f =
    (cos theta - 1 + c y, sin theta - c x, c_t - c); the dilation d_s =
    (2 h1, c, 2 h3), with J d_s = (t cos theta - x, t sin theta - y, t c_t);
    and on N1 and N2+- the modulus direction (D_beta, D_c, 0) of
    `expmap._modulus_column` in (beta, c, r), (-h3 D_beta, D_c, h1 D_beta)
    in h.  On N3+-, N4 and N5 end holds no modulus, and the third column is
    zero, which `_lstsq3` gives no component.  The directions are held as
    their components, f0..f2, s0..s2 and m0..m2, and the step is summed
    from them.
    """
    h1, c, h3 = h
    stratum, jac = end[5], end[6]
    if stratum in _AXIS_STRATA:
        cols = _circle_columns(c, t1)
        f0, f1, f2, s0, s1, s2, m0, m1, m2 = 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0
    else:
        f0, f1, f2 = -c * h3, h3, c * h1
        s0, s1, s2 = 2.0 * h1, c, 2.0 * h3
        jf, js = _symmetry_columns(c, end, t1)
        if jac is None:
            m0 = m1 = m2 = 0.0
            cols = jf, js, (0.0, 0.0, 0.0)
        else:
            kap, a0, a = jac
            (db, m1, _), jm = _modulus_column(kap, math.sqrt(math.hypot(h1, h3)), t1, a0, *a)
            m0, m2 = -h3 * db, h1 * db
            cols = jf, js, jm
    y0, y1, y2 = _lstsq3(cols, (-res[0], -res[1], -res[2]))
    x0 = y0 * f0 + y1 * s0 + y2 * m0
    x1 = y0 * f1 + y1 * s1 + y2 * m1
    x2 = y0 * f2 + y1 * s2 + y2 * m2
    isfinite = math.isfinite
    return [x0, x1, x2] if isfinite(x0) and isfinite(x1) and isfinite(x2) else None


def _gap(a: State, b: State) -> float:
    """Max-norm distance between two states, theta wrapped."""
    return max(abs(a.x - b.x), abs(a.y - b.y), abs(wrap_angle(a.theta - b.theta)))


def _polish(h, res, end, q1: State, t1: float):
    """Certify a converged start by undamped Newton steps; None if it fails.

    At most BVP_POLISH_ITER steps, stopping once one moves h by less than
    BVP_POLISH_STEP * max(1, |h|).  Where the endpoint map is singular (the
    conjugate locus of the line) the residual is quadratic in the distance
    to the root, so a start can pass BVP_RESIDUAL_TOL far from any solution;
    the polish then runs on toward the root.  The move is measured as the
    merge measures trajectories, by the gap between the states at t1/2, so
    a weakly determined direction of h does not count.  A start the polish
    moves by BVP_MERGE_DIST * max(1, t1) or more is dropped.  Returns (the
    covector, its max-norm residual, its energy J at t1, its state at t1/2).
    """
    h0 = h
    for _ in range(BVP_POLISH_ITER):
        step = _newton_step(h, res, end, t1)
        if step is None:
            return None
        h = [a + b for a, b in zip(h, step)]
        res, end = _residual(h, q1, t1)
        if max(map(abs, step)) < BVP_POLISH_STEP * max(1.0, *map(abs, h)):
            break
    norm = _max_norm(res)
    lam = _covector(h)
    qa, qb = exp_map(_covector(h0), 0.5 * t1), exp_map(lam, 0.5 * t1)
    if _gap(qa, qb) < BVP_MERGE_DIST * max(1.0, t1) and norm < BVP_RESIDUAL_TOL:
        return lam, norm, end[3], qb
    return None


def _newton_from(start: Covector, q1: State, t1: float):
    """Damped Newton iteration in h from one start, then `_polish`; None unless certified.

    Each line search tries the scales min(1, BVP_SCALE_GROWTH s), halved by
    BVP_DAMPING down to BVP_MIN_SCALE, where s is the scale the previous
    iteration accepted (1 before the first).  A start is dropped when no
    scale lowers the residual, or when its best max-norm residual is above
    BVP_STALL_RATIO times its value BVP_STALL_ITER iterations earlier.
    """
    h = _hamiltonian(start)
    res, end = _residual(h, q1, t1)
    best = _max_norm(res)
    history = [best]  # best after each iteration
    scale = 1.0
    for _ in range(BVP_MAX_ITER):
        if best < BVP_RESIDUAL_TOL:
            break
        if len(history) > BVP_STALL_ITER and best > BVP_STALL_RATIO * history[-1 - BVP_STALL_ITER]:
            return None
        step = _newton_step(h, res, end, t1)
        if step is None:
            return None
        scale = min(1.0, BVP_SCALE_GROWTH * scale)
        while scale >= BVP_MIN_SCALE:
            cand = [h[0] + scale * step[0], h[1] + scale * step[1], h[2] + scale * step[2]]
            cand_res, cand_end = _residual(cand, q1, t1)
            cand_norm = _max_norm(cand_res)
            if math.isfinite(cand_norm) and cand_norm < best:
                h, res, end, best = cand, cand_res, cand_end, cand_norm
                break
            scale *= BVP_DAMPING
        else:
            return None
        history.append(best)
    if best < BVP_RESIDUAL_TOL:
        return _polish(h, res, end, q1, t1)
    return None


def bvp_shoot(
    q1: State, t1: float, starts: int = 200, jobs: int = 1
) -> list[BvpSolution]:
    """Invert the endpoint map: every distinct covector it can find steering to q1 in time t1.

    The list holds the solutions that its starts converge to, and need not
    hold them all: shooting a reflected image of the target and mapping the
    solutions back can find ones this search misses.

    Damped Newton iteration in the paper's coordinates h = (-r cos beta, c,
    -r sin beta), from at most min(starts, BVP_SEEDS) seeds that `_seeds`
    looks up by dilation in a table of endpoints at t = 1, built on the
    first call.  Each line search starts at four times the scale the
    previous iteration accepted (at most 1) and halves down to 2^-12; a
    start is dropped when no scale lowers its residual, or when its best
    residual falls by less than 1 % over 8 iterations.  Converged solutions
    (max-norm residual < 1e-9) are certified by a polish that moves their
    state at t1/2 by less than 1e-6 max(1, t1); the polish's last endpoint
    evaluation gives the energy, and its state at t1/2 the merge's.  Two
    solutions with energies within 1e-6 max(1, J) and states at t1/2 within
    1e-6 max(1, t1) trace one trajectory and are merged.  The rest are
    sorted by bending energy and annotated with their cut-time bound and
    optimal_candidate: t1 <= bound and J <= J_min + 1e-6 max(1, J_min),
    J_min the least energy returned.
    Straight-line solutions (J = 0) are canonicalized to the frozen
    covector, and a circle (stratum N6), whose endpoint depends on c alone,
    is reported as (0, c, 0).

    The search is serial.  jobs is accepted for callers that pass it and
    must be >= 1; it has no other effect.

    Returns an empty list (with a logged diagnostic) when no start converges.
    A target that `attainable` rejects raises UnattainableTargetError, a
    ValueError; a non-finite target or time, a starts or jobs that is not
    an integer >= 1 (an int, or a float of integral value), or a t1 so
    small (below about 2e-153) that the seeds' dilation (beta, c/t1, r/t1^2)
    overflows raises a plain ValueError.
    """
    starts = _check_integer(starts, "bvp_shoot", "starts")
    jobs = _check_integer(jobs, "bvp_shoot", "jobs")
    if starts < 1:
        raise ValueError(f"bvp_shoot needs starts >= 1, got {starts}")
    if jobs < 1:
        raise ValueError(f"bvp_shoot needs jobs >= 1, got {jobs}")
    if not attainable(q1, t1):
        raise UnattainableTargetError(
            "target unattainable; need x^2 + y^2 < t1^2 or (x, y, theta) = (t1, 0, 0)"
        )
    seeds = _seeds(q1, t1, min(starts, BVP_SEEDS))
    converged: list[tuple[Covector, float, float, State]] = []
    for start in seeds:
        item = _newton_from(start, q1, t1)
        if item is None:
            continue
        lam, res, J, qm = item
        if J < 1e-12:
            lam, J = Covector(0.0, 0.0, 0.0), 0.0
            qm = exp_map(lam, 0.5 * t1)
        elif stratify(lam) in CIRCULAR:
            lam = Covector(0.0, lam.c, 0.0)
            qm = exp_map(lam, 0.5 * t1)
        converged.append((lam, res, J, qm))

    # merge duplicates: same trajectory (equal energy and equal state at
    # t1/2); keep the smallest residual
    converged.sort(key=lambda it: it[1])
    found: list[tuple[Covector, float, float, State]] = []
    for lam, res, J, qm in converged:
        if not any(
            abs(J - Jp) < BVP_MERGE_DIST * max(1.0, Jp)
            and _gap(qm, qp) < BVP_MERGE_DIST * max(1.0, t1)
            for _, _, Jp, qp in found
        ):
            found.append((lam, res, J, qm))

    if not found:
        import logging  # deferred: only a failed search logs

        logging.getLogger(__name__).warning(
            "bvp_shoot: no convergence to (%g, %g, %g) at t1=%g from %d starts",
            q1.x,
            q1.y,
            q1.theta,
            t1,
            len(seeds),
        )
        return []

    from .maxwell import cut_time_bound  # deferred: only the found solutions need it

    # a solution above the least energy by more than the merge tolerance is
    # not optimal, whatever its cut-time bound
    least = min(J for _, _, J, _ in found)
    limit = least + BVP_MERGE_DIST * max(1.0, least)
    out = []
    for lam, res, J, _ in found:
        rep = cut_time_bound(lam)
        out.append(
            BvpSolution(
                lam=lam,
                energy=J,
                residual=res,
                report=rep,
                optimal_candidate=t1 <= rep.bound and J <= limit,
            )
        )
    out.sort(key=lambda s: s.energy)
    return out
