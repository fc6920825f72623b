"""Independent numerical ground truth and the boundary-value solver.

The integrator reuses none of the closed forms: the extremal system is
integrated by fixed-step RK4 (fixed, not adaptive, so golden values are
reproducible), to cross-validate the analytic modules.  The boundary-value
problem is solved by multi-start damped Newton iteration on the forward map.
Each line search starts near the scale the previous one accepted, and a
start whose residual stalls is dropped.

The Newton step is solved in the paper's natural directions and mapped
back: the derivatives of the endpoint along the pendulum flow and the
dilation come in closed form from the problem's symmetries, and on N1 and
N2+- the one along the modulus from the Jacobi values the residual already
holds, so there it makes no endpoint evaluation.  Every other derivative is
one difference along its direction.  No Jacobian in (beta, c, r) is formed
and no matrix is inverted; the 3x3 least squares is pure Python, so the
solver needs no numpy.  The worker pool is imported on first use.
"""

from __future__ import annotations

import logging
import math
import random
import sys
from dataclasses import dataclass
from itertools import repeat

from .expmap import State, _modulus_column, _prepare, elastic_energy_closed, exp_map, wrap_angle
from .maxwell import MaxwellReport, cut_time_bound
from .phase import CIRCULAR, Covector

log = logging.getLogger(__name__)

BVP_RESIDUAL_TOL = 1e-9
BVP_MERGE_DIST = 1e-6
BVP_MAX_ITER = 60
BVP_DAMPING = 0.5
# the line search and stall rules of `_newton_from`; BVP_MIN_SCALE is the
# 25th halving from 1, the smallest scale a search that starts at 1 tries
BVP_SCALE_GROWTH = 4.0
BVP_MIN_SCALE = 2.0**-24
BVP_STALL_RATIO = 0.99
BVP_STALL_ITER = 8
BVP_POLISH_ITER = 12
BVP_POLISH_STEP = 1e-12
FD_STEP = 1e-7
# the Newton step differences along the three axes where the flow or
# dilation direction is shorter than JAC_DIR_MIN, or the sine of the angle
# between them is below JAC_SIN_MIN
JAC_DIR_MIN = 1e-3
JAC_SIN_MIN = 1e-2
# the modulus column is closed form where kappa and |1 - kappa^2| are at
# least JAC_MODULUS_MIN and kappa is at most JAC_MODULUS_MAX
JAC_MODULUS_MIN = 1e-6
JAC_MODULUS_MAX = 6.0
# the 3x3 solve takes Cramer's rule where |det| exceeds this times the
# product of the column norms, and the SVD otherwise
CRAMER_MIN = 1e-10
SVD_SWEEPS = 30
RK4_MAX_STEPS = 10_000_000
ATTAINABLE_TOL = 1e-12


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 configuration; step * RK4_MAX_STEPS bounds the horizon."""

    step: float = 1e-4

    def __post_init__(self):
        if not 0.0 < self.step < math.inf:
            raise ValueError(f"step must be finite and positive, got {self.step}")


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
    r = lam.r
    b, c, x, y, th, J = lam.beta, lam.c, 0.0, 0.0, 0.0, 0.0
    sin, cos = math.sin, math.cos

    def advance(b, c, x, y, th, J, h):
        k1b = c
        k1c = -r * sin(b)
        k1x = cos(th)
        k1y = sin(th)
        k1j = 0.5 * c * c
        b2 = b + 0.5 * h * k1b
        c2 = c + 0.5 * h * k1c
        th2 = th + 0.5 * h * c
        k2b = c2
        k2c = -r * sin(b2)
        k2x = cos(th2)
        k2y = sin(th2)
        k2j = 0.5 * c2 * c2
        b3 = b + 0.5 * h * k2b
        c3 = c + 0.5 * h * k2c
        th3 = th + 0.5 * h * k2b
        k3b = c3
        k3c = -r * sin(b3)
        k3x = cos(th3)
        k3y = sin(th3)
        k3j = 0.5 * c3 * c3
        b4 = b + h * k3b
        c4 = c + h * k3c
        th4 = th + h * k3b
        k4b = c4
        k4c = -r * sin(b4)
        k4x = cos(th4)
        k4y = sin(th4)
        k4j = 0.5 * c4 * c4
        s = h / 6.0
        return (
            b + s * (k1b + 2.0 * (k2b + k3b) + k4b),
            c + s * (k1c + 2.0 * (k2c + k3c) + k4c),
            x + s * (k1x + 2.0 * (k2x + k3x) + k4x),
            y + s * (k1y + 2.0 * (k2y + k3y) + k4y),
            th + s * (k1b + 2.0 * (k2b + k3b) + k4b),
            J + s * (k1j + 2.0 * (k2j + k3j) + k4j),
        )

    h = cfg.step
    for _ in range(n_full):
        b, c, x, y, th, J = advance(b, c, x, y, th, J, h)
    rem = t - n_full * h
    if rem > 1e-15 * max(1.0, t):
        b, c, x, y, th, J = advance(b, c, x, y, th, J, rem)
    return State(x, y, th), Covector(b, c, r), J


class UnattainableTargetError(ValueError):
    """A bvp_shoot target outside the exact-time attainable set."""


def attainable(q1: State, t1: float) -> bool:
    """Exact-time attainability from the identity: open disk plus one boundary point.

    True iff x^2 + y^2 < t1^2, or (x, y, theta) is the straight-line endpoint
    (t1, 0, 0) (compared at relative tolerance ATTAINABLE_TOL).  A non-finite
    target or time raises ValueError.
    """
    if not 0.0 < t1 < math.inf:
        raise ValueError(f"attainable needs finite t1 > 0, got {t1}")
    if not all(map(math.isfinite, (q1.x, q1.y, q1.theta))):
        raise ValueError(f"attainable needs a finite target, got {q1}")
    if q1.x * q1.x + q1.y * q1.y < t1 * t1:
        return True
    scale = max(1.0, t1)
    return (
        abs(q1.x - t1) <= ATTAINABLE_TOL * scale
        and abs(q1.y) <= ATTAINABLE_TOL * scale
        and abs(wrap_angle(q1.theta)) <= ATTAINABLE_TOL
    )


@dataclass(frozen=True)
class BvpSolution:
    """Converged boundary-value solution with its optimality annotations."""

    lam: Covector
    energy: float
    residual: float
    report: MaxwellReport
    optimal_candidate: bool  # t1 <= cut-time bound of lam


def start_grid() -> list[Covector]:
    """Deterministic multistart grid over (beta, c, r).

    Shuffled with a fixed seed so that any prefix (a smaller `starts` count)
    still samples all corners of the grid.
    """
    grid = []
    for beta in (0.0, 0.5 * math.pi, -0.5 * math.pi, math.pi):
        for mag in (0.5, 1.0, 2.0, 4.0, 8.0):
            for c in (mag, -mag):
                for r in (0.0, 0.5, 1.0, 4.0, 16.0):
                    grid.append(Covector(beta, c, r))
    random.Random(0).shuffle(grid)
    return grid


def _residual(vec, q1: State, t1: float):
    """Endpoint miss (dx, dy, dtheta) of vec = (beta, c, r) at t1, and end.

    end = (x, y, theta, J, c_t, stratum, jac) is what `expmap._prepare`
    returns at t1, c_t the curvature there; the Newton step reuses it.  An r
    below 0 raises in `Covector`.
    """
    end = _prepare(Covector(*vec))(t1)
    return (end[0] - q1.x, end[1] - q1.y, wrap_angle(end[2] - q1.theta)), end


def _max_norm(res) -> float:
    """Largest |component| of a residual; NaN if any component is NaN."""
    if any(map(math.isnan, res)):
        return math.nan
    return max(map(abs, res))


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _lstsq3(cols, b):
    """Minimum-norm least-squares solution of A x = b, A given by its three columns.

    Cramer's rule where |det A| > CRAMER_MIN |A_1| |A_2| |A_3|.  Otherwise a
    one-sided Jacobi SVD: rotations V orthogonalize the columns, A V = U S,
    and x = V S+ U^T b, with the singular values at or below 3 eps s_max
    dropped, the cutoff of numpy.linalg.lstsq with rcond=None.  So a zero
    column, as J d_f's on the circles, gets a zero component.
    """
    a1, a2, a3 = cols
    c23 = _cross(a2, a3)
    det = _dot(a1, c23)
    if abs(det) > CRAMER_MIN * math.sqrt(_dot(a1, a1) * _dot(a2, a2) * _dot(a3, a3)):
        return [_dot(b, c23) / det, _dot(a1, _cross(b, a3)) / det, _dot(a1, _cross(a2, b)) / det]
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


def _difference(v, res, d, q1: State, t1: float):
    """The derivative of the residual at v along d by one difference.

    The step is FD_STEP * max(1, |beta|, |c|, r); the difference is central,
    or forward from res where v - h d would leave r >= 0.
    """
    h = FD_STEP * max(1.0, *map(abs, v))
    rp = _residual([a + h * b for a, b in zip(v, d)], q1, t1)[0]
    vm = [a - h * b for a, b in zip(v, d)]
    if vm[2] < 0.0:
        return [(a - b) / h for a, b in zip(rp, res)]
    return [(a - b) / (2.0 * h) for a, b in zip(rp, _residual(vm, q1, t1)[0])]


def _symmetry_columns(c: float, end, t1: float):
    """J d_f and J d_s at a covector with curvature c, from the end `_residual` returned at t1.

    See `_jacobian`.
    """
    x, y, theta, _, ct = end[:5]
    cos, sin = math.cos(theta), math.sin(theta)
    return (cos - 1.0 + c * y, sin - c * x, ct - c), (t1 * cos - x, t1 * sin - y, t1 * ct)


def _jacobian(v, res, end, q1: State, t1: float):
    """Three directions d_1, d_2, d_3 at v and the residual's derivatives J d_i along them.

    With end as `_residual` returned it at v = (beta, c, r):
    - left-invariance, exp(lam, s + t) = exp(lam, s) exp(flow(lam, s), t),
      gives along the pendulum flow d_f = (c, -r sin beta, 0)
      J d_f = (cos theta - 1 + c y, sin theta - c x, c_t - c);
    - dilation, (beta, s c, s^2 r) at t/s reaching (x/s, y/s, theta), gives
      along d_s = (0, c, 2r) J d_s = (t cos theta - x, t sin theta - y, t c_t);
    - on N1 and N2+-, the third direction is the modulus direction D, and J D
      comes from `expmap._modulus_column` in closed form from the Jacobi
      values in end, where JAC_MODULUS_MIN <= kappa <= JAC_MODULUS_MAX and
      |1 - kappa^2| >= JAC_MODULUS_MIN;
    - elsewhere it is n = d_f x d_s / |d_f x d_s|, with r component
      c^2 / |d_f x d_s| >= 0, and J n is a `_difference`.
    On the circles beta has no effect: r is taken as 0 and J d_f as 0
    exactly.  Where |d_f| or |d_s| is below JAC_DIR_MIN, or the sine of the
    angle between them below JAC_SIN_MIN, the directions are the axes and
    all three derivatives are differences.  Returns (directions, columns).
    """
    beta, c, r = v
    circle = end[5] in CIRCULAR
    if circle:
        r = 0.0
    df = (c, -r * math.sin(beta), 0.0)
    ds = (0.0, c, 2.0 * r)
    n = _cross(df, ds)
    nf, ns, nn = (math.sqrt(_dot(d, d)) for d in (df, ds, n))
    if min(nf, ns) < JAC_DIR_MIN or nn < JAC_SIN_MIN * nf * ns:
        axes = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        return axes, [_difference(v, res, d, q1, t1) for d in axes]
    jf, js = _symmetry_columns(c, end, t1)
    if circle:
        jf = (0.0, 0.0, 0.0)
    jac = end[6]
    if jac is not None:
        kap, a0, a = jac
        if (JAC_MODULUS_MIN <= kap <= JAC_MODULUS_MAX
                and abs((1.0 - kap) * (1.0 + kap)) >= JAC_MODULUS_MIN):
            dm, jm = _modulus_column(kap, math.sqrt(r), t1, a0, *a)
            return (df, ds, dm), (jf, js, jm)
    n = tuple(e / nn for e in n)
    return (df, ds, n), (jf, js, _difference(v, res, n, q1, t1))


def _newton_step(v, res, end, q1: State, t1: float):
    """Least-squares Newton step at v, or None if it is not finite.

    end is what `_residual` returned with res at v.  The step is solved in
    the directions of `_jacobian`: [J d_1, J d_2, J d_3] y = -res by
    `_lstsq3`, minimum norm in y, and the step is y_1 d_1 + y_2 d_2 + y_3 d_3.
    On the circles J d_f is exactly 0, so y_1 is 0 and the step leaves beta.
    """
    dirs, cols = _jacobian(v, res, end, q1, t1)
    y = _lstsq3(cols, [-e for e in res])
    step = [y[0] * a + y[1] * b + y[2] * e for a, b, e in zip(*dirs)]
    return step if all(map(math.isfinite, step)) else None


def _gap(a: State, b: State) -> float:
    """Max-norm distance between two states, theta wrapped."""
    return max(abs(a.x - b.x), abs(a.y - b.y), abs(wrap_angle(a.theta - b.theta)))


def _polish(v, res, end, q1: State, t1: float):
    """Certify a converged start by undamped Newton steps; None if it fails.

    At most BVP_POLISH_ITER steps, stopping once one moves v by less than
    BVP_POLISH_STEP * max(1, |v|).  Where the endpoint map is singular (the
    conjugate locus of the line) the residual is quadratic in the distance
    to the root, so a start can pass BVP_RESIDUAL_TOL far from any solution;
    the polish then runs on toward the root.  The move is measured as the
    merge measures trajectories, by the gap between the states at t1/2, so
    a gauge freedom (beta at r = 0) or a weakly determined direction of v
    does not count.  A start the polish moves by BVP_MERGE_DIST * max(1, t1)
    or more is dropped.
    """
    v0 = v
    for _ in range(BVP_POLISH_ITER):
        step = _newton_step(v, res, end, q1, t1)
        if step is None:
            return None
        prev, v = v, [a + b for a, b in zip(v, step)]
        v[2] = max(v[2], 0.0)
        res, end = _residual(v, q1, t1)
        if max(abs(a - b) for a, b in zip(v, prev)) < BVP_POLISH_STEP * max(1.0, *map(abs, v)):
            break
    norm = _max_norm(res)
    lam = Covector(*v)
    qa, qb = exp_map(Covector(*v0), 0.5 * t1), exp_map(lam, 0.5 * t1)
    if _gap(qa, qb) < BVP_MERGE_DIST * max(1.0, t1) and norm < BVP_RESIDUAL_TOL:
        return lam, norm
    return None


def _newton_from(start: Covector, q1: State, t1: float):
    """Damped Newton iteration from one start, then `_polish`; None unless certified.

    Each line search tries the scales min(1, BVP_SCALE_GROWTH s), halved by
    BVP_DAMPING down to BVP_MIN_SCALE, where s is the scale the previous
    iteration accepted (1 before the first).  A start is dropped when no
    scale lowers the residual, or when its best max-norm residual is above
    BVP_STALL_RATIO times its value BVP_STALL_ITER iterations earlier.
    """
    v = (start.beta, start.c, start.r)
    res, end = _residual(v, q1, t1)
    best = _max_norm(res)
    history = [best]  # best after each iteration
    scale = 1.0
    for _ in range(BVP_MAX_ITER):
        if best < BVP_RESIDUAL_TOL:
            break
        if len(history) > BVP_STALL_ITER and best > BVP_STALL_RATIO * history[-1 - BVP_STALL_ITER]:
            return None
        step = _newton_step(v, res, end, q1, t1)
        if step is None:
            return None
        scale = min(1.0, BVP_SCALE_GROWTH * scale)
        while scale >= BVP_MIN_SCALE:
            cand = [a + scale * b for a, b in zip(v, step)]
            cand[2] = max(cand[2], 0.0)
            cand_res, cand_end = _residual(cand, q1, t1)
            cand_norm = _max_norm(cand_res)
            if math.isfinite(cand_norm) and cand_norm < best:
                v, res, end, best = cand, cand_res, cand_end, cand_norm
                break
            scale *= BVP_DAMPING
        else:
            return None
        history.append(best)
    if best < BVP_RESIDUAL_TOL:
        return _polish(v, res, end, q1, t1)
    return None


def bvp_shoot(
    q1: State, t1: float, starts: int = 200, jobs: int = 1
) -> list[BvpSolution]:
    """Invert the endpoint map: all distinct covectors steering to q1 in time t1.

    Multi-start damped Newton over (beta, c, r).  Each line search starts at
    four times the scale the previous iteration accepted (at most 1) and
    halves down to 2^-24; a start is dropped when no scale lowers its
    residual, or when its best residual falls by less than 1 % over 8
    iterations.  Converged solutions (max-norm residual < 1e-9) are
    certified by a polish that moves their state at t1/2 by less than
    1e-6 max(1, t1), de-duplicated at distance 1e-6, sorted by
    bending energy, and annotated with their cut-time bound and whether
    t1 <= bound.  Straight-line solutions (J = 0) are canonicalized to the
    frozen covector, collapsing the degenerate (beta, r) freedom.

    Returns an empty list (with a logged diagnostic) when no start converges.
    A target that `attainable` rejects raises UnattainableTargetError, a
    ValueError; a non-finite target or time, starts < 1 or jobs < 1 raises
    a plain ValueError.
    """
    if starts < 1:
        raise ValueError(f"bvp_shoot needs starts >= 1, got {starts}")
    if jobs < 1:
        raise ValueError(f"bvp_shoot needs jobs >= 1, got {jobs}")
    if not attainable(q1, t1):
        raise UnattainableTargetError(
            "target unattainable; need x^2 + y^2 < t1^2 or (x, y, theta) = (t1, 0, 0)"
        )
    grid = start_grid()[:starts]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            raw = list(pool.map(_newton_from, grid, repeat(q1), repeat(t1), chunksize=4))
    else:
        raw = [_newton_from(s, q1, t1) for s in grid]

    converged: list[tuple[Covector, float, float]] = []
    for item in raw:
        if item is None:
            continue
        lam, res = item
        J = elastic_energy_closed(lam, t1)
        if J < 1e-12:
            lam, J = Covector(0.0, 0.0, 0.0), 0.0
        elif lam.r < 1e-5:
            # near r = 0 the residual is flat in beta and r (gauge freedom of
            # the gravity-free strata); snap to the canonical representative
            # when it solves the problem equally well
            cand = Covector(0.0, lam.c, 0.0)
            cand_res = _max_norm(_residual((0.0, lam.c, 0.0), q1, t1)[0])
            if cand_res < BVP_RESIDUAL_TOL:
                lam, res, J = cand, cand_res, elastic_energy_closed(cand, t1)
        converged.append((lam, res, J))

    # merge duplicates: same point in (beta, c, r), or same trajectory
    # (equal energy and equal midpoint state); keep the smallest residual
    converged.sort(key=lambda it: it[1])
    found: list[tuple[Covector, float, float, State]] = []
    for lam, res, J in converged:
        qm = exp_map(lam, 0.5 * t1)
        dup = False
        for prev, _, Jp, qp in found:
            if (
                abs(wrap_angle(lam.beta - prev.beta)) < BVP_MERGE_DIST
                and abs(lam.c - prev.c) < BVP_MERGE_DIST
                and abs(lam.r - prev.r) < BVP_MERGE_DIST
            ):
                dup = True
                break
            if (
                abs(J - Jp) < BVP_MERGE_DIST * max(1.0, Jp)
                and _gap(qm, qp) < BVP_MERGE_DIST * max(1.0, t1)
            ):
                dup = True
                break
        if not dup:
            found.append((lam, res, J, qm))

    if not found:
        log.warning(
            "bvp_shoot: no convergence to (%g, %g, %g) at t1=%g from %d starts",
            q1.x,
            q1.y,
            q1.theta,
            t1,
            len(grid),
        )
        return []

    out = []
    for lam, res, J, _ in found:
        rep = cut_time_bound(lam)
        out.append(
            BvpSolution(
                lam=lam,
                energy=J,
                residual=res,
                report=rep,
                optimal_candidate=t1 <= rep.bound,
            )
        )
    out.sort(key=lambda s: s.energy)
    return out
