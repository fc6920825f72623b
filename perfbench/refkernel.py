"""Reference kernel and the normalization of op timings by it.

The machine this benchmark runs on changes speed under it: one fixed batch
of library calls took anywhere from 0.75 s to 1.27 s in one process, with
CPU time moving in step with wall time.  A raw wall-clock timing therefore
measures the machine as much as the program.

The cure is to time, interleaved with every op, a fixed pure-Python kernel
that belongs to this benchmark and never changes with the program.  The
kernel's mix (small function calls, float arithmetic, math.sin/cos/sqrt/
asin, tuple allocation) resembles the library's own scalar code, so a
slower machine slows both by about the same factor.  An op's *normalized*
time is its wall time times NOMINAL_UNIT_S over the kernel's measured time
per unit during (and just before) that op: the time the op would have taken on a machine
where one kernel unit takes exactly NOMINAL_UNIT_S.
"""

from __future__ import annotations

import math
import signal
import subprocess
import sys
import time

# Seconds one kernel unit is declared to take.  Any fixed value works; this
# one is close to the measured unit time on a 2-core Intel Xeon VM, so that
# normalized seconds read close to wall seconds there.
NOMINAL_UNIT_S = 25e-6

# One kernel chunk of UNITS_PER_TICK units every INTERVAL_S of wall time:
# about 5 % of the run.
INTERVAL_S = 0.02
UNITS_PER_TICK = 40
CONTEXT = 4  # ticks before an op that join the ticks during it

# An op that runs a child process (a cold interpreter start, imports, page
# faults) drifts unlike the warm in-process kernel, so such ops are
# normalized by a fixed reference child instead, run after each of them:
# `import numpy` in a fresh interpreter, which is not part of elastica.
REFERENCE_CHILD = ("-c", "import numpy")
NOMINAL_CHILD_S = 0.1

_sin, _cos, _sqrt, _asin = math.sin, math.cos, math.sqrt, math.asin


def _agm_sn(u: float, k: float) -> tuple:
    """Jacobi sn/cn by a descending AGM (a fixed exercise, not a library call)."""
    a, b, c = 1.0, _sqrt(1.0 - k * k), k
    cs = [c]
    for _ in range(5):
        a, b, c = 0.5 * (a + b), _sqrt(a * b), 0.5 * (a - b)
        cs.append(c / a)
    phi = 32.0 * a * u
    for ci in reversed(cs[1:]):
        phi = 0.5 * (phi + _asin(max(-1.0, min(1.0, ci * _sin(phi)))))
    return _sin(phi), _cos(phi)


def _rk4(b: float, c: float, h: float) -> tuple:
    """One RK4 step of the pendulum b'' = -sin b."""
    k1b, k1c = c, -_sin(b)
    k2b, k2c = c + 0.5 * h * k1c, -_sin(b + 0.5 * h * k1b)
    k3b, k3c = c + 0.5 * h * k2c, -_sin(b + 0.5 * h * k2b)
    k4b, k4c = c + h * k3c, -_sin(b + h * k3b)
    s = h / 6.0
    return b + s * (k1b + 2.0 * (k2b + k3b) + k4b), c + s * (k1c + 2.0 * (k2c + k3c) + k4c)


def unit() -> float:
    """One kernel unit: a fixed amount of scalar Python work."""
    acc = 0.0
    for i in range(4):
        sn, cn = _agm_sn(0.1 * i + 0.3, 0.75)
        acc += sn * cn
    b, c = 0.4, 0.1
    for _ in range(6):
        b, c = _rk4(b, c, 0.01)
    return acc + b + c


def _run_reference_child():
    subprocess.run(
        [sys.executable, *REFERENCE_CHILD], check=True, capture_output=True, timeout=60,
    )


class Sampler:
    """Interleaves kernel chunks with the ops on a wall-clock timer.

    Every INTERVAL_S a SIGALRM handler runs UNITS_PER_TICK kernel units in
    the middle of whatever op is running (or while this process waits for a
    child on the same CPU), so the kernel samples the machine's speed
    throughout the op, not just at its ends: on a 2-core Intel Xeon VM the
    speed moved by 20 % or more within a second.  `time` runs one op, removes the kernel's
    time from the op's wall time, and normalizes it by the ticks that fell
    during the op, plus the CONTEXT ticks before it so that ops shorter than
    the interval are normalized by the speed just before them.
    """

    def __init__(self):
        self.spent = 0.0  # seconds spent in kernel chunks so far
        self.ticks: list[float] = []  # seconds per unit, one per chunk
        self.children: list[float] = []  # seconds per reference child

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        for _ in range(UNITS_PER_TICK):
            unit()
        dt = time.perf_counter() - t0
        self.spent += dt
        self.ticks.append(dt / UNITS_PER_TICK)

    def __enter__(self):
        for _ in range(CONTEXT):
            self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def time(self, fn, *args):
        """Run fn(*args); return (output, exception, wall seconds, normalized seconds).

        An exception from fn is returned, not raised, so the caller can count
        the op as failed and go on.
        """
        n0, s0 = len(self.ticks), self.spent
        out = exc = None
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as e:  # the op failed; its time still counts
            exc = e
        wall = time.perf_counter() - t0 - (self.spent - s0)
        window = self.ticks[n0 - CONTEXT:]
        unit_s = sum(window) / len(window)
        return out, exc, wall, wall * NOMINAL_UNIT_S / unit_s

    def _reference_child(self) -> float:
        _, exc, wall, _ = self.time(_run_reference_child)
        if exc is not None:
            raise exc
        self.children.append(wall)
        return wall

    def time_child(self, fn, *args):
        """Like `time`, for an op that runs a child process.

        The op is normalized by the mean of the reference children just
        before and just after it; the one after is reused as the next op's
        one before.
        """
        before = self.children[-1] if self.children else self._reference_child()
        out, exc, wall, _ = self.time(fn, *args)
        ref = 0.5 * (before + self._reference_child())
        return out, exc, wall, wall * NOMINAL_CHILD_S / ref
