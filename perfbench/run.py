"""Benchmark of the elastica library, timed against an interleaved reference kernel.

    python3 perfbench/run.py --workload {sample,maxwell,bvp,cli} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the library is imported from ./src.  With
--trace 0 the last line of stdout is the end-to-end result: every timing is
in normalized seconds (see refkernel.py), so drift in the machine's speed
cancels.  With --trace 1 the layer functions are wrapped (tracing.py) and the
last line holds the per-layer metrics.  The line before the result carries
machine info and the raw wall-clock diagnostics (`bench.*`) that let the
normalization be audited.  Exit code 0 on success, 2 when the library or a
set-up step is missing or broken.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 7  # set-up children per run; their median is setup_s


class SetupError(RuntimeError):
    """The library or a set-up child is missing or failed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def pin_to_one_cpu():
    """Keep this process and its children on one CPU.

    The kernel can only stand in for the speed of the CPU the op runs on.
    With two CPUs of different momentary speed, an op (or a child) that runs
    on the other one, or migrates mid-op, is normalized by the wrong speed.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _child(argv):
    return subprocess.run(
        [sys.executable, *argv], env=child_env(), cwd=ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
    )


def run_child(argv, sampler):
    """One timed child process; returns (normalized, raw, stderr)."""
    proc, exc, wall, norm = sampler.time_child(_child, argv)
    if exc is not None:
        raise SetupError(f"{' '.join(argv)}: {exc}")
    if proc.returncode != 0:
        raise SetupError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-500:]}")
    return norm, wall, proc.stderr


def measure_setup(wl, sampler):
    """Median normalized cold start over SETUP_RUNS sequential children."""
    norm, raw = [], []
    for _ in range(SETUP_RUNS):
        n, w, _ = run_child(wl.setup_argv, sampler)
        norm.append(n)
        raw.append(w)
    return statistics.median(norm), statistics.median(raw)


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def measure_import(sampler):
    """Normalized ms to import elastica.cli, and its scipy.optimize share."""
    norm, wall, err = run_child(("-X", "importtime", "-c", "import elastica.cli"), sampler)
    factor = norm / wall
    total = scipy_opt = 0
    for m in _IMPORTTIME.finditer(err):
        cumulative, indent, name = int(m.group(2)), len(m.group(3)), m.group(4)
        if indent == 1 and name in ("elastica", "elastica.cli"):
            total += cumulative
        if name == "scipy.optimize":
            scipy_opt = max(scipy_opt, cumulative)
    return total * 1e-3 * factor, scipy_opt * 1e-3 * factor


class Outcomes:
    """Per-input correctness: checks once per input, digests on repeats."""

    def __init__(self, wl):
        self.wl = wl
        self.first = {}  # input index -> (digest, output of its first run)
        self.ops_of = {}  # input index -> ops that returned
        self.failed = 0
        self.errors: list[str] = []

    def record(self, i, out, exc):
        if exc is not None:
            self.fail(f"input {i}: {type(exc).__name__}: {exc}")
            return
        self.ops_of[i] = self.ops_of.get(i, 0) + 1
        digest = self.wl.digest(out)
        if i not in self.first:
            self.first[i] = (digest, out)
        elif digest != self.first[i][0]:
            self.fail(f"input {i}: output differs from its first run")

    def fail(self, msg, count=1):
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(msg)

    def verify(self, inputs):
        """Full checks on the first output of every input (outside any timing)."""
        for i, (_, out) in self.first.items():
            try:
                self.wl.check(inputs[i], out)
            except Exception as exc:  # any error in a check fails the op
                self.fail(f"input {i}: {exc}", self.ops_of[i])


def passes(seconds):
    """Yield once per pass while another whole pass fits in `seconds` (at least once)."""
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        yield
        now = time.perf_counter()
        if now - start + (now - p0) > seconds:
            return


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_e2e(wl, inputs, seconds, sampler):
    outcomes = Outcomes(wl)
    norm, raw = [], []
    timed = sampler.time_child if getattr(wl, "runs_children", False) else sampler.time
    for _ in passes(seconds):
        for i, inp in enumerate(inputs):
            out, exc, wall, n = timed(wl.op, inp)
            outcomes.record(i, out, exc)
            norm.append(n)
            raw.append(wall)
    outcomes.verify(inputs)
    done = len(norm) - outcomes.failed
    metrics = {
        "norm_throughput_ops_s": (max(done, 0) / sum(norm), "1/s"),
        "norm_latency_p50_ms": (statistics.median(norm) * 1e3, "ms"),
    }
    diag = {
        "ops": len(norm),
        "bench.wall_throughput_ops_s": max(done, 0) / sum(raw),
        "bench.wall_latency_p50_ms": statistics.median(raw) * 1e3,
    }
    if len(norm) >= 100:  # at least ten samples beyond p90
        diag["norm_latency_p90_ms"] = percentile(norm, 90) * 1e3
        diag["bench.wall_latency_p90_ms"] = percentile(raw, 90) * 1e3
    return outcomes, metrics, diag


def run_traced(wl, inputs, seconds, sampler):
    """Each input of the trace set runs untraced, then traced; counts per traced op."""
    from tracing import ROOT_FUNCS, Tracer, install

    op = getattr(wl, "op_in_process", wl.op)
    trace_inputs = inputs[: wl.trace_count]
    tracer = Tracer(sampler)
    outcomes = Outcomes(wl)
    untraced_norm, untraced_raw, traced_norm = [], [], []
    for _ in passes(seconds):
        for i, inp in enumerate(trace_inputs):
            out, exc, wall, n = sampler.time(op, inp)
            outcomes.record(i, out, exc)
            untraced_norm.append(n)
            untraced_raw.append(wall)
            uninstall = install(tracer)
            try:
                out, exc, wall, n = sampler.time(op, inp)
            finally:
                uninstall()
            tracer.commit(n / wall)
            outcomes.record(i, out, exc)
            traced_norm.append(n)
    outcomes.verify(trace_inputs)
    import_ms, scipy_ms = measure_import(sampler)

    ops = len(traced_norm)
    calls = tracer.calls

    def per_op(x):
        return x / ops

    def ratio(a, b):
        return a / b if b else 0.0

    exp_calls = calls[("expmap", "exp_map")]
    points = exp_calls + tracer.points
    point_s = tracer.incl_s[("expmap", "exp_map")] + tracer.incl_s[("expmap", "sample_elastica")]
    ell_calls = tracer.layer_calls("elliptic")
    metrics = {
        "elliptic.calls_per_op": (per_op(ell_calls), "count"),
        "elliptic.self_ms_per_op": (per_op(tracer.layer_self_s("elliptic")) * 1e3, "ms"),
        "elliptic.us_per_call": (ratio(tracer.layer_self_s("elliptic"), ell_calls) * 1e6, "us"),
        "phase.calls_per_op": (per_op(tracer.layer_calls("phase")), "count"),
        "phase.self_ms_per_op": (per_op(tracer.layer_self_s("phase")) * 1e3, "ms"),
        "expmap.exp_map_calls_per_op": (per_op(exp_calls), "count"),
        "expmap.self_ms_per_op": (per_op(tracer.layer_self_s("expmap")) * 1e3, "ms"),
        "expmap.us_per_point": (ratio(point_s, points) * 1e6, "us"),
        "symmetry.self_ms_per_op": (per_op(tracer.layer_self_s("symmetry")) * 1e3, "ms"),
        "maxwell.root_evals_per_op": (per_op(sum(calls[("maxwell", f)] for f in ROOT_FUNCS)), "count"),
        "maxwell.p1_roots_calls_per_op": (per_op(calls[("maxwell", "p1_roots")]), "count"),
        "maxwell.self_ms_per_op": (per_op(tracer.layer_self_s("maxwell")) * 1e3, "ms"),
        "oracle.self_ms_per_op": (per_op(tracer.layer_self_s("oracle")) * 1e3, "ms"),
        "oracle.solutions_per_op": (per_op(tracer.solutions), "count"),
        "oracle.solutions_per_1k_evals": (ratio(tracer.solutions * 1e3, exp_calls), "count"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.import_scipy_ms": (scipy_ms, "ms"),
        "cli.self_ms_per_op": (per_op(tracer.layer_self_s("cli")) * 1e3, "ms"),
        "bench.ref_kernel_us": (statistics.median(sampler.ticks) * 1e6, "us"),
        "bench.wall_throughput_ops_s": (len(untraced_raw) / sum(untraced_raw), "1/s"),
        "bench.trace_overhead_ratio": (sum(traced_norm) / sum(untraced_norm), "ratio"),
    }
    diag = {"ops": ops + len(untraced_norm), "traced_ops": ops}
    return outcomes, metrics, diag


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("sample", "maxwell", "bvp", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "elastica" / "__init__.py").is_file():
        sys.stderr.write(f"error: no elastica package under {SRC}\n")
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    pin_to_one_cpu()
    try:
        import workloads
        from refkernel import Sampler

        wl = workloads.make(args.workload, child_env(), ROOT)
        with Sampler() as sampler:
            setup_s, setup_raw_s = measure_setup(wl, sampler)
            workloads.warm_up()
            inputs = wl.inputs(random.Random(args.seed))
            run = run_traced if args.trace else run_e2e
            outcomes, metrics, diag = run(wl, inputs, args.seconds, sampler)
    except (ImportError, SetupError) as exc:
        sys.stderr.write(f"error: set-up failed: {exc}\n")
        return 2
    if not args.trace:
        metrics["setup_s"] = (setup_s, "s")
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        metrics["peak_rss_mb"] = (resource.getrusage(who).ru_maxrss / 1024.0, "MB")
        diag["bench.wall_setup_s"] = setup_raw_s
    diag["bench.ref_kernel_us"] = statistics.median(sampler.ticks) * 1e6
    diag["bench.ref_child_ms"] = statistics.median(sampler.children) * 1e3
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": machine_info(),
        "diagnostics": diag,
        "errors": outcomes.errors,
    }
    print(json.dumps(info))
    result = {
        "correct": outcomes.failed == 0,
        "attempted": diag["ops"],
        "failed": outcomes.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
