"""Paired benchmark runs of two checkouts, recorded as one JSON file.

    python3 scripts/bench_pairs.py --base DIR --change DIR --workload sample \
        --seeds 101 102 ... --out BENCH_<n>.json

Each seed is one pair: `perfbench/run.py --trace 0` runs in the base checkout
and in the change checkout, each from its own root, with the run length that
BENCHMARK.json fixes.  The side that runs first alternates from pair to pair.
The result line (the last line of stdout) of every run is kept as printed.
For each end-to-end metric of BENCHMARK.json the file then gives each side's
median and quartiles (statistics.quantiles, inclusive method) and the number
of pairs the change won, ties counting for neither side.  Each side also
gets the median and quartiles of its runs' `attempted` op counts, because
perfbench keeps a record per op, so `peak_rss_mb` grows with the count: a
faster side can read more memory for running more ops.  Workloads already
in --out are kept, so one file collects one invocation per workload.

Each run also records its bytecode state: whether PYTHONDONTWRITEBYTECODE
was set, and whether the checkout's src/elastica/__pycache__ existed before
or after it.  The cli workload compiles the library in every child when
there is no cached bytecode (at seed 1 on a 2-core VM, 73 against 53 ms/op
when the package imported every module, 64 against 52 with lazy loading), so a
warning goes to stderr (and into the file) when the two sides of a pair
differ in that state or when any run used cached bytecode.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pycache(checkout: Path) -> bool:
    return (checkout / "src" / "elastica" / "__pycache__").is_dir()


def bytecode_warnings(seeds: list[int], runs: dict) -> list[str]:
    """Pairs whose sides ran in different bytecode states, and cached-bytecode runs."""
    out = []
    for seed, base, change in zip(seeds, runs["base"], runs["change"]):
        if base["bytecode"] != change["bytecode"]:
            out.append(f"seed {seed}: the sides ran in different bytecode states: "
                       f"base {base['bytecode']}, change {change['bytecode']}")
    for side in SIDES:
        cached = [seed for seed, run in zip(seeds, runs[side]) if run["bytecode"]["pycache"]]
        if cached:
            out.append(f"{side}: seeds {cached} ran with cached bytecode in src/elastica/__pycache__")
    return out


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("--seeds needs at least two seeds: quartiles need two pairs")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    dirs = {"base": args.base.resolve(), "change": args.change.resolve()}
    dont_write = bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))
    runs = {side: [] for side in SIDES}
    for i, seed in enumerate(args.seeds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            cached = pycache(dirs[side])
            run = run_once(dirs[side], args.workload, seed, bench["run_seconds"])
            state = {"PYTHONDONTWRITEBYTECODE": dont_write, "pycache": cached or pycache(dirs[side])}
            runs[side].append({**run, "bytecode": state})
            print(f"{args.workload} seed {seed} {side}: {json.dumps(runs[side][-1]['metrics'])}",
                  file=sys.stderr, flush=True)

    record = {side: {"seeds": args.seeds, "runs": runs[side], "metrics": {},
                     "attempted": summary([r["attempted"] for r in runs[side]])}
              for side in SIDES}
    wins = {}
    for m in bench["end_to_end"]:
        name = m["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        for side in SIDES:
            record[side]["metrics"][name] = summary(values[side])
        sign = 1.0 if m["better"] == "higher" else -1.0
        wins[name] = sum(sign * (c - b) > 0.0 for b, c in zip(values["base"], values["change"]))
    record["change_wins_of_pairs"] = {"pairs": len(args.seeds), **wins}
    record["warnings"] = bytecode_warnings(args.seeds, runs)
    for warning in record["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)

    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    doc[args.workload] = record
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
