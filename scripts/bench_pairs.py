"""Paired benchmark runs of two checkouts, recorded as one JSON file.

    python3 scripts/bench_pairs.py --base DIR --change DIR --workload sample \
        --seeds 101 102 ... --out BENCH_<n>.json

Each seed is one pair: `perfbench/run.py --trace 0` runs in the base checkout
and in the change checkout, each from its own root, with the run length that
BENCHMARK.json fixes.  The side that runs first alternates from pair to pair.
The result line (the last line of stdout) of every run is kept as printed.
For each end-to-end metric of BENCHMARK.json the file then gives each side's
median and quartiles (statistics.quantiles, inclusive method) and the number
of pairs the change won, ties counting for neither side.  Workloads already
in --out are kept, so one file collects one invocation per workload.
"""

from __future__ import annotations

import argparse
import json
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
    runs = {side: [] for side in SIDES}
    for i, seed in enumerate(args.seeds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(run_once(dirs[side], args.workload, seed, bench["run_seconds"]))
            print(f"{args.workload} seed {seed} {side}: {json.dumps(runs[side][-1]['metrics'])}",
                  file=sys.stderr, flush=True)

    record = {side: {"seeds": args.seeds, "runs": runs[side], "metrics": {}} for side in SIDES}
    wins = {}
    for m in bench["end_to_end"]:
        name = m["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        for side in SIDES:
            record[side]["metrics"][name] = summary(values[side])
        sign = 1.0 if m["better"] == "higher" else -1.0
        wins[name] = sum(sign * (c - b) > 0.0 for b, c in zip(values["base"], values["change"]))
    record["change_wins_of_pairs"] = {"pairs": len(args.seeds), **wins}

    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    doc[args.workload] = record
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
