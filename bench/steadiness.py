"""Repeat the benchmark over several seeds and summarise each metric's spread.

    python3 bench/steadiness.py --seeds 1-10 --seconds 30 [--workload NAME ...]

Runs bench/run.py untraced once per (workload, seed), one run at a
time, from the root of the checkout, and prints per metric the median,
the first and third quartiles (statistics.quantiles with n=4) and their
distance as a share of the median, for the reported metrics and for the
unscaled ("raw") times.  The results of every run go to
bench/out/steadiness-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import WORKLOAD_NAMES  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else float("inf")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--seconds", default="30", help="as run_seconds in BENCHMARK.json")
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    args = parser.parse_args()

    (BENCH / "out").mkdir(exist_ok=True)
    for workload in args.workload or WORKLOAD_NAMES:
        runs = []
        for seed in _seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
                capture_output=True, text=True, timeout=900, check=True,
            )
            lines = done.stdout.splitlines()
            result = json.loads(lines[-1])
            # the unscaled times run.py prints above its result line
            for line in lines:
                if line.startswith("raw "):
                    name, _, rest = line[4:].partition(" = ")
                    value, unit = rest.split()
                    result["metrics"][f"raw {name}"] = {"value": float(value), "unit": unit}
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        out = BENCH / "out" / f"steadiness-{workload}.json"
        out.write_text(json.dumps(runs, indent=1))
        print(f"\n{workload} ({len(runs)} runs of {args.seconds} s)")
        print("| metric | unit | median | q1 | q3 | (q3-q1)/median |")
        print("|---|---|---|---|---|---|")
        for name, first in runs[0]["metrics"].items():
            s = summarise([r["metrics"][name]["value"] for r in runs])
            print(f"| {name} | {first['unit']} | {s['median']:.4g} | {s['q1']:.4g} "
                  f"| {s['q3']:.4g} | {100 * s['spread']:.1f} % |")
        print(flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
