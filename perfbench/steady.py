"""Steadiness study: repeated runs of one workload over several seeds.

    python3 perfbench/steady.py --workload acceptance --seeds 1 2 3 4 5 [--seconds 30]

For each end-to-end metric prints the ten (or however many) values, their
median and the quartile spread (Q3 - Q1) / median from
``statistics.quantiles(values, n=4)``, next to the metric's bound in
BENCHMARK.json, and the failed share of every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True, check=True)
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"seed {seed} ({time.perf_counter() - t0:.0f} s): " + json.dumps({k: round(v["value"], 4)
                                               for k, v in runs[-1]["metrics"].items()}), flush=True)
    print("failed/attempted:", sorted({(r["failed"], r["attempted"]) for r in runs}))
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        print(f"{m['name']:>14}: median {statistics.median(values):.4g} {m['unit']}, "
              f"spread {(q3 - q1) / statistics.median(values):.3f} (bound {m['bound']})")


if __name__ == "__main__":
    main()
