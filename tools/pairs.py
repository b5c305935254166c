"""Paired benchmark runs of HEAD and the working tree.

    python3 tools/pairs.py --workload acceptance --out BENCH_<n>.json [--seed 0]

The base side is a ``git archive`` export of HEAD, the committed files
only, in a temporary directory; the change side is the working tree.  Each
of the 10 pairs runs ``perfbench/run.py --trace 0`` for BENCHMARK.json's
``run_seconds`` once on each side, the base first in even pairs and the
change first in odd ones.  The output, keyed by workload and seed (other
keys already in the file are kept), holds every run's report and, for
each end-to-end metric of BENCHMARK.json, each side's median and
quartiles, the change's wins (ties count for neither) and whether those
make a gain: wins in at least 9 of 10 pairs, medians apart by more than
the base's interquartile range, and no more failed operations in total
than the base.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from twotree import export_head

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def run(tree, args, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def side(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def summary(base, change, better, more_failed):
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    base, change = side(base), side(change)
    gain = (not more_failed and wins >= 0.9 * PAIRS
            and sign * (base["median"] - change["median"]) > base["q3"] - base["q1"])
    return {"base": base, "change": change, "change_wins": wins, "gain": gain}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = {"base": [], "change": []}
    with tempfile.TemporaryDirectory() as base_tree:
        export_head(base_tree)
        for i in range(PAIRS):
            for name in (("base", "change") if i % 2 == 0 else ("change", "base")):
                report = run(base_tree if name == "base" else ROOT, args, spec["run_seconds"])
                runs[name].append(report)
                print(name, json.dumps(report), file=sys.stderr, flush=True)
    failed = {name: sum(r["failed"] for r in reports) for name, reports in runs.items()}
    metrics = {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs["base"]],
                                  [r["metrics"][m["name"]]["value"] for r in runs["change"]],
                                  m["better"], failed["change"] > failed["base"])
               for m in spec["end_to_end"]}
    out = Path(args.out)
    record = json.loads(out.read_text()) if out.exists() else {}
    record[f"{args.workload} seed {args.seed}"] = {
        "failed": failed, "metrics": metrics, "runs": runs}
    out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
