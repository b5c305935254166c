"""Per-operation times of a perfbench workload over several passes in one process.

    PYTHONPATH=src python3 tools/optimes.py --workload kernels-large [--passes 5] [--seed 0]

Builds the workload of ``perfbench/workloads.py`` as its worker does (BLAS
and OpenMP at one thread, warm-up first), runs ``--passes`` whole passes,
and prints for each operation family, the name up to its bracket
(``distance_batch[*]``), the min and the median over passes of the
family's summed time in one pass, then the same for the whole pass.
Exits 1 if any operation fails its check.
"""

import argparse
import os
import re
import statistics
import sys
from collections import defaultdict
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import WORKLOADS, run_ops  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("acceptance", "kernels-large"))
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    times, failed = defaultdict(lambda: [0.0] * args.passes), []
    for k in range(args.passes):
        for name, seconds, ok, detail, _ in run_ops(workload.ops):
            times[re.sub(r"\[.*\]$", "[*]", name)][k] += seconds
            if not ok:
                failed.append(f"{name}: {detail}")
    print(f"{'operation':28} {'min ms':>9} {'median ms':>10}")
    times["pass"] = [sum(pass_times) for pass_times in zip(*times.values())]
    for family, values in times.items():
        print(f"{family:28} {1e3 * min(values):9.1f} {1e3 * statistics.median(values):10.1f}")
    for line in failed:
        print(f"failed: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
