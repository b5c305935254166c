"""Run the nine acceptance criteria at a fixed set of seeds, one JSON line each.

    PYTHONPATH=src python3 tools/sweep.py > sweep.jsonl

Each line holds the seed, the criterion's name, ``passed`` and ``detail``.
Criterion 1's elapsed time is cut from its detail, so two trees that compute
the same residuals print the same bytes and a refactor can cite a plain
``diff`` of the two outputs.  Exits 1 if any criterion fails.
"""

import json
import re
import sys

from modelspace.acceptance import CRITERIA

SEEDS = [*range(30), *range(1101, 1111), 12345]


def main():
    failures = 0
    for seed in SEEDS:
        for crit in CRITERIA:
            res = crit(seed=seed)
            detail = res["detail"]
            if crit is CRITERIA[0]:
                detail = re.sub(r", [0-9.]+s$", "", detail)
            print(json.dumps({"seed": seed, "criterion": res["name"],
                              "passed": res["passed"], "detail": detail}), flush=True)
            failures += not res["passed"]
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
