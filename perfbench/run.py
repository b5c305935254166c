"""modelspace benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload acceptance|cli-cold|kernels-large \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  Each run starts fresh worker processes
(perfbench/worker.py) with BLAS and OpenMP limited to one thread: set-up is
timed SETUP_REPEATS times (the measuring worker's own set-up included) and
reported as a median.  With ``--trace 0`` the last line carries the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer
metrics.  Operation failures are printed to stderr; the exit code is 0
when the run completed, whatever the checks found.  ``correct`` is false
when an operation fails other than by the exact signature of a named
fault (see ``workloads.FAULT1_GAPS``).  Needs numpy, scipy and mpmath.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
PROBE_REPEATS = 3
WORKER_TIMEOUT = 170.0
IMPORT_METRICS = {
    "cli.import_scipy_stats_s": "scipy.stats",
    "cli.import_scipy_spatial_s": "scipy.spatial",
    "cli.import_scipy_linalg_s": "scipy.linalg",
    "cli.import_numpy_s": "numpy",
}

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, mode, deadline):
    """Start a worker; return (set-up seconds, its JSON report or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
           str(args.seconds), mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline().strip()
        setup = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"worker timed out: {' '.join(cmd)}")
    if ready != "READY" or proc.returncode != 0:
        sys.exit(f"worker failed with exit code {proc.returncode}: {' '.join(cmd)}")
    lines = out.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def import_profile(env):
    """Cumulative first-import times of `import modelspace.cli`, in s."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import modelspace.cli"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True)
    first, top = {}, 0.0
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        cumulative, raw = int(fields[1]) * 1e-6, fields[2]
        name = raw.strip()
        first.setdefault(name, cumulative)
        if raw.startswith(" ") and not raw.startswith("  ") and name.startswith("modelspace"):
            top += cumulative
    out = {metric: first.get(module, 0.0) for metric, module in IMPORT_METRICS.items()}
    out["cli.import_modelspace_s"] = top
    return out


def interpreter_time(env):
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True, timeout=60)
    return time.perf_counter() - t0


def pass_time(results):
    return sum(r[1] for r in results)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "modelspace" / "__init__.py").is_file():
        sys.exit(f"no modelspace sources under {ROOT / 'src'}")
    if importlib.util.find_spec("mpmath") is None:
        sys.exit("perfbench needs mpmath, for its 50-digit distance oracle: pip install mpmath")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args.seconds = args.seconds or spec["run_seconds"]
    deadline = time.monotonic() + WORKER_TIMEOUT

    setups = [run_worker(args, "setup", deadline)[0] for _ in range(SETUP_REPEATS - 1)]
    setup, report = run_worker(args, "trace" if args.trace else "measure", deadline)
    setups.append(setup)
    results = [r for p in report["passes"] for r in p]
    probe = report.get("probe", [])
    for name, _, ok, detail, fault in results + probe:
        if not ok:
            print(f"failed{f' ({fault})' if fault else ''}: {name}: {detail}", file=sys.stderr)

    if args.trace:
        env = child_env()
        values = dict(report["layers"])
        untraced, traced = report["passes"]
        values["trace.overhead_s"] = pass_time(traced) - pass_time(untraced)
        probes = [import_profile(env) for _ in range(PROBE_REPEATS)]
        for metric in probes[0]:
            values[metric] = statistics.median(p[metric] for p in probes)
        values["cli.interpreter_s"] = statistics.median(
            interpreter_time(env) for _ in range(PROBE_REPEATS))
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(pass_time(p) for p in report["passes"]),
            "peak_rss_mib": report["rss_mib"],
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": all(r[2] or r[4] for r in results) and all(r[2] for r in probe),
        "attempted": len(results),
        "failed": sum(not r[2] for r in results),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
