"""One workload in a fresh process.

    python perfbench/worker.py <workload> <seed> <seconds> <setup|measure|trace>

Sets the workload up (imports, inputs, warm-up) and prints ``READY``; the
parent times set-up up to that line.  ``setup`` exits there.  ``measure``
runs whole passes while the next one is predicted to end within
``seconds`` (at least one).  ``trace`` runs one pass untraced and one with
layer tracing on, then, on the warm workloads, the CLI script once through
``launch.py`` for the cli layer's metrics (its results are a ``probe``,
not operations of the workload).  The last line printed is a JSON
report.  Its peak resident memory is read after the first pass: later
passes only add allocator fragmentation, which varied by 60 MiB between
runs.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import tracer as tr
from workloads import WORKLOADS, CliCold, run_ops

HERE = Path(__file__).resolve().parent


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_cli_pass(cli, trace_dir):
    """One pass of the CLI script, each command through launch.py:
    its results and the traces of its processes merged."""
    cli.trace_dir = trace_dir
    trace_dir.mkdir(exist_ok=True)
    for old in trace_dir.iterdir():
        old.unlink()
    results = run_ops(cli.ops)
    return results, tr.merge([json.loads(p.read_text()) for p in sorted(trace_dir.iterdir())])


def main():
    workload, seed, seconds, mode = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{workload}-{seed}"
    if workload == "cli-cold":
        w = WORKLOADS[workload](seed, workdir=out_dir / f"{tag}-inputs")
    else:
        w = WORKLOADS[workload](seed)
    w.warm_up()
    print("READY", flush=True)
    if mode == "setup":
        return

    report = {}
    if mode == "measure":
        passes = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(run_ops(w.ops))
            last = time.perf_counter() - t0
            report.setdefault("rss_mib", peak_rss_mib())
            if time.perf_counter() - start + last > seconds:
                break
        report["passes"] = passes
    else:
        untraced = run_ops(w.ops)
        report["rss_mib"] = peak_rss_mib()
        if workload == "cli-cold":
            traced, trace = traced_cli_pass(w, out_dir / f"{tag}-traces")
        else:
            tracer = tr.Tracer()
            tracer.install()
            traced = run_ops(w.ops, tracer)
            tracer.uninstall()
            trace = tracer.dump()
        report["layers"] = tr.per_layer(trace)
        if workload != "cli-cold":
            # this workload never enters the CLI: for cli.main_s and
            # cli.self_s the CLI script runs once through the launcher
            cli = CliCold(seed, workdir=out_dir / f"{tag}-cli-inputs")
            report["probe"], cli_trace = traced_cli_pass(cli, out_dir / f"{tag}-cli-traces")
            report["layers"].update((k, v) for k, v in tr.per_layer(cli_trace).items()
                                    if k.startswith("cli."))
        tr.write(trace, out_dir / f"trace-{tag}.jsonl")
        report["passes"] = [untraced, traced]
    if workload == "cli-cold":
        report["rss_mib"] = w.max_rss_mib
    print(json.dumps(report))


if __name__ == "__main__":
    main()
