"""One benchmark process: set up a workload, then run it closed-loop.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``. It prints ``ready``
once set-up is done (``run.py`` times process start to that line), then,
unless ``--setup-only``, one JSON line with the run's measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys

import stats
import tracing


def run(args, work):
    import workloads  # imports mftk, so set-up covers it

    if args.workload == "verify_batch":
        wl = workloads.VerifyBatch(args.seed, args.seconds, work)
    else:
        wl = workloads.Discover(args.seed, args.seconds)
    wl.warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return None
    if not args.trace:
        ops, elapsed = stats.run_loop(wl.run, wl.pool, args.seconds)
        out = stats.end_to_end(ops, elapsed, len(wl.pool), wl.checks)
        out["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {"result": out, "provenance": wl.provenance}

    # The overhead ratio compares the head of the pool untraced with the same
    # head traced; every count is taken over one whole traced pass.
    head = stats.overhead_head(wl.pool)
    untraced = sum(stats.timed(wl.run, item)[1] for item in head)
    rec = tracing.Recorder()
    rec.install()
    try:
        ops, seconds = [], []
        for i, item in enumerate(wl.pool):
            close = rec.begin_op(i)
            try:
                op, elapsed = stats.timed(wl.run, item)
            finally:
                close()
            ops.append(op)
            seconds.append(elapsed)
    finally:
        rec.uninstall()
    traced = sum(seconds[:len(head)])
    os.makedirs(stats.OUT_DIR, exist_ok=True)
    rec.dump(os.path.join(stats.OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json.gz"))
    table = tracing.SpanTable()
    table.add(rec.to_obj())
    layers = tracing.layer_metrics(table)
    layers.update(import_metrics())
    layers["trace.overhead_ratio"] = (traced / untraced, "ratio")
    return {"result": stats.traced_result(ops, layers, wl.checks),
            "provenance": wl.provenance}


def import_metrics(samples: int = 3):
    """Median ``import mftk`` and ``scipy.optimize`` times from ``-X importtime``."""
    runs = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mftk"],
                              capture_output=True, text=True, timeout=120, check=True)
        runs.append(tracing.parse_importtime(proc.stderr))
    return stats.import_layers(runs)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    work = os.path.abspath(os.path.join(".bench_work", f"{args.workload}-{os.getpid()}"))
    os.makedirs(work)
    try:
        out = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if out is not None:
        import numpy
        import scipy

        out["provenance"]["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
        print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
