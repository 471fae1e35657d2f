"""mftk benchmark: ``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``.

Run from the repository root. Builds nothing (mftk is pure Python and is
imported from ``src``). With ``--trace 0`` it prints every end-to-end
metric of BENCHMARK.json, with ``--trace 1`` every per-layer metric; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
run's provenance. See bench/README.md for the workloads and metrics.

Stdlib only: the workers do all mftk and numpy work.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("verify_batch", "discover")
SETUP_PROBES = 4  # extra set-up-only processes; with the measured run, 5 samples
RUN_TIMEOUT_S = 170
BLAS_THREADS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                       "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                       "NUMEXPR_NUM_THREADS")}
HELD_OUT_SEED = 4242  # never used while tuning; later claims are re-checked on it


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def start_worker(args, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    # A session of its own, so a timeout can stop the worker's children too.
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            start_new_session=True)


def read_ready(proc, deadline):
    """Block until the worker prints its ``ready`` line; returns any bytes after it."""
    buf = b""
    while b"\n" not in buf:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("worker set-up timed out")
        readable, _, _ = select.select([proc.stdout], [], [], remaining)
        if readable:
            chunk = os.read(proc.stdout.fileno(), 65536)
            if not chunk:
                raise BenchError("worker exited during set-up")
            buf += chunk
    line, rest = buf.split(b"\n", 1)
    if line.strip() != b"ready":
        raise BenchError(f"unexpected worker output {line[:200]!r}")
    return rest


def finish(proc, rest, deadline):
    out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = (rest + out).decode().strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def timed_worker(args, deadline, setup_only):
    """Start a worker; returns (seconds from process start to ready, result or None)."""
    start = time.perf_counter()
    proc = start_worker(args, setup_only)
    try:
        rest = read_ready(proc, deadline)
        setup = time.perf_counter() - start
        if setup_only:
            proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
            return setup, None
        return setup, finish(proc, rest, deadline)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def run(args, spec):
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setup_samples.append(timed_worker(args, deadline, setup_only=True)[0])
    setup, out = timed_worker(args, deadline, setup_only=False)
    result = out["result"]
    metrics = result["metrics"]
    if args.trace:
        declared = spec["per_layer"]
        values = {k: v["value"] for k, v in metrics.items()}
    else:
        declared = spec["end_to_end"]
        values = dict(metrics)
        setup_samples.append(setup)
        values["setup_s"] = statistics.median(setup_samples)
        result["detail"]["setup_samples_s"] = setup_samples
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        raise BenchError(f"metric set mismatch: got {sorted(values)}, declared {sorted(names)}")
    bad = [k for k, v in values.items() if not isinstance(v, (int, float)) or not math.isfinite(v)]
    if bad:
        raise BenchError(f"non-finite metrics: {bad}")
    final = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "held_out_seed": HELD_OUT_SEED,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)), "blas_env": BLAS_THREADS,
        "detail": result.get("detail", {}), "workload_inputs": out.get("provenance", {}),
    }
    return final, provenance


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join("src", "mftk", "__init__.py")):
            raise BenchError("src/mftk not found: run from the repository root")
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        final, provenance = run(args, spec)
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(".bench_out", exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(".bench_out", name), "w", encoding="utf-8") as fh:
        json.dump({"provenance": provenance, "result": final}, fh, indent=1)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
