"""The closed loop and the statistics every workload reports. Stdlib only."""

from __future__ import annotations

import statistics
import time

OUT_DIR = ".bench_out"
TAIL_BEYOND = 10  # a tail percentile needs at least this many samples above it
FAILED_LATENCY = 1e9  # stands in for a failed operation, slower than any completed one


def timed(run, item):
    start = time.perf_counter()
    out = run(item)
    return out, time.perf_counter() - start


def overhead_head(pool):
    """The part of the pool the traced run also runs untraced, for the overhead ratio."""
    return pool[:max(1, len(pool) // 4)]


def run_loop(run, pool, seconds):
    """Run pool items in order, one at a time, cycling, until ``seconds`` have
    passed and every item has run at least once. Returns (ops, elapsed)."""
    ops = []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        op, latency = timed(run, pool[i % len(pool)])
        op.latency = latency
        ops.append(op)
        i += 1
        if i >= len(pool) and time.perf_counter() >= deadline:
            return ops, time.perf_counter() - start


def median(values):
    return statistics.median(values) if values else float("nan")


def tail(values):
    """(value, percentile, samples): the highest order statistic with at least
    TAIL_BEYOND samples above it; the median when there are too few samples."""
    xs = sorted(values)
    n = len(xs)
    if n < 2 * TAIL_BEYOND + 1:
        return median(xs), 50.0, n
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def _latency(op):
    return FAILED_LATENCY if op.status == "failed" else op.latency


def check_report(ops, declared):
    """Which declared output checks ran at least once, and which never did."""
    ran = set().union(*(op.checks for op in ops))
    return {"checks_run": sorted(ran), "checks_missing": sorted(set(declared) - ran)}


def end_to_end(ops, elapsed, pool_size, declared_checks):
    """Every end-to-end metric except set-up time, plus the counts behind them.

    Ratios come from the first pass over the pool, where each seeded input
    runs once, so they repeat exactly for a seed; timings use every operation.
    """
    first = ops[:pool_size]
    timed = [_latency(op) for op in ops if op.timed]
    negatives = []
    for op in ops:
        if op.negative:
            negatives.append(_latency(op))
        negatives.extend(op.negatives)
    tail_value, tail_pct, tail_n = tail(timed)
    positives = sum(op.positives for op in first)
    failed = sum(op.status == "failed" for op in ops)
    return {
        "attempted": len(ops),
        "failed": failed,
        "correct": failed == 0,
        "metrics": {
            "ops_per_s": len(ops) / elapsed,
            "op_p50_s": median(timed),
            "op_tail_s": tail_value,
            "ok_ratio": sum(op.status == "ok" for op in first) / len(first),
            "found_ratio": sum(op.found for op in first) / positives if positives else 1.0,
            "exhausted_p50_s": median(negatives),
        },
        "detail": {
            "elapsed_s": elapsed,
            "op_tail_percentile": tail_pct,
            "op_latency_samples": tail_n,
            "negative_verdict_samples": len(negatives),
            "first_pass_ops": len(first),
            "first_pass_unsupported": sum(op.status == "unsupported" for op in first),
            "first_pass_failed": sum(op.status == "failed" for op in first),
            "first_pass_positives": positives,
            "errors": sorted({e for op in ops for e in op.errors})[:5],
            **check_report(ops, declared_checks),
        },
    }


def traced_result(ops, layers, declared_checks):
    failed = sum(op.status == "failed" for op in ops)
    return {
        "attempted": len(ops),
        "failed": failed,
        "correct": failed == 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "detail": {"errors": sorted({e for op in ops for e in op.errors})[:5],
                   **check_report(ops, declared_checks)},
    }


def import_layers(runs):
    """import.* metrics as the median over ``-X importtime`` parses."""
    return {
        "import.mftk_s": (median([r.get("mftk", 0.0) for r in runs]), "s"),
        "import.scipy_optimize_s": (median([r.get("scipy.optimize", 0.0) for r in runs]), "s"),
    }
