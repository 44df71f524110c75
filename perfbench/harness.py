"""Closed-loop driver: set-up, timed ops, checks, digests and metrics.

A run sets its workload up SETUP_REPEATS times and reports the median, then
runs ops back to back until the time budget is spent (and at least the ops
the digest covers have run). Checks and digests run between ops, outside
the timed region.

An untraced run reports the end-to-end metrics. A traced run alternates
traced and untraced ops, starting with a traced one: the traced ops give the
per-layer metrics and the gap between the two kinds of op gives the tracing
overhead.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import time
import traceback

import numpy as np
import scipy

import spans
from workloads import WORKLOADS, CheckFailed

SETUP_REPEATS = 3
TAIL_BEYOND = 10  # the tail is the highest percentile with this many beyond

# name -> (unit, better); reported by every workload with tracing off
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in spans.span_names() + [spans.OP_SPAN]:
        units[f"{name}.self_s"] = "s"
        if name != spans.OP_SPAN:
            units[f"{name}.calls"] = "count"
        units[f"{name}.rss_rise_mb"] = "MB"
    units[f"{spans.SETUP_SPAN}.rss_rise_mb"] = "MB"
    for name, counters in spans.COUNTERS.items():
        for key in counters:
            units[f"{name}.{key}"] = "B" if "bytes" in key else "count"
    units["trace.overhead_frac"] = "frac"
    return units


def environment(ns) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "netscreen": ns.__version__,
        "platform": platform.platform(),
        "blas_threads": {var: val for var, val in sorted(os.environ.items())
                         if var.endswith("_NUM_THREADS")},
    }


def tail(values):
    """(value, percentile, samples beyond) of the highest percentile that
    has TAIL_BEYOND samples beyond it. With too few samples for that
    percentile to sit above the median, the maximum."""
    v = sorted(values)
    idx = len(v) - TAIL_BEYOND - 1
    if 2 * (idx + 1) <= len(v):
        return v[-1], 100.0, 0
    return v[idx], 100.0 * (idx + 1) / len(v), TAIL_BEYOND


def _median(values):
    return statistics.median(values) if values else float("nan")


def run_workload(ns, name: str, seed: int, seconds: float, trace: bool,
                 workdir, size: str = "full") -> dict:
    """Run one workload and return its result record."""
    wl = WORKLOADS[name](ns, seed, size, workdir)
    tracer = spans.Tracer() if trace else None

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        if tracer:
            with tracer.recording(-1, spans.SETUP_SPAN):
                wl.setup()
        else:
            wl.setup()
        setup_times.append(time.perf_counter() - t0)
    wl.after_setup()

    min_ops = max(wl.digest_ops, 2 if trace else 1)
    walls, traced_walls, plain_walls = [], [], []
    stage_times = {key: [] for key in wl.stages}
    digests, failures = {}, []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        traced = tracer is not None and i % 2 == 0
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.recording(i):
                    out, stages = wl.op(i)
            else:
                out, stages = wl.op(i)
        except Exception:
            wall = time.perf_counter() - t0
            failures.append(f"op {i} raised:\n{traceback.format_exc()}")
            out = None
        else:
            wall = time.perf_counter() - t0
        walls.append(wall)
        (traced_walls if traced else plain_walls).append(wall)
        if out is not None:
            try:
                wl.check(i, out)
                digest = hashlib.sha256(wl.canonical(out)).hexdigest()
                if wl.same_output and i > 0 and digest != digests.get(0):
                    raise CheckFailed("output differs from op 0's")
                digests[i] = digest
                for key in stage_times:
                    stage_times[key].append(stages[key])
            except Exception as err:  # a malformed output can break a check
                failures.append(f"op {i} check failed: {err!r}")
        i += 1
    attempted = i
    failed = attempted - len(digests)
    try:
        wl.finish()
    except CheckFailed as err:
        failures.append(f"run check failed: {err}")
        failed = attempted

    run_digest = hashlib.sha256("".join(
        digests.get(k, "failed") for k in range(wl.digest_ops)).encode())
    result = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "size": size, "env": environment(ns),
        "attempted": attempted, "failed": failed, "failures": failures,
        "digest": run_digest.hexdigest(),
        "op_digests": [digests.get(k) for k in range(min(attempted, 32))],
        "setup_times_s": setup_times, "op_walls_s": walls,
    }
    value, pct, beyond = tail(walls)
    figures = {
        "setup_s": _median(setup_times),
        "peak_rss_mb": spans.max_rss_mb(),
        "ops_per_s": attempted / sum(walls),
        "op_p50_ms": 1000.0 * _median(walls),
    }
    result["tail"] = {"percentile": pct, "beyond": beyond,
                      "samples": len(walls)}
    # Figures under the names the workload's users know them by. The tail
    # is among them, not among the end-to-end metrics: the workloads with a
    # few long ops have no percentile with ten ops beyond it.
    named = {}
    if not trace:
        named = {alias: (figures[key], unit)
                 for alias, (key, unit) in wl.aliases.items()}
        named["op_tail_ms"] = (1000.0 * value, "ms")
    named.update({key: (_median(v), "s") for key, v in stage_times.items()})
    named["fail_frac"] = (failed / attempted, "frac")
    result["named"] = named
    if trace:
        layer = spans.layer_metrics(tracer.spans, len(traced_walls))
        layer["trace.overhead_frac"] = (
            _median(traced_walls) / _median(plain_walls) - 1.0)
        result["metrics"] = layer
        result["spans"] = [s.to_dict() for s in tracer.spans]
    else:
        result["metrics"] = figures
    return result
