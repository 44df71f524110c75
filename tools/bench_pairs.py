"""Alternating, CPU-pinned parent/change pairs of perfbench workloads.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [W ...] \
        --pairs N --seed S

Extracts both revisions with ``git archive`` into a temporary directory.
For each workload W in turn, pair i runs ``perfbench/run.py --workload W
--seed S+i --trace 0`` once in each checkout, for the run_seconds (20) of
the change's BENCHMARK.json, the parent first in even pairs and the change
first in odd ones. Every child is pinned to the highest CPU this process may
use, since unpinned runs on a small VM switch between a fast and a slow
mode. Each child's record in .perfbench_out gives the BLAS thread
settings it ran with (run.py caps them at the CPUs a process may use, so
pinned children run BLAS on one thread); each table's header names them.
Then, one table per workload, for every end-to-end metric that
BENCHMARK.json declares, it prints the parent and change medians, the
parent's interquartile range, the pairs the change won, "unresolved" when
that range is at least the gap between the medians, and "beyond bound" when
the change's median is worse than the parent's by more than the metric's
bound, a fraction of the parent's median (the benchmark's no-regression
rule). The checkouts are removed at the end, also after a failure.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartile_range(values) -> float:
    """Upper minus lower quartile (linear interpolation, as numpy's
    default percentile); 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(parent_runs, change_runs, metrics) -> list[dict]:
    """One row per (name, better, bound) in metrics from paired runs.

    parent_runs[i] and change_runs[i] map metric names to values for pair
    i. The change wins a pair when its value is strictly better, lower or
    higher as better says. A row is beyond its bound when the change's
    median is worse than the parent's by more than bound times the
    parent's median.
    """
    rows = []
    for name, better, bound in metrics:
        parent = [run[name] for run in parent_runs]
        change = [run[name] for run in change_runs]
        sign = 1.0 if better == "lower" else -1.0
        p_med, c_med = statistics.median(parent), statistics.median(change)
        iqr = quartile_range(parent)
        rows.append({
            "metric": name, "better": better,
            "parent_median": p_med, "change_median": c_med,
            "parent_iqr": iqr,
            "wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "pairs": len(parent),
            "unresolved": iqr >= abs(c_med - p_med),
            "beyond_bound": sign * (c_med - p_med) > bound * abs(p_med),
        })
    return rows


def format_rows(rows) -> str:
    lines = [f"{'metric':<12} {'parent':>10} {'change':>10} "
             f"{'parent IQR':>10} {'wins':>6}"]
    for row in rows:
        lines.append(
            f"{row['metric']:<12} {row['parent_median']:>10.4g} "
            f"{row['change_median']:>10.4g} {row['parent_iqr']:>10.4g} "
            f"{row['wins']:>3}/{row['pairs']}"
            + ("  unresolved" if row["unresolved"] else "")
            + ("  beyond bound" if row["beyond_bound"] else ""))
    return "\n".join(lines)


def blas_text(parent_envs, change_envs) -> str:
    """The BLAS thread settings of the runs of both sides, each a mapping
    of *_NUM_THREADS variables to values (None when a run recorded none),
    as one line: the settings once when both sides ran the same ones."""
    def side(envs):
        seen = {" ".join(f"{var}={val}" for var, val in sorted(env.items()))
                if env is not None else "not recorded" for env in envs}
        return "; ".join(sorted(seen)) or "none set"

    parent, change = side(parent_envs), side(change_envs)
    if parent == change:
        return f"BLAS {parent}"
    return f"BLAS parent {parent}, change {change}"


def format_report(tables, pairs: int, seed: int, cpu: int,
                  seconds: float) -> str:
    """One titled table per (workload, rows, blas line) in tables."""
    return "\n\n".join(
        f"{workload}, {pairs} pairs, seeds {seed}..{seed + pairs - 1}, "
        f"CPU {cpu}, {seconds:g} s runs, {blas}\n{format_rows(rows)}"
        for workload, rows, blas in tables)


def export(rev: str, path: Path) -> None:
    """The files of revision rev under path."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(path, filter="data")


def run_side(checkout: Path, workload: str, seed: int, seconds: float,
             cpu: int) -> tuple[dict, dict | None]:
    """End-to-end metric values of one untraced run in checkout, and the
    BLAS thread settings its record gives (None if it has none)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    if not result.get("correct"):
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} failed "
                           f"(exit {proc.returncode}):\n{proc.stderr}")
    record = checkout / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json"
    env = json.loads(record.read_text()).get("env", {})
    return ({name: m["value"] for name, m in result["metrics"].items()},
            env.get("blas_threads"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seed < 0:
        parser.error("need --pairs >= 1 and --seed >= 0")
    cpu = max(os.sched_getaffinity(0))

    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    sides = {"parent": tmp / "parent", "change": tmp / "change"}
    try:
        for side, path in sides.items():
            export(getattr(args, side), path)
        spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
        metrics = [(m["name"], m["better"], m["bound"])
                   for m in spec["end_to_end"]]
        seconds = spec["run_seconds"]
        tables = []
        for workload in args.workload:
            runs = {"parent": [], "change": []}
            blas = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = (("parent", "change") if i % 2 == 0
                         else ("change", "parent"))
                for side in order:
                    values, env = run_side(sides[side], workload,
                                           args.seed + i, seconds, cpu)
                    runs[side].append(values)
                    blas[side].append(env)
                print(f"{workload} pair {i + 1} seed {args.seed + i} "
                      f"({order[0]} first): "
                      + ", ".join(f"{name} {runs['parent'][i][name]:.4g}"
                                  f"->{runs['change'][i][name]:.4g}"
                                  for name, _, _ in metrics), flush=True)
            tables.append((workload,
                           summarize(runs["parent"], runs["change"], metrics),
                           blas_text(blas["parent"], blas["change"])))
        print("\n" + format_report(tables, args.pairs, args.seed, cpu,
                                   seconds))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
