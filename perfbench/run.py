"""Benchmark of the netscreen pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One workload per process. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The lines
before it are a readable summary. The full record of the run (environment,
digests, per-op times, the spans of a traced run) goes to
.perfbench_out/<workload>-seed<N>-trace<T>.json under the checkout root.

``--workload all`` runs every workload twice, untraced and then traced, each
in a fresh process, prints every figure by name with its unit, and fails
unless every op passed and both runs of a workload gave the same digest.

The program is imported from the checkout's src/ directory; the run exits
with status 2, printing no result, when it is not there.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
NAMES = ("replicate_ex1", "screen_n5000", "interactions_ex3", "simulate_io")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> None:
    """Cap BLAS threads at the cores this process may use (before numpy)."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        cur = os.environ.get(var, "")
        want = min(int(cur), nproc) if cur.isdigit() and int(cur) > 0 \
            else nproc
        os.environ[var] = str(want)


def import_netscreen():
    """The netscreen package of this checkout, or None if it is missing."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        ns = importlib.import_module("netscreen")
    except ImportError as err:
        print(f"cannot import netscreen from {src}: {err}", file=sys.stderr)
        return None
    if not Path(ns.__file__).resolve().is_relative_to(src):
        print(f"netscreen came from {ns.__file__}, not {src}",
              file=sys.stderr)
        return None
    return ns


def print_summary(res: dict, units: dict) -> None:
    env = res["env"]
    print(f"workload {res['workload']}  seed {res['seed']}  "
          f"seconds {res['seconds']}  trace {res['trace']}  "
          f"ops {res['attempted']}  failed {res['failed']}")
    print(f"  env nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} "
          + " ".join(f"{k}={v}" for k, v in env["blas_threads"].items()))
    named = {key: (value, units[key]) for key, value in res["metrics"].items()}
    named.update(res["named"])
    for key, (value, unit) in named.items():
        print(f"  {key:<44} {value:.6g} {unit}")
    if not res["trace"]:
        tail = res["tail"]
        print(f"  (op_tail_ms is p{tail['percentile']:.1f} of "
              f"{tail['samples']} ops, {tail['beyond']} beyond it; the "
              "slowest op when there are too few)")
    print(f"  digest {res['digest']}")
    for line in res["failures"][:3]:
        print(f"  FAILURE {line}", file=sys.stderr)


def run_one(args) -> int:
    cap_blas_threads()
    ns = import_netscreen()
    if ns is None:
        return 2
    import harness

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_DIR / f"{stem}-work-{os.getpid()}"
    try:
        res = harness.run_workload(ns, args.workload, args.seed,
                                   args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(res) + "\n")
    units = {**{k: u for k, (u, _) in harness.END_TO_END.items()},
             **harness.per_layer_units()}
    print_summary(res, units)
    metrics = {key: {"value": value, "unit": units[key]}
               for key, value in res["metrics"].items()}
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    ok = True
    for name in NAMES:
        digests = []
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            print(proc.stdout, end="")
            print(proc.stderr, end="", file=sys.stderr)
            if proc.returncode != 0:
                return proc.returncode
            stem = f"{name}-seed{args.seed}-trace{trace}"
            res = json.loads((OUT_DIR / f"{stem}.json").read_text())
            ok &= res["failed"] == 0
            digests.append(res["digest"])
        same = digests[0] == digests[1]
        ok &= same
        print(f"{name}: untraced and traced digests "
              f"{'equal' if same else 'DIFFER'}\n")
    print("all workloads passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
