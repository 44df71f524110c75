"""Self-tests of the benchmark, at toy size.

    python3 -m pytest perfbench/tests

Every workload runs once untraced and once traced. The tests check that the
runs pass, that both give the same digest, that span self times add up to
each traced op's wall time, and that a corrupted output counts as a failure.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import netscreen as ns  # noqa: E402

import harness  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 3
SECONDS = 0.2
# span self times of an op may fall short of its wall time by the cost of
# installing and removing the wrappers around it: at most this much
ADD_UP_ABS_S, ADD_UP_REL = 0.005, 0.02


def _run(name, trace, tmp_path):
    return harness.run_workload(ns, name, SEED, SECONDS, trace,
                                tmp_path / f"{name}-{int(trace)}", size="toy")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("runs")
    return {(name, trace): _run(name, trace, tmp)
            for name in workloads.WORKLOADS for trace in (False, True)}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_passes_and_reports_end_to_end(runs, name):
    res = runs[name, False]
    assert res["failed"] == 0, res["failures"]
    assert res["attempted"] >= workloads.WORKLOADS[name].digest_ops
    assert set(res["metrics"]) == set(harness.END_TO_END)
    assert all(v > 0 for v in res["metrics"].values())
    wl = workloads.WORKLOADS[name]
    assert set(res["named"]) == {*wl.stages, *wl.aliases, "op_tail_ms",
                                 "fail_frac"}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(runs, name):
    res = runs[name, True]
    assert res["failed"] == 0, res["failures"]
    assert set(res["metrics"]) == set(harness.per_layer_units())
    assert res["digest"] == runs[name, False]["digest"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_span_self_times_add_up_to_op_wall(runs, name):
    res = runs[name, True]
    recorded = [spans.Span.from_dict(s) for s in res["spans"]]
    selfs = spans.self_times(recorded)
    assert min(selfs) >= -1e-9
    traced_ops = range(0, res["attempted"], 2)
    for op in traced_ops:
        total = sum(t for s, t in zip(recorded, selfs) if s.op == op)
        wall = res["op_walls_s"][op]
        assert total <= wall
        assert wall - total <= ADD_UP_ABS_S + ADD_UP_REL * wall, (op, wall)


def test_layers_a_workload_never_calls_report_zero(runs):
    sim = runs["simulate_io", True]["metrics"]
    assert sim["counts.tally_edges.calls"] == 0
    assert sim["screening.plr_sis.self_s"] == 0
    assert sim["io.write_dataset.bytes"] > 0
    screen = runs["screen_n5000", True]["metrics"]
    assert screen["counts.tally_edges.edge_cols"] > 0
    assert screen["io.read_dataset.calls"] == 0


def _corrupt_replicate(out):
    out["plr"]["d_hat"] += 1
    return out


def _corrupt_screen(out):
    lam = np.asarray(out["plr"].lam) * (1 + 1e-7)
    out["plr"] = dataclasses.replace(out["plr"], lam=lam)
    return out


def _corrupt_interactions(out):
    keys = [k for k in out["plr"].selected.keys() if k != "3&4"]
    out["plr"] = dataclasses.replace(
        out["plr"], selected=ns.FeatureSet.from_keys(keys))
    return out


def _corrupt_io(out):
    written, back, paths = out
    x = back.x.copy()
    x[0, 0] = 3 - x[0, 0]  # binary levels 1 <-> 2
    back = ns.validate(ns.NodeDataset(back.y, x, back.edges,
                                      r_levels=back.r_levels,
                                      k_levels=back.k_levels))
    return written, back, paths


CORRUPTIONS = {
    "replicate_ex1": _corrupt_replicate,
    "screen_n5000": _corrupt_screen,
    "interactions_ex3": _corrupt_interactions,
    "simulate_io": _corrupt_io,
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_corrupted_output_counts_as_failure(name, tmp_path, monkeypatch):
    base = workloads.WORKLOADS[name]
    corrupt = CORRUPTIONS[name]

    class Corrupted(base):
        def op(self, i):
            out, stages = super().op(i)
            return corrupt(out), stages

    monkeypatch.setitem(workloads.WORKLOADS, name, Corrupted)
    res = _run(name, False, tmp_path)
    assert res["failed"] == res["attempted"] >= 1
    assert "check failed" in res["failures"][0]


def test_raising_op_counts_as_failure(tmp_path, monkeypatch):
    class Raising(workloads.SimulateIo):
        def op(self, i):
            raise RuntimeError("boom")

    monkeypatch.setitem(workloads.WORKLOADS, "simulate_io", Raising)
    res = _run("simulate_io", False, tmp_path)
    assert res["failed"] == res["attempted"] >= 1
    assert "boom" in res["failures"][0]


def test_replication_bars_catch_false_keeps():
    wl = workloads.ReplicateEx1(ns, SEED, "toy", None)
    truth = set(workloads.TRUE_MAINS)
    wl.kept = [truth] * 40
    wl.finish()
    wl.kept = [truth | {"9"}] * 40
    with pytest.raises(workloads.CheckFailed, match="IMF"):
        wl.finish()
    wl.kept = [truth - {"4"}] * 40
    with pytest.raises(workloads.CheckFailed, match="CMF"):
        wl.finish()


def test_reference_lambda_matches_the_package():
    config = ns.example_config(6, n=150, p=8)
    data, _ = ns.generate(config, seed=5)
    lam, _, _ = ns.batch_statistics(data)
    for j in range(1, data.p + 1):
        ref = workloads.reference_lambda(data.y, data.column(j), data.edges,
                                         data.r_levels,
                                         int(data.k_levels[j - 1]))
        assert ref == pytest.approx(lam[j - 1], rel=1e-10)


def test_tail_needs_ten_samples_beyond_it():
    assert harness.tail([1.0, 2.0, 3.0]) == (3.0, 100.0, 0)
    value, pct, beyond = harness.tail(list(range(100)))
    assert (value, pct, beyond) == (89, 90.0, 10)


def test_benchmark_json_matches_what_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        harness.per_layer_units()


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate_io",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
