import importlib.util
import re
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load("bench_pairs")
digests = _load("digests")


def test_quartile_range_interpolates_like_numpy():
    # numpy.percentile([1, 2, 3, 4, 10], [25, 75]) is [2, 4]
    assert bench_pairs.quartile_range([10, 1, 3, 2, 4]) == 2.0
    # [1.75, 3.25] for four values
    assert bench_pairs.quartile_range([4, 3, 2, 1]) == 1.5
    assert bench_pairs.quartile_range([7.0]) == 0.0


def test_pair_summary_on_canned_runs():
    parent = [{"ops_per_s": v, "setup_s": s, "op_p50_ms": t,
               "peak_rss_mb": 100.0} for v, s, t in
              ((10.0, 0.30, 50.0), (11.0, 0.25, 52.0), (12.0, 0.32, 48.0),
               (9.0, 0.28, 51.0), (10.5, 0.35, 49.0))]
    change = [{"ops_per_s": v, "setup_s": s, "op_p50_ms": t,
               "peak_rss_mb": m} for v, s, t, m in
              ((13.0, 0.29, 61.0, 111.0), (10.0, 0.26, 62.0, 110.5),
               (14.0, 0.31, 60.0, 111.5), (12.0, 0.28, 63.0, 111.0),
               (15.0, 0.30, 64.0, 112.0))]
    rows = bench_pairs.summarize(parent, change, [
        ("ops_per_s", "higher", 0.25), ("setup_s", "lower", 0.25),
        ("op_p50_ms", "lower", 0.25), ("peak_rss_mb", "lower", 0.1)])
    ops, setup, p50, rss = rows
    # ops: parent sorted 9, 10, 10.5, 11, 12 -> median 10.5, IQR 11 - 10
    assert (ops["parent_median"], ops["change_median"]) == (10.5, 13.0)
    assert ops["parent_iqr"] == 1.0
    assert (ops["wins"], ops["pairs"]) == (4, 5)  # pair 2 went 11 -> 10
    assert not ops["unresolved"]  # gap 2.5 > IQR 1
    assert not ops["beyond_bound"]  # better, not worse
    # setup: lower is better; the tie at 0.28 is no win
    assert setup["parent_median"] == 0.30 and setup["change_median"] == 0.29
    assert setup["parent_iqr"] == pytest.approx(0.32 - 0.28)
    assert setup["wins"] == 3
    assert setup["unresolved"]  # gap 0.01 <= IQR 0.04
    assert not setup["beyond_bound"]
    # p50 50 -> 62 is 24% worse, inside its 25% bound
    assert (p50["parent_median"], p50["change_median"]) == (50.0, 62.0)
    assert p50["wins"] == 0 and not p50["unresolved"]
    assert not p50["beyond_bound"]
    # peak 100 -> 111 is 11% worse, beyond its 10% bound
    assert rss["change_median"] == 111.0 and rss["beyond_bound"]
    table = bench_pairs.format_rows(rows).splitlines()
    assert len(table) == 5
    assert table[1].split()[:5] == ["ops_per_s", "10.5", "13", "1", "4/5"]
    assert table[2].endswith("unresolved")
    assert not table[1].endswith("unresolved")
    assert table[3].split()[-1] == "0/5"
    assert table[4].endswith("0/5  beyond bound")


def test_report_prints_one_table_per_workload():
    metric = [("ops_per_s", "higher", 0.25)]
    better = bench_pairs.summarize([{"ops_per_s": 10.0}] * 3,
                                   [{"ops_per_s": 12.0}] * 3, metric)
    worse = bench_pairs.summarize([{"ops_per_s": 10.0}] * 3,
                                  [{"ops_per_s": 7.0}] * 3, metric)
    text = bench_pairs.format_report(
        [("replicate_ex1", better, "BLAS OPENBLAS_NUM_THREADS=1"),
         ("simulate_io", worse, "BLAS none set")], pairs=3,
        seed=21, cpu=1, seconds=20)
    first, second = text.split("\n\n")
    assert first.splitlines()[0] == (
        "replicate_ex1, 3 pairs, seeds 21..23, CPU 1, 20 s runs, "
        "BLAS OPENBLAS_NUM_THREADS=1")
    assert first.splitlines()[2].split()[:5] == [
        "ops_per_s", "10", "12", "0", "3/3"]
    assert not first.endswith("beyond bound")
    assert second.splitlines()[0].startswith("simulate_io, 3 pairs")
    assert second.endswith("0/3  beyond bound")


def test_blas_line_names_each_side_once():
    one = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    two = {"OMP_NUM_THREADS": "2", "OPENBLAS_NUM_THREADS": "2"}
    assert bench_pairs.blas_text([one, one], [one, dict(one)]) == \
        "BLAS OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1"
    assert bench_pairs.blas_text([one, two], [one]) == (
        "BLAS parent OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1; "
        "OMP_NUM_THREADS=2 OPENBLAS_NUM_THREADS=2, "
        "change OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1")
    assert bench_pairs.blas_text([None], [{}]) == \
        "BLAS parent not recorded, change none set"


def test_digests_repeat_on_a_two_entry_grid():
    names = ("generate/ex8-nnb/n80-p12-seed(5,3)", "screen/top",
             "classify/predict_scores", "classify/type3-split0.7-auc")
    entries = [entry for entry in digests.grid() if entry[0] in names]
    assert [name for name, _ in entries] == list(names)
    lines = digests.digest_lines(entries)
    assert lines == digests.digest_lines(entries)
    assert lines == sorted(lines)
    # nine score arrays, one classify.json, five generate arrays and one
    # screen.json
    assert [line.split()[0] for line in lines] == [
        f"classify/predict_scores/{kind}-{mask}"
        for kind in ("type1", "type2", "type3")
        for mask in ("all", "train0.7", "train0.7-heldout")] + [
        "classify/type3-split0.7-auc/classify.json"] + [
        f"generate/ex8-nnb/n80-p12-seed(5,3)/{part}"
        for part in ("edges", "raw", "widths", "x", "y")] + [
        "screen/top/screen.json"]
    # the three kinds' scores differ, and so do the two fits of each and
    # the held-out subset of the split fit's scores
    assert len({line.split()[1] for line in lines}) == len(lines)
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)
