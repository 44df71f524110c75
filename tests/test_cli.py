import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import netscreen
from netscreen import NodeDataset, ValidationError, validate
from netscreen import io as nsio
from netscreen.cli import main
from netscreen.experiment import (ExperimentReport, experiment,
                                  null_calibration)
from netscreen.io import read_dataset, read_json, write_dataset, write_json
from netscreen.screening import interaction_expand
from netscreen.simulate import example_config, generate


def simulate_dir(tmp_path, example="1", n=60, p=8, seed=1):
    d = tmp_path / "data"
    code = main(["simulate", "--example", example, "--n", str(n),
                 "--p", str(p), "--seed", str(seed), "--out", str(d)])
    assert code == 0
    return d


def test_simulate_screen_classify_chain(tmp_path):
    d = simulate_dir(tmp_path)
    for name in ("nodes.csv", "edges.csv", "metadata.json"):
        assert (d / name).exists()

    screen_out = tmp_path / "screen.json"
    code = main(["screen", "--nodes", str(d / "nodes.csv"),
                 "--edges", str(d / "edges.csv"),
                 "--metadata", str(d / "metadata.json"),
                 "--cutoff", "hard:4", "--out", str(screen_out)])
    assert code == 0
    res = read_json(screen_out)
    assert res["method"] == "plr"
    assert res["d_hat"] == 4
    assert len(res["selected"]) == 4

    cls_out = tmp_path / "cls.json"
    code = main(["classify", "--nodes", str(d / "nodes.csv"),
                 "--edges", str(d / "edges.csv"),
                 "--metadata", str(d / "metadata.json"),
                 "--screen", str(screen_out), "--kind", "type3",
                 "--auc", "--out", str(cls_out)])
    assert code == 0
    rep = read_json(cls_out)
    assert 0.0 <= rep["acc"] <= 1.0
    assert rep["auc"] is None or 0.0 <= rep["auc"] <= 1.0
    assert rep["transductive"] is True

    # explicit feature sets and a train/test split
    code = main(["classify", "--nodes", str(d / "nodes.csv"),
                 "--edges", str(d / "edges.csv"),
                 "--metadata", str(d / "metadata.json"),
                 "--s-y", "1,2", "--s-a", "3,4", "--split", "0.6",
                 "--out", str(cls_out)])
    assert code == 0
    rep = read_json(cls_out)
    assert rep["transductive"] is False
    assert rep["n_train"] + rep["n_eval"] == 60


def test_screen_accepts_interaction_modes(tmp_path):
    d = simulate_dir(tmp_path, example="3", n=80, p=6, seed=2)
    out = tmp_path / "s.json"
    code = main(["screen", "--nodes", str(d / "nodes.csv"),
                 "--edges", str(d / "edges.csv"),
                 "--metadata", str(d / "metadata.json"),
                 "--interactions", "all", "--cutoff", "hard:5",
                 "--out", str(out)])
    assert code == 0
    res = read_json(out)
    assert len(res["feature_keys"]) == 6 + 15
    assert any("&" in k for k in res["feature_keys"])


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["screen"]) == 2
    assert main(["simulate"]) == 2  # --out is required
    capsys.readouterr()


def test_validation_errors_exit_3(tmp_path, capsys):
    d = simulate_dir(tmp_path)
    missing = str(tmp_path / "nope.csv")
    assert main(["screen", "--nodes", missing,
                 "--edges", str(d / "edges.csv")]) == 3
    assert main(["simulate", "--out", str(tmp_path / "x")]) == 3
    assert main(["screen", "--nodes", str(d / "nodes.csv"),
                 "--edges", str(d / "edges.csv"),
                 "--cutoff", "banana"]) == 3
    assert main(["screen", "--nodes", str(d / "nodes.csv"),
                 "--edges", str(d / "edges.csv"),
                 "--method", "pc", "--perms", "5"]) == 3
    assert main(["classify", "--nodes", str(d / "nodes.csv"),
                 "--edges", str(d / "edges.csv")]) == 3
    capsys.readouterr()


def test_cutoff_arguments(tmp_path, capsys):
    d = simulate_dir(tmp_path)
    data = ["--nodes", str(d / "nodes.csv"), "--edges", str(d / "edges.csv"),
            "--metadata", str(d / "metadata.json")]
    out = tmp_path / "s.json"
    for method in ("plr", "pc"):
        assert main(["screen", *data, "--method", method,
                     "--cutoff", "hard:n_minus_1", "--out", str(out)]) == 0
        res = read_json(out)
        assert res["cutoff"] == "hard:59" and res["d_hat"] == 8
    for bad in ("hard:x", "hard:2.5", "pvalue:abc", "hard:n_over_2"):
        assert main(["screen", *data, "--cutoff", bad]) == 3
    assert main(["screen", *data, "--search-cap", "abc"]) == 3
    assert "--search-cap takes an integer" in capsys.readouterr().err
    for cap in ("auto", "3"):
        assert main(["screen", *data, "--search-cap", cap,
                     "--out", str(out)]) == 0
    assert main(["experiment", "--example", "1", "--n", "40", "--p", "5",
                 "--reps", "1", "--cutoff", "pvalue:abc",
                 "--out", str(tmp_path / "e")]) == 3
    capsys.readouterr()
    for bad in ("pvalue:nan", "pvalue:0", "pvalue:1.5", "hard:0"):
        assert main(["screen", *data, "--cutoff", bad]) == 3
    assert "alpha must be a number in (0, 1], not nan" in \
        capsys.readouterr().err.splitlines()[0]


def test_screen_rejects_negative_perms(tmp_path, capsys):
    d = simulate_dir(tmp_path)
    assert main(["screen", "--nodes", str(d / "nodes.csv"),
                 "--edges", str(d / "edges.csv"), "--perms", "-2",
                 "--out", str(tmp_path / "s.json")]) == 3
    assert "perms must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_screen_refuses_search_cap_below_one(tmp_path, capsys, cap):
    """A cap below one used to keep a single feature and exit 0."""
    d = simulate_dir(tmp_path, n=200)
    out = tmp_path / "s.json"
    assert main(["screen", "--nodes", str(d / "nodes.csv"),
                 "--edges", str(d / "edges.csv"), "--search-cap", cap,
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"error: search_cap must be a whole number >= 1, not {cap}\n")
    assert not out.exists()


@pytest.mark.parametrize("smoothing", ["inf", "nan", "0", "-1"])
def test_classify_refuses_smoothing_that_is_not_positive_and_finite(
        tmp_path, capsys, smoothing):
    """An infinite smoothing used to exit 0 with NaN scores and write a
    non-JSON Infinity."""
    d = simulate_dir(tmp_path)
    out = tmp_path / "c.json"
    assert main(["classify", "--nodes", str(d / "nodes.csv"),
                 "--edges", str(d / "edges.csv"), "--s-y", "1",
                 "--smoothing", smoothing, "--out", str(out)]) == 3
    assert "smoothing must be a positive finite number" in \
        capsys.readouterr().err
    assert not out.exists()


def test_degenerate_data_exits_4(tmp_path, capsys):
    # a declared response level with no nodes kills the reference fit
    y = np.array([1, 2, 1, 2, 1, 2])
    x = np.array([[1], [2], [2], [1], [1], [2]])
    ds = validate(NodeDataset(y=y, x=x, edges=np.array([[1, 2], [3, 4]]),
                              r_levels=3, k_levels=[2]))
    d = tmp_path / "deg"
    write_dataset(d, ds)
    code = main(["screen", "--nodes", str(d / "nodes.csv"),
                 "--edges", str(d / "edges.csv"),
                 "--metadata", str(d / "metadata.json")])
    assert code == 4
    assert "degenerate" in capsys.readouterr().err


def test_simulate_from_config_file(tmp_path):
    cfg = example_config(1, n=50, p=5, seed=7)
    cfg_path = tmp_path / "cfg.json"
    write_json(cfg_path, cfg.to_dict())
    d = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(d)]) == 0
    ds, _ = read_dataset(d / "nodes.csv", d / "edges.csv",
                         d / "metadata.json")
    want, _ = generate(cfg, seed=0)  # CLI default seed
    assert np.array_equal(ds.y, want.y)
    assert np.array_equal(ds.x, want.x)
    assert np.array_equal(ds.edges, want.edges)
    # n and p live in the config file
    assert main(["simulate", "--config", str(cfg_path), "--n", "80",
                 "--out", str(tmp_path / "o2")]) == 3


@pytest.mark.parametrize("edit, message", [
    (lambda c: [c], "a simulation config must be a JSON object"),
    (lambda c: {k: v for k, v in c.items() if k != "name"},
     "simulation config needs the field 'name'"),
    (lambda c: {k: v for k, v in c.items() if k != "p"},
     "simulation config needs the field 'p'"),
    (lambda c: {**c, "n": "thirty"}, "n must be a whole number, not 'thirty'"),
    (lambda c: {**c, "n": float("inf")}, "n must be a whole number, not inf"),
    (lambda c: {**c, "default_column": {"kind": "bern"}},
     "column 5: a bern recipe needs 'p'"),
    (lambda c: {**c, "default_column": 5},
     "column 5: a recipe must be an object"),
    (lambda c: {**c, "default_column": {"kind": "bern", "p": "abc"}},
     "column 5: p cannot be 'abc'"),
    (lambda c: {**c, "columns": {"2": {"kind": "uniform", "k": "x"}}},
     "column 2: k must be a whole number, not 'x'"),
    (lambda c: {**c, "columns": {"2": {"kind": "cond_y",
                                       "table": [[0.5, "half"]] * 2}}},
     "column 2: table cannot be [[0.5, 'half'], [0.5, 'half']]"),
    (lambda c: {**c, "columns": {"2": {"kind": "uniform", "k": 2.7}}},
     "column 2: k must be a whole number, not 2.7"),
    (lambda c: {**c, "columns": {"3": {"kind": "cond_x", "parent": 1.5,
                                       "table": [[0.5, 0.5]] * 2}}},
     "column 3: parent must be a whole number, not 1.5"),
    (lambda c: {**c, "columns": {"2": {"kind": "cond_y", "table": []}}},
     "column 2 has no levels"),
    (lambda c: {**c, "columns": {"2": {"kind": "cond_y",
                                       "table": [0.5, 0.5]}}},
     "column 2 table shape (2,) != (2, 2)"),
    (lambda c: {**c, "columns": {"3": {"kind": "cond_yx", "parent": 1,
                                       "table": [[0.5, 0.5]] * 2}}},
     "column 3 table shape (2, 2) != (2, 2, 2)"),
    (lambda c: {**c, "response": [1]}, "the response must be an object"),
    (lambda c: {**c, "noise": [0.4]}, "noise must be an object"),
    (lambda c: {**c, "noise": {"s": "x"}},
     "noise exponent s must be a finite number, not 'x'"),
    (lambda c: {**c, "noise": {"s": "0.4"}},
     "noise exponent s must be a finite number, not '0.4'"),
    (lambda c: {**c, "s_y": [1.5, 2.9]},
     "a feature id must be a whole number, not 1.5"),
    (lambda c: {**c, "s_a": [9]}, "s_a column 9 outside 1..5"),
    (lambda c: {**c, "s_a": ["3&9"]}, "s_a column 9 outside 1..5"),
    (lambda c: {**c, "model": "nlr", "columns": {},
                "response": {"kind": "logistic", "terms": [[1, 2.0]]}},
     "response terms must be [column ids, number] pairs, not [[1, 2.0]]"),
    (lambda c: {**c, "model": "nlr", "columns": {},
                "response": {"kind": "logistic", "terms": [[["a"], 2.0]]}},
     "response terms must be [column ids, number] pairs, not "
     "[[['a'], 2.0]]"),
    (lambda c: {**c, "columns": {"2": {"kind": "uniform", "k": 1e30}}},
     f"column 2 has {int(1e30)} levels, above 2147483647"),
    (lambda c: {**c, "columns": {"2": {"kind": "uniform", "k": 3e9}}},
     "column 2 has 3000000000 levels, above 2147483647"),
    (lambda c: {**c, "columns": {"2": {"kind": "uniform", "k": 2 ** 31}}},
     "column 2 has 2147483648 levels, above 2147483647"),
    (lambda c: {**c, "default_column": {"kind": "normal", "sigma": 1.0,
                                        "mu": [[0.0, 1.0], [0.0, 1.0]]}},
     "column 5: need one mean per response level"),
    (lambda c: {**c, "base_odds_same": 0},
     "base_odds_same must be a finite positive number, not 0"),
    (lambda c: {**c, "base_odds_diff": -1},
     "base_odds_diff must be a finite positive number, not -1"),
    (lambda c: {**c, "gamma": float("nan")},
     "gamma must be a finite number, not nan"),
    (lambda c: {**c, "phi": [["3", float("nan")], ["4", 0.4]]},
     "a phi coefficient must be a finite number, not nan"),
    (lambda c: {**c, "phi": [[3.7, 0.4], ["4", 0.4]]},
     "a phi column must be a whole number, not 3.7"),
    (lambda c: {**c, "phi": [[True, 0.4]]},
     "a phi column must be a whole number, not True"),
    (lambda c: {**c, "n": 60.7}, "n must be a whole number, not 60.7"),
    (lambda c: {**c, "r_levels": 2.9},
     "r_levels must be a whole number, not 2.9"),
], ids=["list", "no-name", "no-p", "word-n", "infinite-n", "bern-without-p",
        "bare-recipe", "word-p", "word-k", "word-table", "fractional-k",
        "fractional-parent", "empty-table", "flat-cond-y-table",
        "flat-cond-yx-table", "list-response", "list-noise", "word-noise-s",
        "numeral-noise-s", "fractional-s-y", "s-a-past-p", "s-a-pair-past-p",
        "bare-term", "word-term-column", "huge-k", "k-past-int32",
        "k-at-2^31", "nested-mean-rows", "zero-base-odds",
        "negative-base-odds", "nan-gamma", "nan-phi-coefficient",
        "fractional-phi-column", "bool-phi-column", "fractional-n",
        "fractional-r-levels"])
def test_simulate_rejects_malformed_config_files(tmp_path, capsys, edit,
                                                 message):
    cfg_path = tmp_path / "cfg.json"
    write_json(cfg_path, edit(example_config(1, n=50, p=5).to_dict()))
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.strip().endswith(message)


def test_experiment_command_writes_reports(tmp_path, capsys):
    d = tmp_path / "exp"
    code = main(["experiment", "--example", "1", "--n", "40", "--p", "5",
                 "--reps", "2", "--seed", "3", "--out", str(d)])
    assert code == 0
    out = capsys.readouterr().out
    assert "ex1 (nnb)" in out
    report = ExperimentReport.from_json(
        (d / "report.json").read_text(encoding="utf-8"))
    assert report.m_reps == 2
    assert set(report.metrics) == {"plr", "pc"}
    assert (d / "long.csv").read_text(encoding="utf-8").startswith(
        "rep,method,d_hat")
    assert (d / "table.txt").exists()
    assert (d / "report.timing.json").exists()


def test_experiment_outputs_ignore_thread_count(tmp_path, monkeypatch, capsys):
    args = ["experiment", "--example", "1", "--n", "40", "--p", "5",
            "--reps", "3", "--seed", "3"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(d1), "--threads", "1"]) == 0
    monkeypatch.setenv("NETSCREEN_THREADS", "2")
    assert main(args + ["--out", str(d2)]) == 0
    capsys.readouterr()
    assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()
    assert (d1 / "long.csv").read_bytes() == (d2 / "long.csv").read_bytes()
    assert (d1 / "table.txt").read_bytes() == (d2 / "table.txt").read_bytes()


def test_experiment_null_path(tmp_path, capsys):
    d = tmp_path / "null"
    code = main(["experiment", "--example", "null", "--n", "100",
                 "--reps", "50", "--out", str(d)])
    assert code == 0
    capsys.readouterr()
    res = read_json(d / "null.json")
    assert res["reps"] == 50
    assert res["df_self"] == 1 and res["df_network"] == 12
    assert len(res["samples_self"]) == 50
    assert "mean doubled node part" in (d / "table.txt").read_text()


def test_experiment_null_needs_two_reps(tmp_path, capsys):
    # one draw has no sample variance; zero draws have no mean either
    for reps in ("1", "0"):
        d = tmp_path / f"null{reps}"
        assert main(["experiment", "--example", "null", "--n", "60",
                     "--reps", reps, "--out", str(d)]) == 3
        assert "reps >= 2" in capsys.readouterr().err
        assert not (d / "null.json").exists()


@pytest.mark.parametrize("args, seed", [
    (["simulate", "--example", "3", "--n", "60", "--p", "8"], "-1"),
    (["experiment", "--example", "3", "--n", "60", "--p", "8",
      "--reps", "2"], "-3"),
    (["experiment", "--example", "null", "--n", "60", "--reps", "2"], "-1"),
    (["screen", "--perms", "3"], "-1"),
    (["screen"], "-2"),
    (["classify", "--split", "0.5", "--s-y", "1"], "-1"),
    (["classify", "--s-y", "1"], "-2"),
], ids=["simulate", "experiment", "null", "screen-perms", "screen",
        "classify-split", "classify"])
def test_negative_seeds_exit_3(tmp_path, capsys, args, seed):
    d = simulate_dir(tmp_path, example="3", n=60, p=8)
    if args[0] in ("screen", "classify"):
        args = args + ["--nodes", str(d / "nodes.csv"),
                       "--edges", str(d / "edges.csv")]
    out = tmp_path / "out"
    assert main(args + ["--seed", seed, "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"error: a seed must be a whole number >= 0, not {seed}\n")
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_experiment_refuses_threads_below_one(tmp_path, capsys, threads):
    d = tmp_path / "exp"
    assert main(["experiment", "--example", "1", "--n", "40", "--p", "5",
                 "--reps", "2", "--threads", threads, "--out", str(d)]) == 3
    assert capsys.readouterr().err == (
        f"error: threads must be at least 1, not {threads}\n")
    assert not (d / "report.timing.json").exists()
    with pytest.raises(ValidationError, match="threads must be at least 1"):
        experiment(1, n=40, p=5, m_reps=1, threads=0)


@pytest.mark.parametrize("call, message", [
    (lambda: experiment(1, n=40, p=5, m_reps=2.5), "m_reps"),
    (lambda: experiment(1, n=40, p=5, m_reps=1, threads=1.5), "threads"),
    (lambda: experiment(1, n=40, p=5, m_reps=True), "m_reps"),
    (lambda: null_calibration(n=40, reps=2.5), "reps"),
], ids=["m_reps", "threads", "m_reps-bool", "null-reps"])
def test_experiment_counts_are_whole_numbers(call, message):
    with pytest.raises(ValidationError,
                       match=f"^{message} must be a whole number, not "):
        call()


def test_simulate_rejects_noise_rates_outside_unit_interval(tmp_path, capsys):
    code = main(["simulate", "--example", "5", "--n", "4", "--p", "5",
                 "--out", str(tmp_path / "d")])
    assert code == 3
    assert "add probability" in capsys.readouterr().err


def test_unchecked_composite_map_exits_3(tmp_path, capsys):
    """A metadata.json composite map must name the trailing columns, with
    widths K_j K_k, and those columns must hold the joint codes of their
    pair."""
    d = simulate_dir(tmp_path, n=60, p=5)
    meta = read_json(d / "metadata.json")
    files = ["--nodes", str(d / "nodes.csv"), "--edges", str(d / "edges.csv"),
             "--metadata", str(d / "metadata.json")]
    meta["composite_pairs"] = {"9": [1, 2]}  # beyond p
    write_json(d / "metadata.json", meta)
    assert main(["classify", *files, "--s-y", "1&2"]) == 3
    assert "composite column 9 outside 1..5" in capsys.readouterr().err
    meta["composite_pairs"] = {"3": [1, 2]}  # an original column
    write_json(d / "metadata.json", meta)
    assert main(["screen", *files]) == 3
    assert "composite column 3 is not trailing" in capsys.readouterr().err
    meta["composite_pairs"] = {"5": [1, 2]}  # trailing, but binary
    write_json(d / "metadata.json", meta)
    assert main(["screen", *files]) == 3
    assert "declared level count 2 of composite column 5 is not K_1 K_2 = 4" \
        in capsys.readouterr().err
    meta["k_levels"][4] = 4
    write_json(d / "metadata.json", meta)
    assert main(["screen", *files]) == 3
    assert "column 5 does not hold the joint codes of columns 1 and 2" \
        in capsys.readouterr().err

    # a written expansion: composites 6 and 7 trail the 5 stored columns
    ds, _ = read_dataset(d / "nodes.csv", d / "edges.csv")
    write_dataset(d, interaction_expand(ds, [(1, 2), (3, 4)]))
    meta = read_json(d / "metadata.json")
    assert main(["screen", *files, "--out", str(tmp_path / "s.json")]) == 0
    for key, value, message in [
            ("composite_pairs", {"6": [1, 2]}, "column 6 is not trailing"),
            ("k_levels", [2] * 5 + [4, 5], "declared level count 5 of "
             "composite column 7 is not K_3 K_4 = 4")]:
        write_json(d / "metadata.json", {**meta, key: value})
        assert main(["screen", *files]) == 3
        assert message in capsys.readouterr().err


def test_malformed_metadata_exits_3(tmp_path, capsys):
    d = simulate_dir(tmp_path, n=40, p=4)
    files = ["--nodes", str(d / "nodes.csv"), "--edges", str(d / "edges.csv"),
             "--metadata", str(d / "metadata.json")]
    meta = read_json(d / "metadata.json")
    for content, message in [
            (["format", 1], "metadata must be a JSON object"),
            ({**meta, "composite_pairs": [1, 2]},
             "composite_pairs must map column ids to pairs of column ids")]:
        write_json(d / "metadata.json", content)
        assert main(["screen", *files]) == 3
        assert f"{d / 'metadata.json'}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("key, edit, message", [
    ("r_levels", 2.5, "r_levels must be a whole number, not 2.5"),
    ("r_levels", "2", "r_levels must be a whole number, not '2'"),
    ("k_levels", [2.7] + [2] * 5, "a k_levels entry must be a whole number, "
     "not 2.7"),
    ("k_levels", [True] * 6, "a k_levels entry must be a whole number, "
     "not True"),
], ids=["fractional-r", "word-r", "fractional-k", "bool-k"])
def test_declared_level_counts_must_be_whole(tmp_path, capsys, key, edit,
                                             message):
    """A declared level count is a whole number: int() would truncate a
    fraction, and a whole float is read as its int."""
    d = simulate_dir(tmp_path, n=60, p=6)
    files = ["--nodes", str(d / "nodes.csv"), "--edges", str(d / "edges.csv"),
             "--metadata", str(d / "metadata.json")]
    meta = read_json(d / "metadata.json")
    assert main(["screen", *files, "--out", str(tmp_path / "want.json")]) == 0
    write_json(d / "metadata.json", {**meta, key: edit})
    assert main(["screen", *files]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    whole = {"r_levels": float(meta["r_levels"]),
             "k_levels": [float(k) for k in meta["k_levels"]]}
    write_json(d / "metadata.json", {**meta, key: whole[key]})
    assert main(["screen", *files, "--out", str(tmp_path / "got.json")]) == 0
    assert (tmp_path / "got.json").read_bytes() == \
        (tmp_path / "want.json").read_bytes()


def test_cells_beyond_int64_exit_3(tmp_path, capsys):
    d = simulate_dir(tmp_path, n=40, p=4)
    files = ["--nodes", str(d / "nodes.csv"), "--edges", str(d / "edges.csv")]
    for name in ("nodes.csv", "edges.csv"):
        original = (d / name).read_text()
        lines = original.splitlines()
        cells = lines[3].split(",")
        cells[1] = "1" * 20
        lines[3] = ",".join(cells)
        (d / name).write_text("\n".join(lines) + "\n")
        assert main(["screen", *files]) == 3
        assert f"{d / name}: row 4 has a cell beyond int64" \
            in capsys.readouterr().err
        (d / name).write_text(original)


def test_module_runs_the_cli():
    src = str(Path(netscreen.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-m", "netscreen", "--help"],
                          capture_output=True, text=True, env=env,
                          timeout=60, check=False)
    assert done.returncode == 0, done.stderr
    assert "simulate" in done.stdout and "screen" in done.stdout


def test_malformed_feature_keys_exit_3(tmp_path, capsys):
    d = simulate_dir(tmp_path, n=60, p=5)
    files = ["--nodes", str(d / "nodes.csv"), "--edges", str(d / "edges.csv")]
    for key in ("1&x", "1&2&3", "abc"):
        assert main(["classify", *files, "--s-y", key]) == 3
        assert f"malformed feature key {key!r}" in capsys.readouterr().err


def test_malformed_json_files_exit_3(tmp_path, capsys):
    d = simulate_dir(tmp_path, n=60, p=5)
    files = ["--nodes", str(d / "nodes.csv"), "--edges", str(d / "edges.csv")]
    broken = tmp_path / "broken.json"
    broken.write_text('{"selected": ["1",', encoding="utf-8")
    for argv in (["screen", *files, "--metadata", str(broken)],
                 ["classify", *files, "--screen", str(broken)],
                 ["simulate", "--config", str(broken),
                  "--out", str(tmp_path / "o")]):
        assert main(argv) == 3
        assert f"{broken}: not a JSON file" in capsys.readouterr().err
    for content in ({"d_hat": 2}, ["1", "2"]):
        write_json(broken, content)
        assert main(["classify", *files, "--screen", str(broken)]) == 3
        assert "it has no 'selected'" in capsys.readouterr().err


def test_stray_large_code_exits_3_for_every_method(tmp_path, capsys):
    d = simulate_dir(tmp_path, n=60, p=5)
    lines = (d / "nodes.csv").read_text().splitlines()
    cells = lines[5].split(",")
    cells[-1] = "30000"  # column 5 of node 5
    lines[5] = ",".join(cells)
    (d / "nodes.csv").write_text("\n".join(lines) + "\n")
    files = ["--nodes", str(d / "nodes.csv"), "--edges", str(d / "edges.csv")]
    for method in ("plr", "pc"):
        assert main(["screen", *files, "--method", method]) == 3
        assert f"column 5 has 30000 levels; its tally tables would need " \
            f"{4 * 30000 ** 2} cells" in capsys.readouterr().err


def test_dataset_round_trip_with_composites_and_raw(tmp_path):
    ds, extras = generate(example_config(8, n=50, p=6), seed=5)
    wide = interaction_expand(ds, [(1, 2)])
    paths = write_dataset(tmp_path / "rt", wide, extras)
    assert "continuous" in paths
    back, info = read_dataset(paths["nodes"], paths["edges"],
                              paths["metadata"])
    assert np.array_equal(back.y, wide.y)
    assert np.array_equal(back.x, wide.x)
    assert np.array_equal(back.edges, wide.edges)
    assert back.composite_pairs == {7: (1, 2)}
    header = paths["nodes"].read_text().split("\n", 1)[0]
    assert header.endswith(",x6,x7")  # the composite is written out
    assert np.array_equal(back.k_levels, wide.k_levels)
    assert info["metadata"]["n"] == 50


def test_int64_parse_matches_csv_parser(tmp_path, monkeypatch):
    """An all-integer file reads the same through the csv-module parser."""
    ds, _ = generate(example_config(6, n=70, p=5), seed=3)
    wide = interaction_expand(ds, [(1, 2), (3, 4)])
    paths = write_dataset(tmp_path / "rt", wide)
    fast, fast_info = read_dataset(paths["nodes"], paths["edges"],
                                   paths["metadata"])

    monkeypatch.setattr(nsio, "_int_columns", lambda raw, width: None)
    slow, slow_info = read_dataset(paths["nodes"], paths["edges"],
                                   paths["metadata"])
    for field in ("y", "x", "edges", "k_levels"):
        a, b = getattr(fast, field), getattr(slow, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    assert fast.composite_pairs == slow.composite_pairs == {6: (1, 2),
                                                             7: (3, 4)}
    assert fast_info == slow_info


def test_read_dataset_bins_continuous_columns(tmp_path):
    nodes = tmp_path / "nodes.csv"
    nodes.write_text(
        "node_id,y,x1,x2\n"
        "1,1,0.3,1\n2,2,-1.2,2\n3,1,0.9,1\n4,2,-0.1,2\n",
        encoding="utf-8")
    edges = tmp_path / "edges.csv"
    edges.write_text("src,dst\n1,2\n", encoding="utf-8")
    with pytest.raises(Exception):  # continuous column needs a bin count
        read_dataset(nodes, edges)
    ds, info = read_dataset(nodes, edges, bins=2)
    assert info["binned_columns"] == ["x1"]
    assert ds.column(1).tolist() == [2, 1, 2, 1]
    assert ds.column(2).tolist() == [1, 2, 1, 2]


def test_read_dataset_near_integer_column_is_continuous(tmp_path):
    # within allclose's tolerance of integers, but not integers
    text = NODES_HEADER + "1,1,1\n2,2,2.00001\n3,1,1\n4,2,2\n"
    with pytest.raises(ValidationError, match="x1 is continuous"):
        read_texts(tmp_path, text)
    ds, info = read_dataset(tmp_path / "nodes.csv", tmp_path / "edges.csv",
                            bins=2, bin_scheme="empirical_quantile")
    assert info["binned_columns"] == ["x1"]
    assert ds.column(1).tolist() == [1, 2, 1, 2]


def test_binning_to_a_single_level_is_refused(tmp_path, capsys):
    # normal_quantile cuts the raw values at 0 with two bins, so a column
    # that never goes below 1 would become one level and screen as noise
    text = NODES_HEADER + "1,1,1\n2,2,2.00001\n3,1,1\n4,2,2\n"
    (tmp_path / "nodes.csv").write_text(text, encoding="utf-8")
    (tmp_path / "edges.csv").write_text(EDGE_OK, encoding="utf-8")
    with pytest.raises(ValidationError,
                       match="x1 falls in one level under normal_quantile with 2 bins"):
        read_dataset(tmp_path / "nodes.csv", tmp_path / "edges.csv", bins=2)
    assert main(["screen", "--nodes", str(tmp_path / "nodes.csv"),
                 "--edges", str(tmp_path / "edges.csv"), "--bins", "2"]) == 3
    assert "empirical_quantile" in capsys.readouterr().err
    # empirical_quantile collapses a tied column too: its one cut is the tie
    text = NODES_HEADER + "1,1,1\n2,2,2.5\n3,1,2.5\n4,2,2.5\n5,1,2.5\n"
    (tmp_path / "nodes.csv").write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError, match="x1 falls in one level under "
                       "empirical_quantile with 2 bins; try more bins"):
        read_dataset(tmp_path / "nodes.csv", tmp_path / "edges.csv", bins=2,
                     bin_scheme="empirical_quantile")


def test_read_dataset_maps_string_labels(tmp_path):
    nodes = tmp_path / "nodes.csv"
    nodes.write_text(
        "node_id,y,x1\n1,1,red\n2,2,blue\n3,1,red\n4,2,blue\n",
        encoding="utf-8")
    edges = tmp_path / "edges.csv"
    edges.write_text("src,dst\n1,3\n", encoding="utf-8")
    ds, info = read_dataset(nodes, edges)
    assert info["level_maps"]["x1"] == {"blue": 1, "red": 2}
    assert ds.column(1).tolist() == [2, 1, 2, 1]


def test_report_json_round_trip():
    rep = experiment(example_config(1, n=40, p=4), m_reps=2, seed=11)
    back = ExperimentReport.from_json(rep.to_json())
    assert back.to_json() == rep.to_json()
    assert back.metrics == rep.metrics
    assert back.timing is None  # wall time never serializes


# ------------------------------------------------- malformed and odd CSVs

NODES_HEADER = "node_id,y,x1\n"
EDGE_OK = "src,dst\n1,2\n"


def read_texts(tmp_path, nodes, edges=EDGE_OK):
    (tmp_path / "nodes.csv").write_text(nodes, encoding="utf-8")
    (tmp_path / "edges.csv").write_text(edges, encoding="utf-8")
    return read_dataset(tmp_path / "nodes.csv", tmp_path / "edges.csv")


H = NODES_HEADER


@pytest.mark.parametrize("text, message", [
    (H + "1,1,2\n2,2\n3,1,1\n", "row 3 has 2 fields, header has 3"),
    (H + "1,1,2\n2,2,1,5\n3,1,1\n", "row 3 has 4 fields, header has 3"),
    (H + "1,1,2,9\n2,2,1,5\n3,1,1,4\n", "row 2 has 4 fields, header has 3"),
    (H + "1,1,2\n\n2,2,1\n", "row 3 has 0 fields, header has 3"),
    (H + "1,1,2\n2,2,1\n\n", "row 4 has 0 fields, header has 3"),
    (H + "1,1,2\n\n2,2,1", "row 3 has 0 fields, header has 3"),
    (H + "\n", "row 2 has 0 fields, header has 3"),
    (H + "1,1,2\n# note\n3,1,1\n", "row 3 has 1 fields, header has 3"),
    (H, "need a header row and data rows"),
    ("", "need a header row and data rows"),
    ('"node_id\n1\n2\n', "need a header row and data rows"),
    (H + "1,1.0,2\n2,2,1\n", "response column must be integer or labeled"),
    (H + "7,1,2\n3,2,1\n3,1,1\n", "row 2 has node_id 7; ids must run 1..n "
     "in file order"),
    (H + "1,1,2\n3,2,1\n2,1,1\n", "row 3 has node_id 3; ids must run 1..n "
     "in file order"),
    (H + "1,1,2\n#2,2,1\n", "row 3 has node_id #2; ids must run 1..n in "
     "file order"),
    (H + "1,1,a\n2.0,2,b\n", "row 3 has node_id 2.0; ids must run 1..n in "
     "file order"),
], ids=["short", "wide", "all-wide", "blank", "trailing-blank",
        "blank-no-final-eol", "blank-only", "comment", "header-only", "empty",
        "open-quote", "float-y", "repeated-ids", "unordered-ids", "hash-id",
        "float-id"])
@pytest.mark.filterwarnings("error")
def test_read_dataset_rejects_malformed_nodes(tmp_path, text, message):
    with pytest.raises(ValidationError) as err:
        read_texts(tmp_path, text)
    assert str(err.value).endswith(message)


@pytest.mark.parametrize("text, x, level_maps", [
    (H + '1,"1",2\n2,2,"1"\n', [[2], [1]], {}),
    (H + " 1 , 1,2 \n2,2 ,\t1\n", [[2], [1]], {}),
    (H + "1,1,1_0\n2,2,1\n", [[10], [1]], {}),
    (H + "1,1,2.0\n2,2,1\n", [[2], [1]], {}),
    (H + "1,1,2\n2,2,1", [[2], [1]], {}),
    (H + "1,1,#2\n2,2,1\n", [[1], [2]], {"x1": {"#2": 1, "1": 2}}),
    ("node_id,y,x1\r\n1,1,2\r\n2,2,1\r\n", [[2], [1]], {}),
    ("node_id,y,x1\r1,1,2\n2,2,1\n", [[2], [1]], {}),
    ('"node_id","y","x1"\n1,1,2\n2,2,1\n', [[2], [1]], {}),
], ids=["quoted", "padded", "underscore", "integral-float", "no-final-eol",
        "hash-id", "crlf", "cr", "quoted-header"])
def test_read_dataset_accepts_odd_node_cells(tmp_path, text, x, level_maps):
    ds, info = read_texts(tmp_path, text)
    assert ds.y.tolist() == [1, 2]
    assert ds.x.tolist() == x
    assert info["level_maps"] == level_maps


@pytest.mark.parametrize("edges, want", [
    ("src,dst\n1,2\n2,a\n", "edge rows must be integer pairs"),
    ("src,dst\n1,2\n3\n", "edge rows must be integer pairs"),
    ("src,dst\n1,2\n\n2,3\n", "edge rows must be integer pairs"),
    ("src,dst\n1.0,2\n", "edge rows must be integer pairs"),
    ("", "empty edge file; a header is required"),
    ("src\n1\n", "header must name src,dst"),
    ("src,dst\n", []),
    ("src,dst\n1,2,3\n", [[1, 2]]),
    ('src,dst\n"1", 2\n', [[1, 2]]),
    ("src,dst,w\n1,2,0.5\n2,3,1.5\n", [[1, 2], [2, 3]]),
    ("src,dst,w\n1,2,5\n2,3,1\n", [[1, 2], [2, 3]]),
    ("src,dst\r\n1,2\r\n2,3\r\n", [[1, 2], [2, 3]]),
], ids=["non-integer", "short", "blank", "float", "empty", "one-column",
        "header-only", "wide-row", "quoted", "weighted", "int-weighted",
        "crlf"])
def test_read_dataset_edge_files(tmp_path, edges, want):
    nodes = NODES_HEADER + "1,1,2\n2,2,1\n3,1,1\n"
    if isinstance(want, str):
        with pytest.raises(ValidationError) as err:
            read_texts(tmp_path, nodes, edges)
        assert str(err.value).endswith(want)
    else:
        ds, _ = read_texts(tmp_path, nodes, edges)
        assert ds.edges.tolist() == want


# ------------------------------------------------------ integer CSV codec

def printf_bytes(header, table):
    fmt = ",".join(["%d"] * table.shape[1]) + "\n"
    return (header + "\n" + "".join(
        fmt % tuple(row) for row in table.tolist())).encode()


INT_TABLES = {
    "boundaries": [[0, 9, 10, 99, 100, 2**63 - 1]],
    "one-row": [[5, 0, 12]],
    "one-column": [[0], [9], [10], [99], [100], [7], [1000]],
    "mixed-widths": np.random.default_rng(4).integers(
        0, [10, 10**3, 10**6, 10**18], size=(23, 4)).tolist(),
}


@pytest.mark.parametrize("block_cells", [7, 1 << 16])
@pytest.mark.parametrize("table", INT_TABLES.values(), ids=INT_TABLES)
def test_int_codec_matches_printf_and_round_trips(tmp_path, monkeypatch,
                                                   block_cells, table):
    # 7 cells per block leaves a short last block of rows for every table
    monkeypatch.setattr(nsio, "WRITE_BLOCK_CELLS", block_cells)
    table = np.array(table, dtype=np.int64)
    header = ",".join(f"c{j}" for j in range(table.shape[1]))
    path = tmp_path / "t.csv"
    nsio._write_ints(path, header, table.max(axis=0), len(table),
                     lambda lo, hi: table[lo:hi])
    assert path.read_bytes() == printf_bytes(header, table)
    head, data = nsio._read_table(path)
    # a 19-digit cell may not fit int64, so the csv path reads it
    assert isinstance(data, tuple) == (table.max() < 10**18)
    if isinstance(data, list):
        data = np.array(nsio._csv_columns(path, head, data)[0]).T
    else:  # (the first two columns, the rest)
        assert data[0].shape[1] == min(2, table.shape[1])
        data = np.hstack(data)
    assert np.array_equal(data, table)


@pytest.mark.parametrize("text, want", [
    ("a,b\n1,2\n30,4", [[1, 2], [30, 4]]),
    ("a,b\r\n1,2\r\n30,4\r\n", [[1, 2], [30, 4]]),
    ("a,b\n007,999999999999999999\n", [[7, 999999999999999999]]),
    ("a,b\n1,2\r30,4\n", None),
    ("a,b\n1,1234567890123456789\n", None),
    ("a,b\n1,\n", None),
    ("a,b\n1,-2\n", None),
], ids=["no-final-eol", "crlf", "18-digits", "lone-cr", "19-digits",
        "empty-cell", "signed"])
def test_int_decoder_takes_only_plain_digit_files(tmp_path, text, want):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    header, data = nsio._read_table(path)
    assert header == ["a", "b"]
    if want is None:
        assert isinstance(data, list)
    else:
        head, x = data
        assert head.dtype == np.int64 and head.tolist() == want
        assert x.shape == (len(want), 0)



@pytest.mark.parametrize("block_cells", [7, 1 << 16])
def test_declared_widths_beyond_the_codes_write_the_same_bytes(
        tmp_path, monkeypatch, block_cells):
    # slots sized from R = 10 and K_j = 12 hold codes of one digit, so the
    # pad bytes must all be dropped
    monkeypatch.setattr(nsio, "WRITE_BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(5)
    n = 23
    y, x = rng.integers(1, 3, n), rng.integers(1, 10, (n, 4))
    edges = [[23, 5], [1, 2], [9, 10]]
    tight = NodeDataset(y, x, edges)  # widths from the observed maxima
    wide = NodeDataset(y, x, edges, r_levels=10, k_levels=[12] * 4)
    written = [write_dataset(tmp_path / name, ds)
               for name, ds in (("tight", tight), ("wide", wide))]
    nodes = printf_bytes("node_id,y,x1,x2,x3,x4",
                         np.column_stack([np.arange(1, n + 1), y, x]))
    edge_bytes = printf_bytes("src,dst", np.array(sorted(edges)))
    for paths in written:
        assert paths["nodes"].read_bytes() == nodes
        assert paths["edges"].read_bytes() == edge_bytes


@pytest.mark.parametrize("block_cells", [7, 1 << 16])
@pytest.mark.parametrize("cell, message", [
    (str(2**31), f"feature label {2**31} in column 1 above {2**31 - 1}"),
    ("0", "feature label below 1 in column 1"),
], ids=["above-int32", "zero"])
def test_integer_reader_refuses_codes_outside_int32(
        tmp_path, monkeypatch, block_cells, cell, message):
    # with 7 cells per block every line is its own block, so the bad cell
    # sits in a later block than the first
    monkeypatch.setattr(nsio, "WRITE_BLOCK_CELLS", block_cells)
    rows = [f"{i},{1 + i % 2},{1 + i % 3},2" for i in range(1, 9)]
    rows[5] = f"6,2,{cell},2"
    text = "node_id,y,x1,x2\n" + "\n".join(rows) + "\n"
    with pytest.raises(ValidationError) as err:
        read_texts(tmp_path, text)
    assert str(err.value) == message


def test_integer_reader_fills_fortran_int32_codes(tmp_path, monkeypatch):
    monkeypatch.setattr(nsio, "WRITE_BLOCK_CELLS", 7)
    ds, _ = generate(example_config(6, n=40, p=5), seed=2)
    paths = write_dataset(tmp_path, ds)
    header, (head, x) = nsio._read_table(paths["nodes"])
    assert header[:3] == ["node_id", "y", "x1"]
    assert head.dtype == np.int64 and head.shape == (ds.n, 2)
    assert np.array_equal(head[:, 0], np.arange(1, ds.n + 1))
    assert np.array_equal(head[:, 1], ds.y)
    assert x.dtype == np.int32 and x.flags.f_contiguous
    assert np.array_equal(x, ds.x)


def test_integer_reader_holds_the_file_once(tmp_path):
    # nodes.csv of n 4000, p 2000 one-digit codes: the file is about 15 MiB
    # and the int32 x 30.5 MiB; a second copy of the file's bytes would take
    # the read's peak past the size of x plus 1.5 times the file's
    n, p = 4000, 2000
    codes = np.random.default_rng(3).integers(1, 10, (n, p))
    path = tmp_path / "nodes.csv"
    header = "node_id,y," + ",".join(f"x{j}" for j in range(1, p + 1))
    nsio._write_ints(path, header, np.r_[n, 9, np.full(p, 9)], n,
                     lambda lo, hi: np.column_stack(
                         [np.arange(lo + 1, hi + 1), codes[lo:hi, 0],
                          codes[lo:hi]]))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        _, (head, x) = nsio._read_table(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.dtype == np.int32 and np.array_equal(x, codes)
    assert peak < x.nbytes + 1.5 * size


@pytest.mark.filterwarnings("error")
def test_integral_float_beyond_int32_is_refused_with_its_row(tmp_path,
                                                             capsys):
    text = NODES_HEADER + "1,1,1e20\n2,2,1\n3,1,2\n"
    with pytest.raises(ValidationError) as err:
        read_texts(tmp_path, text)
    assert str(err.value).endswith(
        f"row 2 of column x1 holds 1e+20, outside 1..{2**31 - 1}")
    assert main(["screen", "--nodes", str(tmp_path / "nodes.csv"),
                 "--edges", str(tmp_path / "edges.csv")]) == 3
    assert "row 2 of column x1 holds 1e+20" in capsys.readouterr().err
