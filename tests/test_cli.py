import json
from pathlib import Path

import numpy as np
import pytest

from netscreen import NodeDataset, validate
from netscreen.cli import main
from netscreen.experiment import ExperimentReport, experiment
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
    assert main(["experiment", "--example", "1", "--n", "40", "--p", "5",
                 "--reps", "1", "--cutoff", "pvalue:abc",
                 "--out", str(tmp_path / "e")]) == 3
    capsys.readouterr()


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
    assert np.array_equal(back.k_levels, wide.k_levels)
    assert info["metadata"]["n"] == 50


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
