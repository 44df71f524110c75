"""File formats: headered CSVs for nodes and edges, JSON for everything else.

nodes.csv   node_id,y,x1,...,xp with integer level codes (floats allowed on
            read; they are quantile-binned on request)
edges.csv   src,dst ordered pairs, 1-based node ids
metadata.json   level counts, names, composite column map, generator echo

All files are UTF-8 and written deterministically: same content in, same
bytes out.

The reader parses a CSV whose data rows are all header-wide integers with
one int64 np.loadtxt call. Any other file (label or float cells, quoted
cells, ragged or blank lines, lone carriage returns) goes to the csv-module
parser, which maps labels, keeps floats for binning and names the first
malformed row.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np

from .dataset import NodeDataset, discretize, validate
from .errors import ValidationError

WRITE_BLOCK_CELLS = 1 << 16  # cells formatted per write call


def write_json(path, obj) -> None:
    Path(path).write_text(
        json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_dataset(out_dir, dataset: NodeDataset, extras: dict | None = None,
                  generator: dict | None = None) -> dict:
    """Write nodes.csv, edges.csv, metadata.json (and continuous.csv when
    raw continuous columns are supplied). Returns the path map."""
    dataset = validate(dataset)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"nodes": out / "nodes.csv", "edges": out / "edges.csv",
             "metadata": out / "metadata.json"}

    header = "node_id,y," + ",".join(f"x{j}" for j in range(1, dataset.p + 1))
    table = np.empty((dataset.n, dataset.p + 2), dtype=np.int64)
    table[:, 0] = np.arange(1, dataset.n + 1)
    table[:, 1] = dataset.y
    table[:, 2:] = dataset.x
    _write_csv(paths["nodes"], header, table, ["%d"] * table.shape[1])
    _write_csv(paths["edges"], "src,dst", dataset.edges, ["%d", "%d"])

    meta = {
        "format": 1,
        "n": dataset.n, "p": dataset.p,
        "r_levels": int(dataset.r_levels),
        "k_levels": [int(k) for k in dataset.k_levels],
        "feature_names": (list(dataset.feature_names)
                          if dataset.feature_names else None),
        "composite_pairs": {str(col): list(pair) for col, pair
                            in sorted(dataset.composite_pairs.items())},
    }
    if generator is not None:
        meta["generator"] = generator
    write_json(paths["metadata"], meta)

    raw = (extras or {}).get("raw") or {}
    if raw:
        cols = sorted(raw)
        mat = np.column_stack(
            [np.arange(1, dataset.n + 1, dtype=np.float64)]
            + [np.asarray(raw[j], dtype=np.float64) for j in cols])
        _write_csv(out / "continuous.csv",
                   "node_id," + ",".join(f"x{j}" for j in cols), mat,
                   ["%d"] + ["%.17g"] * len(cols))
        paths["continuous"] = out / "continuous.csv"
    return paths


def _write_csv(path, header: str, table: np.ndarray, fmt: list) -> None:
    """Header line, then one line per row of table: its cells formatted by
    the per-column printf formats fmt, comma-separated."""
    row_fmt = ",".join(fmt) + "\n"
    step = max(1, WRITE_BLOCK_CELLS // table.shape[1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for lo in range(0, table.shape[0], step):
            block = table[lo:lo + step]
            fh.write((row_fmt * block.shape[0])
                     % tuple(block.ravel().tolist()))


def _read_table(path):
    """(header, data) of a headered CSV; header is None for an empty file.

    data is the int64 (rows, width) matrix when every data row is
    header-wide integers; otherwise it is the csv-module rows after the
    header, as lists of strings.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        text = fh.read()
    head, _, body = text.partition("\n")
    # the first line is the csv header row unless a quote or a lone "\r"
    # makes the header span or split lines
    if (body and not body.isspace() and '"' not in head
            and "\r" not in head[:-1]):
        header = next(csv.reader([head]))
        n_rows = body.count("\n") + (not body.endswith("\n"))
        try:
            data = np.loadtxt(io.StringIO(body), dtype=np.int64,
                              delimiter=",", comments=None, ndmin=2)
        except ValueError:  # a non-integer cell or a ragged row
            data = None
        # loadtxt skips blank lines and takes the width from the first row;
        # it rejects a lone "\r", so rows end where csv rows end
        if data is not None and data.shape == (n_rows, len(header)):
            return header, data
    rows = list(csv.reader(io.StringIO(text, newline="")))
    return (rows[0], rows[1:]) if rows else (None, [])


def _read_csv_columns(path):
    """(header, columns, level_maps): columns is the transposed int64 matrix
    when every cell is an integer, else a list of int64, float64 or mapped
    label columns, with the label-to-code maps in level_maps."""
    header, data = _read_table(path)
    if isinstance(data, np.ndarray):
        return header, data.T, {}
    if header is None or not data:
        raise ValidationError(f"{path}: need a header row and data rows")
    width = len(header)
    for i, row in enumerate(data):
        if len(row) != width:
            raise ValidationError(
                f"{path}: row {i + 2} has {len(row)} fields, header has {width}")
    columns, level_maps = [], {}
    for c, name in enumerate(header):
        values = [row[c].strip() for row in data]
        try:
            columns.append(np.asarray([int(v) for v in values], np.int64))
            continue
        except ValueError:
            pass
        try:
            columns.append(np.asarray([float(v) for v in values], np.float64))
            continue
        except ValueError:
            pass
        levels = sorted(set(values))
        code = {v: i + 1 for i, v in enumerate(levels)}
        level_maps[name] = code
        columns.append(np.asarray([code[v] for v in values], np.int64))
    return header, columns, level_maps


def read_dataset(nodes_path, edges_path, metadata_path=None,
                 bins: int | None = None,
                 bin_scheme: str = "normal_quantile"):
    """(validated NodeDataset, info dict).

    Non-integer feature columns are quantile-binned into `bins` levels
    (error if bins is None). Non-numeric label columns are mapped to level
    codes in sorted order; the maps land in info["level_maps"]. Metadata,
    when given, supplies declared level counts, names, and composite pairs.
    """
    header, columns, level_maps = _read_csv_columns(nodes_path)
    if len(header) < 2 or header[0] != "node_id" or header[1] != "y":
        raise ValidationError(
            f"{nodes_path}: header must start with node_id,y")
    info = {"level_maps": level_maps, "binned_columns": []}
    y = columns[1]
    if not np.issubdtype(y.dtype, np.integer):
        raise ValidationError("response column must be integer or labeled")
    x_cols = []
    for c in range(2, len(header)):
        col = columns[c]
        if np.issubdtype(col.dtype, np.floating):
            if np.all(np.isfinite(col) & (col == np.round(col))):
                col = col.astype(np.int64)
            elif bins is None:
                raise ValidationError(
                    f"column {header[c]} is continuous; pass a bin count")
            else:
                col = discretize(col, bins, bin_scheme).astype(np.int64)
                info["binned_columns"].append(header[c])
        x_cols.append(col)
    if isinstance(columns, np.ndarray):  # every cell an integer
        x = columns[2:].T
    else:
        x = (np.column_stack(x_cols) if x_cols
             else np.empty((y.size, 0), dtype=np.int64))

    eheader, rows = _read_table(edges_path)
    if eheader is None:
        raise ValidationError(
            f"{edges_path}: empty edge file; a header is required")
    if len(eheader) < 2:
        raise ValidationError(f"{edges_path}: header must name src,dst")
    if isinstance(rows, np.ndarray):
        edges = rows[:, :2]
    else:
        try:
            edges = np.asarray([(int(r[0]), int(r[1])) for r in rows],
                               np.int64).reshape(-1, 2)
        except (ValueError, IndexError) as err:
            raise ValidationError(
                f"{edges_path}: edge rows must be integer pairs") from err

    meta = {}
    if metadata_path is not None:
        meta = info["metadata"] = read_json(metadata_path)
    dataset = validate(NodeDataset(
        y, x, edges, meta.get("feature_names"), meta.get("r_levels"),
        meta.get("k_levels"), meta.get("composite_pairs")))
    return dataset, info


def experiment_long_csv(report) -> str:
    """Per-replication rows for external plotting, one line per method."""
    lines = ["rep,method,d_hat,degenerate,selected,acc,auc"]

    def fmt(v):
        return "" if v is None else (repr(v) if isinstance(v, float) else str(v))

    for rec in report.replications:
        for method in sorted(k for k in rec
                             if isinstance(rec[k], dict) and "selected" in rec[k]):
            e = rec[method]
            lines.append(",".join([
                str(rec["rep"]), method, str(e["d_hat"]),
                str(int(e["degenerate"])), "|".join(e["selected"]),
                fmt(e.get("acc")), fmt(e.get("auc"))]))
        for kind, e in (rec.get("true_fit") or {}).items():
            lines.append(",".join([
                str(rec["rep"]), f"true_{kind}", "", "", "",
                fmt(e.get("acc")), fmt(e.get("auc"))]))
    return "\n".join(lines) + "\n"


def experiment_table(report) -> str:
    """Human-readable summary in the screening-table layout."""
    out = [f"{report.name} ({report.model})  n={report.n} p={report.p} "
           f"M={report.m_reps} seed={report.seed}", ""]
    cp_keys = None
    for method, m in report.metrics.items():
        if cp_keys is None:
            cp_keys = list(m["cp"])
            out.append("method  " + "CMF".rjust(6) + "IMF".rjust(7)
                       + "".join(f"CP({k})".rjust(10) for k in cp_keys)
                       + "Acc".rjust(8))
        row = (f"{method:<8}" + f"{m['cmf']:6.2f}" + f"{m['imf']:7.2f}"
               + "".join(f"{m['cp'][k]:10.2f}" for k in cp_keys))
        if "acc_mean" in m:
            row += f"{m['acc_mean']:8.3f}"
        out.append(row)
    if report.true_fit:
        parts = [f"{kind} {e['acc_mean']:.3f}"
                 for kind, e in report.true_fit.items()]
        out.append("")
        out.append("accuracy with the true feature sets: " + "  ".join(parts))
    return "\n".join(out) + "\n"
