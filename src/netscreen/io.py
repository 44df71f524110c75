"""File formats: headered CSVs for nodes and edges, JSON for everything else.

nodes.csv   node_id,y,x1,...,xp with integer level codes (floats allowed on
            read; they are quantile-binned on request), composites trailing
edges.csv   src,dst ordered pairs, 1-based node ids
metadata.json   level counts, names, composite column map, generator echo

All files are UTF-8 and written deterministically: same content in, same
bytes out.

nodes.csv and edges.csv go through one byte-level codec for non-negative
integer tables, by row blocks of WRITE_BLOCK_CELLS cells. The encoder lays a
block out as a uint8 array of fixed slots, one per cell, each as wide as its
column's largest value, writes the digits by integer division and the
separators in place, and drops the leading pad bytes with one compaction; the
bytes equal printf "%d" output. The decoder cuts the data lines into blocks
at newlines, finds the separators by a byte mask and adds up the digits by
position. It reads a file whose data lines are all header-wide non-empty
cells of at most 18 digits (so every value fits int64), with LF or CRLF
line ends. Any other file (label, float or signed cells, quoted cells, ragged
or blank lines, lone carriage returns, longer numbers) goes to the
csv-module parser, which maps labels, keeps floats for binning and names the
first malformed row.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np

from .dataset import NodeDataset, column_codes, discretize, validate
from .errors import ValidationError

WRITE_BLOCK_CELLS = 1 << 16  # cells per row block, read or written


def write_json(path, obj) -> None:
    Path(path).write_text(
        json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def read_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as err:  # malformed JSON or UTF-8
        raise ValidationError(f"{path}: not a JSON file ({err})") from err


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
    ids = np.arange(1, dataset.p + 1)
    step = max(1, WRITE_BLOCK_CELLS // dataset.n)
    for lo in range(0, dataset.p, step):
        table[:, lo + 2:lo + 2 + step] = column_codes(dataset,
                                                      ids[lo:lo + step])
    _write_ints(paths["nodes"], header, table)
    _write_ints(paths["edges"], "src,dst", dataset.edges)

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


def _write_ints(path, header: str, table: np.ndarray) -> None:
    """Header line, then one line per row of the non-negative integer
    table: its cells' "%d" bytes, comma-separated, built by row blocks."""
    rows, cols = table.shape
    top = table.max(axis=0) if rows else np.zeros(cols, np.int64)
    widths = 1 + np.sum(top[:, None] >= 10 ** np.arange(1, 19), axis=1)
    seps = np.cumsum(widths + 1) - 1  # the slot byte after each cell
    template = np.full(seps[-1] + 1, ord(","), np.uint8)
    template[-1] = ord("\n")
    groups = [(int(w), np.flatnonzero(widths == w)) for w in np.unique(widths)]
    compact = widths.max() > 1
    step = max(1, WRITE_BLOCK_CELLS // cols)
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        for lo in range(0, rows, step):
            block = table[lo:lo + step]
            buf = np.empty((block.shape[0], template.size), np.uint8)
            buf[:] = template
            for width, group in groups:
                left = block[:, group]  # the digits not yet written
                for place in range(width):  # right to left
                    rest = left // 10 if place < width - 1 else 0
                    byte = (left - 10 * rest + ord("0")).astype(np.uint8)
                    if place:
                        byte[left == 0] = 0  # a pad byte
                    buf[:, seps[group] - 1 - place] = byte
                    left = rest
            fh.write((buf[buf != 0] if compact else buf).tobytes())


def _decode_ints(body: bytes, width: int):
    """The int64 (rows, width) matrix of the data lines body, or None
    unless every byte is a digit, a comma or a line end, every line has
    width cells and every cell has 1 to 18 digits, so that it fits int64.
    CRLF line ends are read as LF and a lone CR is refused; the last line
    end is optional."""
    if b"\r" in body:
        if body.count(b"\r") != body.count(b"\r\n"):
            return None
        body = body.replace(b"\r\n", b"\n")
    if not body.endswith(b"\n"):
        body += b"\n"
    raw = np.frombuffer(body, np.uint8)
    line_ends = np.flatnonzero(raw == ord("\n"))
    out = np.empty((line_ends.size, width), np.int64)
    step = max(1, WRITE_BLOCK_CELLS // width)
    for lo in range(0, line_ends.size, step):
        hi = min(lo + step, line_ends.size)
        start = line_ends[lo - 1] + 1 if lo else 0
        if not _decode_block(raw[start:line_ends[hi - 1] + 1], out[lo:hi]):
            return None
    return out


def _decode_block(chunk: np.ndarray, out: np.ndarray) -> bool:
    """Fill the (rows, width) out from chunk, the bytes of whole lines;
    False when they are not all width digit cells per line."""
    ends = np.flatnonzero(chunk < ord("0"))  # "," and "\n" sort below "0"
    if ends.size != out.size or chunk.max() > ord("9"):
        return False
    seps = chunk[ends].reshape(out.shape)
    if not (np.all(seps[:, :-1] == ord(","))
            and np.all(seps[:, -1] == ord("\n"))):
        return False
    lengths = np.diff(ends, prepend=-1) - 1
    longest = int(lengths.max())
    if lengths.min() < 1 or longest > 18:
        return False
    flat = out.reshape(-1)  # a view: out is whole rows of a C-ordered matrix
    flat[:] = chunk[ends - 1]
    flat -= ord("0")
    for place in range(1, longest):
        cells = np.flatnonzero(lengths > place)
        digit = chunk[ends[cells] - 1 - place] - np.uint8(ord("0"))
        flat[cells] += digit.astype(np.int64) * 10 ** place
    return True


def _read_table(path):
    """(header, data) of a headered CSV; header is None for an empty file.

    data is the int64 (rows, width) matrix when :func:`_decode_ints` reads
    the data lines; otherwise it is the csv-module rows after the header,
    as lists of strings.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    head, _, body = raw.partition(b"\n")
    # the first line is the csv header row unless a quote or a lone CR
    # makes the header span or split lines
    if body and b'"' not in head and b"\r" not in head[:-1]:
        header = next(csv.reader([head.decode("utf-8")]))
        data = _decode_ints(body, len(header)) if header else None
        if data is not None:
            return header, data
    rows = list(csv.reader(io.StringIO(raw.decode("utf-8"), newline="")))
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
            ints = [int(v) for v in values]
        except ValueError:
            pass
        else:
            columns.append(_int64(path, ints))
            continue
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


def _int64(path, ints: list) -> np.ndarray:
    """One column's Python ints, data row by data row, as int64; a cell
    beyond int64 is refused with its row number."""
    try:
        return np.asarray(ints, np.int64)
    except OverflowError:
        row = next(i for i, v in enumerate(ints) if not -2**63 <= v < 2**63)
        raise ValidationError(
            f"{path}: row {row + 2} has a cell beyond int64") from None


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
                spread = col.min() < col.max()
                col = discretize(col, bins, bin_scheme).astype(np.int64)
                if spread and col.min() == col.max():
                    hint = "empirical_quantile" \
                        if bin_scheme == "normal_quantile" else "more bins"
                    raise ValidationError(
                        f"column {header[c]} falls in one level under "
                        f"{bin_scheme} with {bins} bins; try {hint}")
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
            endpoints = [[int(r[0]) for r in rows], [int(r[1]) for r in rows]]
        except (ValueError, IndexError) as err:
            raise ValidationError(
                f"{edges_path}: edge rows must be integer pairs") from err
        edges = np.column_stack([_int64(edges_path, e) for e in endpoints])

    meta = {}
    if metadata_path is not None:
        meta = info["metadata"] = read_json(metadata_path)
        if not isinstance(meta, dict):
            raise ValidationError(
                f"{metadata_path}: metadata must be a JSON object")
        if not isinstance(meta.get("composite_pairs") or {}, dict):
            raise ValidationError(
                f"{metadata_path}: composite_pairs must map column ids to "
                "pairs of column ids")
    # the file's composite columns trail the stored ones; only the sources
    # are kept, once the copies match the codes the reader builds
    stored = max(0, x.shape[1] - len(meta.get("composite_pairs") or {}))
    dataset = validate(NodeDataset(
        y, x[:, :stored], edges, meta.get("feature_names"),
        meta.get("r_levels"), meta.get("k_levels"),
        meta.get("composite_pairs")))
    wrong = np.any(x[:, stored:] != column_codes(
        dataset, range(stored + 1, dataset.p + 1)), axis=0)
    if wrong.any():
        col = stored + int(np.argmax(wrong)) + 1
        raise ValidationError(
            "composite column {} does not hold the joint codes of columns {} "
            "and {}".format(col, *dataset.composite_pairs[col]))
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
