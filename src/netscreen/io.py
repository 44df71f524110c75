"""File formats: headered CSVs for nodes and edges, JSON for everything else.

nodes.csv   node_id,y,x1,...,xp with integer level codes (floats allowed on
            read; they are quantile-binned on request), composites trailing
edges.csv   src,dst ordered pairs, 1-based node ids
metadata.json   level counts, names, composite column map, generator echo

All files are UTF-8 and written deterministically: same content in, same
bytes out.

nodes.csv and edges.csv go through one byte-level codec for non-negative
integer tables, by row blocks of WRITE_BLOCK_CELLS cells, and neither
direction holds the whole node table as int64. The encoder builds each block
of nodes.csv from the codes, lays it out as a uint8 array of fixed slots, one
per cell, each as wide as its column's bound (n, R or K_j), writes the digits
by integer division and the separators in place, and drops the leading pad
bytes with one compaction; the bytes equal printf "%d" output. The decoder
cuts the data lines into blocks at newlines, finds the separators by a byte
mask and adds up the digits by position; the codes of each nodes.csv block go
straight into the int32 code matrix. It reads a file whose data lines are
all header-wide non-empty cells of at most 18 digits (so every value fits
int64), with LF or CRLF line ends. Any other file (label, float or signed
cells, quoted cells, ragged or blank lines, lone carriage returns, longer
numbers) goes to the csv-module parser, which maps labels, keeps floats for
binning and names the first malformed row.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np

from .dataset import (CODE_MAX, NodeDataset, column_codes, discretize,
                      validate)
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
    # slot widths come from each column's bound: n for the ids, R for y,
    # K_j for column j; a slot wider than its values only holds pad bytes
    top = np.concatenate([[dataset.n, dataset.r_levels], dataset.k_levels])
    _write_ints(paths["nodes"], header, top, dataset.n,
                lambda lo, hi: _node_rows(dataset, lo, hi))
    _write_ints(paths["edges"], "src,dst", [dataset.n, dataset.n],
                dataset.n_edges, lambda lo, hi: dataset.edges[lo:hi])

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


def _node_rows(dataset: NodeDataset, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of nodes.csv as int64: node id, response, then the
    codes of every column, composites included."""
    block = np.empty((hi - lo, dataset.p + 2), dtype=np.int64)
    block[:, 0] = np.arange(lo + 1, hi + 1)
    block[:, 1] = dataset.y[lo:hi]
    block[:, 2:] = column_codes(dataset, np.arange(1, dataset.p + 1),
                                slice(lo, hi))
    return block


def _write_ints(path, header: str, top, rows: int, block) -> None:
    """Header line, then rows lines of non-negative integers: their cells'
    "%d" bytes, comma-separated. block(lo, hi) gives lines lo..hi-1 as an
    int table, which is encoded by row blocks; top bounds each column's
    values and sets its slot width."""
    top = np.asarray(top, dtype=np.int64)
    widths = 1 + np.sum(top[:, None] >= 10 ** np.arange(1, 19), axis=1)
    seps = np.cumsum(widths + 1) - 1  # the slot byte after each cell
    template = np.full(seps[-1] + 1, ord(","), np.uint8)
    template[-1] = ord("\n")
    groups = [(int(w), np.flatnonzero(widths == w)) for w in np.unique(widths)]
    compact = widths.max() > 1
    step = max(1, WRITE_BLOCK_CELLS // top.size)
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        for lo in range(0, rows, step):
            table = block(lo, min(rows, lo + step))
            buf = np.empty((table.shape[0], template.size), np.uint8)
            buf[:] = template
            for width, group in groups:
                left = table[:, group]  # the digits not yet written
                for place in range(width):  # right to left
                    rest = left // 10 if place < width - 1 else 0
                    byte = (left - 10 * rest + ord("0")).astype(np.uint8)
                    if place:
                        byte[left == 0] = 0  # a pad byte
                    buf[:, seps[group] - 1 - place] = byte
                    left = rest
            fh.write((buf[buf != 0] if compact else buf).tobytes())


def _decode_ints(body: bytes, width: int):
    """(rows, blocks) of the data lines body, or None when a CR in it is not
    part of a CRLF: rows counts the lines, and blocks walks them by row
    blocks of WRITE_BLOCK_CELLS cells, yielding each as (first line, int64
    (lines, width) array), one array reused from block to block. A block
    whose lines are not all width cells of 1 to 18 digits (so that every
    value fits int64) comes as None and ends the walk. CRLF line ends are
    read as LF; the last line end is optional."""
    if b"\r" in body:
        if body.count(b"\r") != body.count(b"\r\n"):
            return None
        body = body.replace(b"\r\n", b"\n")
    if not body.endswith(b"\n"):
        body += b"\n"
    raw = np.frombuffer(body, np.uint8)
    line_ends = np.flatnonzero(raw == ord("\n"))
    return line_ends.size, _int_blocks(raw, line_ends, width)


def _int_blocks(raw: np.ndarray, line_ends: np.ndarray, width: int):
    step = max(1, WRITE_BLOCK_CELLS // width)
    buf = np.empty((min(step, line_ends.size), width), np.int64)
    for lo in range(0, line_ends.size, step):
        hi = min(lo + step, line_ends.size)
        start = line_ends[lo - 1] + 1 if lo else 0
        block = buf[:hi - lo]
        if not _decode_block(raw[start:line_ends[hi - 1] + 1], block):
            yield lo, None
            return
        yield lo, block


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


def _int_matrix(decoded, width: int):
    """The int64 (rows, width) matrix of :func:`_decode_ints`'s blocks, or
    None when one of them could not be read."""
    rows, blocks = decoded
    out = np.empty((rows, width), np.int64)
    for lo, block in blocks:
        if block is None:
            return None
        out[lo:lo + len(block)] = block
    return out


def _node_codes(decoded, width: int):
    """(y, x) of nodes.csv from :func:`_decode_ints`'s blocks, or None when
    one of them could not be read or there is no y column: y holds the
    int64 responses and x the codes of the columns after y, Fortran-ordered
    int32. Each block is narrowed once its codes pass a 1..CODE_MAX check;
    from the first block that fails it on, x is kept as int64, so that
    validate names the column with its usual message."""
    rows, blocks = decoded
    if width < 2:
        return None
    y = np.empty(rows, np.int64)
    x = np.empty((rows, width - 2), np.int32, order="F")
    for lo, block in blocks:
        if block is None:
            return None
        codes = block[:, 2:]
        if x.dtype == np.int32 and codes.size and (
                codes.min() < 1 or codes.max() > CODE_MAX):
            x = x.astype(np.int64, order="F")
        y[lo:lo + len(block)] = block[:, 1]
        x[lo:lo + len(block)] = codes
    return y, x


def _read_table(path, collect=_int_matrix):
    """(header, data) of a headered CSV; header is None for an empty file.

    data is collect(decoded, width) of the row blocks of
    :func:`_decode_ints` (by default their int64 matrix), unless that is
    None; otherwise it is the csv-module rows after the header, as lists of
    strings.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    head, _, body = raw.partition(b"\n")
    # the first line is the csv header row unless a quote or a lone CR
    # makes the header span or split lines
    if body and b'"' not in head and b"\r" not in head[:-1]:
        header = next(csv.reader([head.decode("utf-8")]))
        decoded = _decode_ints(body, len(header)) if header else None
        data = None if decoded is None else collect(decoded, len(header))
        if data is not None:
            return header, data
    rows = list(csv.reader(io.StringIO(raw.decode("utf-8"), newline="")))
    return (rows[0], rows[1:]) if rows else (None, [])


def _csv_columns(path, header, rows):
    """(columns, level_maps) of the csv-module rows of path: a list of
    int64, float64 or mapped label columns, with the label-to-code maps in
    level_maps."""
    if header is None or not rows:
        raise ValidationError(f"{path}: need a header row and data rows")
    width = len(header)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValidationError(
                f"{path}: row {i + 2} has {len(row)} fields, header has {width}")
    columns, level_maps = [], {}
    for c, name in enumerate(header):
        values = [row[c].strip() for row in rows]
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
    return columns, level_maps


def _int64(path, ints: list) -> np.ndarray:
    """One column's Python ints, data row by data row, as int64; a cell
    beyond int64 is refused with its row number."""
    try:
        return np.asarray(ints, np.int64)
    except OverflowError:
        row = next(i for i, v in enumerate(ints) if not -2**63 <= v < 2**63)
        raise ValidationError(
            f"{path}: row {row + 2} has a cell beyond int64") from None


def _read_nodes(path, bins, bin_scheme):
    """(y, x, info) of nodes.csv, for :func:`read_dataset`."""
    header, data = _read_table(path, _node_codes)
    columns, level_maps = ((None, {}) if isinstance(data, tuple)
                           else _csv_columns(path, header, data))
    if len(header) < 2 or header[0] != "node_id" or header[1] != "y":
        raise ValidationError(f"{path}: header must start with node_id,y")
    info = {"level_maps": level_maps, "binned_columns": []}
    if columns is None:  # every cell a plain integer
        return (*data, info)
    y = columns[1]
    if not np.issubdtype(y.dtype, np.integer):
        raise ValidationError("response column must be integer or labeled")
    x_cols = []
    for c in range(2, len(header)):
        col = columns[c]
        if np.issubdtype(col.dtype, np.floating):
            if np.all(np.isfinite(col) & (col == np.round(col))):
                # range-checked first: a cast beyond int64 would wrap
                bad = (col < 1) | (col > CODE_MAX)
                if bad.any():
                    row = int(np.argmax(bad))
                    raise ValidationError(
                        f"{path}: row {row + 2} of column {header[c]} holds "
                        f"{col[row]:g}, outside 1..{CODE_MAX}")
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
    x = (np.column_stack(x_cols) if x_cols
         else np.empty((y.size, 0), dtype=np.int64))
    return y, x, info


def read_dataset(nodes_path, edges_path, metadata_path=None,
                 bins: int | None = None,
                 bin_scheme: str = "normal_quantile"):
    """(validated NodeDataset, info dict).

    Non-integer feature columns are quantile-binned into `bins` levels
    (error if bins is None). Non-numeric label columns are mapped to level
    codes in sorted order; the maps land in info["level_maps"]. Metadata,
    when given, supplies declared level counts, names, and composite pairs.
    """
    y, x, info = _read_nodes(nodes_path, bins, bin_scheme)

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
