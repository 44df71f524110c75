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
is one collector over the file's bytes as read: it finds the newline offsets,
cuts the data lines into row blocks there, finds the separators by a byte
mask and adds up the digits by position. Both files come back in one shape:
the first two columns (node_id,y or src,dst) as int64, and the columns after
them as a Fortran int32 code matrix. The file is held once; only CRLF line
ends or a missing last line end make a second copy. It reads a file whose
data lines are all header-wide non-empty cells of at most 18 digits (so every
value fits int64), with LF or CRLF line ends. Any other file (label, float or
signed cells, quoted cells, ragged or blank lines, lone carriage returns,
longer numbers) goes to the csv-module parser, which maps labels, keeps
floats for binning and names the first malformed row.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from .dataset import (CODE_MAX, FeatureSet, NodeDataset, column_codes,
                      discretize, validate)
from .errors import ValidationError

WRITE_BLOCK_CELLS = 1 << 16  # cells per row block, read or written


def json_text(obj) -> str:
    """obj in the format of every JSON artifact: sorted keys, two-space
    indent, one final newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(json_text(obj), encoding="utf-8")


def read_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as err:  # malformed JSON or UTF-8
        raise ValidationError(f"{path}: not a JSON file ({err})") from err


# ---- result records ----
# A record is a dataclass whose JSON holds its init fields by name, less
# those marked metadata={"json": False}. record_dict writes them and
# record_kwargs reads them back; a field whose JSON shape differs from its
# value's gets a conversion of its own in the record's to_dict or from_dict.

def _json_fields(record) -> list:
    """The fields of a dataclass record, or its class, that its JSON holds."""
    return [f for f in fields(record)
            if f.init and f.metadata.get("json", True)]


def _plain(value):
    """numpy arrays and scalars as lists and Python scalars, tuples as lists,
    a FeatureSet as its keys; any other value as it is."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, FeatureSet):
        return list(value.keys())
    return list(value) if isinstance(value, tuple) else value


def record_dict(record, **shapes) -> dict:
    """The JSON fields of a dataclass record by name, each through its
    conversion in shapes, else through _plain."""
    return {f.name: shapes.get(f.name, _plain)(getattr(record, f.name))
            for f in _json_fields(record)}


def record_kwargs(cls, d, what: str, **shapes) -> dict:
    """The keyword arguments of a record of class cls from d, a mapping in
    the shape of its record_dict: each JSON field that d holds, through its
    conversion in shapes. An absent field takes its default; a missing
    required field, an unknown key, a d that is not a dict or a value its
    conversion cannot take is a ValidationError naming the record kind what."""
    if not isinstance(d, dict):
        raise ValidationError(f"a {what} must be a JSON object")
    known = _json_fields(cls)
    unknown = sorted(map(str, d.keys() - {f.name for f in known}))
    if unknown:
        raise ValidationError(f"{what} has no field {unknown[0]!r}")
    kwargs = {}
    for f in known:
        if f.name in d:
            value = d[f.name]
            try:
                kwargs[f.name] = shapes.get(f.name, lambda v: v)(value)
            except ValidationError:  # it names the value at fault
                raise
            except (TypeError, ValueError, AttributeError):
                raise ValidationError(
                    f"{what} field {f.name!r} cannot be {value!r}") from None
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValidationError(f"{what} needs the field {f.name!r}")
    return kwargs


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


def _read_table(path):
    """(header, data) of a headered CSV; header is None for an empty file.

    data is :func:`_int_columns` of the file's bytes, (head, x), unless that
    is None; otherwise it is the csv-module rows after the header, as lists
    of strings.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    first = raw.find(b"\n")  # the end of the header line
    head = raw[:first] if first > 0 else b""
    # the first line is the csv header row unless a quote or a lone CR
    # makes the header span or split lines
    if 0 < first < len(raw) - 1 and b'"' not in head \
            and b"\r" not in head[:-1]:
        header = next(csv.reader([head.decode("utf-8")]))
        data = _int_columns(raw, len(header)) if header else None
        if data is not None:
            return header, data
    rows = list(csv.reader(io.StringIO(raw.decode("utf-8"), newline="")))
    return (rows[0], rows[1:]) if rows else (None, [])


def _int_columns(raw: bytes, width: int):
    """(head, x) of the data lines of raw, a headered CSV's bytes, or None
    when a CR in it is not part of a CRLF or a line is not width cells of 1
    to 18 digits (so that every value fits int64).

    head holds the first two columns (node_id,y or src,dst; one for a
    one-column table) as int64, and x the columns after them,
    Fortran-ordered int32. Lines are decoded by row blocks of
    WRITE_BLOCK_CELLS cells straight from the bytes, found by their newline
    offsets. Each block's codes go into x once they pass a 1..CODE_MAX
    check; from the first block that fails it on, x is kept as int64, so
    that validate names the column with its usual message. CRLF line ends
    are read as LF and the last line end is optional: only these two copy
    the bytes.
    """
    if b"\r" in raw:
        if raw.count(b"\r") != raw.count(b"\r\n"):
            return None
        raw = raw.replace(b"\r\n", b"\n")
    if not raw.endswith(b"\n"):
        raw += b"\n"
    chars = np.frombuffer(raw, np.uint8)
    ends = np.flatnonzero(chars == ord("\n"))  # the header's end comes first
    rows = ends.size - 1
    step = max(1, WRITE_BLOCK_CELLS // width)
    buf = np.empty((min(step, rows), width), np.int64)
    head = np.empty((rows, min(width, 2)), np.int64)
    x = np.empty((rows, width - head.shape[1]), np.int32, order="F")
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        block = buf[:hi - lo]
        if not _decode_block(chars[ends[lo] + 1:ends[hi] + 1], block):
            return None
        codes = block[:, 2:]
        if x.dtype == np.int32 and codes.size and (
                codes.min() < 1 or codes.max() > CODE_MAX):
            x = x.astype(np.int64, order="F")
        head[lo:hi] = block[:, :2]
        x[lo:hi] = codes
    return head, x


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


def _reads_as(cell: str, value: int) -> bool:
    """Whether the csv cell parses as the integer value."""
    try:
        return int(cell) == value
    except ValueError:
        return False


def _read_nodes(path, bins, bin_scheme):
    """(y, x, info) of nodes.csv, for :func:`read_dataset`."""
    header, data = _read_table(path)
    columns, level_maps = ((None, {}) if isinstance(data, tuple)
                           else _csv_columns(path, header, data))
    if len(header) < 2 or header[0] != "node_id" or header[1] != "y":
        raise ValidationError(f"{path}: header must start with node_id,y")
    # node ids must be 1..n in file order: rows are the nodes edges name
    if columns is None:
        head, x = data
        ids, y = head.T
        wrong = np.flatnonzero(ids != np.arange(1, ids.size + 1))
        bad = (int(wrong[0]), ids[wrong[0]]) if wrong.size else None
    else:
        bad = next(((i, row[0].strip()) for i, row in enumerate(data)
                    if not _reads_as(row[0], i + 1)), None)
    if bad is not None:
        raise ValidationError(f"{path}: row {bad[0] + 2} has node_id "
                              f"{bad[1]}; ids must run 1..n in file order")
    info = {"level_maps": level_maps, "binned_columns": []}
    if columns is None:  # every cell a plain integer
        return y, x, info
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
    if isinstance(rows, tuple):
        edges = rows[0]
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
