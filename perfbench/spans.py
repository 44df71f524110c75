"""Span tracer for the benchmark's traced runs.

The tracer wraps public netscreen functions from outside the package. Modules
inside the package import each other's functions by name (``plr`` holds its
own reference to ``counts.tally_edges``, ``experiment`` to
``screening.plr_sis``, and so on), so a wrapper is rebound in every netscreen
module, and in the package namespace, that holds the original function.
``uninstall`` puts the originals back, so untraced code runs unchanged.

Each call of a wrapped function records one span: its name, start, end,
parent span, op id, the rise of the process high-water mark inside it, and
the work counts listed in COUNTERS. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import inspect
import resource
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# (module, function) of every span the traced run records as "module.function"
TRACED = (
    ("counts", "tally_edges"),
    ("counts", "tally_marginals"),
    ("counts", "block_pair_tables"),
    ("plr", "batch_statistics"),
    ("screening", "plr_sis"),
    ("screening", "pc_sis"),
    ("screening", "interaction_expand"),
    ("classify", "fit"),
    ("classify", "predict_scores"),
    ("classify", "evaluate"),
    ("simulate", "gen_network"),
    ("simulate", "gen_nnb"),
    ("dataset", "validate"),
    ("io", "write_dataset"),
    ("io", "read_dataset"),
    ("experiment", "run_replication"),
)

OP_SPAN = "bench.op"  # root span of one op; its self time is unattributed glue
SETUP_SPAN = "bench.setup"  # root span of one set-up


def _file_bytes(*paths) -> int:
    return sum(Path(p).stat().st_size for p in paths if p is not None)


def _kernel_bytes(a, result) -> int:
    # computed from the sizes of the kernel's arrays, not measured
    arrays = (a["y0"], a["src0"], a["dst0"], a["xb0"], result)
    return sum(int(x.nbytes) for x in arrays)


# span name -> {counter: function(bound arguments, result) -> amount}
COUNTERS = {
    "counts.tally_edges": {
        "edge_cols": lambda a, res: a["src0"].shape[0] * a["xb0"].shape[1],
        "bytes_computed": _kernel_bytes,
    },
    "plr.batch_statistics": {"columns": lambda a, res: len(res[0])},
    "screening.interaction_expand": {
        "columns_added": lambda a, res: res.p - a["dataset"].x.shape[1]},
    "classify.fit": {
        "features": lambda a, res: len(set(res.cols_y) | set(res.cols_a))},
    "simulate.gen_network": {
        "pairs": lambda a, res: len(a["y"]) * (len(a["y"]) - 1)},
    # validate returns a new object and leaves its argument as it was
    "dataset.validate": {
        "calls_full": lambda a, res: 0 if getattr(
            a["dataset"], "_validated", False) else 1},
    "io.write_dataset": {
        "bytes": lambda a, res: _file_bytes(*res.values())},
    "io.read_dataset": {
        "bytes": lambda a, res: _file_bytes(
            a["nodes_path"], a["edges_path"], a.get("metadata_path"))},
}


def max_rss_mb() -> float:
    """High-water mark of the process's resident memory (ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "rss_rise_mb",
                 "counts")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.rss_rise_mb = 0.0
        self.counts = {}

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key in self.__slots__}

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        span = cls(d["name"], d["start"], d["parent"], d["op"])
        span.end = d["end"]
        span.rss_rise_mb = d["rss_rise_mb"]
        span.counts = d["counts"]
        return span


class Tracer:
    """Records spans while installed; op ids tag every span with its op."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.op = -1  # -1 marks set-up

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self.op))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, rss0: float) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.rss_rise_mb = max_rss_mb() - rss0
        self._stack.pop()
        return span

    def _wrap(self, name, func):
        sig = inspect.signature(func)
        counters = COUNTERS.get(name, {})
        tracer = self

        def traced(*args, **kwargs):
            rss0 = max_rss_mb()
            idx = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                span = tracer._close(idx, rss0)
            if counters:
                bound = sig.bind(*args, **kwargs).arguments
                span.counts = {key: count(bound, result)
                               for key, count in counters.items()}
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "netscreen"
                                         or key.startswith("netscreen."))]
        for mod_name, func_name in TRACED:
            home = sys.modules[f"netscreen.{mod_name}"]
            orig = getattr(home, func_name)
            wrapper = self._wrap(f"{mod_name}.{func_name}", orig)
            for mod in modules:
                if getattr(mod, func_name, None) is orig:
                    self._installed.append((mod, func_name, orig))
                    setattr(mod, func_name, wrapper)

    def uninstall(self) -> None:
        for mod, func_name, orig in reversed(self._installed):
            setattr(mod, func_name, orig)
        self._installed.clear()

    @contextmanager
    def recording(self, op_id: int, root: str = OP_SPAN):
        """Trace the block as op op_id (-1: set-up) under one root span."""
        self.op = op_id
        self.install()
        rss0 = max_rss_mb()
        idx = self._open(root)
        try:
            yield
        finally:
            self._close(idx, rss0)
            self.uninstall()
            self.op = -1


def self_times(spans) -> list[float]:
    """Per span: its duration minus the durations of its direct children.

    Calls run on one thread, so the children of a span never overlap and
    their durations add up to the part of the parent they cover.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def self_rss_rises(spans) -> list[float]:
    """Per span: its high-water-mark rise minus that of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.rss_rise_mb
    return [s.rss_rise_mb - c for s, c in zip(spans, child)]


def span_names() -> list[str]:
    return [f"{m}.{f}" for m, f in TRACED]


def layer_metrics(spans, n_ops: int) -> dict[str, float]:
    """Per-layer figures: means per traced op, memory rises over the run.

    Keys are "<span>.self_s", "<span>.calls" and "<span>.<counter>" (means
    over traced ops, zero for a span the workload never calls) and
    "<span>.rss_rise_mb" (self rise summed over the whole run, set-up
    included, so the layer that set the peak shows).
    """
    names = span_names() + [OP_SPAN]
    per_op = defaultdict(float)
    rss = defaultdict(float)
    selfs = self_times(spans)
    rises = self_rss_rises(spans)
    for s, st, rise in zip(spans, selfs, rises):
        rss[s.name] += rise
        if s.op < 0:
            continue
        per_op[f"{s.name}.self_s"] += st
        per_op[f"{s.name}.calls"] += 1
        for key, val in s.counts.items():
            per_op[f"{s.name}.{key}"] += val
    n_ops = max(1, n_ops)
    out = {}
    for name in names:
        out[f"{name}.self_s"] = per_op[f"{name}.self_s"] / n_ops
        if name != OP_SPAN:
            out[f"{name}.calls"] = per_op[f"{name}.calls"] / n_ops
        out[f"{name}.rss_rise_mb"] = rss[name]
    out[f"{SETUP_SPAN}.rss_rise_mb"] = rss[SETUP_SPAN]
    for name, counters in COUNTERS.items():
        for key in counters:
            out[f"{name}.{key}"] = per_op[f"{name}.{key}"] / n_ops
    return out
