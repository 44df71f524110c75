"""The four workloads of the netscreen benchmark.

Each workload builds its inputs from the benchmark seed in ``setup`` and then
runs ops in a closed loop: one client, the next op starts when the last one
returned. ``op(i)`` returns the op's output and the wall times of the steps
the benchmark called; ``check`` raises CheckFailed when an output is wrong;
``canonical`` gives the bytes the output digest is taken over.

Why these four. ``replicate_ex1`` is the paper's simulation study: many
small problems, where per-call fixed costs compete with the kernels.
``screen_n5000`` is one large screen, where the edge tallies dominate.
``interactions_ex3`` uses the same layers differently: two screening passes,
four-level composite columns, the mixed-width ranking path and a classifier
with real weight. ``simulate_io`` is the simulate -> CSV -> read path; it
never screens, so a screening change should leave it unchanged.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np
from scipy.stats import chi2, poisson

TRUE_MAINS = ("1", "2", "3", "4")


class CheckFailed(Exception):
    """An op's output broke one of the benchmark's correctness checks."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _timed(func, *args, **kwargs):
    t0 = time.perf_counter()
    out = func(*args, **kwargs)
    return out, time.perf_counter() - t0


def _plogp_ratio(a, b):
    """Sum of a * log(a / b) over cells, zero where a == 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    pos = a > 0
    return float(np.sum(a[pos] * np.log(a[pos] / b[pos])))


def reference_lambda(y, col, edges, r: int, k: int) -> float:
    """Per-node statistic of one column, tallied here independently.

    Written as the two divergences the statistic reduces to: the response
    given the feature level against the response alone, and the link rate
    given both endpoints' feature levels against the rate given their
    responses only. Each cell term is a log ratio near zero for a noise
    column, so the sum keeps full relative precision.
    """
    y0 = np.asarray(y, dtype=np.int64) - 1
    x0 = np.asarray(col, dtype=np.int64) - 1
    src, dst = edges[:, 0] - 1, edges[:, 1] - 1
    n = y0.size
    n_yj = np.zeros((r, k))
    np.add.at(n_yj, (y0, x0), 1.0)
    n_y = n_yj.sum(axis=1)
    n_j = n_yj.sum(axis=0)
    # response given level vs response alone: sum n_yj log(n_yj n / (n_j n_y))
    self_part = _plogp_ratio(n_yj, np.outer(n_y, n_j) / n)

    e4 = np.zeros((r, r, k, k))
    np.add.at(e4, (y0[src], y0[dst], x0[src], x0[dst]), 1.0)
    pairs4 = np.einsum("ak,bl->abkl", n_yj, n_yj)
    for a in range(r):
        for lev in range(k):
            pairs4[a, a, lev, lev] -= n_yj[a, lev]
    e2 = e4.sum(axis=(2, 3))
    pairs2 = np.outer(n_y, n_y) - np.diag(n_y)
    pi2 = np.divide(e2, pairs2, out=np.zeros_like(e2), where=pairs2 > 0)
    net = 0.0
    for a in range(r):
        for b in range(r):
            p0 = pi2[a, b]
            for k1 in range(k):
                for k2 in range(k):
                    e = e4[a, b, k1, k2]
                    m = pairs4[a, b, k1, k2]
                    if m == 0:
                        continue
                    p1 = e / m
                    if e > 0:
                        net += e * math.log(p1 / p0)
                    if m - e > 0:
                        net += (m - e) * (math.log1p(-p1) - math.log1p(-p0))
    return (self_part + net) / n


class Workload:
    """One workload; subclasses fill in the set-up, the op and the checks."""

    name = ""
    why = ""
    sizes: dict = {}
    digest_ops = 1       # ops whose outputs the run digest covers
    same_output = False  # every op repeats the same call on the same inputs
    stages: tuple = ()   # steps op() times, by the names the summary uses
    aliases: dict = {}   # summary name -> (end-to-end metric it repeats, unit)

    def __init__(self, ns, seed: int, size: str, workdir: Path):
        self.ns = ns
        self.seed = seed
        self.size = dict(self.sizes[size])
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def after_setup(self) -> None:
        """Untimed preparation of the checks, once the inputs exist."""

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> None:
        raise NotImplementedError

    def canonical(self, out) -> bytes:
        raise NotImplementedError

    def finish(self) -> None:
        """Run-level check over the outputs that passed their checks."""


class ReplicateEx1(Workload):
    name = "replicate_ex1"
    why = ("the paper's simulation study: many small problems, where "
           "per-call fixed costs compete with the counting kernels")
    sizes = {"full": {"n": 500, "p": 1000}, "toy": {"n": 300, "p": 120}}
    digest_ops = 10
    aliases = {"reps_per_s": ("ops_per_s", "1/s"),
               "rep_p50_ms": ("op_p50_ms", "ms")}
    alpha = 5e-5
    min_cmf, max_imf = 3.90, 0.10  # the acceptance bars of the binary design
    BAR_LEVEL = 1e-3

    def _replicate(self, rep: int):
        return self.ns.run_replication(self.config, rep=rep, seed=self.seed,
                                       cutoff="pvalue",
                                       cutoff_alpha=self.alpha)

    def setup(self) -> None:
        self.config = self.ns.example_config(1, **self.size)
        self.kept = []  # plr's kept set of every replication that passed
        # one warm-up replication on a stream no op uses
        self._replicate(10**9)

    def op(self, i: int):
        return self._replicate(i), {}

    def check(self, i: int, rec) -> None:
        _require(rec.get("rep") == i, "record carries the wrong rep index")
        for method in ("plr", "pc"):
            entry = rec.get(method)
            _require(isinstance(entry, dict), f"no {method} entry")
            sel = entry["selected"]
            _require(all(isinstance(key, str) for key in sel),
                     f"{method}: selected keys must be strings")
            _require(len(set(sel)) == len(sel), f"{method}: duplicate keys")
            _require(entry["d_hat"] == len(sel),
                     f"{method}: d_hat {entry['d_hat']} != {len(sel)} kept")
            _require(isinstance(entry["degenerate"], bool),
                     f"{method}: degenerate flag is not a bool")
            _require(0.0 <= entry["acc"] <= 1.0, f"{method}: accuracy range")
            _require(entry["auc"] is None or 0.0 <= entry["auc"] <= 1.0,
                     f"{method}: AUC range")
        fits = rec.get("true_fit") or {}
        _require(sorted(fits) == ["type1", "type2", "type3"],
                 "true-support classifiers missing")
        for kind, e in fits.items():
            _require(0.0 <= e["acc"] <= 1.0, f"true {kind}: accuracy range")
        self.kept.append(set(rec["plr"]["selected"]))

    def canonical(self, rec) -> bytes:
        return json.dumps(rec, sort_keys=True).encode()

    def finish(self) -> None:
        # The bars bound the mean over replications, so a run is held to them
        # by a one-sided test at its own replication count: it fails when its
        # misses or false keeps would be that high less than once in
        # BAR_LEVEL**-1 runs if the mean sat exactly on the bar.
        m = len(self.kept)
        _require(m > 0, "no replication passed its checks")
        truth = set(TRUE_MAINS)
        misses = sum(len(truth - s) for s in self.kept)
        false = sum(len(s - truth) for s in self.kept)
        for what, count, bar in (("CMF", misses, 4 - self.min_cmf),
                                 ("IMF", false, self.max_imf)):
            _require(poisson.sf(count - 1, bar * m) >= self.BAR_LEVEL,
                     f"acceptance bars missed: CMF {4 - misses / m:.3f}, "
                     f"IMF {false / m:.3f} over {m} replications ({what})")


class _ScreenWorkload(Workload):
    """Screen one fixed dataset per op: plr, then pc, then a classifier."""

    same_output = True
    stages = ("screen_s", "pc_screen_s", "classify_s")

    example = 1  # the example_config design the dataset is drawn from

    def setup(self) -> None:
        config = self.ns.example_config(self.example, n=self.size["n"],
                                        p=self.size["p"])
        self.dataset, _ = self.ns.generate(config, seed=self.seed)

    def _classify(self, selected):
        ns = self.ns
        data = self.dataset
        if selected.pairs:
            data = ns.interaction_expand(data, selected.pairs)
        clf = ns.fit(ns.ClassifierSpec("type3", s_y=selected, s_a=selected),
                     data)
        return ns.evaluate(clf, data, auc=True)

    def op(self, i: int):
        ns = self.ns
        plr, t_plr = _timed(ns.plr_sis, self.dataset, **self.screen_options)
        pc, t_pc = _timed(ns.pc_sis, self.dataset, **self.screen_options)
        (acc, auc), t_clf = _timed(self._classify, plr.selected)
        out = {"plr": plr, "pc": pc, "acc": acc, "auc": auc}
        return out, {"screen_s": t_plr, "pc_screen_s": t_pc,
                     "classify_s": t_clf}

    def canonical(self, out) -> bytes:
        return json.dumps({"plr": out["plr"].to_dict(),
                           "pc": out["pc"].to_dict(),
                           "acc": out["acc"], "auc": out["auc"]},
                          sort_keys=True).encode()

    def _check_classifier(self, out) -> None:
        _require(0.5 <= out["acc"] <= 1.0,
                 f"classifier accuracy {out['acc']} at or below chance")
        _require(out["auc"] is not None and 0.0 <= out["auc"] <= 1.0,
                 "AUC range")


class ScreenN5000(_ScreenWorkload):
    name = "screen_n5000"
    why = ("one large screen (E about 407k edges), where the edge tallies "
           "take most of the screening time")
    sizes = {"full": {"n": 5000, "p": 1000, "sample": 12},
             "toy": {"n": 600, "p": 80, "sample": 6}}

    @property
    def screen_options(self):
        return {"cutoff": "pvalue", "alpha": 0.05 / self.size["p"]}

    def after_setup(self) -> None:
        data = self.dataset
        rng = np.random.default_rng(self.seed)
        noise = rng.choice(np.arange(5, data.p + 1), self.size["sample"],
                           replace=False)
        self.ref_cols = np.concatenate([[1, 2, 3, 4], np.sort(noise)])
        self.ref_lam = np.array([
            reference_lambda(data.y, data.column(int(j)), data.edges,
                             data.r_levels, int(data.k_levels[j - 1]))
            for j in self.ref_cols])

    def check(self, i: int, out) -> None:
        plr = out["plr"]
        kept = set(plr.selected.keys())
        _require(set(TRUE_MAINS) <= kept, f"plr kept {sorted(kept)}")
        # The cutoff keeps exactly the columns whose chi-square tail, with
        # df (R-1)(K-1) + R^2(K^2-1) = 13 for binary columns, is within
        # alpha. Noise columns may pass it: alpha bounds their chance, not
        # their count, so the kept set is not required to be the truth.
        tails = chi2.sf(2.0 * self.dataset.n * np.asarray(plr.lam), 13)
        want = {str(j) for j in np.flatnonzero(
            tails <= self.screen_options["alpha"]) + 1}
        _require(kept == want,
                 f"plr kept {sorted(kept)}, the cutoff passes {sorted(want)}")
        lam = np.asarray(plr.lam)[self.ref_cols - 1]
        err = np.abs(lam - self.ref_lam) / np.abs(self.ref_lam)
        _require(bool(np.all(err <= 1e-9)),
                 f"statistic off the reference tally by {err.max():.2e} "
                 f"(relative) at column {int(self.ref_cols[err.argmax()])}")
        self._check_classifier(out)


class InteractionsEx3(_ScreenWorkload):
    name = "interactions_ex3"
    why = ("two screening passes over mains and four-level composites, "
           "mixed-width ranking, and a classifier on 263 kept features")
    sizes = {"full": {"n": 2000, "p": 1000, "top_m": 40},
             "toy": {"n": 1000, "p": 60, "top_m": 20}}
    example = 3
    true_keys = ("1", "3", "4", "1&2", "3&4")

    @property
    def screen_options(self):
        return {"interactions": "top", "top_m": self.size["top_m"],
                "cutoff": "hard"}

    def check(self, i: int, out) -> None:
        plr = out["plr"]
        want = math.floor(self.size["n"] / math.log(self.size["n"]))
        _require(plr.d_hat == want, f"plr kept {plr.d_hat}, not {want}")
        kept = set(plr.selected.keys())
        missing = [key for key in self.true_keys if key not in kept]
        _require(not missing, f"plr dropped true keys {missing}")
        _require(plr.rank_by == "pvalue", "mixed widths must rank by p-value")
        self._check_classifier(out)


class SimulateIo(Workload):
    name = "simulate_io"
    why = ("simulate, write the CSVs, read them back: the data path of "
           "every file-based run; it never screens")
    sizes = {"full": {"n": 5000, "p": 1000, "warm_n": 1000},
             "toy": {"n": 300, "p": 40, "warm_n": 100}}
    stages = ("simulate_s", "write_s", "read_s")

    def _round_trip(self, config, seed, out_dir: Path):
        ns = self.ns
        dataset, t_sim = _timed(lambda: ns.generate(config, seed=seed)[0])
        paths, t_write = _timed(ns.write_dataset, out_dir, dataset)
        (back, _), t_read = _timed(ns.read_dataset, paths["nodes"],
                                   paths["edges"], paths["metadata"])
        return (dataset, back, paths), {"simulate_s": t_sim,
                                        "write_s": t_write,
                                        "read_s": t_read}

    def setup(self) -> None:
        # a warm-up round trip at reduced size, into its own directory
        config = self.ns.example_config(1, n=self.size["warm_n"],
                                        p=self.size["p"])
        self._round_trip(config, (self.seed, 10**9), self.workdir / "warm")
        self.config = self.ns.example_config(1, n=self.size["n"],
                                             p=self.size["p"])

    def op(self, i: int):
        return self._round_trip(self.config, (self.seed, i),
                                self.workdir / "data")

    def check(self, i: int, out) -> None:
        written, back, _ = out
        for attr in ("y", "x", "edges", "k_levels"):
            _require(np.array_equal(getattr(written, attr),
                                    getattr(back, attr)),
                     f"read-back {attr} differs from the written dataset")
        _require(written.r_levels == back.r_levels, "read-back R differs")
        _require(written.feature_names == back.feature_names,
                 "read-back names differ")
        _require(written.composite_pairs == back.composite_pairs,
                 "read-back composite map differs")

    def canonical(self, out) -> bytes:
        paths = out[2]
        return b"".join(Path(paths[key]).read_bytes()
                        for key in ("nodes", "edges", "metadata"))


WORKLOADS = {w.name: w for w in (ReplicateEx1, ScreenN5000, InteractionsEx3,
                                 SimulateIo)}
