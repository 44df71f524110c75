"""Replicated simulation runs: generate, screen, classify, aggregate.

Each replication is a pure function of (config, base seed, replication
index), so replication-level parallelism cannot change any number in the
report and results are reproducible across machines. Wall-clock timings are
kept out of the serialized report so identical seeds give byte-identical
report files; they travel separately.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .classify import KINDS, ClassifierSpec, evaluate, fit, screening_metrics
from .dataset import FeatureSet, whole
from .errors import ValidationError
from .io import json_text, record_dict, record_kwargs
from .plr import degrees_of_freedom, plr_statistic
from .screening import interaction_expand, pc_sis, plr_sis
from .simulate import SimulationConfig, example_config, generate


@dataclass
class ExperimentReport:
    """Aggregated outcome of one replicated run; JSON round-trips losslessly."""

    version: str
    name: str
    model: str
    n: int
    p: int
    m_reps: int
    seed: int
    config: dict
    replications: list
    metrics: dict
    true_fit: dict | None = None
    # in memory only: wall time never serializes
    timing: dict | None = field(default=None, metadata={"json": False})

    def to_dict(self) -> dict:
        return record_dict(self)

    def to_json(self) -> str:
        return json_text(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentReport":
        return cls(**record_kwargs(cls, d, "experiment report"))

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        return cls.from_dict(json.loads(text))


def _clean_float(v):
    if v is None:
        return None
    v = float(v)
    return None if math.isnan(v) else v


def _classify_on(dataset, kind, s_y, s_a, want_auc):
    spec = ClassifierSpec(kind, s_y=s_y, s_a=s_a)
    needed = set(s_y.pairs) | (set(s_a.pairs) if kind == "type3" else set())
    dataset = interaction_expand(dataset, sorted(needed))
    clf = fit(spec, dataset)
    acc, auc = evaluate(clf, dataset, auc=want_auc)
    return float(acc), _clean_float(auc)


def run_replication(config: SimulationConfig, rep: int, seed: int, *,
                    methods=("plr", "pc"), interactions: str = "auto",
                    cutoff: str = "max_ratio", cutoff_d: int | None = None,
                    cutoff_alpha: float = 0.05,
                    classify_selected: bool = True,
                    classify_true=KINDS) -> dict:
    """One replication: a plain dict of selections, scores, and accuracies."""
    dataset, extras = generate(config, seed=(seed, rep))
    truth = extras["true_features"]
    mode = interactions
    if mode == "auto":
        mode = "top" if truth.pairs else "none"
    want_auc = config.r_levels == 2
    rec = {"rep": rep}
    screens = {"plr": plr_sis, "pc": pc_sis}
    for method in methods:
        if method not in screens:
            raise ValidationError(f"unknown screening method {method!r}")
        res = screens[method](dataset, cutoff=cutoff, d=cutoff_d,
                              alpha=cutoff_alpha, interactions=mode)
        entry = {"selected": list(res.selected.keys()),
                 "d_hat": int(res.d_hat),
                 "degenerate": bool(res.degenerate)}
        if method == "plr":
            true_keys = set(truth.keys())
            in_truth = [i for i, key in enumerate(res.feature_keys)
                        if key in true_keys]
            if in_truth and len(in_truth) < len(res.feature_keys):
                mask = np.zeros(len(res.feature_keys), dtype=bool)
                mask[in_truth] = True
                entry["min_true_score"] = float(res.scores[mask].min())
                entry["max_noise_score"] = float(res.scores[~mask].max())
        if classify_selected:
            kind = "type3" if method == "plr" else "type1"
            acc, auc = _classify_on(dataset, kind, res.selected,
                                    res.selected, want_auc)
            entry["acc"] = acc
            entry["auc"] = auc
        rec[method] = entry
    if classify_true:
        rec["true_fit"] = {}
        for kind in classify_true:
            acc, auc = _classify_on(dataset, kind, config.s_y, config.s_a,
                                    want_auc)
            rec["true_fit"][kind] = {"acc": acc, "auc": auc}
    return rec


def _worker(args):
    config, rep, seed, options = args
    return run_replication(config, rep, seed, **options)


def _mean_se(values):
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return mean, se


def _fit_summary(fits) -> dict:
    """acc_mean and acc_se of classifier fits, and auc_mean when any fit
    has an AUC."""
    out = {}
    out["acc_mean"], out["acc_se"] = _mean_se([f["acc"] for f in fits])
    aucs = [f["auc"] for f in fits if f.get("auc") is not None]
    if aucs:
        out["auc_mean"], _ = _mean_se(aucs)
    return out


def _aggregate(records, config, methods, classify_true):
    truth = config.true_features()
    metrics = {}
    for method in methods:
        sels = [FeatureSet.from_keys(r[method]["selected"]) for r in records]
        rep_metrics = screening_metrics(sels, truth)
        entry = rep_metrics.to_dict()
        fitted = [r[method] for r in records if "acc" in r[method]]
        if fitted:
            entry.update(_fit_summary(fitted))
        if method == "plr":
            margins = [r[method] for r in records
                       if "min_true_score" in r[method]]
            if margins:
                entry["rank_consistent"] = sum(
                    m["min_true_score"] > m["max_noise_score"]
                    for m in margins)
        metrics[method] = entry
    true_fit = None
    if classify_true:
        true_fit = {kind: _fit_summary([r["true_fit"][kind] for r in records])
                    for kind in classify_true}
    return metrics, true_fit


def experiment(config, *, n: int | None = None, p: int | None = None,
               m_reps: int = 100, seed: int = 0, model: str | None = None,
               methods=("plr", "pc"), interactions: str = "auto",
               cutoff: str = "max_ratio", cutoff_d: int | None = None,
               cutoff_alpha: float = 0.05, classify_selected: bool = True,
               classify_true=KINDS,
               threads: int = 1) -> ExperimentReport:
    """Run m_reps replications of a config (or example id) and aggregate.

    config: SimulationConfig, or an example id 1..9 resolved through
    example_config with the given n, p, model. Replication i draws its
    randomness from (seed, i) alone. threads > 1 spreads replications over
    processes without changing any result.
    """
    if not isinstance(config, SimulationConfig):
        config = example_config(config, n=n, p=p, model=model, seed=seed)
    else:
        config = replace(config, n=config.n if n is None else n,
                         p=config.p if p is None else p)
    m_reps, threads = whole(m_reps, "m_reps"), whole(threads, "threads")
    if m_reps < 1:
        raise ValidationError("need at least one replication")
    if threads < 1:
        raise ValidationError(f"threads must be at least 1, not {threads}")
    options = {"methods": tuple(methods), "interactions": interactions,
               "cutoff": cutoff, "cutoff_d": cutoff_d,
               "cutoff_alpha": cutoff_alpha,
               "classify_selected": classify_selected,
               "classify_true": tuple(classify_true)}
    started = time.perf_counter()
    if threads > 1:
        jobs = [(config, rep, seed, options) for rep in range(m_reps)]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(_worker, jobs, chunksize=4))
    else:
        records = [run_replication(config, rep, seed, **options)
                   for rep in range(m_reps)]
    records.sort(key=lambda r: r["rep"])
    elapsed = time.perf_counter() - started
    metrics, true_fit = _aggregate(records, config, methods, classify_true)
    return ExperimentReport(
        version=__version__, name=config.name, model=config.model,
        n=config.n, p=config.p, m_reps=m_reps, seed=seed,
        config=config.to_dict(), replications=records, metrics=metrics,
        true_fit=true_fit,
        timing={"total_s": elapsed, "mean_rep_s": elapsed / m_reps,
                "threads": threads})


def null_calibration(n: int | None = None, reps: int = 2000, seed: int = 0,
                     *, r_levels: int = 2) -> dict:
    """Monte Carlo check of the chi-square reference under independence.

    Samples datasets of n nodes (default 500) with one feature column
    unrelated to both the response and the network (the config's default
    column, level 2 w.p. 0.2, on a network with no phi terms), and collects
    the doubled statistic totals. Under the reference, their means sit at
    the degrees of freedom.
    """
    reps = whole(reps, "reps")
    if reps < 2:
        raise ValidationError("null calibration needs reps >= 2")
    n = 500 if n is None else n
    config = SimulationConfig(name="null", model="nnb", n=n, p=1,
                              r_levels=r_levels)
    self_samples = np.empty(reps)
    net_samples = np.empty(reps)
    for rep in range(reps):
        dataset, _ = generate(config, seed=(seed, rep))
        stat = plr_statistic(dataset, 1)
        self_samples[rep] = 2.0 * n * stat.lam_self
        net_samples[rep] = 2.0 * n * stat.lam_network
    df_self, df_net = degrees_of_freedom(r_levels, 2)
    return {
        "n": n, "reps": reps, "seed": seed,
        "df_self": df_self, "df_network": df_net,
        "mean_self": float(self_samples.mean()),
        "mean_network": float(net_samples.mean()),
        "ratio_self": float(self_samples.mean() / df_self),
        "ratio_network": float(net_samples.mean() / df_net),
        "var_self": float(self_samples.var(ddof=1)),
        "var_network": float(net_samples.var(ddof=1)),
        "samples_self": self_samples.tolist(),
        "samples_network": net_samples.tolist(),
    }
