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
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .classify import ClassifierSpec, evaluate, fit, screening_metrics
from .dataset import FeatureSet
from .errors import ValidationError
from .plr import degrees_of_freedom, plr_statistic
from .screening import interaction_expand, pc_sis, plr_sis
from .simulate import SimulationConfig, example_config, generate

CLASSIFIER_KINDS = ("type1", "type2", "type3")


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
    timing: dict | None = None  # in-memory only, never serialized

    def to_dict(self) -> dict:
        return {
            "version": self.version, "name": self.name, "model": self.model,
            "n": self.n, "p": self.p, "m_reps": self.m_reps,
            "seed": self.seed, "config": self.config,
            "replications": self.replications, "metrics": self.metrics,
            "true_fit": self.true_fit,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentReport":
        return cls(version=d["version"], name=d["name"], model=d["model"],
                   n=d["n"], p=d["p"], m_reps=d["m_reps"], seed=d["seed"],
                   config=d["config"], replications=d["replications"],
                   metrics=d["metrics"], true_fit=d.get("true_fit"))

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
    have = set(dataset.composite_pairs.values())
    missing = sorted(needed - have)
    if missing:
        dataset = interaction_expand(dataset, missing)
    clf = fit(spec, dataset)
    acc, auc = evaluate(clf, dataset, auc=want_auc)
    return float(acc), _clean_float(auc)


def run_replication(config: SimulationConfig, rep: int, seed: int, *,
                    methods=("plr", "pc"), interactions: str = "auto",
                    cutoff: str = "max_ratio", cutoff_d: int | None = None,
                    cutoff_alpha: float = 0.05,
                    classify_selected: bool = True,
                    classify_true=CLASSIFIER_KINDS) -> dict:
    """One replication: a plain dict of selections, scores, and accuracies."""
    dataset, extras = generate(config, seed=(seed, rep))
    truth = extras["true_features"]
    mode = interactions
    if mode == "auto":
        mode = "top" if truth.pairs else "none"
    want_auc = config.r_levels == 2
    rec = {"rep": rep}
    for method in methods:
        if method == "plr":
            res = plr_sis(dataset, cutoff=cutoff, d=cutoff_d,
                          alpha=cutoff_alpha, interactions=mode)
        elif method == "pc":
            res = pc_sis(dataset, cutoff=cutoff, d=cutoff_d,
                         alpha=cutoff_alpha, interactions=mode)
        else:
            raise ValidationError(f"unknown screening method {method!r}")
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
        base = dataset
        if truth.pairs:
            base = interaction_expand(dataset, truth.pairs)
        for kind in classify_true:
            acc, auc = _classify_on(base, kind, config.s_y, config.s_a,
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


def _aggregate(records, config, methods, classify_true):
    truth = config.true_features()
    metrics = {}
    for method in methods:
        sels = [FeatureSet.from_keys(r[method]["selected"]) for r in records]
        rep_metrics = screening_metrics(sels, truth)
        entry = rep_metrics.to_dict()
        accs = [r[method]["acc"] for r in records if "acc" in r[method]]
        if accs:
            entry["acc_mean"], entry["acc_se"] = _mean_se(accs)
            aucs = [r[method]["auc"] for r in records
                    if r[method].get("auc") is not None]
            if aucs:
                entry["auc_mean"], _ = _mean_se(aucs)
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
        true_fit = {}
        for kind in classify_true:
            accs = [r["true_fit"][kind]["acc"] for r in records]
            mean, se = _mean_se(accs)
            entry = {"acc_mean": mean, "acc_se": se}
            aucs = [r["true_fit"][kind]["auc"] for r in records
                    if r["true_fit"][kind]["auc"] is not None]
            if aucs:
                entry["auc_mean"], _ = _mean_se(aucs)
            true_fit[kind] = entry
    return metrics, true_fit


def experiment(config, *, n: int | None = None, p: int | None = None,
               m_reps: int = 100, seed: int = 0, model: str | None = None,
               methods=("plr", "pc"), interactions: str = "auto",
               cutoff: str = "max_ratio", cutoff_d: int | None = None,
               cutoff_alpha: float = 0.05, classify_selected: bool = True,
               classify_true=CLASSIFIER_KINDS,
               threads: int = 1) -> ExperimentReport:
    """Run m_reps replications of a config (or example id) and aggregate.

    config: SimulationConfig, or an example id 1..9 resolved through
    example_config with the given n, p, model. Replication i draws its
    randomness from (seed, i) alone. threads > 1 spreads replications over
    processes without changing any result.
    """
    if not isinstance(config, SimulationConfig):
        config = example_config(config, n=n or 300, p=p or 400, model=model,
                                seed=seed)
    else:
        updates = {}
        if n is not None:
            updates["n"] = n
        if p is not None:
            updates["p"] = p
        if updates:
            config = replace(config, **updates)
    if m_reps < 1:
        raise ValidationError("need at least one replication")
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


def null_calibration(n: int = 500, reps: int = 2000, seed: int = 0, *,
                     r_levels: int = 2, level2_prob: float = 0.2,
                     gamma: float = 0.5) -> dict:
    """Monte Carlo check of the chi-square reference under independence.

    Samples datasets with one feature column unrelated to both the response
    and the network, and collects the doubled statistic totals. Under the
    reference, their means sit at the degrees of freedom.
    """
    config = SimulationConfig(
        name="null", model="nnb", n=n, p=1, r_levels=r_levels,
        columns={1: {"kind": "bern", "p": level2_prob}},
        phi=(), gamma=gamma)
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
