"""Plug-in classifiers on node features and network structure, plus metrics.

Three nested scores for a node's response level r:

  type1  log prior(r) + sum over kept features of log P(feature level | r)
  type2  type1 + Bernoulli link terms against every other labeled node,
         with link probabilities stratified by the two endpoint responses
  type3  type2 + per-feature link corrections for network-related features,
         each the log ratio of the feature-refined link probability to the
         response-only one

All probabilities are additively smoothed cell frequencies, so every score
is finite. Predictions condition on the responses of all labeled nodes
except the node being predicted; parameter tables come from the fitted
sample. Ties go to the smallest level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .counts import block_pair_tables, tally_edges, tally_marginals
from .dataset import FeatureSet, NodeDataset, validate
from .errors import ValidationError
from .plr import width_blocks

KINDS = ("type1", "type2", "type3")


@dataclass(frozen=True)
class ClassifierSpec:
    """Which score to use and which features feed it.

    s_y: features for the per-node term. s_a: features for the link
    corrections, used by type3 only. smoothing: additive cell smoothing,
    must be positive so all logs stay finite.
    """

    kind: str
    s_y: FeatureSet = field(default_factory=FeatureSet)
    s_a: FeatureSet = field(default_factory=FeatureSet)
    smoothing: float = 0.5

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown classifier kind {self.kind!r}")
        if not self.smoothing > 0:
            raise ValidationError("smoothing must be positive")


@dataclass
class NetworkClassifier:
    """Fitted tables; produced by :func:`fit`, consumed by :func:`predict`."""

    spec: ClassifierSpec
    r_levels: int
    n_fit: int
    train_mask: np.ndarray
    cols_y: tuple[int, ...]
    cols_a: tuple[int, ...]
    k_widths: dict[int, int]
    log_prior: np.ndarray
    log_cond: dict[int, np.ndarray]
    log_pi0: np.ndarray | None = None
    log_gap0: np.ndarray | None = None
    dlog_edge: dict[int, np.ndarray] = field(default_factory=dict)
    dlog_gap: dict[int, np.ndarray] = field(default_factory=dict)


def _resolve_columns(dataset: NodeDataset, features: FeatureSet):
    """Map a feature set to dataset column ids; pairs need composite columns."""
    rev = {pair: col for col, pair in dataset.composite_pairs.items()}
    cols = []
    for j in features.mains:
        if not 1 <= j <= dataset.p:
            raise ValidationError(f"feature column {j} outside 1..{dataset.p}")
        cols.append(j)
    for pair in features.pairs:
        col = rev.get(pair)
        if col is None:
            raise ValidationError(
                f"interaction {pair[0]}&{pair[1]} has no composite column; "
                "expand the dataset first")
        cols.append(col)
    return tuple(cols)


def fit(spec: ClassifierSpec, dataset: NodeDataset,
        train_mask=None) -> NetworkClassifier:
    """Estimate all smoothed tables from the masked-in nodes.

    train_mask: boolean (n,) selector of fitting nodes, default all. Link
    tables count ordered pairs and edges whose two endpoints are both
    masked in.
    """
    dataset = validate(dataset)
    n, r = dataset.n, dataset.r_levels
    alpha = spec.smoothing
    if train_mask is None:
        mask = np.ones(n, dtype=bool)
    else:
        mask = np.asarray(train_mask, dtype=bool)
        if mask.shape != (n,):
            raise ValidationError("train_mask must be a boolean (n,) array")
    cols_y = _resolve_columns(dataset, spec.s_y)
    cols_a = _resolve_columns(dataset, spec.s_a) if spec.kind == "type3" else ()

    y0 = dataset._y0[mask]
    n_fit = int(mask.sum())
    n_y = np.bincount(y0, minlength=r).astype(np.float64)
    log_prior = np.log((n_y + alpha) / (n_fit + alpha * r))

    log_cond = {}
    widths = {}
    for col in dict.fromkeys(cols_y + cols_a):
        k = int(dataset.k_levels[col - 1])
        widths[col] = k
        x0 = dataset.column(col)[mask].astype(np.int64) - 1
        n_yj = np.bincount(y0 * k + x0, minlength=r * k).reshape(r, k)
        log_cond[col] = np.log(
            (n_yj + alpha) / (n_y[:, None] + alpha * k))

    clf = NetworkClassifier(
        spec=spec, r_levels=r, n_fit=n_fit, train_mask=mask,
        cols_y=cols_y, cols_a=cols_a, k_widths=widths,
        log_prior=log_prior, log_cond=log_cond)
    if spec.kind == "type1":
        return clf

    # link tables over ordered pairs with both endpoints in the mask
    both = mask[dataset._src0] & mask[dataset._dst0]
    src0, dst0 = dataset._src0[both], dataset._dst0[both]
    e0 = np.bincount(dataset._y0[src0] * r + dataset._y0[dst0],
                     minlength=r * r).reshape(r, r)
    n_y_int = np.bincount(y0, minlength=r)
    p0 = np.outer(n_y_int, n_y_int) - np.diag(n_y_int)
    pi0 = (e0 + alpha) / (p0 + 2 * alpha)
    clf.log_pi0 = np.log(pi0)
    clf.log_gap0 = np.log1p(-pi0)
    if spec.kind == "type2":
        return clf

    cols = np.asarray(cols_a, dtype=np.int64)
    for k, part in width_blocks(dataset.k_levels[cols - 1], r):
        xb0 = dataset.x[:, cols[part] - 1].astype(np.int64) - 1
        edges = tally_edges(dataset._y0, src0, dst0, xb0, r, k)
        pairs = block_pair_tables(tally_marginals(y0, xb0[mask], r, k))
        for col, ej, pj in zip(cols[part].tolist(), edges, pairs):
            pij = (ej + alpha) / (pj + 2 * alpha)
            clf.dlog_edge[col] = np.log(pij) - clf.log_pi0[:, :, None, None]
            clf.dlog_gap[col] = np.log1p(-pij) - clf.log_gap0[:, :, None, None]
    return clf


def _known_tallies(clf, dataset, col=None):
    """Per-node edge tallies against labeled nodes, optionally by feature level.

    Returns (out_t, in_t, totals): out_t[i] counts edges i -> labeled nodes by
    the neighbor's (response, level-of-col) cell, in_t the reverse direction,
    totals the labeled-node census in those cells.
    """
    n, r = dataset.n, clf.r_levels
    mask = clf.train_mask
    src0, dst0, y0 = dataset._src0, dataset._dst0, dataset._y0
    if col is None:
        known_dst = mask[dst0]
        out_t = np.bincount(
            src0[known_dst] * r + y0[dst0[known_dst]], minlength=n * r
        ).reshape(n, r)
        known_src = mask[src0]
        in_t = np.bincount(
            dst0[known_src] * r + y0[src0[known_src]], minlength=n * r
        ).reshape(n, r)
        totals = np.bincount(y0[mask], minlength=r)
        return out_t, in_t, totals
    k = clf.k_widths[col]
    x0 = dataset.column(col).astype(np.int64) - 1
    cell = y0 * k + x0
    known_dst = mask[dst0]
    out_t = np.bincount(
        src0[known_dst] * (r * k) + cell[dst0[known_dst]], minlength=n * r * k
    ).reshape(n, r, k)
    known_src = mask[src0]
    in_t = np.bincount(
        dst0[known_src] * (r * k) + cell[src0[known_src]], minlength=n * r * k
    ).reshape(n, r, k)
    totals = np.bincount(cell[mask], minlength=r * k).reshape(r, k)
    return out_t, in_t, totals


def predict_scores(clf: NetworkClassifier, dataset: NodeDataset,
                   targets=None) -> np.ndarray:
    """Score matrix (len(targets), R); targets are 1-based node ids."""
    dataset = validate(dataset)
    n, r = dataset.n, clf.r_levels
    if dataset.r_levels != r:
        raise ValidationError("dataset response levels differ from the fit")
    if clf.train_mask.shape != (n,):
        raise ValidationError("dataset size differs from the fit")
    for col, k in clf.k_widths.items():
        if col > dataset.p or int(dataset.k_levels[col - 1]) != k:
            raise ValidationError(f"column {col} widths differ from the fit")
    if targets is None:
        t0 = np.arange(n, dtype=np.int64)
    else:
        t0 = np.asarray(targets, dtype=np.int64) - 1
        if t0.size and (t0.min() < 0 or t0.max() >= n):
            raise ValidationError(f"target node outside 1..{n}")

    scores = np.tile(clf.log_prior, (t0.size, 1))
    for col in clf.cols_y:
        x0 = dataset.column(col).astype(np.int64)[t0] - 1
        scores += clf.log_cond[col][:, x0].T
    if clf.spec.kind == "type1":
        return scores

    y0 = dataset._y0
    mask = clf.train_mask
    out_t, in_t, totals = _known_tallies(clf, dataset)
    # drop each target from its own conditioning set
    self_cell = np.zeros((t0.size, r))
    known_t = mask[t0]
    self_cell[np.arange(t0.size)[known_t], y0[t0[known_t]]] = 1.0
    cnt = totals[None, :] - self_cell
    out_e = out_t[t0]
    in_e = in_t[t0]
    scores += out_e @ clf.log_pi0.T + in_e @ clf.log_pi0
    scores += (cnt - out_e) @ clf.log_gap0.T + (cnt - in_e) @ clf.log_gap0
    if clf.spec.kind == "type2":
        return scores

    for col in clf.cols_a:
        k = clf.k_widths[col]
        out_t, in_t, totals = _known_tallies(clf, dataset, col)
        x0 = dataset.column(col).astype(np.int64) - 1
        self_cell = np.zeros((t0.size, r, k))
        self_cell[np.arange(t0.size)[known_t], y0[t0[known_t]],
                  x0[t0[known_t]]] = 1.0
        cnt = totals[None, :, :] - self_cell
        out_e = out_t[t0].reshape(t0.size, r * k)
        out_g = (cnt - out_t[t0]).reshape(t0.size, r * k)
        in_e = in_t[t0].reshape(t0.size, r * k)
        in_g = (cnt - in_t[t0]).reshape(t0.size, r * k)
        de, dg = clf.dlog_edge[col], clf.dlog_gap[col]
        for lev in range(k):
            sel = np.flatnonzero(x0[t0] == lev)
            if not sel.size:
                continue
            # target as source: table[r, r2, lev, k2]
            a_e = de[:, :, lev, :].reshape(r, r * k)
            a_g = dg[:, :, lev, :].reshape(r, r * k)
            # target as destination: table[r2, r, k2, lev]
            b_e = de.transpose(1, 0, 3, 2)[:, :, lev, :].reshape(r, r * k)
            b_g = dg.transpose(1, 0, 3, 2)[:, :, lev, :].reshape(r, r * k)
            scores[sel] += (out_e[sel] @ a_e.T + out_g[sel] @ a_g.T
                            + in_e[sel] @ b_e.T + in_g[sel] @ b_g.T)
    return scores


def predict(clf: NetworkClassifier, dataset: NodeDataset,
            targets=None) -> np.ndarray:
    """Predicted response levels, ties resolved to the smallest level."""
    scores = predict_scores(clf, dataset, targets)
    return (np.argmax(scores, axis=1) + 1).astype(np.int32)


def _rank_auc(margin: np.ndarray, positive: np.ndarray) -> float:
    order = np.argsort(margin, kind="mergesort")
    sorted_m = margin[order]
    starts = np.r_[0, np.flatnonzero(np.diff(sorted_m) != 0) + 1]
    ends = np.r_[starts[1:], margin.size]
    ranks = np.empty(margin.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    n_pos = int(positive.sum())
    n_neg = margin.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    return float(
        (ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def evaluate(clf: NetworkClassifier, dataset: NodeDataset, targets=None,
             auc: bool = False):
    """(accuracy, auc-or-None) over the targets, default every node.

    AUC is the rank statistic of the level-2 score margin and needs R = 2;
    ties count half. It is NaN when the targets are single-class.
    """
    dataset = validate(dataset)
    if targets is None:
        t0 = np.arange(dataset.n, dtype=np.int64)
    else:
        t0 = np.asarray(targets, dtype=np.int64) - 1
    scores = predict_scores(clf, dataset, t0 + 1)
    truth = dataset.y[t0]
    acc = float(np.mean((np.argmax(scores, axis=1) + 1) == truth))
    auc_val = None
    if auc:
        if clf.r_levels != 2:
            raise ValidationError("AUC needs a 2-level response")
        auc_val = _rank_auc(scores[:, 1] - scores[:, 0], truth == 2)
    return acc, auc_val


@dataclass(frozen=True)
class MetricsReport:
    """Screening quality over replicated runs.

    cmf: mean count of true features kept. imf: mean count of false features
    kept. cp: per true-feature fraction of runs keeping it, keyed by "j" or
    "j&k". acc/auc summarize a classifier when one was evaluated.
    """

    cmf: float
    imf: float
    cp: dict[str, float]
    n_reps: int
    acc: float | None = None
    auc: float | None = None

    def to_dict(self) -> dict:
        out = {"cmf": self.cmf, "imf": self.imf, "cp": dict(self.cp),
               "n_reps": self.n_reps}
        if self.acc is not None:
            out["acc"] = self.acc
        if self.auc is not None:
            out["auc"] = self.auc
        return out


def screening_metrics(selections, s_true: FeatureSet,
                      acc: float | None = None,
                      auc: float | None = None) -> MetricsReport:
    """Aggregate kept-feature quality across replications.

    selections: iterable of FeatureSet (a ScreeningResult's selected works).
    """
    keys = s_true.keys()
    sets = []
    for sel in selections:
        chosen = getattr(sel, "selected", sel)
        sets.append(set(chosen.keys()))
    if not sets:
        raise ValidationError("no selections to aggregate")
    m = len(sets)
    truth = set(keys)
    cmf = sum(len(s & truth) for s in sets) / m
    imf = sum(len(s - truth) for s in sets) / m
    cp = {key: sum(key in s for s in sets) / m for key in keys}
    return MetricsReport(cmf=cmf, imf=imf, cp=cp, n_reps=m, acc=acc, auc=auc)
