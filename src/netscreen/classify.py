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

Link terms are linear in a target's labeled neighbours, out of it and into
it, counted by (response, level): each neighbour adds its edge cell, every
other labeled node its absent-link ("gap") cell. So the gap terms are the
labeled census dotted with the gap cells, once per column and target level,
less the target's own cell when it is labeled; the neighbour counts enter
through edge-minus-gap weights. The last level's count is the degree minus
the inner ones, so it is folded into the weights and never counted per node.
type2 reads the labeled neighbours from :meth:`counts.Network.degrees`.
type3 reads the inner counts of a block of equal-width link columns from the
products of the targets' rows of the network's adjacencies, out of them and
into them (target t's class-r2 neighbours are row t + n r2), with the block's
labeled level indicators, in the adjacency's own type (exact for its
degrees, see :mod:`counts`), and contracts them in float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .counts import (_indicators, block_pair_tables, tally_edges,
                     tally_marginals)
from .dataset import FeatureSet, NodeDataset, validate
from .errors import ValidationError
from .io import record_dict
from .plr import column_blocks

KINDS = ("type1", "type2", "type3")
CHUNK_CELLS = 2 ** 17  # link terms per target chunk: 1 MB of float64


@dataclass(frozen=True)
class ClassifierSpec:
    """Which score to use and which features feed it.

    s_y: features for the per-node term. s_a: features for the link
    corrections, used by type3 only. smoothing: additive cell smoothing,
    must be positive and finite so all logs and scores stay finite.
    """

    kind: str
    s_y: FeatureSet = field(default_factory=FeatureSet)
    s_a: FeatureSet = field(default_factory=FeatureSet)
    smoothing: float = 0.5

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown classifier kind {self.kind!r}")
        if not 0 < self.smoothing < np.inf:
            raise ValidationError(f"smoothing must be a positive finite "
                                  f"number, not {self.smoothing!r}")


@dataclass
class NetworkClassifier:
    """Fitted tables; produced by :func:`fit`, consumed by :func:`predict`."""

    spec: ClassifierSpec
    r_levels: int
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

    y0 = dataset.network.y0[mask]
    n_y = np.bincount(y0, minlength=r).astype(np.float64)
    log_prior = np.log((n_y + alpha) / (y0.size + alpha * r))

    # joint (response, level) tallies of the fitting nodes, one per feature
    feats = np.asarray(list(dict.fromkeys(cols_y + cols_a)), dtype=np.int64)
    n_yj = {}
    for k, part, xb0 in column_blocks(dataset, feats):
        n_yj.update(zip(feats[part].tolist(),
                        tally_marginals(y0, xb0[mask], r, k)))
    widths = {col: int(dataset.k_levels[col - 1]) for col in feats.tolist()}
    log_cond = {col: np.log((n_yj[col] + alpha) / (n_y[:, None] + alpha * k))
                for col, k in widths.items()}

    clf = NetworkClassifier(
        spec=spec, r_levels=r, train_mask=mask,
        cols_y=cols_y, cols_a=cols_a, k_widths=widths,
        log_prior=log_prior, log_cond=log_cond)
    if spec.kind == "type1":
        return clf

    # link tables over ordered pairs with both endpoints in the mask
    network, inside = dataset.network, None if mask.all() else mask
    _, p0, e0 = network.tables(inside)
    pi0 = (e0 + alpha) / (p0 + 2 * alpha)
    clf.log_pi0 = np.log(pi0)
    clf.log_gap0 = np.log1p(-pi0)
    if spec.kind == "type2":
        return clf

    cols = np.asarray(cols_a, dtype=np.int64)
    for k, part, xb0 in column_blocks(dataset, cols):
        block = cols[part].tolist()
        edges = tally_edges(network.y0, network.src0, network.dst0, xb0, k,
                            network, mask=inside)
        pairs = block_pair_tables(np.stack([n_yj[col] for col in block]))
        for col, ej, pj in zip(block, edges, pairs):
            pij = (ej + alpha) / (pj + 2 * alpha)
            clf.dlog_edge[col] = np.log(pij) - clf.log_pi0[:, :, None, None]
            clf.dlog_gap[col] = np.log1p(-pij) - clf.log_gap0[:, :, None, None]
    return clf


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
    t0 = _target_ids(targets, n)
    scores = np.tile(clf.log_prior, (t0.size, 1))
    # every target's codes, column by column (int32 holds any stored code)
    levels = np.empty((len(clf.cols_y), t0.size), dtype=np.int32)
    for _, part, xb0 in column_blocks(dataset, clf.cols_y):
        levels[part] = xb0.T[:, t0]
    for col, x0 in zip(clf.cols_y, levels):  # summed in column order
        scores += clf.log_cond[col][:, x0].T
    if clf.spec.kind == "type1":
        return scores

    # labeled neighbours out of and into each target by class, a one and its
    # own labeled cell
    network, mask = dataset.network, clf.train_mask
    y0 = network.y0
    out, into = network.degrees(None if mask.all() else mask)
    own = np.zeros((t0.size, r))
    own[mask[t0], y0[t0[mask[t0]]]] = 1.0
    shared = np.column_stack([out[:, t0].T, into[:, t0].T, np.ones(t0.size),
                              own])
    census = np.bincount(y0[mask], minlength=r)[None, :, None]
    scores += shared @ _link_weights(clf.log_pi0[None, :, :, None, None],
                                     clf.log_gap0[None, :, :, None, None],
                                     census)[0]
    if clf.spec.kind == "type2":
        return scores

    ids = (t0[:, None] + n * np.arange(r)).ravel()  # rows t + n r2
    sides = [network.out[ids], network.into[ids]]
    cols = np.asarray(clf.cols_a, dtype=np.int64)
    for k, part, xb0 in column_blocks(dataset, cols):
        block = cols[part]
        weights = _link_weights(
            np.stack([clf.dlog_edge[col] for col in block.tolist()]),
            np.stack([clf.dlog_gap[col] for col in block.tolist()]),
            tally_marginals(y0[mask], xb0[mask], r, k))
        inner = weights.shape[1] - shared.shape[1]
        # inner level indicators of the labeled nodes, (node, level, column)
        lev = _indicators(xb0, k, sides[0].dtype)
        lev *= mask[:, None]
        at = xb0[t0]  # each target's own level
        # targets in chunks, so that every temporary stays a few MB
        step = max(1, CHUNK_CELLS // weights[:, 0].size)
        for lo in range(0, t0.size, step):
            rows = slice(lo, min(lo + step, t0.size))
            m = rows.stop - lo
            # (column, target, direction and class, level), in float64
            hits = np.empty((block.size, m, 2, r, k - 1))
            for side, nbrs in enumerate(sides):
                hits[:, :, side] = (nbrs[r * lo:r * rows.stop] @ lev).reshape(
                    m, r, k - 1, block.size).transpose(3, 0, 1, 2)
            hits = hits.reshape(block.size, m, -1)
            terms = np.matmul(shared[rows], weights[:, inner:])
            terms += np.matmul(hits, weights[:, :inner])
            # each target's terms at its own level of each column
            pick = (np.arange(block.size)[:, None] * m + np.arange(m)) * k \
                + at[rows].T
            scores[rows] += terms.reshape(-1, r)[pick].sum(axis=0)
    return scores


def _target_ids(targets, n: int) -> np.ndarray:
    """0-based ids of the 1-based targets, default every node, refusing any
    id that is not an integer in 1..n (a float or a bool would silently name
    another node), as :func:`plr.column_ids` does for columns."""
    if targets is None:
        return np.arange(n)
    ids = np.asarray(targets)
    if ids.size and ids.dtype.kind not in "iu":
        raise ValidationError("target ids must be integers")
    if ids.size and (ids.min() < 1 or ids.max() > n):
        raise ValidationError(f"target node outside 1..{n}")
    return ids.astype(np.int64) - 1


def _link_weights(edge, gap, census):
    """Weights (B, 2R (k-1) + 3R + 1, k R) of a block's link features.

    edge, gap: (B, R, R, k, k) log-probability tables [c, source class,
    destination class, source level, destination level] of linked and
    unlinked pairs, for type3 less the response-only ones. census: (B, R, k)
    labeled tallies. A target's features, per column, are its labeled
    neighbours at each inner level, out of it and into it by class; then its
    labeled neighbours by direction and class, a one, and the indicator of
    its own labeled cell. Their dot product with the weights at the target's
    level l and response h is its link score in that column.
    """
    b, r, _, k, _ = edge.shape
    # axes [c, r2, m, l, h]: neighbour class r2 at level m, target level l,
    # target response h; the target is the source, then the destination
    out, into = (0, 2, 4, 3, 1), (0, 1, 3, 4, 2)
    diff = edge - gap
    link = np.stack([diff.transpose(out), diff.transpose(into)], axis=1)
    link = link.reshape(b, 2 * r, k, k, r)
    gaps = gap.transpose(out) + gap.transpose(into)
    return np.concatenate([
        (link[:, :, :-1] - link[:, :, -1:]).reshape(b, -1, k, r),
        link[:, :, -1],
        np.einsum("crm,crmlh->clh", census, gaps)[:, None],
        -np.einsum("crllh->crlh", gaps)], axis=1).reshape(b, -1, k * r)


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
    t0 = _target_ids(targets, dataset.n)
    if not t0.size:
        raise ValidationError("no targets to evaluate")
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
    "j&k".
    """

    cmf: float
    imf: float
    cp: dict[str, float]
    n_reps: int

    def to_dict(self) -> dict:
        return record_dict(self)


def screening_metrics(selections, s_true: FeatureSet) -> MetricsReport:
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
    return MetricsReport(cmf=cmf, imf=imf, cp=cp, n_reps=m)
