"""Feature screening: rank columns by a statistic and cut the list.

One driver runs the pipeline for both screens: optional interaction
expansion (stage 1 ranks the mains and pairs up the leaders), scoring,
ranking and the cutoff. plr_sis and pc_sis differ only in the statistic they
hand it: the network pseudo-likelihood ratio, or the Pearson chi-square of
response against feature, which ignores the adjacency.

Ranking scale. When every screened column has the same level count the raw
statistic values are compared directly. With mixed level counts the raw
values are not comparable (wider columns have larger null means), so columns
are ranked by the upper tail of the combined chi-square reference instead:
score = -log10 of the joint tail probability, ties broken by the larger raw
statistic, then by the smaller column index. perms > 0 ranks by permutation
tails instead (plr only); it costs perms extra scoring passes over the
columns, so it suits small column sets.

Cutoffs. "max_ratio" walks the sorted scores and keeps the prefix in front
of the largest consecutive ratio; "hard" keeps a fixed count, by default
floor(n / log n), or n - 1 with d="n_minus_1"; "pvalue" keeps features whose
tail probability is at most alpha.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .counts import tally_marginals
from .dataset import (FeatureSet, NodeDataset, pair_width, seal,
                      seed_entropy, validate, whole)
from .errors import ValidationError
from .io import record_dict
from .plr import (batch_statistics, chi2_tail, column_blocks, column_ids,
                  degrees_of_freedom, permutation_pvalue)

DEGENERATE_TOL = 1e-8   # top score below this means nothing separates
RATIO_EPS = 1e-12       # relative floor for max-ratio denominators
P_FLOOR = 1e-300        # tail probabilities are clipped here before log10


@dataclass(frozen=True)
class ScreeningResult:
    """Ranked screen of one dataset.

    Per-column arrays are aligned with feature_keys (the canonical "j" or
    "j&k" key of each screened column). ranking holds screened column ids,
    best first; selected is the leading d_hat of them as a FeatureSet.
    c_star_hat sits between the last kept and the first dropped score when
    those differ.
    """

    method: str
    feature_keys: tuple[str, ...]
    scores: np.ndarray
    ranking: np.ndarray
    d_hat: int
    c_star_hat: float
    selected: FeatureSet
    rank_by: str
    cutoff: str
    degenerate: bool
    seed: int
    lam: np.ndarray | None = None
    lam_self: np.ndarray | None = None
    lam_network: np.ndarray | None = None
    df_self: np.ndarray | None = None
    df_network: np.ndarray | None = None
    p_value: np.ndarray | None = None
    p_perm: np.ndarray | None = None

    def to_dict(self) -> dict:
        return record_dict(self)


def hard_cutoff(n: int, mode: str = "n_over_log_n") -> int:
    """Model-size budget from the node count: floor(n/log n), or n - 1."""
    if n < 2:
        raise ValidationError("hard cutoff needs at least 2 nodes")
    if mode == "n_over_log_n":
        return int(math.floor(n / math.log(n)))
    if mode == "n_minus_1":
        return n - 1
    raise ValidationError(f"unknown hard cutoff mode {mode!r}")


def max_ratio_cutoff(sorted_scores, search_cap: int | None = None) -> int:
    """Keep the prefix in front of the largest ratio of consecutive scores.

    sorted_scores must be non-increasing with a positive leading value.
    Ratio j compares position j to j+1 (1-based); a denominator at or below
    RATIO_EPS times the top score counts as an infinite ratio. The earliest
    maximal ratio wins. search_cap limits how deep the ratios are scanned.
    """
    s = np.asarray(sorted_scores, dtype=np.float64)
    if s.size < 2:
        raise ValidationError("max-ratio cutoff needs at least 2 scores")
    if np.any(s[:-1] < s[1:] - 1e-12):
        raise ValidationError("scores must be sorted in decreasing order")
    if not s[0] > 0:
        raise ValidationError("top score must be positive")
    m = s.size - 1
    if search_cap is not None:
        m = min(m, whole(search_cap, "search_cap", low=1))
    num, den = s[:m], s[1:m + 1]
    ratios = np.full(m, np.inf)
    ok = den > RATIO_EPS * s[0]
    ratios[ok] = num[ok] / den[ok]
    return int(np.argmax(ratios)) + 1


def interaction_expand(dataset: NodeDataset, pairs) -> NodeDataset:
    """Add one composite column per (j, k) pair, coding levels jointly.

    The composite of columns with widths K_j and K_k has width K_j * K_k and
    level (x_j - 1) * K_k + x_k. Pairs must name stored columns with j < k,
    no duplicates and K_j * K_k at most CODE_MAX; a pair the dataset already
    has is skipped. The result shares x and the network and stores nothing
    new: each new trailing column id maps to its pair in composite_pairs.
    """
    dataset = validate(dataset)
    pairs = [(whole(a, "a pair id"), whole(b, "a pair id")) for a, b in pairs]
    if len(set(pairs)) != len(pairs):
        raise ValidationError("duplicate interaction pair")
    have = set(dataset.composite_pairs.values())
    pairs = [pair for pair in pairs if pair not in have]
    if not pairs:
        return dataset
    k_stored, p = dataset.k_levels[:dataset.x.shape[1]], dataset.p
    widths = [pair_width(a, b, k_stored) for a, b in pairs]
    composite = dict(dataset.composite_pairs)
    composite.update(zip(range(p + 1, p + len(pairs) + 1), pairs))
    names = dataset.feature_names
    if names:
        names += tuple(f"{names[a - 1]}&{names[b - 1]}" for a, b in pairs)
    # the input is validated and pair_width checked the new widths, so the
    # result needs no second pass of validate
    return seal(NodeDataset(dataset.y, dataset.x, dataset.edges, names,
                            dataset.r_levels,
                            np.concatenate([dataset.k_levels, widths]),
                            composite), dataset.network)


def feature_key(dataset: NodeDataset, j: int) -> str:
    """Canonical key of column j: "a&b" for composites, else "j"."""
    if j in dataset.composite_pairs:
        a, b = dataset.composite_pairs[j]
        return f"{a}&{b}"
    return str(j)


def _ranking(scores, lam):
    # primary: score desc; then raw statistic desc; then column position asc
    idx = np.arange(scores.size)
    return np.lexsort((idx, -np.asarray(lam), -np.asarray(scores)))


def _c_star(sorted_scores: np.ndarray, d: int) -> float:
    if d == 0:
        return float(sorted_scores[0]) + 1.0 if sorted_scores.size else 1.0
    if d >= sorted_scores.size:
        return float(sorted_scores[-1]) - 1.0
    return float(0.5 * (sorted_scores[d - 1] + sorted_scores[d]))


def _apply_cutoff(sorted_scores, p_sorted, cutoff, d, alpha, search_cap, n):
    """(d_hat, degenerate flag, cutoff description)."""
    if cutoff == "max_ratio":
        if sorted_scores[0] < DEGENERATE_TOL:
            return 0, True, "max_ratio"
        if sorted_scores.size == 1:
            return 1, False, "max_ratio"
        return (max_ratio_cutoff(sorted_scores, search_cap), False,
                "max_ratio")
    if cutoff == "hard":
        if d is None:
            want = hard_cutoff(n)
        elif isinstance(d, str):
            want = hard_cutoff(n, d)
        else:
            want = d
        return min(want, sorted_scores.size), False, f"hard:{want}"
    return int(np.sum(p_sorted <= alpha)), False, f"pvalue:{alpha:g}"


# ---- statistics ----
# Each maps (dataset, cols) -- cols 1-based, int64 -- to one dict of
# per-column arrays keyed by name: "chi2" and "df", the chi-square reference
# value and its degrees of freedom, and the ScreeningResult fields it fills,
# among them "lam", the statistic that equal widths rank by.

RANK_LABEL = {"plr": "lambda", "pc": "chi2"}  # rank_by when widths agree


def _plr_batch(dataset: NodeDataset, cols: np.ndarray) -> dict:
    """Network pseudo-likelihood ratio statistic of each column."""
    lam, lam_self, lam_net = batch_statistics(dataset, cols)
    df_self, df_net = degrees_of_freedom(dataset.r_levels,
                                         dataset.k_levels[cols - 1])
    return dict(chi2=2.0 * dataset.n * lam, df=df_self + df_net, lam=lam,
                lam_self=lam_self, lam_network=lam_net, df_self=df_self,
                df_network=df_net)


def _pearson_batch(dataset: NodeDataset, cols: np.ndarray) -> dict:
    """Pearson chi-square of response against each column, network ignored."""
    r, y0 = dataset.r_levels, dataset.network.y0
    n_y = np.bincount(y0, minlength=r).astype(np.float64)
    chi = np.zeros(cols.size)
    for k, part, xb0 in column_blocks(dataset, cols):
        nyj = tally_marginals(y0, xb0, r, k).astype(np.float64)
        nj = nyj.sum(axis=1)
        expected = n_y[None, :, None] * nj[:, None, :] / dataset.n
        dev = np.zeros(nyj.shape)
        np.divide((nyj - expected) ** 2, expected, out=dev,
                  where=expected > 0)
        chi[part] = dev.sum(axis=(1, 2))
    df = (r - 1) * (dataset.k_levels[cols - 1] - 1)
    return dict(chi2=chi, df=df, lam=chi, df_self=df)


def _asymptotic(method, dataset, cols, stats):
    """(tail probability, ranking scores, rank_by) of cols from their
    statistic dict: equal widths rank by lam, mixed widths by -log10 of the
    chi-square tail."""
    p_asym = chi2_tail(stats["chi2"], stats["df"])
    if np.unique(dataset.k_levels[cols - 1]).size <= 1:
        return p_asym, stats["lam"], RANK_LABEL[method]
    return p_asym, -np.log10(np.maximum(p_asym, P_FLOOR)), "pvalue"


def _screen(method, statistic, dataset, *, cutoff, d, alpha, seed,
            interactions, top_m, search_cap, columns, perms=0):
    """Expand, score, rank and cut: the pipeline shared by every statistic."""
    seed = seed_entropy((seed,))[0]  # one whole number >= 0, or refused
    if cutoff not in ("max_ratio", "hard", "pvalue"):
        raise ValidationError(f"unknown cutoff {cutoff!r}")
    if not (isinstance(alpha, numbers.Real) and 0 < alpha <= 1):
        raise ValidationError(f"alpha must be a number in (0, 1], not "
                              f"{alpha!r}")
    if isinstance(d, str):
        if d not in ("n_over_log_n", "n_minus_1"):
            raise ValidationError(f"unknown hard cutoff mode {d!r}")
    elif d is not None:
        d = whole(d, "d")
        if d < 1:
            raise ValidationError("hard cutoff must keep at least 1 feature")
    if top_m is not None:
        top_m = whole(top_m, "top_m")
        if top_m < 0:
            raise ValidationError("top_m must be nonnegative")
    if search_cap is not None:
        search_cap = whole(search_cap, "search_cap", low=1)
    perms = whole(perms, "perms")
    if perms < 0:
        raise ValidationError("perms must be nonnegative")
    dataset = validate(dataset)
    if interactions not in ("none", "top", "all"):
        raise ValidationError(f"unknown interactions mode {interactions!r}")
    main_stats = None
    if interactions != "none":
        if columns is not None:
            raise ValidationError(
                "interaction expansion screens every column; drop columns=")
        mains = dataset.x.shape[1]  # composites are never paired again
        if interactions == "all":
            pairs = list(combinations(range(1, mains + 1), 2))
        else:
            # stage 1: rank the stored main effects, pair up the leaders
            main_cols = np.arange(1, mains + 1)
            main_stats = statistic(dataset, main_cols)
            _, scores, _ = _asymptotic(method, dataset, main_cols, main_stats)
            order = _ranking(scores, main_stats["lam"])
            m = min(top_m if top_m is not None else hard_cutoff(dataset.n),
                    mains)
            leaders = sorted(int(j) + 1 for j in order[:m])
            pairs = list(combinations(leaders, 2))
        dataset = interaction_expand(dataset, pairs)

    if columns is None:
        columns = range(1, dataset.p + 1)
    cols = column_ids(dataset, list(columns))
    if cols.size == 0:
        raise ValidationError("no columns to screen")
    if np.unique(cols).size != cols.size:
        raise ValidationError("duplicate column ids")
    if main_stats is None:
        stats = statistic(dataset, cols)
    else:  # the mains lead cols and keep their stage 1 values
        stats = {key: np.concatenate([main_stats[key], value])
                 for key, value in statistic(dataset, cols[mains:]).items()}
    p_asym, scores, rank_by = _asymptotic(method, dataset, cols, stats)
    p_used, p_perm = p_asym, None
    if perms > 0:
        p_perm = permutation_pvalue(dataset, cols, perms, seed)
        scores = -np.log10(np.maximum(p_perm, P_FLOOR))
        rank_by, p_used = "permutation", p_perm

    order = _ranking(scores, stats["lam"])
    sorted_scores = scores[order]
    d_hat, degenerate, cut_desc = _apply_cutoff(
        sorted_scores, p_used[order], cutoff, d, alpha, search_cap, dataset.n)
    keys = [feature_key(dataset, int(j)) for j in cols]
    del stats["chi2"], stats["df"]  # the rest are ScreeningResult fields
    return ScreeningResult(
        method=method,
        feature_keys=tuple(keys),
        scores=scores,
        ranking=cols[order],
        d_hat=int(d_hat),
        c_star_hat=_c_star(sorted_scores, d_hat),
        selected=FeatureSet.from_keys([keys[i] for i in order[:d_hat]]),
        rank_by=rank_by,
        cutoff=cut_desc,
        degenerate=degenerate,
        seed=seed,
        p_value=p_asym, p_perm=p_perm, **stats)


def plr_sis(dataset: NodeDataset, *, cutoff: str = "max_ratio",
            d: int | str | None = None, alpha: float = 0.05, perms: int = 0,
            seed: int = 0, interactions: str = "none",
            top_m: int | None = None, search_cap: int | None = None,
            columns=None) -> ScreeningResult:
    """Screen features by the network pseudo-likelihood statistic.

    interactions="top" first ranks the stored main effects, then adds
    composite columns for every pair among the leading top_m (default
    floor(n/log n)) and screens mains and composites jointly; "all" pairs
    every stored main. perms > 0 replaces the asymptotic ranking with
    permutation tail probabilities, which cost perms extra scoring passes
    over the columns. columns restricts the screen to a subset of 1-based
    column ids.
    """
    return _screen("plr", _plr_batch, dataset, cutoff=cutoff, d=d,
                   alpha=alpha, seed=seed, interactions=interactions,
                   top_m=top_m, search_cap=search_cap, columns=columns,
                   perms=perms)


def pc_sis(dataset: NodeDataset, *, cutoff: str = "max_ratio",
           d: int | str | None = None, alpha: float = 0.05, seed: int = 0,
           interactions: str = "none", top_m: int | None = None,
           search_cap: int | None = None, columns=None) -> ScreeningResult:
    """Baseline screen: Pearson chi-square of response against each column.

    Ignores the adjacency entirely. Options mirror plr_sis minus the
    permutation ranking.
    """
    return _screen("pc", _pearson_batch, dataset, cutoff=cutoff, d=d,
                   alpha=alpha, seed=seed, interactions=interactions,
                   top_m=top_m, search_cap=search_cap, columns=columns)
