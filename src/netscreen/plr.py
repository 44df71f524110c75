"""Log pseudo-likelihood ratio statistic for one categorical feature.

The pseudo-likelihood of the observed data multiplies, over nodes, the
probability of each node's response level and, over ordered node pairs, a
Bernoulli term for the presence or absence of each possible directed link.
The null model stratifies link probabilities by the response levels of the
two endpoints only; the alternative for feature j refines the node term by
conditioning the response on the feature level, and refines every link term
by the feature levels of both endpoints. All probabilities are plugged in as
maximum-likelihood cell frequencies, so the fitted refinement can never score
below the null and the per-node statistic

    lam_j = (log_lj - log_l0) / n = lam_self + lam_network

is nonnegative and exactly zero for a constant column. Every logarithm that
enters with a positive coefficient has a positive argument, so no smoothing
is needed and the value is always finite.

Under a null with independent uniform responses, 2 n lam_self is
asymptotically chi-square with (R-1)(K-1) degrees of freedom and
2 n lam_network chi-square with R^2 (K^2 - 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, xlogy

from .counts import (CountsBundle, block_pair_tables, response_pair_tables,
                     tally_edges, tally_marginals)
from .dataset import NodeDataset, validate
from .errors import DegeneracyError

BLOCK_TARGET_CELLS = 5_000_000  # soft cap on B * R^2 * K^2 per tally block


@dataclass(frozen=True)
class PmleProbs:
    """Plug-in cell frequencies for one feature.

    pi_y[r]: marginal response frequencies; pi_y_given_j[r, k]: response
    frequency within feature level k+1; pi_pairs_y[r1, r2]: link frequency
    among ordered pairs stratified by endpoint responses; pi_pairs_yj adds
    the endpoint feature levels. Cells whose denominator is zero are NaN.
    """

    pi_y: np.ndarray
    pi_y_given_j: np.ndarray
    pi_pairs_y: np.ndarray
    pi_pairs_yj: np.ndarray


@dataclass(frozen=True)
class PlrStat:
    """Statistic value, its two parts, and reference-distribution tails.

    lam == lam_self + lam_network, all normalized per node. p_self and
    p_network are upper chi-square tails of the doubled totals; p_perm is
    filled only when a permutation test was run.
    """

    lam: float
    lam_self: float
    lam_network: float
    df_self: int
    df_network: int
    p_self: float
    p_network: float
    p_perm: float | None = None


def chi2_tail(stat: float, df: int) -> float:
    """Upper tail of chi-square with df degrees of freedom.

    df = 0 is the degenerate point mass at zero: tail is 1 for stat <= 0.
    """
    if df == 0:
        return 1.0 if stat <= 1e-12 else 0.0
    return float(chdtrc(df, max(float(stat), 0.0)))


def pmle_probs(counts: CountsBundle) -> PmleProbs:
    """Plug-in frequencies from a feature's count tables, NaN where undefined."""
    def _ratio(num, den):
        num = np.asarray(num, dtype=np.float64)
        den = np.asarray(den, dtype=np.float64)
        out = np.full(np.broadcast_shapes(num.shape, den.shape), np.nan)
        np.divide(num, den, out=out, where=den > 0)
        return out

    return PmleProbs(
        pi_y=_ratio(counts.n_y, counts.n),
        pi_y_given_j=_ratio(counts.n_yj, counts.n_j[None, :]),
        pi_pairs_y=_ratio(counts.n_edges_y, counts.n_pairs_y),
        pi_pairs_yj=_ratio(counts.n_edges_yj, counts.n_pairs_yj),
    )


def _tilt(counts, probs):
    # xlogy with NaN probabilities masked out wherever the coefficient is 0
    counts = np.asarray(counts, dtype=np.float64)
    safe = np.where(counts > 0, probs, 1.0)
    return float(xlogy(counts, safe).sum())


def log_l0(dataset: NodeDataset, probs: PmleProbs | None = None) -> float:
    """Null log pseudo-likelihood: response marginals plus response-level links.

    With probs omitted the plug-in frequencies of the dataset itself are used,
    which is the fitted null. Each ordered node pair contributes one Bernoulli
    term.
    """
    dataset = validate(dataset)
    n_y, n_pairs_y, n_edges_y = response_pair_tables(dataset)
    if probs is None:
        pi_y = n_y / dataset.n
        pi_pairs = np.full(n_pairs_y.shape, np.nan)
        np.divide(n_edges_y, n_pairs_y, out=pi_pairs, where=n_pairs_y > 0)
    else:
        pi_y, pi_pairs = probs.pi_y, probs.pi_pairs_y
    return (_tilt(n_y, pi_y)
            + _tilt(n_edges_y, pi_pairs)
            + _tilt(n_pairs_y - n_edges_y, 1.0 - pi_pairs))


def log_lj(dataset: NodeDataset, j: int, probs: PmleProbs | None = None) -> float:
    """Refined log pseudo-likelihood for column j (1-based).

    The node term conditions the response on the feature level; each ordered
    pair's Bernoulli term is stratified by the feature levels of both
    endpoints on top of their response levels.
    """
    from .counts import counts_bundle

    dataset = validate(dataset)
    counts = counts_bundle(dataset, j)
    if probs is None:
        probs = pmle_probs(counts)
    return (_tilt(counts.n_yj, probs.pi_y_given_j)
            + _tilt(counts.n_edges_yj, probs.pi_pairs_yj)
            + _tilt(counts.n_pairs_yj - counts.n_edges_yj,
                    1.0 - probs.pi_pairs_yj))


class _SharedTables:
    """Feature-independent pieces reused across all columns of one dataset."""

    def __init__(self, dataset: NodeDataset):
        n_y, n_pairs_y, n_edges_y = response_pair_tables(dataset)
        if n_y.min() == 0:
            missing = int(np.argmin(n_y)) + 1
            raise DegeneracyError(
                f"response level {missing} has no nodes; the statistic's "
                "reference distribution is undefined")
        self.n_y = n_y
        r = dataset.r_levels
        pi_y = n_y / dataset.n
        self.ref_self = float(xlogy(n_y, pi_y).sum())
        pi0 = np.zeros((r, r))
        np.divide(n_edges_y, n_pairs_y, out=pi0, where=n_pairs_y > 0)
        self.pi0 = pi0
        self.ref_network = float(
            (xlogy(n_edges_y, pi0)
             + xlogy(n_pairs_y - n_edges_y, 1.0 - pi0)).sum())


def _block_lambdas(dataset, xb0, k, shared):
    """Total (unnormalized) statistic parts for a block of 0-based columns.

    xb0: (n, B) level codes 0..k-1. Returns (self_totals, network_totals),
    each (B,) float64.
    """
    r = dataset.r_levels
    nyj = tally_marginals(dataset._y0, xb0, r, k)
    nj = nyj.sum(axis=1)
    pi_cond = np.zeros(nyj.shape)
    np.divide(nyj, nj[:, None, :], out=pi_cond, where=nj[:, None, :] > 0)
    self_tot = xlogy(nyj, pi_cond).sum(axis=(1, 2)) - shared.ref_self

    e = tally_edges(dataset._y0, dataset._src0, dataset._dst0, xb0, r, k)
    pairs = block_pair_tables(nyj)
    pij = np.zeros(e.shape)
    np.divide(e, pairs, out=pij, where=pairs > 0)
    holes = pairs - e
    net_tot = ((xlogy(e, pij) + xlogy(holes, 1.0 - pij))
               .sum(axis=(1, 2, 3, 4)) - shared.ref_network)
    return self_tot, net_tot


def _block_size(r: int, k: int) -> int:
    return max(1, min(64, BLOCK_TARGET_CELLS // max(1, r * r * k * k)))


def width_blocks(widths, r: int):
    """Yield (k, positions) over blocks of equal-width columns.

    widths: level count of each column. Positions index into widths; blocks
    come width by width, in column order within a width, each small enough
    for the tally size cap.
    """
    widths = np.asarray(widths)
    for k in np.unique(widths):
        k = int(k)
        sel = np.flatnonzero(widths == k)
        step = _block_size(r, k)
        for lo in range(0, sel.size, step):
            yield k, sel[lo:lo + step]


def batch_statistics(dataset: NodeDataset, columns=None):
    """Normalized (lam, lam_self, lam_network) arrays over the given columns.

    columns: 1-based indices, default all. Columns are processed in blocks of
    equal level count; results land in the order given. Summation order is
    fixed, so results do not depend on the blocking or on thread count.
    """
    dataset = validate(dataset)
    shared = _SharedTables(dataset)
    if columns is None:
        columns = range(1, dataset.p + 1)
    cols0 = np.asarray([int(j) - 1 for j in columns], dtype=np.int64)
    if cols0.size and (cols0.min() < 0 or cols0.max() >= dataset.p):
        raise IndexError(f"column index outside 1..{dataset.p}")
    lam_self = np.zeros(cols0.size)
    lam_net = np.zeros(cols0.size)
    for k, part in width_blocks(dataset.k_levels[cols0], dataset.r_levels):
        xb0 = dataset.x[:, cols0[part]].astype(np.int64) - 1
        s_tot, n_tot = _block_lambdas(dataset, xb0, k, shared)
        lam_self[part] = s_tot / dataset.n
        lam_net[part] = n_tot / dataset.n
    return lam_self + lam_net, lam_self, lam_net


def degrees_of_freedom(r: int, k: int) -> tuple[int, int]:
    """(df_self, df_network) of the chi-square references for widths (R, K)."""
    return (r - 1) * (k - 1), r * r * (k * k - 1)


def plr_statistic(dataset: NodeDataset, j: int, *, perms: int = 0,
                  seed: int = 0) -> PlrStat:
    """Statistic of column j (1-based) with chi-square tail probabilities.

    perms > 0 additionally runs a label permutation test with that many
    draws and fills p_perm. Raises DegeneracyError when a declared response
    level has no nodes.
    """
    dataset = validate(dataset)
    if not 1 <= j <= dataset.p:
        raise IndexError(f"column {j} outside 1..{dataset.p}")
    shared = _SharedTables(dataset)
    k = int(dataset.k_levels[j - 1])
    x0 = (dataset.column(j).astype(np.int64) - 1)[:, None]
    s_tot, n_tot = _block_lambdas(dataset, x0, k, shared)
    s_tot, n_tot = float(s_tot[0]), float(n_tot[0])
    df_self, df_net = degrees_of_freedom(dataset.r_levels, k)
    p_perm = None
    if perms > 0:
        p_perm, _ = permutation_pvalue(dataset, j, perms, seed)
    return PlrStat(
        lam=(s_tot + n_tot) / dataset.n,
        lam_self=s_tot / dataset.n,
        lam_network=n_tot / dataset.n,
        df_self=df_self,
        df_network=df_net,
        p_self=chi2_tail(2.0 * s_tot, df_self),
        p_network=chi2_tail(2.0 * n_tot, df_net),
        p_perm=p_perm,
    )


def permutation_pvalue(dataset: NodeDataset, j: int, n_perms: int,
                       seed: int = 0):
    """Permutation tail probability for column j (1-based).

    The column is permuted across nodes, which breaks its tie to both the
    responses and the adjacency while keeping its level frequencies. Returns
    ((1 + #{permuted lam >= observed lam}) / (n_perms + 1), permuted values).
    Draw b uses an RNG seeded by (seed, j, b), so results are reproducible
    and independent of batching.
    """
    dataset = validate(dataset)
    if not 1 <= j <= dataset.p:
        raise IndexError(f"column {j} outside 1..{dataset.p}")
    if n_perms < 1:
        raise ValueError("n_perms must be positive")
    shared = _SharedTables(dataset)
    k = int(dataset.k_levels[j - 1])
    col0 = dataset.column(j).astype(np.int64) - 1
    s_tot, n_tot = _block_lambdas(dataset, col0[:, None], k, shared)
    observed = float(s_tot[0] + n_tot[0])

    perm_vals = np.empty(n_perms)
    step = _block_size(dataset.r_levels, k)
    for lo in range(0, n_perms, step):
        hi = min(lo + step, n_perms)
        xb0 = np.empty((dataset.n, hi - lo), dtype=np.int64)
        for b in range(lo, hi):
            rng = np.random.default_rng(np.random.SeedSequence((seed, j, b)))
            xb0[:, b - lo] = col0[rng.permutation(dataset.n)]
        s_tot, n_tot = _block_lambdas(dataset, xb0, k, shared)
        perm_vals[lo:hi] = s_tot + n_tot
    count = int(np.sum(perm_vals >= observed))
    p = (1.0 + count) / (n_perms + 1.0)
    return p, perm_vals / dataset.n
