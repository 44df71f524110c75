"""Log pseudo-likelihood ratio statistic for one categorical feature.

The pseudo-likelihood of the observed data multiplies, over nodes, the
probability of each node's response level and, over ordered node pairs, a
Bernoulli term for the presence or absence of each possible directed link.
The null model stratifies link probabilities by the response levels of the
two endpoints only; the alternative for feature j refines the node term by
conditioning the response on the feature level, and refines every link term
by the feature levels of both endpoints. All probabilities are plugged in as
maximum-likelihood cell frequencies, so the fitted refinement can never score
below the null and the per-node statistic, the gap between the fitted
refined and null log pseudo-likelihoods,

    lam_j = (log PL_j - log PL_0) / n = lam_self + lam_network

is nonnegative and exactly zero for a constant column. Both fits are
evaluated in closed form from the count tables of a block of columns at once
(see :func:`batch_statistics`), and their gap is summed cell by cell as log
ratios of refined to null frequencies (see :func:`_block_lambdas`), so a
noise column's small value is not the difference of two large totals. Every
logarithm that enters with a positive coefficient has a positive argument,
so no smoothing is needed and the value is always finite.

Under a null with independent uniform responses, 2 n lam_self is
asymptotically chi-square with (R-1)(K-1) degrees of freedom and
2 n lam_network chi-square with R^2 (K^2 - 1). Where that is in doubt, label
permutations give each column its own tail, scored on the statistic's own
walk (:func:`_column_totals`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from .counts import block_pair_tables, tally_edges, tally_marginals
from .dataset import NodeDataset, column_codes, seed_entropy, validate
from .errors import DegeneracyError, ValidationError

BLOCK_TARGET_CELLS = 5_000_000  # soft cap on B R^2 K^2 and B n (K-1) per block
TABLE_CELL_LIMIT = 2 ** 24  # hard cap on R^2 * K^2 for any one column


@dataclass(frozen=True)
class PlrStat:
    """Statistic value, its two parts, and reference-distribution tails.

    lam == lam_self + lam_network, all normalized per node. p_self and
    p_network are upper chi-square tails of the doubled totals.
    """

    lam: float
    lam_self: float
    lam_network: float
    df_self: int
    df_network: int
    p_self: float
    p_network: float


def chi2_tail(stat, df):
    """Upper tail of chi-square with df degrees of freedom, elementwise;
    a float for scalars. df = 0 is the degenerate point mass at zero: tail
    is 1 for stat <= 0 (up to 1e-12), else 0."""
    stat = np.maximum(np.asarray(stat, dtype=np.float64), 0.0)
    tail = np.where(np.asarray(df) == 0, stat <= 1e-12, chdtrc(df, stat))
    return float(tail) if tail.ndim == 0 else tail


def _split(a):
    """(hi, lo) with hi + lo == a exactly, each with at most 26 significant
    bits, so that products of halves are exact (Veltkamp's split)."""
    c = a * (2.0 ** 27 + 1)
    hi = c - (c - a)
    return hi, a - hi


def _product_error(a, b, ab):
    """a b - ab exactly, where ab is the float64 product of a and b
    (Dekker's two-product)."""
    (a_hi, a_lo), (b_hi, b_lo) = _split(a), _split(b)
    return ((a_hi * b_hi - ab) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _cross_difference(a, b, c, d):
    """a b - c d for integer-valued float64 arrays, within a few units in
    the last place of the result even when the two products nearly
    cancel."""
    ab, cd = a * b, c * d
    return (ab - cd) + (_product_error(a, b, ab) - _product_error(c, d, cd))


def _block_lambdas(network, tables, xb0, k):
    """Total (unnormalized) statistic parts for a block of 0-based columns.

    network: a :class:`counts.Network`, and tables its
    :meth:`~counts.Network.tables`, which give n and R; xb0: (n, B) level
    codes 0..k-1. Returns (self_totals, network_totals), each (B,) float64.
    Both are sums of per-cell log ratios of the refined fit to the null:

        self:    n_yj log(n_yj n / (n_j n_y))
        network: e log(p1 / p0) + (m - e) log((1 - p1) / (1 - p0))

    with e and m the linked and all ordered pairs of a refined cell, p1 =
    e / m, and p0 = E / P the null rate of its response pair. Each log is
    log1p of an exact integer difference over its denominator: n_yj n -
    n_j n_y for the node term, and d = e P - m E for the link terms, whose
    ratios are 1 + d / (m E) and 1 - d / (m (P - E)). So a noise column,
    whose ratios are all near 1, keeps its full relative precision. A cell
    with n_yj = 0, e = 0 or m - e = 0 adds nothing to that term and is
    skipped, so p0 = 0 or 1 never enters a logarithm. Each column sums its
    own cells in one fixed order, whatever the block.
    """
    n_y, n_pairs_y, n_edges_y = tables
    n, r = n_y.sum(), n_y.size
    nyj = tally_marginals(network.y0, xb0, r, k)
    null = nyj.sum(axis=1)[:, None, :] * n_y[:, None]  # n_j n_y
    rise = np.zeros(nyj.shape)
    np.divide(nyj * n - null, null, out=rise, where=nyj > 0)
    self_tot = (nyj * np.log1p(rise)).sum(axis=(1, 2))

    e = tally_edges(network.y0, network.src0, network.dst0, xb0, k,
                    network.out).astype(np.float64)
    m = block_pair_tables(nyj).astype(np.float64)
    pairs = n_pairs_y[:, :, None, None].astype(np.float64)
    links = n_edges_y[:, :, None, None].astype(np.float64)
    d = _cross_difference(e, pairs, m, links)
    holes = m - e
    up = np.zeros(e.shape)
    np.divide(d, m * links, out=up, where=e > 0)
    down = np.zeros(e.shape)
    np.divide(-d, m * (pairs - links), out=down, where=holes > 0)
    net_tot = (e * np.log1p(up) + holes * np.log1p(down)).sum(
        axis=(1, 2, 3, 4))
    return self_tot, net_tot


def column_blocks(dataset: NodeDataset, cols):
    """Yield (k, positions, xb0) over blocks of equal-width columns.

    cols: 1-based column ids; positions index into cols. xb0 holds the
    block's (n, B) int64 0-based codes from :func:`dataset.column_codes`,
    the one form in which the kernels read codes. Blocks come width by
    width, in the order of cols within a width. B columns of width K make
    B (R K)^2 table cells and n-sized temporaries of B n (K-1) cells in the
    edge tallies and the classifier's products; each count stays within
    BLOCK_TARGET_CELLS, or B is 1. Since every kernel reads its codes here, a
    column whose tables would be too large is refused here too, before the
    first block (:func:`check_table_cells`).
    """
    cols, r = np.asarray(cols, dtype=np.int64), dataset.r_levels
    check_table_cells(dataset, cols)
    widths = dataset.k_levels[cols - 1]
    for k in np.unique(widths):
        k = int(k)
        sel = np.flatnonzero(widths == k)
        cells = max((r * k) ** 2, dataset.n * (k - 1))  # per column
        step = min(64, max(1, BLOCK_TARGET_CELLS // cells))
        for lo in range(0, sel.size, step):
            part = sel[lo:lo + step]
            yield k, part, column_codes(dataset, cols[part]) - 1


def column_ids(dataset: NodeDataset, cols) -> np.ndarray:
    """cols as an int64 array of 1-based column ids, refusing any id that is
    not an integer in 1..p (a float or a bool would silently name another
    column)."""
    ids = np.asarray(cols)
    if ids.size and ids.dtype.kind not in "iu":
        raise ValidationError("column ids must be integers")
    if ids.size and (ids.min() < 1 or ids.max() > dataset.p):
        raise ValidationError(f"column index outside 1..{dataset.p}")
    return ids.astype(np.int64)


def check_table_cells(dataset: NodeDataset, cols) -> None:
    """Refuse a column (1-based id) whose (R, R, K_j, K_j) tally tables
    would exceed TABLE_CELL_LIMIT cells, as one stray large code makes them.
    """
    cols = np.asarray(cols, dtype=np.int64)
    # (R K)^2 exceeds the limit exactly when the integer R K exceeds its root
    wide = cols[dataset.r_levels * dataset.k_levels[cols - 1]
                > math.isqrt(TABLE_CELL_LIMIT)]
    if wide.size:
        j = int(wide[0])
        k = int(dataset.k_levels[j - 1])
        raise ValidationError(
            f"column {j} has {k} levels; its tally tables would need "
            f"{(dataset.r_levels * k) ** 2} cells (R^2 K^2), above the "
            f"{TABLE_CELL_LIMIT} limit")


def _column_totals(dataset: NodeDataset, cols, perms: int = 0,
                   seed: int = 0):
    """((2, B) self and network totals, permutation tails) of cols (1-based).

    The columns block by block, then perms permuted copies of each, every
    draw one more column of its width. Draw b of column j is seeded by
    (seed, j, b); a tail is (1 + #{draws whose unnormalized total reaches
    the column's own}) / (perms + 1).
    """
    entropy = seed_entropy(seed)
    cols = column_ids(dataset, cols)
    tables = dataset.network.tables()
    if tables[0].min() == 0:
        missing = int(np.argmin(tables[0])) + 1
        raise DegeneracyError(
            f"response level {missing} has no nodes; the statistic's "
            "reference distribution is undefined")
    totals = np.zeros((2, cols.size))
    for k, part, xb0 in column_blocks(dataset, cols):
        totals[:, part] = _block_lambdas(dataset.network, tables, xb0, k)
    observed = totals[0] + totals[1]
    hits = np.zeros(cols.size, dtype=np.int64)
    for k, part, xb0 in column_blocks(dataset, np.repeat(cols, perms)):
        owner, draw = np.divmod(part, perms)  # entry i perms + b
        for c, (i, b) in enumerate(zip(owner.tolist(), draw.tolist())):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy + (int(cols[i]), b)))
            xb0[:, c] = xb0[rng.permutation(dataset.n), c]
        s_perm, n_perm = _block_lambdas(dataset.network, tables, xb0, k)
        np.add.at(hits, owner, s_perm + n_perm >= observed[owner])
    return totals, (1.0 + hits) / (perms + 1.0)


def batch_statistics(dataset: NodeDataset, columns=None):
    """Normalized (lam, lam_self, lam_network) arrays over the given columns.

    columns: 1-based indices, default all. Columns are processed in blocks of
    equal level count; results land in the order given. Summation order is
    fixed, so results do not depend on the blocking or on thread count.
    """
    dataset = validate(dataset)
    cols = range(1, dataset.p + 1) if columns is None else columns
    lam_self, lam_net = _column_totals(dataset, cols)[0] / dataset.n
    return lam_self + lam_net, lam_self, lam_net


def degrees_of_freedom(r: int, k: int) -> tuple[int, int]:
    """(df_self, df_network) of the chi-square references for widths (R, K)."""
    return (r - 1) * (k - 1), r * r * (k * k - 1)


def plr_statistic(dataset: NodeDataset, j: int) -> PlrStat:
    """Statistic of column j (1-based) with chi-square tail probabilities.

    Raises DegeneracyError when a declared response level has no nodes.
    """
    dataset = validate(dataset)
    s_tot, n_tot = _column_totals(dataset, [j])[0][:, 0].tolist()
    df_self, df_net = degrees_of_freedom(dataset.r_levels,
                                         int(dataset.k_levels[j - 1]))
    return PlrStat(
        lam=(s_tot + n_tot) / dataset.n,
        lam_self=s_tot / dataset.n,
        lam_network=n_tot / dataset.n,
        df_self=df_self,
        df_network=df_net,
        p_self=chi2_tail(2.0 * s_tot, df_self),
        p_network=chi2_tail(2.0 * n_tot, df_net),
    )


def permutation_pvalue(dataset: NodeDataset, columns, n_perms: int,
                       seed: int = 0) -> np.ndarray:
    """Permutation tail of each of columns (1-based ids), in the order given.

    Permuting a column across nodes breaks its tie to the responses and the
    adjacency but keeps its level frequencies. Costs n_perms extra scoring
    passes over the columns.
    """
    dataset = validate(dataset)
    if n_perms < 1:
        raise ValidationError("n_perms must be positive")
    return _column_totals(dataset, columns, n_perms, seed)[1]
