"""Count tables for response/feature/adjacency tallies.

Every statistic in the package is a function of these tables. Every feature
table comes from the blocked tallies below; the per-feature functions are
one-column calls into them. Pair counts come from a closed-form product
identity, never from iterating node pairs. Edge counts come from one sparse
product per target response class (see :func:`tally_edges`), so a block of B
columns of width K costs O(R |E| + (K-1) B |E| + R (K-1)^2 B n). All tables
are 64-bit integers (ordered-pair totals reach n(n-1), which overflows 32
bits beyond n of about 65k). Table axes are 0-based: entry [r-1, k-1] holds
the tally of response level r with feature level k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .dataset import NodeDataset, validate


@dataclass(frozen=True)
class CountsBundle:
    """All tallies needed for one feature's statistic.

    n_y[r]: nodes at response level r+1; n_j[k]: nodes at feature level k+1;
    n_yj[r, k]: joint node tally; n_pairs_y / n_pairs_yj: ordered node pairs
    stratified by response (and feature) levels of both endpoints;
    n_edges_y / n_edges_yj: linked ordered pairs, same stratification.
    """

    n: int
    n_y: np.ndarray
    n_j: np.ndarray
    n_yj: np.ndarray
    n_pairs_y: np.ndarray
    n_pairs_yj: np.ndarray
    n_edges_y: np.ndarray
    n_edges_yj: np.ndarray


def _column_codes(dataset: NodeDataset, j: int) -> np.ndarray:
    """0-based level codes of column j (1-based) as an (n, 1) block."""
    if not 1 <= j <= dataset.p:
        raise IndexError(f"column {j} outside 1..{dataset.p}")
    return dataset.column(j).astype(np.int64)[:, None] - 1


def marginal_counts(dataset: NodeDataset, j: int):
    """Exact tallies (n_y, n_j, n_yj) for column j (1-based)."""
    dataset = validate(dataset)
    xb0 = _column_codes(dataset, j)
    k = int(dataset.k_levels[j - 1])
    n_yj = tally_marginals(dataset._y0, xb0, dataset.r_levels, k)[0]
    return n_yj.sum(axis=1), n_yj.sum(axis=0), n_yj


def pair_counts(n_yj: np.ndarray):
    """Ordered-pair tables (n_pairs_y, n_pairs_yj) from the joint marginals.

    n_pairs_yj[r1, r2, k1, k2] = n_yj[r1, k1] * n_yj[r2, k2], minus
    n_yj[r1, k1] on the diagonal cells (r1, k1) = (r2, k2) because a node
    cannot pair with itself.
    """
    n_yj = np.asarray(n_yj, dtype=np.int64)
    n_pairs_yj = block_pair_tables(n_yj[None])[0]
    return n_pairs_yj.sum(axis=(2, 3)), n_pairs_yj


def edge_counts(dataset: NodeDataset, j: int):
    """Linked-pair tables (n_edges_y, n_edges_yj) for column j (1-based)."""
    dataset = validate(dataset)
    xb0 = _column_codes(dataset, j)
    k = int(dataset.k_levels[j - 1])
    n_edges_yj = tally_edges(dataset._y0, dataset._src0, dataset._dst0, xb0,
                             dataset.r_levels, k)[0]
    return n_edges_yj.sum(axis=(2, 3)), n_edges_yj


def counts_bundle(dataset: NodeDataset, j: int) -> CountsBundle:
    """All tables of one feature in a single object."""
    n_y, n_j, n_yj = marginal_counts(dataset, j)
    n_pairs_y, n_pairs_yj = pair_counts(n_yj)
    n_edges_y, n_edges_yj = edge_counts(dataset, j)
    return CountsBundle(dataset.n, n_y, n_j, n_yj, n_pairs_y, n_pairs_yj,
                        n_edges_y, n_edges_yj)


# ---- blocked tallies over groups of same-width columns ----
# One call covers a block of B columns that share the level count k. xb0
# holds 0-based level codes, one column per feature in the block; y0 the
# 0-based responses; src0/dst0 the 0-based edge endpoints.
#
# Edge tallies use the product identity, per column,
#     E[r1, r2, l, m] = I_{r1,l}^T A_{r2} I_m,
# where A_{r2} is the adjacency restricted to edges that end in response
# class r2, I_m the indicator of the nodes at feature level m, and I_{r1,l}
# that of the nodes of class r1 at level l. A_{r2} I_m is one sparse-dense
# product for all B columns and all levels but the last; the cells with
# neither level the last are then column-wise dot products over the nodes
# of class r1. The remaining cells follow from the margins: a row sums to
# the out-degrees into class r2, a column to the in-degrees from class r1,
# and the whole (r1, r2) table to the class-pair edge total. The CSR
# adjacency is read straight off the edge arrays, which requires them to be
# sorted by source; validate() guarantees that, and any subset of its edges
# keeps the order. The products run in float64 and are exact: every operand
# and partial sum is an integer no larger than the edge count, far below
# 2^53.

def tally_marginals(y0: np.ndarray, xb0: np.ndarray, r: int, k: int) -> np.ndarray:
    """Joint (response, level) tallies, shape (B, R, k), from 0-based codes."""
    b = xb0.shape[1]
    codes = y0[:, None] * k + xb0
    codes = codes + np.arange(b, dtype=np.int64) * (r * k)
    flat = np.bincount(codes.ravel(), minlength=b * r * k)
    return flat.reshape(b, r, k)


def tally_edges(y0: np.ndarray, src0: np.ndarray, dst0: np.ndarray,
                xb0: np.ndarray, r: int, k: int) -> np.ndarray:
    """Linked-pair tallies, shape (B, R, R, k, k), from 0-based codes.

    Edges must be sorted by source (see the identity above).
    """
    n, b = xb0.shape
    # lev[i, l, c]: node i has level l in column c
    lev = (xb0[:, None, :] == np.arange(k - 1)[:, None]).astype(np.float64)
    rows = [np.flatnonzero(y0 == r1) for r1 in range(r)]
    lev_rows = [lev[at] for at in rows]
    y_dst = y0[dst0]
    out = np.empty((b, r, r, k, k), dtype=np.int64)
    for r2 in range(r):
        into = y_dst == r2
        deg = np.bincount(src0[into], minlength=n)  # out-degrees into r2
        indptr = np.concatenate(([0], np.cumsum(deg)))
        adj = sparse.csr_array(
            (np.ones(indptr[-1]), dst0[into], indptr), shape=(n, n))
        # nbr[i, l, c]: out-neighbours of i in class r2 with level l in column c
        nbr = (adj @ lev.reshape(n, -1)).reshape(n, k - 1, b)
        for r1, at in enumerate(rows):
            hit = nbr[at]
            inner = np.einsum("ilc,imc->clm", lev_rows[r1], hit)
            row = np.einsum("ilc,i->cl", lev_rows[r1], deg[at])
            col = hit.sum(axis=0).T
            cell = out[:, r1, r2]
            cell[:, :-1, :-1] = inner
            cell[:, :-1, -1] = row - inner.sum(axis=2)
            cell[:, -1, :-1] = col - inner.sum(axis=1)
            cell[:, -1, -1] = (deg[at].sum() - row.sum(axis=1)
                               - col.sum(axis=1) + inner.sum(axis=(1, 2)))
    return out


def block_pair_tables(n_yj_block: np.ndarray) -> np.ndarray:
    """Ordered-pair tables for a block, from its joint marginals."""
    b, r, k = n_yj_block.shape
    out = np.einsum("brk,bsl->brskl", n_yj_block, n_yj_block)
    rr = np.repeat(np.arange(r), k)
    kk = np.tile(np.arange(k), r)
    out[:, rr, rr, kk, kk] -= n_yj_block[:, rr, kk]
    return out


def response_pair_tables(dataset: NodeDataset):
    """(n_y, n_pairs_y, n_edges_y): the feature-free tables, computed once."""
    r = dataset.r_levels
    n_y = np.bincount(dataset._y0, minlength=r)
    n_pairs_y = np.outer(n_y, n_y) - np.diag(n_y)
    ys = dataset._y0[dataset._src0]
    yt = dataset._y0[dataset._dst0]
    n_edges_y = np.bincount(ys * r + yt, minlength=r * r).reshape(r, r)
    return n_y, n_pairs_y, n_edges_y
