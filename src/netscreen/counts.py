"""Count tables for response/feature/adjacency tallies.

Every statistic and classifier score in the package is a function of these
tables. Feature tables come from the blocked tallies below; the per-feature
functions are one-column calls into them. Pair counts come from a
closed-form product identity, never from iterating node pairs. Edge tallies
come only from the per-node neighbour tallies (see :func:`tally_edges`), so
a block of B columns of width K costs O(R |E| + (K-1) B |E| + R K B n). All
tables are 64-bit integers (ordered-pair totals reach n(n-1), which
overflows 32 bits beyond n of about 65k). Table axes are 0-based: entry
[r-1, k-1] holds the tally of response level r with feature level k.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .dataset import NodeDataset, validate


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


# ---- blocked tallies over groups of same-width columns ----
# One call covers a block of B columns that share the level count k. xb0
# holds 0-based level codes, one column per feature in the block; y0 the
# 0-based responses; src0/dst0 the 0-based edge endpoints.
#
# Edge tallies: class_adjacency splits an edge list by the response class
# r2 of each edge's neighbour endpoint into sparse matrices A_{r2}, with
# their row sums. neighbour_tallies counts each node's neighbours of class r2
# at each level of each column, T[i, r2, l, c] = (A_{r2} I_{l,c})[i], where
# I_{l,c} indicates the nodes at level l of column c: one sparse-dense
# product per class covers all B columns and every level but the last, which
# is the degree minus the others. tally_edges takes the neighbour to be the
# destination and sums over the sources of class r1 at level l:
#     E[r1, r2, l, m] = sum of T[i, r2, m, c] over i with y_i = r1, x_ic = l.
# The classifier reads T per target, out of it and, through the transposed
# adjacency, into it. The CSR adjacency is read straight off the edge arrays,
# which requires them to be sorted by source; validate() guarantees that, and
# any subset of its edges keeps the order. Products and sums run in float64
# and are exact: every operand and partial sum is an integer no larger than
# the edge count, far below 2^53.

def tally_marginals(y0: np.ndarray, xb0: np.ndarray, r: int, k: int) -> np.ndarray:
    """Joint (response, level) tallies, shape (B, R, k), from 0-based codes."""
    b = xb0.shape[1]
    codes = y0[:, None] * k + xb0
    codes = codes + np.arange(b, dtype=np.int64) * (r * k)
    flat = np.bincount(codes.ravel(), minlength=b * r * k)
    return flat.reshape(b, r, k)


def class_adjacency(src0: np.ndarray, dst0: np.ndarray, nbr_y0: np.ndarray,
                    n: int, r: int) -> list:
    """R pairs (adj, deg): CSR adjacency of the source-sorted edges whose
    neighbour endpoint has class r2 (nbr_y0, per edge), and its row sums."""
    split = []
    for r2 in range(r):
        keep = np.flatnonzero(nbr_y0 == r2)  # faster to gather than a mask
        deg = np.bincount(src0[keep], minlength=n)
        indptr = np.concatenate(([0], np.cumsum(deg)))
        adj = sparse.csr_array(
            (np.ones(indptr[-1]), dst0[keep], indptr), shape=(n, n))
        split.append((adj, deg))
    return split


def neighbour_tallies(adjacency: list, xb0: np.ndarray, k: int) -> np.ndarray:
    """Per-node tallies (n, R, k, B): [i, r2, l, c] counts the j with
    adj[i, j] = 1 in class r2 at level l of column c, for the R pairs
    (adj, deg) of :func:`class_adjacency` (or transposes with column sums)."""
    n, b = xb0.shape
    lev = (xb0[:, None, :] == np.arange(k - 1)[:, None]).astype(np.float64)
    out = np.empty((n, len(adjacency), k, b))
    for r2, (adj, deg) in enumerate(adjacency):
        hit = (adj @ lev.reshape(n, -1)).reshape(n, k - 1, b)
        out[:, r2, :-1] = hit
        out[:, r2, -1] = deg.astype(np.float64)[:, None] - hit.sum(axis=1)
    return out


def tally_edges(y0: np.ndarray, src0: np.ndarray, dst0: np.ndarray,
                xb0: np.ndarray, r: int, k: int) -> np.ndarray:
    """Linked-pair tallies, shape (B, R, R, k, k), from 0-based codes.

    Edges must be sorted by source (see the identity above).
    """
    n, b = xb0.shape
    nbr = neighbour_tallies(
        class_adjacency(src0, dst0, y0[dst0], n, r), xb0, k)
    # add each source's tallies into its (column, response, level) cell
    cells = (y0[:, None] * k + xb0 + np.arange(b) * (r * k)).ravel()
    out = np.empty((b, r, r, k, k), dtype=np.int64)
    for r2 in range(r):
        for m in range(k):
            out[:, :, r2, :, m] = np.bincount(  # (x, weights, minlength)
                cells, nbr[:, r2, m].ravel(), b * r * k).reshape(b, r, k)
    return out


def block_pair_tables(n_yj_block: np.ndarray) -> np.ndarray:
    """Ordered-pair tables for a block, from its joint marginals."""
    b, r, k = n_yj_block.shape
    out = np.einsum("brk,bsl->brskl", n_yj_block, n_yj_block)
    rr = np.repeat(np.arange(r), k)
    kk = np.tile(np.arange(k), r)
    out[:, rr, rr, kk, kk] -= n_yj_block[:, rr, kk]
    return out


def response_pair_tables(y0: np.ndarray, src0: np.ndarray, dst0: np.ndarray,
                         r: int):
    """(n_y, n_pairs_y, n_edges_y): the feature-free tables, from 0-based codes.

    src0/dst0 index into y0, which holds every node the tables count.
    """
    n_y = np.bincount(y0, minlength=r)
    n_pairs_y = np.outer(n_y, n_y) - np.diag(n_y)
    n_edges_y = np.bincount(y0[src0] * r + y0[dst0],
                            minlength=r * r).reshape(r, r)
    return n_y, n_pairs_y, n_edges_y
