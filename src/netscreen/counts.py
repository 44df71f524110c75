"""Count tables for response/feature/adjacency tallies.

Every statistic and classifier score in the package is a function of these
tables. Feature tables come from the blocked tallies below, one block of
same-width columns per call. Pair counts come from a
closed-form product identity, never from iterating node pairs. Edge tallies
come only from one class-split adjacency per edge set (see
:func:`tally_edges`), so a block of B columns of width K costs
O((K-1) B |E| + R (K-1)^2 B n) once that is built. All
tables are 64-bit integers (ordered-pair totals reach n(n-1), which
overflows 32 bits beyond n of about 65k). Table axes are 0-based: entry
[r-1, k-1] holds the tally of response level r with feature level k.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse


# ---- blocked tallies over groups of same-width columns ----
# One call covers a block of B columns that share the level count k. xb0
# holds 0-based level codes, one column per feature in the block; y0 the
# 0-based responses; src0/dst0 the 0-based edge endpoints.
#
# Edge tallies: class_adjacency splits an edge list by the response class
# r2 of each edge's neighbour endpoint into sparse matrices A_{r2}, with
# their row sums (degrees). Each node's neighbours of class r2 at each level
# of each column are T[i, r2, l, c] = (A_{r2} I_{l,c})[i], where I_{l,c}
# indicates the nodes at level l of column c: one sparse-dense product per
# class covers all B columns and every level but the last, which is the
# degree minus the others. The CSR adjacency is read straight off the edge
# arrays, which requires them to be sorted by source; validate() guarantees
# that, and any subset of its edges keeps the order.
#
# tally_edges takes the neighbour to be the destination and sums over the
# sources of class r1 at level l:
#     E[r1, r2, l, m] = sum of T[i, r2, m, c] over i with y_i = r1, x_ic = l.
# Its adjacency (tally_adjacency) depends only on the edges and responses,
# so callers build it once per edge set and pass it to every block. Its rows
# are the nodes listed class by class, so the sources of each class r1 are
# one contiguous row range. Only the inner cells l, m < k-1 are summed from
# the products; the rest follow from margins of the same table:
#     row l < k-1:   sum over m of E[.., l, m] = sum of deg_{r2}[i] over the
#                    sources i of class r1 at level l;
#     column m < k-1: sum over l of E[.., l, m] = sum of T[i, r2, m, c] over
#                    the sources i of class r1;
#     all cells:     the class-pair edge total, sum of deg_{r2} over class r1,
# so the last row, the last column and the corner are differences, and the
# last level is never written out per node. Products run in float32 when
# n < FLOAT32_EXACT_N = 2^24 (product_dtype): each entry of T is an integer
# no larger than n-1, so float32 holds it and every partial sum of its row
# exactly.
# Reductions over nodes run in float64, whose integer range (2^53) covers the
# edge count. A block of B columns of width k then costs O((k-1) B |E|) for
# the products plus O(R (k-1)^2 B n) for the reductions; the adjacency costs
# O(R (|E| + n)) once per edge set. All tables come back as exact int64.
#
# The classifier needs T at its targets only, out of each target and into
# it, over the neighbours it knows the responses of. neighbour_adjacency
# stacks those 2R class-split adjacencies, restricted to the target rows,
# into one CSR matrix, so one product per block gives every target's inner
# level counts in both directions, and its row sums are the degrees. Edges
# to unknown neighbours stay in it as explicit zeros: masking the entries
# costs less than filtering four edge arrays.

FLOAT32_EXACT_N = 2 ** 24  # float32 holds every integer up to this bound


def product_dtype(n: int):
    """Entry type of adjacency products over n nodes: float32 while exact."""
    return np.float32 if n < FLOAT32_EXACT_N else np.float64


def tally_marginals(y0: np.ndarray, xb0: np.ndarray, r: int, k: int) -> np.ndarray:
    """Joint (response, level) tallies, shape (B, R, k), from 0-based codes."""
    b = xb0.shape[1]
    codes = y0[:, None] * k + xb0
    codes = codes + np.arange(b, dtype=np.int64) * (r * k)
    flat = np.bincount(codes.ravel(), minlength=b * r * k)
    return flat.reshape(b, r, k)


def class_adjacency(src0: np.ndarray, dst0: np.ndarray, nbr_y0: np.ndarray,
                    n: int, r: int, dtype=np.float64) -> list:
    """R pairs (adj, deg): CSR adjacency, with entries of the given dtype,
    of the source-sorted edges whose neighbour endpoint has class r2
    (nbr_y0, per edge), and its row sums."""
    split = []
    for r2 in range(r):
        keep = np.flatnonzero(nbr_y0 == r2)  # faster to gather than a mask
        deg = np.bincount(src0[keep], minlength=n)
        indptr = np.concatenate(([0], np.cumsum(deg)))
        adj = sparse.csr_array(
            (np.ones(indptr[-1], dtype), dst0[keep], indptr), shape=(n, n))
        split.append((adj, deg))
    return split


def neighbour_adjacency(y0: np.ndarray, src0: np.ndarray, dst0: np.ndarray,
                        known: np.ndarray, targets: np.ndarray, r: int,
                        dtype=np.float64):
    """CSR (2R T, n) of each target's neighbours by direction and class.

    Row 2R t + d R + r2 holds the nodes j of class r2 that targets[t] links
    to (d = 0) or that link to it (d = 1): 1 where known[j], else an
    explicit 0, so that row sums and products count known neighbours only.
    targets are 0-based node ids in any order, repeats allowed.
    """
    n = y0.size
    rows = np.concatenate([src0 * (2 * r) + y0[dst0],
                           dst0 * (2 * r) + (r + y0[src0])])
    cols = np.concatenate([dst0, src0])
    adj = sparse.csr_array((known[cols].astype(dtype), (rows, cols)),
                           shape=(2 * r * n, n))
    return adj[(targets[:, None] * (2 * r) + np.arange(2 * r)).ravel()]


def tally_adjacency(y0: np.ndarray, src0: np.ndarray, dst0: np.ndarray,
                    r: int):
    """(order, adjacency) that :func:`tally_edges` reads for these edges.

    order lists the nodes class by class (stable in node id); adjacency is
    :func:`class_adjacency` over the destinations' classes with row i
    holding node order[i], in float32 when n < FLOAT32_EXACT_N.
    """
    n = y0.size
    order = np.argsort(y0, kind="stable")
    return order, [(adj[order], deg[order]) for adj, deg in class_adjacency(
        src0, dst0, y0[dst0], n, r, product_dtype(n))]


def tally_edges(y0: np.ndarray, src0: np.ndarray, dst0: np.ndarray,
                xb0: np.ndarray, r: int, k: int, adjacency) -> np.ndarray:
    """Linked-pair tallies, shape (B, R, R, k, k), from 0-based codes.

    Edges must be sorted by source (see the identity above). adjacency is
    :func:`tally_adjacency` of these y0, src0 and dst0, built once per edge
    set and shared by every block.
    """
    order, split = adjacency
    n, b = xb0.shape
    ends = np.cumsum(np.bincount(y0, minlength=r))
    classes = [slice(lo, hi) for lo, hi in zip(np.r_[0, ends[:-1]], ends)]
    # indicators of the inner levels, laid out (node, level, column)
    lev = (xb0[:, None, :] == np.arange(k - 1)[:, None]).astype(
        split[0][0].dtype).reshape(n, -1)
    src = lev[order].reshape(n, k - 1, b)
    out = np.empty((b, r, r, k, k), dtype=np.int64)
    for r2, (adj, deg) in enumerate(split):
        hit = (adj @ lev).reshape(n, k - 1, b)
        for r1, rows in enumerate(classes):
            s, h = src[rows], hit[rows]
            inner = np.einsum("ilb,imb->blm", s, h, dtype=np.float64)
            row_tot = np.einsum("ilb,i->bl", s, deg[rows], dtype=np.float64)
            col_tot = h.sum(axis=0, dtype=np.float64).T
            cell = out[:, r1, r2]
            cell[:, :-1, :-1] = inner
            cell[:, :-1, -1] = row_tot - inner.sum(axis=2)
            cell[:, -1, :-1] = col_tot - inner.sum(axis=1)
            cell[:, -1, -1] = (deg[rows].sum() - row_tot.sum(axis=1)
                               - col_tot.sum(axis=1) + inner.sum(axis=(1, 2)))
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
