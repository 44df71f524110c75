"""Count tables for response/feature/adjacency tallies.

Every statistic and classifier score in the package is a function of these
tables. Feature tables come from blocked tallies, one block of same-width
columns per call; pair counts from a closed-form product identity, never
from iterating node pairs; edge tallies from one sparse-dense product per
block with the class-split CSR adjacency of the dataset's :class:`Network`.
All tables are 64-bit integers (ordered-pair totals reach n(n-1), which
overflows 32 bits beyond n of about 65k). Table axes are 0-based: entry
[r-1, k-1] holds the tally of response level r with feature level k.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy import sparse


# ---- blocked tallies over groups of same-width columns ----
# One call covers a block of B columns that share the level count k. xb0
# holds 0-based level codes, one column per feature in the block; y0 the
# 0-based responses; src0/dst0 the 0-based edge endpoints.
#
# Edge tallies: tally_adjacency stacks, in one CSR matrix built by one COO
# to CSR conversion, the adjacencies A_{r2} of the edges whose destination
# has class r2, each with its rows listed class by class, so the sources of
# each class r1 are one contiguous row range; its row sums are the degrees.
# Each node's neighbours of class r2 at level l of column c are
# T[i, r2, l, c] = (A_{r2} I_{l,c})[i], where I_{l,c} indicates the nodes at
# that level: one product per block covers every class, all B columns and
# every level but the last, which is the degree minus the others. Then
#     E[r1, r2, l, m] = sum of T[i, r2, m, c] over i with y_i = r1, x_ic = l,
# summed only over the inner cells l, m < k-1; the rest follow from margins:
#     row l < k-1:    sum over m of E[.., l, m] = sum of deg_{r2}[i] over the
#                     sources i of class r1 at level l;
#     column m < k-1: sum over l of E[.., l, m] = sum of T[i, r2, m, c] over
#                     the sources i of class r1;
#     all cells:      sum of deg_{r2} over class r1,
# so the last row, the last column and the corner are differences. A train
# mask zeroes the indicators and the source rows of the nodes it leaves out,
# and its degrees are the product of the adjacency with it. Products run in
# float32 when n < FLOAT32_EXACT_N = 2^24: each entry of T is an integer
# below n, so float32 holds it and every partial sum of its row exactly;
# reductions over nodes run in float64, whose integer range (2^53) covers
# the edge count. A block then costs O((k-1) B |E|) for the product plus
# O(R (k-1)^2 B n) for the reductions, and the adjacency O(|E| + R n) once
# per dataset. All tables come back as exact int64.

FLOAT32_EXACT_N = 2 ** 24  # float32 holds every integer up to this bound


def tally_marginals(y0: np.ndarray, xb0: np.ndarray, r: int, k: int) -> np.ndarray:
    """Joint (response, level) tallies, shape (B, R, k), from 0-based codes."""
    b = xb0.shape[1]
    codes = y0[:, None] * k + xb0
    codes = codes + np.arange(b, dtype=np.int64) * (r * k)
    # bincount ignores element order, so the F-ordered codes need no copy
    flat = np.bincount(codes.ravel(order="K"), minlength=b * r * k)
    return flat.reshape(b, r, k)


def tally_adjacency(y0: np.ndarray, src0: np.ndarray, dst0: np.ndarray,
                    r: int):
    """(order, classes, adjacency, degrees) that :func:`tally_edges` reads.

    order lists the nodes class by class (stable in node id) and classes
    holds each class's slice of it. adjacency is one CSR (R n, n) matrix:
    row r2 n + i holds the destinations of class r2 of the edges out of
    node order[i], in float32 when n < FLOAT32_EXACT_N. degrees (R, n) are
    its row sums.
    """
    n = y0.size
    order = np.argsort(y0, kind="stable")
    ends = np.cumsum(np.bincount(y0, minlength=r))
    classes = [slice(lo, hi) for lo, hi in zip(np.r_[0, ends[:-1]], ends)]
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    rows = y0[dst0] * n + rank[src0]
    dtype = np.float32 if n < FLOAT32_EXACT_N else np.float64
    adjacency = sparse.csr_array(
        (np.ones(rows.size, dtype), (rows, dst0)), shape=(r * n, n))
    deg = np.bincount(rows, minlength=r * n).reshape(r, n)
    return order, classes, adjacency, deg


def degrees(adjacency, mask=None) -> np.ndarray:
    """The (R, n) int64 degrees of a :func:`tally_adjacency` result; with a
    boolean (n,) mask, of the edges between the nodes it selects only."""
    order, classes, adj, deg = adjacency
    if mask is None:
        return deg
    # each entry is an integer below n, so the product holds it exactly
    return (adj @ mask.astype(adj.dtype)).reshape(len(classes), -1).astype(
        np.int64) * mask[order]


def tally_edges(y0: np.ndarray, src0: np.ndarray, dst0: np.ndarray,
                xb0: np.ndarray, k: int, adjacency, *,
                mask=None) -> np.ndarray:
    """Linked-pair tallies, shape (B, R, R, k, k), from 0-based codes.

    adjacency is :func:`tally_adjacency` of y0, src0 and dst0, which the
    kernel reads only through it (they stay in the signature because
    perfbench/spans.py sizes each call by them). A boolean (n,) mask counts
    only the edges between the nodes it selects.
    """
    order, classes, adj, _ = adjacency
    r = len(classes)
    n, b = xb0.shape
    deg = degrees(adjacency, mask)
    # indicators of the inner levels, laid out (node, level, column)
    lev = (xb0[:, None, :] == np.arange(k - 1)[:, None]).astype(adj.dtype)
    if mask is not None:
        lev *= mask[:, None, None]
    lev = lev.reshape(n, -1)
    src = lev[order].reshape(n, k - 1, b)
    hit = (adj @ lev).reshape(r, n, k - 1, b)
    if mask is not None:
        hit *= mask[order][:, None, None]
    out = np.empty((b, r, r, k, k), dtype=np.int64)
    for r2 in range(r):
        for r1, rows in enumerate(classes):
            s, h, d = src[rows], hit[r2, rows], deg[r2, rows]
            inner = np.einsum("ilb,imb->blm", s, h, dtype=np.float64)
            row_tot = np.einsum("ilb,i->bl", s, d, dtype=np.float64)
            col_tot = h.sum(axis=0, dtype=np.float64).T
            cell = out[:, r1, r2]
            cell[:, :-1, :-1] = inner
            cell[:, :-1, -1] = row_tot - inner.sum(axis=2)
            cell[:, -1, :-1] = col_tot - inner.sum(axis=1)
            cell[:, -1, -1] = (d.sum() - row_tot.sum(axis=1)
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


class Network:
    """A sealed dataset's 0-based responses y0 and edge endpoints src0 and
    dst0, and the :func:`tally_adjacency` of its edges (out) and of the
    reversed edges (into), each built the first time a kernel reads it."""

    def __init__(self, y0, src0, dst0, r: int):
        self.y0, self.src0, self.dst0, self.r = y0, src0, dst0, r

    @cached_property
    def out(self):
        return tally_adjacency(self.y0, self.src0, self.dst0, self.r)

    @cached_property
    def into(self):
        return tally_adjacency(self.y0, self.dst0, self.src0, self.r)

    def tables(self, mask=None):
        """(n_y, n_pairs_y, n_edges_y): the feature-free tables of the nodes
        a boolean (n,) mask selects (default all) and the edges between
        them; n_edges_y[r1, r2] sums the class-r2 :func:`degrees` of the
        sources of class r1, so it takes no pass over the edges."""
        y0 = self.y0 if mask is None else self.y0[mask]
        n_y = np.bincount(y0, minlength=self.r)
        deg, classes = degrees(self.out, mask), self.out[1]
        n_edges_y = np.stack([deg[:, rows].sum(axis=1) for rows in classes])
        return n_y, np.outer(n_y, n_y) - np.diag(n_y), n_edges_y
