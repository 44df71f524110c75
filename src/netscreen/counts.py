"""Count tables for response/feature/adjacency tallies.

Every statistic and classifier score in the package is a function of these
tables. Feature tables come from blocked tallies, one block of same-width
columns per call; pair counts from a closed-form product identity, never
from iterating node pairs; edge tallies from one sparse-dense product per
block with the node-order CSR adjacency of the dataset's :class:`Network`,
and every class sum from dense products with class one-hots and weights.
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
# 0-based responses; src0/dst0 the 0-based edge endpoints. I is the
# (n, (k-1) B) indicator matrix of the inner levels l < k-1, laid out
# (node, level, column), and C the (R, n) class one-hot, C[r, i] = [y_i = r].
#
# Marginals: n_yj[c, r, l] = (C I)[r, (l, c)] at the inner levels; the last
# level is n_y minus them.
#
# Edge tallies: tally_adjacency stacks, in one CSR matrix built by one COO
# to CSR conversion, the adjacencies A_{r2} of the edges whose destination
# has class r2, rows in node order: row r2 n + i holds node i's class-r2
# out-neighbours. Network.degrees gives its row sums deg[r2, i] and each
# node's in-neighbours by class, indeg[r1, u], the row sums of the same
# stack over the reversed edges; each is one bincount over the edges. Each
# node's neighbours of class r2 at level m of column c are
# T[i, r2, m, c] = (A_{r2} I)[i, (m, c)]: one sparse product per block
# covers every class, all B columns and every level but the last. Then
#     E[r1, r2, l, m] = sum of T[i, r2, m, c] over i with y_i = r1, x_ic = l
# is summed only over the inner cells l, m < k-1; the rest follow from
# margins, which are sums of class weights over the nodes at a level:
#     row l < k-1:    sum over m of E[.., l, m] = sum over i at level l of
#                     [y_i = r1] deg[r2, i];
#     column m < k-1: sum over l of E[.., l, m] = sum over u at level m of
#                     [y_u = r2] indeg[r1, u] (each edge counted at its
#                     destination);
#     all cells:      sum of deg[r2] over class r1,
# so the last row, the last column and the corner are differences. The
# 2 R^2 weight rows form one (2 R^2, n) matrix, so all margins are one dense
# product with I. The inner cells are C times the elementwise products
# I[i, (l, c)] T[i, r2, m, c], taken over chunks of nodes so that the
# temporary stays within NODE_CHUNK_CELLS, or within 4 nodes' products when
# one node's pass it (fewer bytes than the block's int64 tables, R >= 2).
# A train mask zeroes the indicators and the class one-hot of the nodes it
# leaves out, and its degrees count the masked-in neighbours only: the
# product of each side's adjacency with the mask.
#
# Exactness. Products with the adjacency run in the narrowest type that
# holds them exactly, chosen per adjacency from its largest class-split
# degree D: int16 when D < 2^15, else float32 when D < 2^24, else float64.
# Each entry of T, a masked degree, or a neighbour count of the classifier,
# adds ones and zeros along one row: all its addends are nonnegative, so no
# partial sum exceeds that row's sum, at most D of the row's own side, and
# every partial sum is an integer the type holds (float32 holds every
# integer up to 2^24). I T stays exact in that type, since one factor is 0
# or 1. int16 moves half the bytes of float32 through the sparse product.
# The dense products add nonnegative integers whose totals are
# at most n (marginals) or E, the edge count (edge tallies). They run in
# float32 while that bound is below FLOAT32_EXACT_DEGREE, else in float64,
# whose integer range (2^53) covers it. Every partial sum then lies between
# 0 and the total, so each addition is exact in any order: the tables are
# the same bits whatever the BLAS library, its thread count or its
# blocking. A block costs O((k-1) B E) for the sparse product plus
# O(R^2 (k-1)^2 B n) for the dense ones, and the adjacency O(E + R n) once
# per dataset. All tables come back as exact int64.

INT16_EXACT_DEGREE = 2 ** 15  # int16 holds every count below this bound
FLOAT32_EXACT_DEGREE = 2 ** 24  # float32 holds every integer up to this bound
NODE_CHUNK_CELLS = 2 ** 18  # inner-cell products per node chunk: 1 MB of float32


def tally_marginals(y0: np.ndarray, xb0: np.ndarray, r: int, k: int) -> np.ndarray:
    """Joint (response, level) tallies, shape (B, R, k), from 0-based codes."""
    n, b = xb0.shape
    total = _sum_type(n)
    out = np.empty((b, r, k), dtype=np.int64)
    inner = _classes(y0, r, total) @ _indicators(xb0, k, total)
    out[:, :, :-1] = inner.reshape(r, k - 1, b).transpose(2, 0, 1)
    out[:, :, -1] = np.bincount(y0, minlength=r) - out[:, :, :-1].sum(axis=2)
    return out


def tally_adjacency(y0: np.ndarray, src0: np.ndarray, dst0: np.ndarray,
                    r: int) -> sparse.csr_array:
    """The CSR (R n, n) adjacency in node order: row r2 n + i holds node i's
    out-neighbours of class r2, in int16 when every row sum is below
    INT16_EXACT_DEGREE, else in float32 when below FLOAT32_EXACT_DEGREE,
    else in float64, so that its products with 0/1 vectors are exact."""
    n = y0.size
    adj = sparse.csr_array((np.ones(src0.size, np.int16),
                            (y0[dst0] * n + src0, dst0)), shape=(r * n, n))
    # a sealed edge list has no duplicates, so a row's length is its sum
    top = np.diff(adj.indptr).max(initial=0)
    if top >= INT16_EXACT_DEGREE:
        adj.data = adj.data.astype(
            np.float32 if top < FLOAT32_EXACT_DEGREE else np.float64)
    return adj


def _sum_type(bound: int):
    """float32 when every integer up to bound is exact in it, else float64."""
    return np.float32 if bound < FLOAT32_EXACT_DEGREE else np.float64


def _classes(y0: np.ndarray, r: int, dtype) -> np.ndarray:
    """The (R, n) class one-hot of y0, in dtype."""
    return (y0 == np.arange(r)[:, None]).astype(dtype)


def _indicators(xb0: np.ndarray, k: int, dtype) -> np.ndarray:
    """(n, (k-1) B) indicators of the inner levels of the (n, B) codes xb0,
    laid out (node, level, column), in dtype."""
    n, b = xb0.shape
    lev = np.empty((n, k - 1, b), dtype=dtype)
    for level in range(k - 1):
        np.equal(xb0, level, out=lev[:, level])
    return lev.reshape(n, -1)


def tally_edges(y0: np.ndarray, src0: np.ndarray, dst0: np.ndarray,
                xb0: np.ndarray, k: int, network, *,
                mask=None) -> np.ndarray:
    """Linked-pair tallies, shape (B, R, R, k, k), from 0-based codes.

    network is the :class:`Network` of y0, src0 and dst0; the kernel reads
    the edges only through it (src0 and dst0 stay in the signature because
    perfbench/spans.py sizes each call by them). A boolean (n,) mask counts
    only the edges between the nodes it selects.
    """
    adj = network.out
    r = network.r
    n, b = xb0.shape
    total = _sum_type(adj.nnz)
    deg, indeg = (side.astype(total) for side in network.degrees(mask))
    one = _classes(y0, r, total)
    lev = _indicators(xb0, k, adj.dtype)
    if mask is not None:
        lev *= mask[:, None]
        one *= mask
    # class weights [y_i = r1] deg[r2, i], then [y_u = r2] indeg[r1, u]
    weights = np.stack([one[:, None] * deg, indeg[:, None] * one])
    margins = (weights.reshape(-1, n) @ lev).astype(np.int64)
    rows, cols = margins.reshape(2, r, r, k - 1, b).transpose(0, 4, 1, 2, 3)
    # inner cells: sums by source class of source indicator times neighbours
    hit = (adj @ lev).reshape(r, n, 1, k - 1, b)
    src = lev.reshape(n, k - 1, 1, b)
    cells = (k - 1) ** 2 * b
    # at least 4 nodes: numpy sums a one-node chunk without BLAS, about 15
    # times slower, which matters once one node's products pass the target
    step = max(4, NODE_CHUNK_CELLS // max(r * cells, 1))
    part = np.empty((r, min(step, n), k - 1, k - 1, b), dtype=total)
    inner = np.zeros((r, r, cells), dtype=total)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        chunk = part[:, :hi - lo]
        np.multiply(src[lo:hi], hit[:, lo:hi], out=chunk)
        inner += one[:, lo:hi] @ chunk.reshape(r, hi - lo, cells)
    out = np.empty((b, r, r, k, k), dtype=np.int64)
    cell = out[..., :-1, :-1]
    cell[...] = inner.reshape(r, r, k - 1, k - 1, b).transpose(4, 1, 0, 2, 3)
    out[..., :-1, -1] = rows - cell.sum(axis=4)
    out[..., -1, :-1] = cols - cell.sum(axis=3)
    corner = weights[0].sum(axis=2).astype(np.int64)
    out[..., -1, -1] = (corner - rows.sum(axis=3) - cols.sum(axis=3)
                        + cell.sum(axis=(3, 4)))
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
    """0-based responses y0 (a sealed dataset's, or any class code of its
    nodes) and edge endpoints src0 and dst0; the :func:`tally_adjacency` of
    the edges (out) and of the reversed edges (into), each built the first
    time a kernel reads it."""

    def __init__(self, y0, src0, dst0, r: int):
        self.y0, self.src0, self.dst0, self.r = y0, src0, dst0, r

    @cached_property
    def out(self):
        return tally_adjacency(self.y0, self.src0, self.dst0, self.r)

    @cached_property
    def into(self):
        return tally_adjacency(self.y0, self.dst0, self.src0, self.r)

    @cached_property
    def _degrees(self):
        n = self.y0.size
        return tuple(np.bincount(self.y0[dst] * n + src, minlength=self.r * n)
                     .reshape(self.r, n)
                     for src, dst in ((self.src0, self.dst0),
                                      (self.dst0, self.src0)))

    def degrees(self, mask=None):
        """(out, into), each (R, n) int64: every node's out-neighbours and
        in-neighbours, counted by the neighbour's class; with a boolean (n,)
        mask, only the neighbours it selects."""
        if mask is None:
            return self._degrees
        return self._masked(self.out, mask), self._masked(self.into, mask)

    def _masked(self, side, mask):
        return (side @ mask.astype(side.dtype)).reshape(self.r, -1).astype(
            np.int64)

    def tables(self, mask=None):
        """(n_y, n_pairs_y, n_edges_y): the feature-free tables of the nodes
        a boolean (n,) mask selects (default all) and the edges between
        them; n_edges_y[r1, r2] sums the class-r2 out-:meth:`degrees` of the
        sources of class r1: no pass over the edges, and under a mask no
        adjacency into the nodes."""
        out, y0 = self._degrees[0], self.y0
        if mask is not None:
            out, y0 = self._masked(self.out, mask)[:, mask], y0[mask]
        n_y = np.bincount(y0, minlength=self.r)
        n_edges_y = _classes(y0, self.r, np.int64) @ out.T
        return n_y, np.outer(n_y, n_y) - np.diag(n_y), n_edges_y
