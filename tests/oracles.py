"""Brute-force reference implementations used to pin the fast paths.

Everything here favors explicit Python loops over vectorization so the two
code paths share no structure: tallies walk nodes and ordered pairs one at a
time, the screening statistic evaluates one log term per observation, and
the classifier scores enumerate (target, hypothesis, neighbor) triples.
"""

import math
from collections import Counter

import numpy as np


def ordered_pairs(n):
    for s in range(n):
        for t in range(n):
            if s != t:
                yield s, t


def oracle_counts(y, xcol, edges, r, k):
    """Every tally the screening statistic needs, one observation at a time."""
    y = [int(v) for v in y]
    xcol = [int(v) for v in xcol]
    n = len(y)
    eset = {(int(s), int(t)) for s, t in edges}

    n_y = np.zeros(r, dtype=np.int64)
    n_j = np.zeros(k, dtype=np.int64)
    n_yj = np.zeros((r, k), dtype=np.int64)
    for i in range(n):
        n_y[y[i] - 1] += 1
        n_j[xcol[i] - 1] += 1
        n_yj[y[i] - 1, xcol[i] - 1] += 1

    n_pairs_y = np.zeros((r, r), dtype=np.int64)
    n_edges_y = np.zeros((r, r), dtype=np.int64)
    n_pairs_yj = np.zeros((r, r, k, k), dtype=np.int64)
    n_edges_yj = np.zeros((r, r, k, k), dtype=np.int64)
    for s, t in ordered_pairs(n):
        cy = (y[s] - 1, y[t] - 1)
        cj = (y[s] - 1, y[t] - 1, xcol[s] - 1, xcol[t] - 1)
        n_pairs_y[cy] += 1
        n_pairs_yj[cj] += 1
        if (s + 1, t + 1) in eset:
            n_edges_y[cy] += 1
            n_edges_yj[cj] += 1
    return {
        "n": n, "n_y": n_y, "n_j": n_j, "n_yj": n_yj,
        "n_pairs_y": n_pairs_y, "n_edges_y": n_edges_y,
        "n_pairs_yj": n_pairs_yj, "n_edges_yj": n_edges_yj,
    }


def oracle_edge_counts(y, xcol, edges, r, k):
    """n_edges_yj of :func:`oracle_counts`, one edge at a time, for graphs
    whose n (n - 1) ordered pairs are too many to walk."""
    y = [int(v) for v in y]
    xcol = [int(v) for v in xcol]
    n_edges_yj = np.zeros((r, r, k, k), dtype=np.int64)
    for s, t in edges:
        s, t = int(s) - 1, int(t) - 1
        n_edges_yj[y[s] - 1, y[t] - 1, xcol[s] - 1, xcol[t] - 1] += 1
    return n_edges_yj


def oracle_plr(y, xcol, edges):
    """(lam, lam_self, lam_network), each already divided by n.

    Literal evaluation: one log-probability term per node and per ordered
    pair, under the feature-free and the feature-refined plug-in fits.
    """
    y = [int(v) for v in y]
    xcol = [int(v) for v in xcol]
    n = len(y)
    eset = {(int(s), int(t)) for s, t in edges}

    n_y = Counter(y)
    n_j = Counter(xcol)
    n_yj = Counter(zip(y, xcol))
    self_total = 0.0
    for i in range(n):
        self_total += math.log(n_yj[(y[i], xcol[i])] / n_j[xcol[i]])
        self_total -= math.log(n_y[y[i]] / n)

    pairs_y = Counter()
    edges_y = Counter()
    pairs_yj = Counter()
    edges_yj = Counter()
    for s, t in ordered_pairs(n):
        cy = (y[s], y[t])
        cj = (y[s], y[t], xcol[s], xcol[t])
        pairs_y[cy] += 1
        pairs_yj[cj] += 1
        if (s + 1, t + 1) in eset:
            edges_y[cy] += 1
            edges_yj[cj] += 1

    net_total = 0.0
    for s, t in ordered_pairs(n):
        cy = (y[s], y[t])
        cj = (y[s], y[t], xcol[s], xcol[t])
        p0 = edges_y[cy] / pairs_y[cy]
        pj = edges_yj[cj] / pairs_yj[cj]
        if (s + 1, t + 1) in eset:
            net_total += math.log(pj) - math.log(p0)
        else:
            net_total += math.log1p(-pj) - math.log1p(-p0)

    return ((self_total + net_total) / n, self_total / n, net_total / n)


def oracle_pearson(y, xcol, r, k):
    """Classical chi-squared independence statistic for one column."""
    y = [int(v) for v in y]
    xcol = [int(v) for v in xcol]
    n = len(y)
    n_y = Counter(y)
    n_j = Counter(xcol)
    n_yj = Counter(zip(y, xcol))
    stat = 0.0
    for rr in range(1, r + 1):
        for kk in range(1, k + 1):
            expected = n_y[rr] * n_j[kk] / n
            if expected > 0:
                stat += (n_yj[(rr, kk)] - expected) ** 2 / expected
    return stat


def oracle_classifier_scores(kind, y, x, edges, s_y_cols, s_a_cols,
                             k_widths, r, train_mask, targets, alpha=0.5):
    """Score matrix (len(targets), r) by direct (target, level, neighbor) loops.

    x: (n, p) 1-based levels; edges: iterable of 1-based (src, dst);
    s_y_cols / s_a_cols: 1-based column ids; train_mask: boolean per node;
    targets: 1-based node ids.
    """
    y = [int(v) for v in y]
    x = np.asarray(x)
    n = len(y)
    eset = {(int(s), int(t)) for s, t in edges}
    train = [i for i in range(n) if train_mask[i]]
    n_fit = len(train)

    n_y = Counter(y[i] for i in train)
    prior = {lev: (n_y[lev] + alpha) / (n_fit + alpha * r)
             for lev in range(1, r + 1)}

    def cond(col, lev, xv):
        k = k_widths[col]
        cnt = sum(1 for i in train if y[i] == lev and x[i, col - 1] == xv)
        return (cnt + alpha) / (n_y[lev] + alpha * k)

    def pi0(r1, r2):
        e = sum(1 for s in train for t in train
                if s != t and y[s] == r1 and y[t] == r2
                and (s + 1, t + 1) in eset)
        p = sum(1 for s in train for t in train
                if s != t and y[s] == r1 and y[t] == r2)
        return (e + alpha) / (p + 2 * alpha)

    def pij(col, r1, r2, k1, k2):
        j = col - 1
        e = sum(1 for s in train for t in train
                if s != t and y[s] == r1 and y[t] == r2
                and x[s, j] == k1 and x[t, j] == k2
                and (s + 1, t + 1) in eset)
        p = sum(1 for s in train for t in train
                if s != t and y[s] == r1 and y[t] == r2
                and x[s, j] == k1 and x[t, j] == k2)
        return (e + alpha) / (p + 2 * alpha)

    scores = np.zeros((len(targets), r))
    for ti, target in enumerate(targets):
        i = target - 1
        others = [t for t in train if t != i]
        for lev in range(1, r + 1):
            s = math.log(prior[lev])
            for col in s_y_cols:
                s += math.log(cond(col, lev, x[i, col - 1]))
            if kind in ("type2", "type3"):
                for t in others:
                    if (i + 1, t + 1) in eset:
                        s += math.log(pi0(lev, y[t]))
                    else:
                        s += math.log1p(-pi0(lev, y[t]))
                    if (t + 1, i + 1) in eset:
                        s += math.log(pi0(y[t], lev))
                    else:
                        s += math.log1p(-pi0(y[t], lev))
            if kind == "type3":
                for col in s_a_cols:
                    j = col - 1
                    for t in others:
                        pe = pij(col, lev, y[t], x[i, j], x[t, j])
                        base = pi0(lev, y[t])
                        if (i + 1, t + 1) in eset:
                            s += math.log(pe) - math.log(base)
                        else:
                            s += math.log1p(-pe) - math.log1p(-base)
                        pe = pij(col, y[t], lev, x[t, j], x[i, j])
                        base = pi0(y[t], lev)
                        if (t + 1, i + 1) in eset:
                            s += math.log(pe) - math.log(base)
                        else:
                            s += math.log1p(-pe) - math.log1p(-base)
            scores[ti, lev - 1] = s
    return scores


def random_instance(rng, n_max=10, r_max=3, k_max=3, p=1):
    """A tiny random dataset guaranteed to show every response level."""
    r = int(rng.integers(2, r_max + 1))
    k = int(rng.integers(2, k_max + 1))
    n = int(rng.integers(max(3, r), n_max + 1))
    y = np.empty(n, dtype=np.int32)
    y[:r] = np.arange(1, r + 1)
    y[r:] = rng.integers(1, r + 1, size=n - r)
    rng.shuffle(y)
    x = rng.integers(1, k + 1, size=(n, p)).astype(np.int32)
    density = rng.uniform(0.1, 0.6)
    edges = [(s + 1, t + 1) for s in range(n) for t in range(n)
             if s != t and rng.uniform() < density]
    return y, x, edges, r, k
