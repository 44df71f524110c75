import numpy as np
import pytest

from netscreen import NodeDataset, validate
from netscreen.counts import (
    counts_bundle, edge_counts, marginal_counts, pair_counts,
    response_pair_tables, tally_edges, tally_marginals,
)

from oracles import oracle_counts, random_instance


def as_dataset(y, x, edges, r, k):
    return validate(NodeDataset(
        y=y, x=x, edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
        r_levels=r, k_levels=np.full(x.shape[1], k)))


def test_marginal_and_edge_counts_match_oracle():
    rng = np.random.default_rng(7)
    for _ in range(60):
        y, x, edges, r, k = random_instance(rng)
        ds = as_dataset(y, x, edges, r, k)
        want = oracle_counts(y, x[:, 0], edges, r, k)
        n_y, n_j, n_yj = marginal_counts(ds, 1)
        assert np.array_equal(n_y, want["n_y"])
        assert np.array_equal(n_j, want["n_j"])
        assert np.array_equal(n_yj, want["n_yj"])
        e_y, e_yj = edge_counts(ds, 1)
        assert np.array_equal(e_y, want["n_edges_y"])
        assert np.array_equal(e_yj, want["n_edges_yj"])


def test_pair_counts_product_identity():
    """Ordered-pair cell counts are an outer product minus the diagonal."""
    rng = np.random.default_rng(8)
    for _ in range(60):
        y, x, edges, r, k = random_instance(rng)
        ds = as_dataset(y, x, edges, r, k)
        want = oracle_counts(y, x[:, 0], edges, r, k)
        _, _, n_yj = marginal_counts(ds, 1)
        n_pairs_y, n_pairs_yj = pair_counts(n_yj)
        assert np.array_equal(n_pairs_y, want["n_pairs_y"])
        assert np.array_equal(n_pairs_yj, want["n_pairs_yj"])


def test_counts_bundle_is_complete_and_consistent():
    rng = np.random.default_rng(9)
    y, x, edges, r, k = random_instance(rng, n_max=10)
    ds = as_dataset(y, x, edges, r, k)
    b = counts_bundle(ds, 1)
    want = oracle_counts(y, x[:, 0], edges, r, k)
    assert b.n == want["n"]
    for name in ("n_y", "n_j", "n_yj", "n_pairs_y", "n_edges_y",
                 "n_pairs_yj", "n_edges_yj"):
        assert np.array_equal(getattr(b, name), want[name]), name
    # every refined table collapses back to its coarse counterpart
    assert np.array_equal(b.n_pairs_yj.sum(axis=(2, 3)), b.n_pairs_y)
    assert np.array_equal(b.n_edges_yj.sum(axis=(2, 3)), b.n_edges_y)
    assert b.n_pairs_y.sum() == b.n * (b.n - 1)
    assert b.n_edges_y.sum() == len(edges)


def test_response_pair_tables():
    rng = np.random.default_rng(10)
    y, x, edges, r, k = random_instance(rng)
    ds = as_dataset(y, x, edges, r, k)
    n_y, n_pairs_y, n_edges_y = response_pair_tables(ds)
    want = oracle_counts(y, x[:, 0], edges, r, k)
    assert np.array_equal(n_y, want["n_y"])
    assert np.array_equal(n_pairs_y, want["n_pairs_y"])
    assert np.array_equal(n_edges_y, want["n_edges_y"])


def test_blocked_tallies_equal_per_column_counts():
    """The batch tally of a column block matches the oracle column by column."""
    rng = np.random.default_rng(11)
    n, p, r, k = 30, 7, 3, 3
    y = np.concatenate([np.arange(1, r + 1), rng.integers(1, r + 1, n - r)])
    x = rng.integers(1, k + 1, size=(n, p)).astype(np.int32)
    edges = [(s + 1, t + 1) for s in range(n) for t in range(n)
             if s != t and rng.uniform() < 0.2]
    ds = as_dataset(y.astype(np.int32), x, edges, r, k)
    xb0 = ds.x.astype(np.int64) - 1  # (n, p) 0-based codes
    marg = tally_marginals(ds._y0, xb0, r, k)
    edge = tally_edges(ds._y0, ds._src0, ds._dst0, xb0, r, k)
    assert marg.shape == (p, r, k)
    assert edge.shape == (p, r, r, k, k)
    assert edge.dtype == np.int64
    for j in range(1, p + 1):
        want = oracle_counts(y, x[:, j - 1], edges, r, k)
        assert np.array_equal(marg[j - 1], want["n_yj"])
        assert np.array_equal(edge[j - 1], want["n_edges_yj"])


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_tally_edges_matches_oracle_across_shapes(r, k):
    """Edge tallies equal the oracle for every width, alone and in a block.

    The block mixes a column over all k levels, one that never shows its top
    level, and one stuck at level k; the graphs are edgeless, or leave the
    first three nodes isolated.
    """
    rng = np.random.default_rng(10 * r + k)
    n = 14
    y = np.concatenate([np.arange(1, r + 1), rng.integers(1, r + 1, n - r)])
    x = np.column_stack([
        rng.integers(1, k + 1, n),
        rng.integers(1, max(k - 1, 1) + 1, n),
        np.full(n, k),
    ])
    xb0 = x.astype(np.int64) - 1
    for density in (0.0, 0.4):
        edges = [(s + 1, t + 1) for s in range(3, n) for t in range(3, n)
                 if s != t and rng.uniform() < density]
        ds = as_dataset(y, x, edges, r, k)
        block = tally_edges(ds._y0, ds._src0, ds._dst0, xb0, r, k)
        assert block.shape == (3, r, r, k, k)
        for c in range(3):
            want = oracle_counts(y, x[:, c], edges, r, k)["n_edges_yj"]
            alone = tally_edges(ds._y0, ds._src0, ds._dst0, xb0[:, [c]], r, k)
            assert np.array_equal(block[c], want)
            assert np.array_equal(alone[0], want)


def test_counts_ignore_declared_but_unseen_levels():
    # declaring K=4 on binary data grows the tables with zero cells
    y = np.array([1, 2, 1, 2])
    x = np.array([[1], [2], [2], [1]])
    ds = validate(NodeDataset(y=y, x=x, edges=np.array([[1, 2]]),
                              k_levels=[4]))
    _, _, n_yj = marginal_counts(ds, 1)
    assert n_yj.shape == (2, 4)
    assert n_yj[:, 2:].sum() == 0
    assert n_yj.sum() == 4
