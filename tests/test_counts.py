import numpy as np
import pytest

from netscreen import NodeDataset, counts, validate
from netscreen.counts import (
    Network, block_pair_tables, tally_adjacency, tally_edges, tally_marginals,
)

from oracles import oracle_counts, oracle_edge_counts, random_instance


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
        net = ds.network
        y0, src0, dst0 = net.y0, net.src0, net.dst0
        xb0 = ds.x.astype(np.int64) - 1
        n_yj = tally_marginals(y0, xb0, r, k)[0]
        assert np.array_equal(n_yj.sum(axis=1), want["n_y"])
        assert np.array_equal(n_yj.sum(axis=0), want["n_j"])
        assert np.array_equal(n_yj, want["n_yj"])
        e_yj = tally_edges(y0, src0, dst0, xb0, k, net)[0]
        e_y = e_yj.sum(axis=(2, 3))
        assert np.array_equal(e_y, want["n_edges_y"])
        assert np.array_equal(e_yj, want["n_edges_yj"])
        # every refined table collapses back to its coarse counterpart
        n_y, pairs_y, edges_y = ds.network.tables()
        pairs_yj = block_pair_tables(n_yj[None])[0]
        assert np.array_equal(n_yj.sum(axis=1), n_y)
        assert np.array_equal(pairs_yj.sum(axis=(2, 3)), pairs_y)
        assert np.array_equal(e_y, edges_y)
        assert pairs_y.sum() == len(y) * (len(y) - 1)
        assert e_y.sum() == len(edges)


def test_pair_counts_product_identity():
    """Ordered-pair cell counts are an outer product minus the diagonal."""
    rng = np.random.default_rng(8)
    for _ in range(60):
        y, x, edges, r, k = random_instance(rng)
        ds = as_dataset(y, x, edges, r, k)
        want = oracle_counts(y, x[:, 0], edges, r, k)
        xb0 = ds.x.astype(np.int64) - 1
        n_yj = tally_marginals(ds.network.y0, xb0, r, k)[0]
        n_pairs_yj = block_pair_tables(n_yj[None])[0]
        assert np.array_equal(n_pairs_yj.sum(axis=(2, 3)), want["n_pairs_y"])
        assert np.array_equal(n_pairs_yj, want["n_pairs_yj"])


def test_response_pair_tables():
    """The network's feature-free tables, and those of a masked subset,
    equal the oracle's on the nodes and the edges between them."""
    rng = np.random.default_rng(10)
    for trial in range(20):
        y, x, edges, r, k = random_instance(rng)
        ds = as_dataset(y, x, edges, r, k)
        want = oracle_counts(y, x[:, 0], edges, r, k)
        got = ds.network.tables()
        for have, key in zip(got, ("n_y", "n_pairs_y", "n_edges_y")):
            assert have.dtype == np.int64
            assert np.array_equal(have, want[key])
        mask = rng.uniform(size=len(y)) < 0.6
        mask[trial % len(y)] = True
        keep = np.flatnonzero(mask)
        rank = np.cumsum(mask)  # 1-based ids among the kept nodes
        inner = [(rank[s - 1], rank[t - 1]) for s, t in edges
                 if mask[s - 1] and mask[t - 1]]
        want = oracle_counts(y[keep], x[keep, 0], inner, r, k)
        got = ds.network.tables(mask)
        for have, key in zip(got, ("n_y", "n_pairs_y", "n_edges_y")):
            assert np.array_equal(have, want[key])


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
    args = (ds.network.y0, ds.network.src0, ds.network.dst0)
    marg = tally_marginals(args[0], xb0, r, k)
    edge = tally_edges(*args, xb0, k, ds.network)
    assert marg.shape == (p, r, k)
    assert edge.shape == (p, r, r, k, k)
    assert edge.dtype == np.int64
    for j in range(1, p + 1):
        want = oracle_counts(y, x[:, j - 1], edges, r, k)
        assert np.array_equal(marg[j - 1], want["n_yj"])
        assert np.array_equal(edge[j - 1], want["n_edges_yj"])


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_tally_edges_matches_oracle_across_shapes(r, k):
    """Edge tallies equal the oracle for every width, alone and in a block.

    The block mixes a column over all k levels, one that never shows its top
    level, and one stuck at level k; the graphs are edgeless, or leave the
    first three nodes isolated. One network serves both halves of
    the block, and, with a train mask, the block against the oracle on the
    edges between the masked-in nodes, as the type3 classifier tallies them.
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
        net = ds.network
        y0, src0, dst0 = net.y0, net.src0, net.dst0
        block = tally_edges(y0, src0, dst0, xb0, k, net)
        assert block.shape == (3, r, r, k, k)
        halves = np.concatenate([
            tally_edges(y0, src0, dst0, xb0[:, :2], k, net),
            tally_edges(y0, src0, dst0, xb0[:, 2:], k, net)])
        mask = rng.uniform(size=n) < 0.6
        masked_edges = [(s, t) for s, t in edges if mask[s - 1] and mask[t - 1]]
        masked = tally_edges(y0, src0, dst0, xb0, k, net, mask=mask)
        for c in range(3):
            want = oracle_counts(y, x[:, c], edges, r, k)["n_edges_yj"]
            alone = tally_edges(y0, src0, dst0, xb0[:, [c]], k, net)
            assert np.array_equal(block[c], want)
            assert np.array_equal(alone[0], want)
            assert np.array_equal(halves[c], want)
            want = oracle_counts(y, x[:, c], masked_edges, r, k)["n_edges_yj"]
            assert np.array_equal(masked[c], want)


def test_tally_edges_float64_products_give_the_same_tables(monkeypatch):
    """Below the int16 degree bound the products run in int16; with the
    bounds lowered they run in float32 and in float64, and every type gives
    the bytes of the float64 tables, plain and masked, and of the masked
    degrees; the tables match the oracle."""
    rng = np.random.default_rng(13)
    n, p, r, k = 60, 9, 3, 4
    y = np.concatenate([np.arange(1, r + 1), rng.integers(1, r + 1, n - r)])
    x = rng.integers(1, k + 1, size=(n, p))
    edges = [(s + 1, t + 1) for s in range(n) for t in range(n)
             if s != t and rng.uniform() < 0.3]
    mask = rng.uniform(size=n) < 0.7
    ds = as_dataset(y, x, edges, r, k)
    xb0 = x.astype(np.int64) - 1
    args = (ds.network.y0, ds.network.src0, ds.network.dst0)
    # (int16 bound, float32 bound) that pick each type at this n
    bounds = {np.int16: (counts.INT16_EXACT_DEGREE,
                         counts.FLOAT32_EXACT_DEGREE),
              np.float32: (0, counts.FLOAT32_EXACT_DEGREE),
              np.float64: (0, 0)}
    tables = {}
    for dtype, (int16_bound, float32_bound) in bounds.items():
        monkeypatch.setattr(counts, "INT16_EXACT_DEGREE", int16_bound)
        monkeypatch.setattr(counts, "FLOAT32_EXACT_DEGREE", float32_bound)
        network = Network(*args, r)
        tables[dtype] = (tally_edges(*args, xb0, k, network),
                         tally_edges(*args, xb0, k, network, mask=mask),
                         *network.degrees(mask))
        assert network.out.dtype == network.into.dtype == dtype
    double = tables[np.float64]
    for table in tables.values():
        for got, want in zip(table, double):
            assert got.dtype == want.dtype == np.int64
            assert got.tobytes() == want.tobytes()
    masked_edges = [(s, t) for s, t in edges if mask[s - 1] and mask[t - 1]]
    for c in range(p):
        want = oracle_counts(y, x[:, c], edges, r, k)["n_edges_yj"]
        assert np.array_equal(double[0][c], want)
        want = oracle_counts(y, x[:, c], masked_edges, r, k)["n_edges_yj"]
        assert np.array_equal(double[1][c], want)


def test_float64_sums_give_the_same_tables(monkeypatch):
    """The class sums run in float32 while the edge count is below the
    float32 bound; with the bound lowered after the int16 adjacency is
    built, they run in float64 over the same int16 products, and the
    marginal and edge tables, plain and masked, keep their bytes."""
    rng = np.random.default_rng(16)
    n, p, r, k = 80, 7, 3, 3
    y = np.concatenate([np.arange(1, r + 1), rng.integers(1, r + 1, n - r)])
    x = rng.integers(1, k + 1, size=(n, p))
    edges = [(s + 1, t + 1) for s in range(n) for t in range(n)
             if s != t and rng.uniform() < 0.25]
    mask = rng.uniform(size=n) < 0.7
    ds = as_dataset(y, x, edges, r, k)
    xb0 = x.astype(np.int64) - 1
    args = (ds.network.y0, ds.network.src0, ds.network.dst0)
    network = ds.network
    assert network.out.dtype == network.into.dtype == np.int16

    def tables():
        return (tally_marginals(args[0], xb0, r, k),
                tally_marginals(args[0][mask], xb0[mask], r, k),
                tally_edges(*args, xb0, k, network),
                tally_edges(*args, xb0, k, network, mask=mask))

    single = tables()
    assert counts._sum_type(len(edges)) == np.float32
    monkeypatch.setattr(counts, "FLOAT32_EXACT_DEGREE", 0)
    assert counts._sum_type(len(edges)) == np.float64
    for got, want in zip(tables(), single):
        assert got.dtype == want.dtype == np.int64
        assert got.tobytes() == want.tobytes()
    masked_edges = [(s, t) for s, t in edges if mask[s - 1] and mask[t - 1]]
    for c in range(p):
        want = oracle_counts(y, x[:, c], edges, r, k)
        assert np.array_equal(single[0][c], want["n_yj"])
        assert np.array_equal(single[2][c], want["n_edges_yj"])
        want = oracle_counts(y, x[:, c], masked_edges, r, k)["n_edges_yj"]
        assert np.array_equal(single[3][c], want)


def test_edge_walk_oracle_matches_pair_walk():
    rng = np.random.default_rng(15)
    for _ in range(30):
        y, x, edges, r, k = random_instance(rng)
        assert np.array_equal(oracle_edge_counts(y, x[:, 0], edges, r, k),
                              oracle_counts(y, x[:, 0], edges, r, k)[
                                  "n_edges_yj"])


def test_tally_adjacency_matches_edge_loop():
    """Rows in node order: row r2 n + i holds node i's class-r2 destinations
    of the edges out of it. The reversed edge list gives the sources of the
    edges into each node. The network's unmasked degrees are the row sums
    of each side, and each node's in-neighbours by class are the row sums
    of the other."""
    rng = np.random.default_rng(14)
    for _ in range(30):
        y, x, edges, r, k = random_instance(rng)
        ds = as_dataset(y, x, edges, r, k)
        n = len(y)
        net = ds.network
        for a, (links, src0, dst0) in enumerate((
                (edges, net.src0, net.dst0),
                ([(d, s) for s, d in edges], net.dst0, net.src0))):
            adjacency = tally_adjacency(net.y0, src0, dst0, r)
            want = np.zeros((r, n, n), dtype=np.int64)
            indeg = np.zeros((r, n), dtype=np.int64)
            for s, d in links:
                want[y[d - 1] - 1, s - 1, d - 1] += 1
                indeg[y[s - 1] - 1, d - 1] += 1
            assert adjacency.shape == (r * n, n)
            assert np.array_equal(adjacency.toarray(), want.reshape(r * n, n))
            assert np.array_equal(net.degrees()[a], want.sum(axis=2))
            assert np.array_equal(net.degrees()[1 - a], indeg)


def test_adjacency_rows_matches_edge_loop():
    """The network's rows out of and into each target by class, read at
    t + n r2 as predict_scores reads them, on unsorted targets with repeats,
    equal a literal loop over the edges; its masked degrees count only the
    known neighbours, of known and unknown targets alike."""
    rng = np.random.default_rng(12)
    for trial in range(30):
        y, x, edges, r, k = random_instance(rng)
        ds = as_dataset(y, x, edges, r, k)
        n = len(y)
        known = rng.uniform(size=n) < 0.6 if trial % 2 else np.ones(n, bool)
        targets = rng.integers(0, n, n + 3)
        want = np.zeros((targets.size, 2, r, n), dtype=np.int64)
        for i, t in enumerate(targets):
            for s, d in edges:
                s, d = s - 1, d - 1
                if s == t:
                    want[i, 0, y[d] - 1, d] += 1
                if d == t:
                    want[i, 1, y[s] - 1, s] += 1
        net = ds.network
        rows = (targets[:, None] + n * np.arange(r)).ravel()
        for a, side in enumerate((net.out, net.into)):
            got = side[rows].toarray().reshape(targets.size, r, n)
            assert np.array_equal(got, want[:, a])
            assert np.array_equal(net.degrees(known)[a][:, targets].T,
                                  want[:, a] @ known)
            assert np.array_equal(net.degrees()[1 - a][:, targets].T,
                                  want[:, 1 - a].sum(axis=2))


@pytest.mark.parametrize("share", [1.0, 0.7, 0.05])
def test_network_degrees_match_edge_loop(share):
    """Network.degrees counts each node's out-neighbours and in-neighbours
    by the neighbour's class, over all of them and over the neighbours a
    mask of 100%, 70% or 5% of the nodes selects, as a loop over the edges
    does; an all-true mask gives the unmasked counts."""
    rng = np.random.default_rng(int(100 * share))
    for _ in range(20):
        y, x, edges, r, k = random_instance(rng)
        ds = as_dataset(y, x, edges, r, k)
        n = len(y)
        mask = rng.uniform(size=n) < share
        want = np.zeros((2, 2, r, n), dtype=np.int64)  # [masked, side]
        for s, d in edges:
            s, d = s - 1, d - 1
            for m, keep in enumerate((np.ones(n, dtype=bool), mask)):
                want[m, 0, y[d] - 1, s] += keep[d]
                want[m, 1, y[s] - 1, d] += keep[s]
        for m, got in enumerate((ds.network.degrees(),
                                 ds.network.degrees(mask))):
            assert all(side.dtype == np.int64 for side in got)
            assert np.array_equal(np.stack(got), want[m])
        full = ds.network.degrees(np.ones(n, dtype=bool))
        assert np.array_equal(np.stack(full), want[0])


def test_counts_ignore_declared_but_unseen_levels():
    # declaring K=4 on binary data grows the tables with zero cells
    y = np.array([1, 2, 1, 2])
    x = np.array([[1], [2], [2], [1]])
    ds = validate(NodeDataset(y=y, x=x, edges=np.array([[1, 2]]),
                              k_levels=[4]))
    n_yj = tally_marginals(ds.network.y0, ds.x.astype(np.int64) - 1,
                           ds.r_levels, int(ds.k_levels[0]))[0]
    assert n_yj.shape == (2, 4)
    assert n_yj[:, 2:].sum() == 0
    assert n_yj.sum() == 4
