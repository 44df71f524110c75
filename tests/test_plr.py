import tracemalloc

import numpy as np
import pytest

import netscreen.counts as counts
import netscreen.dataset as dataset
import netscreen.plr as plr
import netscreen.simulate as simulate
from netscreen import DegeneracyError, NodeDataset, ValidationError, validate
from netscreen.plr import (
    TABLE_CELL_LIMIT, batch_statistics, check_table_cells, chi2_tail,
    column_blocks, degrees_of_freedom, permutation_pvalue, plr_statistic,
)
from netscreen.experiment import null_calibration
from netscreen.screening import interaction_expand, plr_sis
from netscreen.simulate import example_config, generate

from oracles import oracle_plr, random_instance


def as_dataset(y, x, edges, r, k):
    return validate(NodeDataset(
        y=y, x=np.asarray(x), edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
        r_levels=r, k_levels=np.full(np.asarray(x).shape[1], k)))


def four_node_dataset():
    # hand-tallied fixture: n_y=(2,2); pair cells (1,2): 4 pairs / 2 edges,
    # (2,1): 4 pairs / 1 edge, diagonal cells edgeless
    y = np.array([1, 2, 1, 2])
    x = np.array([[1], [2], [2], [1]])
    edges = [(1, 2), (3, 4), (2, 1)]
    return as_dataset(y, x, edges, 2, 2)


def test_statistic_frozen_values():
    """Statistic parts against values derived by hand from the cell tallies."""
    # two isolated nodes and a constant column: nothing to refine
    ds = as_dataset(np.array([1, 2]), np.array([[1], [1]]), [], 2, 1)
    assert plr_statistic(ds, 1).lam == 0.0

    # every response level splits evenly over the feature levels, so the
    # node term gains nothing. Each refined pair cell holds one pair and is
    # fitted exactly, so the network part recovers the null's whole link
    # term: 4 ln 2 from cell (1,2) and ln 4 + 3 ln(4/3) from cell (2,1).
    stat = plr_statistic(four_node_dataset(), 1)
    assert stat.lam_self == 0.0
    want = (6 * np.log(2) + 3 * np.log(4 / 3)) / 4
    assert stat.lam_network == pytest.approx(want, rel=1e-12)  # 1.25548...


def test_statistic_matches_loop_oracle():
    """Engine agrees with a literal per-node / per-pair evaluation."""
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(80):
        y, x, edges, r, k = random_instance(rng)
        ds = as_dataset(y, x, edges, r, k)
        want = oracle_plr(y, x[:, 0], edges)
        got = plr_statistic(ds, 1)
        for a, b in zip((got.lam, got.lam_self, got.lam_network), want):
            assert abs(a - b) <= 1e-10 * max(abs(b), 1.0)
            worst = max(worst, abs(a - b))
    print(f"worst absolute deviation from oracle: {worst:.3e}")


def precise_parts(y0, x0, src0, dst0, r, k, mpmath):
    """(lam_self, lam_network) of one column, as mpmath numbers at 50
    digits, from integer tables tallied here with numpy."""
    n = y0.size
    nyj = np.zeros((r, k), dtype=np.int64)
    np.add.at(nyj, (y0, x0), 1)
    ny, nj = nyj.sum(axis=1), nyj.sum(axis=0)
    e = np.zeros((r, r, k, k), dtype=np.int64)
    np.add.at(e, (y0[src0], y0[dst0], x0[src0], x0[dst0]), 1)
    big_e = e.sum(axis=(2, 3))
    mpf, log = mpmath.mpf, mpmath.log
    node = mpf(0)
    for a in range(r):
        for l in range(k):
            if nyj[a, l]:
                node += int(nyj[a, l]) * log(
                    mpf(int(nyj[a, l]) * n) / (int(nj[l]) * int(ny[a])))
    link = mpf(0)
    for a in range(r):
        for b in range(r):
            null_pairs = int(ny[a]) * (int(ny[b]) - (a == b))
            p0 = mpf(int(big_e[a, b])) / null_pairs
            for l in range(k):
                for m in range(k):
                    pairs = int(nyj[a, l]) * int(nyj[b, m])
                    pairs -= int(nyj[a, l]) if (a, l) == (b, m) else 0
                    hit = int(e[a, b, l, m])
                    if hit:
                        link += hit * log(mpf(hit) / pairs / p0)
                    if pairs - hit:
                        link += (pairs - hit) * (
                            log(1 - mpf(hit) / pairs) - log(1 - p0))
    return node / n, link / n


def test_noise_columns_match_high_precision_values():
    """On columns independent of everything, n lam is about 10 while the
    fitted log pseudo-likelihoods are of order -1e5; the parts still match
    a 50-digit evaluation of the same tables to 1e-12 relative."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    ds = validate(generate(example_config(1, n=2000, p=12), seed=3)[0])
    noise = range(5, 13)  # ex1's true features are columns 1..4
    got = batch_statistics(ds, noise)
    for pos, j in enumerate(noise):
        net = ds.network
        node, link = precise_parts(
            net.y0, ds.x[:, j - 1].astype(np.int64) - 1, net.src0, net.dst0,
            ds.r_levels, int(ds.k_levels[j - 1]), mpmath)
        for value, want in zip((got[0][pos], got[1][pos], got[2][pos]),
                               (node + link, node, link)):
            rel = (mpmath.mpf(float(value)) - want) / want
            assert abs(float(rel)) <= 1e-12, (j, value)


def test_parts_are_nonnegative_and_sum():
    rng = np.random.default_rng(22)
    for _ in range(80):
        y, x, edges, r, k = random_instance(rng)
        stat = plr_statistic(as_dataset(y, x, edges, r, k), 1)
        assert stat.lam_self >= 0.0
        assert stat.lam_network >= 0.0
        assert stat.lam == stat.lam_self + stat.lam_network


def test_total_is_the_sum_of_the_parts_on_every_path():
    """plr_statistic and batch_statistics give each column of ex1 the same
    lam, bit for bit, and it is exactly lam_self + lam_network; adding the
    totals before normalizing, (s + t) / n, differs in the last bit on
    about a third of these columns."""
    for seed in range(6):
        ds, _ = generate(example_config(1, n=300, p=60), seed=seed)
        lam, lam_self, lam_net = batch_statistics(ds)
        assert np.array_equal(lam, lam_self + lam_net)
        for j in range(1, ds.p + 1):
            stat = plr_statistic(ds, j)
            assert stat.lam == lam[j - 1]
            assert stat.lam == stat.lam_self + stat.lam_network


def test_constant_column_scores_exact_zero():
    y = np.array([1, 2, 1, 2, 1, 2])
    x = np.array([[1, 2]] * 6)
    ds = as_dataset(y, x, [(1, 2), (2, 3), (4, 6), (5, 1)], 2, 2)
    for j in (1, 2):
        stat = plr_statistic(ds, j)
        assert stat.lam == 0.0
        assert stat.lam_self == 0.0
        assert stat.lam_network == 0.0
        assert stat.p_self == 1.0
        assert stat.p_network == 1.0


def test_chi2_tail():
    # 3.8415 is the 0.95 quantile of chi-square with one df
    assert chi2_tail(3.841458820694124, 1) == pytest.approx(0.05, abs=1e-9)
    assert chi2_tail(0.0, 5) == 1.0
    # zero df: point mass at zero
    assert chi2_tail(0.0, 0) == 1.0
    assert chi2_tail(0.5, 0) == 0.0
    assert type(chi2_tail(2.0, 3)) is float


def test_chi2_tail_on_arrays():
    # elementwise over statistics and df alike, the scalar rule at each
    stat = np.array([3.841458820694124, 0.0, 0.0, 0.5, -1.0, 7.5])
    df = np.array([1, 5, 0, 0, 2, 4])
    got = chi2_tail(stat, df)
    assert isinstance(got, np.ndarray) and got.shape == (6,)
    assert got.tolist() == [chi2_tail(float(s), int(d))
                            for s, d in zip(stat, df)]
    assert got[2:5].tolist() == [1.0, 0.0, 1.0]
    assert chi2_tail(np.zeros(3), 2).tolist() == [1.0, 1.0, 1.0]


def test_degrees_of_freedom():
    assert degrees_of_freedom(2, 2) == (1, 12)
    assert degrees_of_freedom(3, 2) == (2, 27)
    assert degrees_of_freedom(2, 3) == (2, 32)


def test_level_relabeling_does_not_move_the_statistic():
    """Permuting level codes of the column or the response is a no-op."""
    rng = np.random.default_rng(24)
    y, x, edges, r, k = random_instance(rng, n_max=10, r_max=3, k_max=3)
    base = plr_statistic(as_dataset(y, x, edges, r, k), 1).lam

    perm = rng.permutation(k) + 1
    relab = plr_statistic(as_dataset(y, perm[x - 1], edges, r, k), 1).lam
    assert relab == pytest.approx(base, rel=1e-12, abs=1e-14)

    perm = rng.permutation(r) + 1
    relab = plr_statistic(as_dataset(perm[y - 1], x, edges, r, k), 1).lam
    assert relab == pytest.approx(base, rel=1e-12, abs=1e-14)


def test_batch_agrees_with_per_column():
    rng = np.random.default_rng(25)
    n, p, r, k = 40, 9, 3, 2
    y = np.concatenate([np.arange(1, r + 1), rng.integers(1, r + 1, n - r)])
    x = rng.integers(1, k + 1, size=(n, p))
    edges = [(s + 1, t + 1) for s in range(n) for t in range(n)
             if s != t and rng.uniform() < 0.15]
    ds = as_dataset(y.astype(np.int64), x, edges, r, k)

    lam, lam_s, lam_n = batch_statistics(ds)
    for j in range(1, p + 1):
        one = plr_statistic(ds, j)
        # both paths normalize the parts, then add them: the same bits
        assert lam_s[j - 1] == one.lam_self
        assert lam_n[j - 1] == one.lam_network
        assert lam[j - 1] == one.lam

    # an explicit column list lands in the order given
    sub, _, _ = batch_statistics(ds, columns=[5, 2])
    assert sub[0] == lam[4] and sub[1] == lam[1]

    with pytest.raises(ValidationError, match="outside 1..9"):
        batch_statistics(ds, columns=[0])


def test_batch_statistics_independent_of_block_size(monkeypatch):
    rng = np.random.default_rng(26)
    n, r = 40, 3
    y = np.concatenate([np.arange(1, r + 1), rng.integers(1, r + 1, n - r)])
    x = np.column_stack([rng.integers(1, 3, (n, 5)), rng.integers(1, 5, (n, 4))])
    edges = [(s + 1, t + 1) for s in range(n) for t in range(n)
             if s != t and rng.uniform() < 0.15]
    ds = validate(NodeDataset(y=y, x=x, edges=np.asarray(edges), r_levels=r,
                              k_levels=[2] * 5 + [4] * 4))
    default = batch_statistics(ds)
    monkeypatch.setattr(plr, "BLOCK_TARGET_CELLS", 1)  # one column per block
    single = batch_statistics(ds)
    for a, b in zip(default, single):
        assert a.tobytes() == b.tobytes()


def test_column_blocks_group_widths_in_column_order(monkeypatch):
    rng = np.random.default_rng(28)
    n, widths = 12, (3, 2, 3, 1, 2, 3, 3)
    x = np.column_stack([rng.integers(1, w + 1, n) for w in widths])
    ds = validate(NodeDataset(y=np.r_[1, 2, rng.integers(1, 3, n - 2)], x=x,
                              edges=np.empty((0, 2)), k_levels=widths))
    monkeypatch.setattr(plr, "BLOCK_TARGET_CELLS", 2 * 4 * 9)  # two of width 3
    cols = np.array([7, 2, 3, 1, 5, 6, 4])
    blocks = list(column_blocks(ds, cols))
    assert [(k, part.tolist()) for k, part, _ in blocks] == [
        (1, [6]), (2, [1, 4]), (3, [0, 2]), (3, [3, 5])]
    for k, part, xb0 in blocks:
        assert xb0.dtype == np.int32
        assert np.array_equal(xb0, x[:, cols[part] - 1] - 1)
    assert list(column_blocks(ds, [])) == []


def test_block_width_bounds_the_n_sized_temporaries():
    """64 columns of 64 levels at n 4000 would put 16M cells in each
    n (K-1) B temporary of the edge tallies as one block; the width cap
    keeps each under BLOCK_TARGET_CELLS, and the traced peak of a full
    scoring pass far below the 300 MB the one block took."""
    rng = np.random.default_rng(30)
    n, p, k = 4000, 64, 64
    x = np.asfortranarray(rng.integers(1, k + 1, (n, p)), dtype=np.int32)
    edges = rng.integers(1, n + 1, (40_000, 2))
    ds = validate(NodeDataset(
        y=np.r_[1, 2, rng.integers(1, 3, n - 2)], x=x,
        edges=np.unique(edges[edges[:, 0] != edges[:, 1]], axis=0),
        k_levels=np.full(p, k)))
    widths = [part.size for _, part, _ in column_blocks(ds, range(1, p + 1))]
    assert sum(widths) == p
    assert max(widths) * n * (k - 1) <= plr.BLOCK_TARGET_CELLS
    ds.network.out  # built once per dataset, outside the traced pass
    tracemalloc.start()
    try:
        batch_statistics(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6


def test_column_blocks_build_composite_codes():
    """A width-4 block mixes a stored K=4 main with 2x2 composites, whose
    0-based codes are (x_a - 1) K_b + x_b - 1, built from the sources."""
    rng = np.random.default_rng(29)
    n = 50
    x = np.column_stack([rng.integers(1, k + 1, n) for k in (2, 2, 4, 2)])
    ds = validate(NodeDataset(y=np.r_[1, 2, rng.integers(1, 3, n - 2)], x=x,
                              edges=[[1, 2]], k_levels=[2, 2, 4, 2]))
    wide = interaction_expand(ds, [(1, 2), (2, 4)])
    [(k, part, xb0)] = column_blocks(wide, [5, 3, 6])
    want = np.column_stack([(x[:, 0] - 1) * 2 + x[:, 1] - 1, x[:, 2] - 1,
                            (x[:, 1] - 1) * 2 + x[:, 3] - 1]).astype(np.int32)
    assert k == 4 and part.tolist() == [0, 1, 2]
    assert xb0.dtype == np.int32 and xb0.shape == want.shape
    assert xb0.tobytes(order="F") == want.tobytes(order="F")


def test_tables_beyond_the_cell_limit_are_refused():
    """A stray large code (an id column, say) makes K_j huge: PLR scoring
    refuses the column before allocating its R^2 K_j^2 tables."""
    rng = np.random.default_rng(29)
    n = 60
    x = rng.integers(1, 3, (n, 3))
    x[5, 2] = 30000
    edges = [(s + 1, t + 1) for s in range(n) for t in range(n)
             if s != t and rng.uniform() < 0.1]
    ds = validate(NodeDataset(y=np.r_[1, 2, rng.integers(1, 3, n - 2)], x=x,
                              edges=np.asarray(edges)))
    message = f"column 3 .* {4 * 30000 ** 2} cells"
    with pytest.raises(ValidationError, match=message):
        batch_statistics(ds)
    with pytest.raises(ValidationError, match=message):
        plr_statistic(ds, 3)
    with pytest.raises(ValidationError, match=message):
        permutation_pvalue(ds, [1, 3], 5)
    assert batch_statistics(ds, [1, 2])[0].shape == (2,)
    # R^2 K^2 at the limit passes, one level more does not
    wide = validate(NodeDataset(y=ds.y, x=x, edges=ds.edges,
                                k_levels=[2, 2048, 30000]))
    assert TABLE_CELL_LIMIT == 4 * 2048 ** 2
    check_table_cells(wide, [1, 2])
    with pytest.raises(ValidationError, match="column 3"):
        check_table_cells(wide, [1, 2, 3])


def mixed_instance(rng):
    """random_instance's column next to two more drawn from rng: a
    four-level one and a second of the instance's width."""
    y, x, edges, r, k = random_instance(rng, n_max=10)
    n = len(y)
    x = np.column_stack([x[:, 0], rng.integers(1, 5, n),
                         rng.integers(1, k + 1, n)])
    return validate(NodeDataset(
        y=y, x=x, edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
        r_levels=r, k_levels=[k, 4, k]))


def test_permutation_pvalue_is_deterministic():
    ds = mixed_instance(np.random.default_rng(26))
    p1 = permutation_pvalue(ds, [1, 2, 3], 40, seed=5)
    p2 = permutation_pvalue(ds, [1, 2, 3], 40, seed=5)
    assert p1.tobytes() == p2.tobytes()
    # each column's tail is its own: alone, in another order, or through
    # plr_sis, it does not move
    for j in (1, 2, 3):
        assert permutation_pvalue(ds, [j], 40, seed=5)[0] == p1[j - 1]
        assert plr_sis(ds, perms=40, seed=5, columns=[j], cutoff="hard",
                       d=1).p_perm[0] == p1[j - 1]
    assert np.array_equal(permutation_pvalue(ds, [3, 1, 2], 40, seed=5),
                          p1[[2, 0, 1]])
    # a different seed reshuffles
    p3 = permutation_pvalue(ds, [1, 2, 3], 40, seed=6)
    assert not np.array_equal(p1, p3)
    assert np.all((0.0 < p3) & (p3 <= 1.0))


def test_permutation_tails_frozen_values():
    """The tail that 40 draws give when draw b of column j permutes by
    default_rng(SeedSequence((seed, 2^32 - 1, j, b))), the permutation id
    of dataset.STREAMS; recomputed draw by draw, one permuted dataset per
    draw, it is 17/41 as well."""
    y, x, edges, r, k = random_instance(np.random.default_rng(26), n_max=10)
    tail = permutation_pvalue(as_dataset(y, x, edges, r, k), [1], 40, seed=5)
    assert tail.tolist() == [17 / 41]


def test_permutation_draws_are_the_per_draw_streams(monkeypatch):
    """The batched draws of every width block are the streams a
    SeedSequence per draw opens, keyed (seed, permutation id, j, b)."""
    ds = mixed_instance(np.random.default_rng(27))
    batched = permutation_pvalue(ds, [3, 1, 2], 12, seed=(4, 2))

    def per_draw(prefix, keys):
        for key in np.asarray(keys).tolist():
            yield np.random.default_rng(
                np.random.SeedSequence(prefix + tuple(key)))

    monkeypatch.setattr(plr, "streams", per_draw)
    assert permutation_pvalue(ds, [3, 1, 2], 12, seed=(4, 2)).tobytes() == \
        batched.tobytes()


def test_permutation_keys_meet_no_generator_key(monkeypatch):
    """No permutation draw opens a stream that generate opens for an int
    seed s or for (s, rep) with rep < 1000, nor the split stream of s.
    The keys are recorded where they are drawn; on the keys of the old
    rule, (seed, j, b), draw b of column 2 was column b's stream."""
    opened = []

    def spy_stream(seed, *key):
        opened.append(dataset.seed_entropy(seed) + key)
        return dataset.stream(seed, *key)

    def spy_streams(seed, keys):
        prefix = dataset.seed_entropy(seed)
        opened.extend(prefix + tuple(np.atleast_1d(key).tolist())
                      for key in np.asarray(keys))
        return dataset.streams(seed, keys)

    monkeypatch.setattr(simulate, "stream", spy_stream)
    monkeypatch.setattr(simulate, "streams", spy_streams)
    monkeypatch.setattr(plr, "streams", spy_streams)
    config = example_config(5, n=20, p=12)  # noise: every generator stream
    s = 0
    ds, _ = generate(config, seed=s)
    for rep in range(1000):
        generate(config, seed=(s, rep))
    generator = set(opened) | {(s, dataset.STREAMS["split"])}
    opened.clear()
    plr_sis(ds, perms=12, seed=s)
    permutation = set(opened)
    assert len(permutation) == 12 * 12
    assert {key[:2] for key in permutation} == {
        (s, dataset.STREAMS["permutation"])}
    assert not permutation & generator


def test_permutation_pvalue_independent_of_batching(monkeypatch):
    ds = mixed_instance(np.random.default_rng(27))
    big = permutation_pvalue(ds, [1, 2, 3], 25, seed=9)
    monkeypatch.setattr(plr, "BLOCK_TARGET_CELLS", 1)  # one draw per block
    one = permutation_pvalue(ds, [1, 2, 3], 25, seed=9)
    assert big.tobytes() == one.tobytes()


def test_permutation_pvalue_on_constant_column_is_one():
    y = np.array([1, 2, 1, 2, 1, 2])
    x = np.ones((6, 1), dtype=np.int64)
    ds = as_dataset(y, x, [(1, 2), (3, 4)], 2, 1)
    assert permutation_pvalue(ds, [1], 19, seed=0).tolist() == [1.0]


@pytest.mark.parametrize("relabel", ["merge", "permute"])
def test_walk_scores_a_relabeled_network_without_its_dataset(relabel):
    """A Network on another class code of the same nodes and links (ex7's
    four classes merged in pairs, or permuted) has the tables of a dataset
    validated with that code as its response, and the walk on it, given
    only that network, its tables and the codes, gives that dataset's
    batch_statistics totals bit for bit."""
    ds, _ = generate(example_config(7, n=300, p=12), seed=5)
    ds = interaction_expand(ds, [(1, 2), (3, 4)])  # widths 2 and 4
    net = ds.network
    code = net.y0 // 2 if relabel == "merge" else np.array([2, 0, 3, 1])[
        net.y0]
    relabeled = counts.Network(code, net.src0, net.dst0, int(code.max()) + 1)
    other = validate(NodeDataset(code + 1, ds.x, ds.edges,
                                 composite_pairs=ds.composite_pairs))
    tables = relabeled.tables()
    for got, want in zip(tables, other.network.tables()):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    _, lam_self, lam_net = batch_statistics(other)
    for k, part, xb0 in column_blocks(ds, range(1, ds.p + 1)):
        self_tot, net_tot = plr._block_lambdas(relabeled, tables, xb0, k)
        assert (self_tot / other.n).tobytes() == lam_self[part].tobytes()
        assert (net_tot / other.n).tobytes() == lam_net[part].tobytes()


def test_one_shared_table_build_per_call(monkeypatch):
    """Observed columns and permutation draws read one build of the edge
    adjacency, and of the feature-free tables taken from it: the dataset's
    network, built by the first scoring call and read by every later one."""
    builds = []
    build = counts.tally_adjacency

    def counted(*args):
        builds.append(1)
        return build(*args)

    monkeypatch.setattr(counts, "tally_adjacency", counted)
    for call in (lambda ds: batch_statistics(ds),
                 lambda ds: plr_statistic(ds, 2),
                 lambda ds: permutation_pvalue(ds, [2], 9),
                 lambda ds: permutation_pvalue(ds, [1, 2, 3], 9),
                 lambda ds: plr_sis(ds, perms=9)):
        ds = mixed_instance(np.random.default_rng(26))
        builds.clear()
        call(ds)
        assert len(builds) == 1
        call(ds)
        assert len(builds) == 1


def test_negative_perms_rejected():
    ds = four_node_dataset()
    with pytest.raises(ValidationError, match="perms must be nonnegative"):
        plr_sis(ds, perms=-2)
    assert plr_sis(ds, perms=0, cutoff="hard", d=1).p_perm is None
    with pytest.raises(ValidationError, match="n_perms must be positive"):
        permutation_pvalue(ds, [1], 0)


def test_permutation_seeds_must_be_whole_and_nonnegative():
    ds, _ = generate(example_config(1, n=60, p=4), seed=2)
    for seed, named in ((2.5, "2.5"), (-1, "-1"), ((7, 1.9), "1.9")):
        with pytest.raises(ValidationError, match=f"number >= 0, not {named}$"):
            permutation_pvalue(ds, [1], 3, seed=seed)
    with pytest.raises(ValidationError, match="not -4"):
        permutation_pvalue(ds, [1, 2], 3, seed=-4)
    # a whole float keeps the stream of its int
    assert np.array_equal(permutation_pvalue(ds, [1], 9, seed=2.0),
                          permutation_pvalue(ds, [1], 9, seed=2))
    assert np.array_equal(
        plr_sis(ds, perms=9, seed=2.0, cutoff="hard", d=1).p_perm,
        plr_sis(ds, perms=9, seed=2, cutoff="hard", d=1).p_perm)
    assert np.array_equal(permutation_pvalue(ds, [1, 3], 9, seed=(4.0, 1)),
                          permutation_pvalue(ds, [1, 3], 9, seed=(4, 1)))


def test_missing_response_level_raises():
    y = np.array([1, 2, 1, 2])
    x = np.array([[1], [2], [1], [2]])
    ds = validate(NodeDataset(y=y, x=x, edges=np.array([[1, 2]]),
                              r_levels=3, k_levels=[2]))
    with pytest.raises(DegeneracyError):
        plr_statistic(ds, 1)


def test_column_index_bounds():
    ds = four_node_dataset()
    with pytest.raises(ValidationError, match="outside 1..1"):
        plr_statistic(ds, 0)
    with pytest.raises(ValidationError, match="outside 1..1"):
        plr_statistic(ds, 2)
    with pytest.raises(ValueError):
        permutation_pvalue(ds, [1], 0)


@pytest.mark.parametrize("call, message", [
    (lambda ds: batch_statistics(ds, [2.7]), "must be integers"),
    (lambda ds: permutation_pvalue(ds, [True], 3), "must be integers"),
    (lambda ds: plr_statistic(ds, 2.9), "must be integers"),
    (lambda ds: batch_statistics(ds, [1, 5]), "outside 1..4"),
    (lambda ds: permutation_pvalue(ds, [-1], 3), "outside 1..4"),
], ids=["fraction", "bool", "scalar-fraction", "past-p", "negative"])
def test_column_ids_are_checked_before_scoring(monkeypatch, call, message):
    """A float or bool id would name another column once truncated; every
    entry refuses it, and an id outside 1..p, before any block is scored."""
    ds, _ = generate(example_config(1, n=60, p=4), seed=2)

    def no_scoring(*args):
        raise AssertionError("scored a column")

    monkeypatch.setattr(plr, "_block_lambdas", no_scoring)
    with pytest.raises(ValidationError, match=message):
        call(ds)


def test_null_calibration_at_three_response_levels():
    # the doubled parts of a noise column sit at their R = 3 references
    cal = null_calibration(n=200, reps=300, seed=0, r_levels=3)
    assert (cal["df_self"], cal["df_network"]) == (2, 27)
    for part, df in (("self", 2), ("network", 27)):
        tol = 4.0 * np.sqrt(2.0 * df / cal["reps"])  # 4 Monte Carlo SEs
        assert abs(cal[f"mean_{part}"] - df) < tol
