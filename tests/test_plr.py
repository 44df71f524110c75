import numpy as np
import pytest

import netscreen.plr as plr
from netscreen import DegeneracyError, NodeDataset, validate
from netscreen.plr import (
    batch_statistics, chi2_tail, degrees_of_freedom, log_l0, log_lj,
    permutation_pvalue, plr_statistic, pmle_probs,
)
from netscreen.counts import counts_bundle
from netscreen.experiment import null_calibration

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


def test_log_l0_frozen_values():
    """Null fit against values computed by hand from the cell tallies."""
    # two isolated nodes: 2*ln(1/2) from the node term, empty pair cells
    ds = as_dataset(np.array([1, 2]), np.array([[1], [1]]), [], 2, 1)
    assert log_l0(ds) == pytest.approx(-1.3862943611198906, abs=1e-12)

    # 8*ln(.5) + ln(.25) + 3*ln(.75)
    ds = four_node_dataset()
    assert log_l0(ds) == pytest.approx(-7.7945180229547956, abs=1e-12)


def test_statistic_is_normalized_loglik_gap():
    ds = four_node_dataset()
    stat = plr_statistic(ds, 1)
    gap = (log_lj(ds, 1) - log_l0(ds)) / ds.n
    assert stat.lam == pytest.approx(gap, rel=1e-12, abs=1e-14)


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


def test_parts_are_nonnegative_and_sum():
    rng = np.random.default_rng(22)
    for _ in range(80):
        y, x, edges, r, k = random_instance(rng)
        stat = plr_statistic(as_dataset(y, x, edges, r, k), 1)
        assert stat.lam_self >= 0.0
        assert stat.lam_network >= 0.0
        n = len(y)
        assert n * stat.lam == pytest.approx(
            n * (stat.lam_self + stat.lam_network), rel=1e-12, abs=1e-12)


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


def test_degrees_of_freedom():
    assert degrees_of_freedom(2, 2) == (1, 12)
    assert degrees_of_freedom(3, 2) == (2, 27)
    assert degrees_of_freedom(2, 3) == (2, 32)


def test_refinement_never_scores_below_null():
    rng = np.random.default_rng(23)
    for _ in range(40):
        y, x, edges, r, k = random_instance(rng)
        ds = as_dataset(y, x, edges, r, k)
        assert log_lj(ds, 1) >= log_l0(ds) - 1e-12


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
        # parts are bitwise identical; the sums may differ in the last ulp
        # because the two paths add before or after normalizing
        assert lam_s[j - 1] == one.lam_self
        assert lam_n[j - 1] == one.lam_network
        assert lam[j - 1] == pytest.approx(one.lam, rel=1e-14)

    # an explicit column list lands in the order given
    sub, _, _ = batch_statistics(ds, columns=[5, 2])
    assert sub[0] == lam[4] and sub[1] == lam[1]

    with pytest.raises(IndexError):
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


def test_pmle_probs_are_cell_frequencies():
    ds = four_node_dataset()
    probs = pmle_probs(counts_bundle(ds, 1))
    assert probs.pi_y.sum() == pytest.approx(1.0)
    np.testing.assert_allclose(probs.pi_y_given_j.sum(axis=0), 1.0)
    assert probs.pi_pairs_y[0, 1] == pytest.approx(0.5)
    assert probs.pi_pairs_y[1, 0] == pytest.approx(0.25)


def test_permutation_pvalue_is_deterministic():
    rng = np.random.default_rng(26)
    y, x, edges, r, k = random_instance(rng, n_max=10)
    ds = as_dataset(y, x, edges, r, k)
    p1, vals1 = permutation_pvalue(ds, 1, 40, seed=5)
    p2, vals2 = permutation_pvalue(ds, 1, 40, seed=5)
    assert p1 == p2
    assert np.array_equal(vals1, vals2)
    assert plr_statistic(ds, 1, perms=40, seed=5).p_perm == p1
    # a different seed reshuffles
    p3, _ = permutation_pvalue(ds, 1, 40, seed=6)
    assert 0.0 < p3 <= 1.0


def test_permutation_pvalue_independent_of_batching(monkeypatch):
    rng = np.random.default_rng(27)
    y, x, edges, r, k = random_instance(rng, n_max=10)
    ds = as_dataset(y, x, edges, r, k)
    p_big, vals_big = permutation_pvalue(ds, 1, 25, seed=9)
    monkeypatch.setattr(plr, "BLOCK_TARGET_CELLS", 1)  # one draw per block
    p_one, vals_one = permutation_pvalue(ds, 1, 25, seed=9)
    assert p_big == p_one
    assert np.array_equal(vals_big, vals_one)


def test_permutation_pvalue_on_constant_column_is_one():
    y = np.array([1, 2, 1, 2, 1, 2])
    x = np.ones((6, 1), dtype=np.int64)
    ds = as_dataset(y, x, [(1, 2), (3, 4)], 2, 1)
    p, vals = permutation_pvalue(ds, 1, 19, seed=0)
    assert p == 1.0
    assert np.all(vals == 0.0)


def test_missing_response_level_raises():
    y = np.array([1, 2, 1, 2])
    x = np.array([[1], [2], [1], [2]])
    ds = validate(NodeDataset(y=y, x=x, edges=np.array([[1, 2]]),
                              r_levels=3, k_levels=[2]))
    with pytest.raises(DegeneracyError):
        plr_statistic(ds, 1)


def test_column_index_bounds():
    ds = four_node_dataset()
    with pytest.raises(IndexError):
        plr_statistic(ds, 0)
    with pytest.raises(IndexError):
        plr_statistic(ds, 2)
    with pytest.raises(ValueError):
        permutation_pvalue(ds, 1, 0)


def test_null_calibration_at_three_response_levels():
    # the doubled parts of a noise column sit at their R = 3 references
    cal = null_calibration(n=200, reps=300, seed=0, r_levels=3)
    assert (cal["df_self"], cal["df_network"]) == (2, 27)
    for part, df in (("self", 2), ("network", 27)):
        tol = 4.0 * np.sqrt(2.0 * df / cal["reps"])  # 4 Monte Carlo SEs
        assert abs(cal[f"mean_{part}"] - df) < tol
