import json
from itertools import combinations
from operator import attrgetter

import numpy as np
import pytest

from netscreen import NodeDataset, ValidationError, screening, validate
from netscreen.counts import tally_marginals
from netscreen.dataset import discretize
from netscreen.plr import chi2_tail, permutation_pvalue
from netscreen.screening import (
    feature_key, hard_cutoff, interaction_expand, max_ratio_cutoff, pc_sis,
    plr_sis,
)
from netscreen.simulate import example_config, generate

from oracles import oracle_pearson, random_instance


def joint_tally(ds, j):
    """(R, K_j) tally of response level by level of column j (1-based)."""
    xb0 = ds.column(j).astype(np.int64)[:, None] - 1
    return tally_marginals(ds.network.y0, xb0, ds.r_levels,
                           int(ds.k_levels[j - 1]))[0]


def as_dataset(y, x, edges, r, k):
    x = np.asarray(x)
    return validate(NodeDataset(
        y=y, x=x, edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
        r_levels=r, k_levels=np.full(x.shape[1], k)))


def random_wide(rng, n=40, p=6, r=2, k=2, density=0.15):
    y = np.concatenate([np.arange(1, r + 1), rng.integers(1, r + 1, n - r)])
    x = rng.integers(1, k + 1, size=(n, p))
    edges = [(s + 1, t + 1) for s in range(n) for t in range(n)
             if s != t and rng.uniform() < density]
    return as_dataset(y.astype(np.int64), x, edges, r, k)


# ---------------------------------------------------------------- cutoffs

def test_max_ratio_cutoff():
    assert max_ratio_cutoff([5, 4, 3, 0.003, 0.002, 0.001]) == 3
    assert max_ratio_cutoff([2.0, 2.0, 2.0]) == 1
    # zero tail counts as an infinite ratio at the first spot
    assert max_ratio_cutoff([1.0, 0.0, 0.0]) == 1
    assert max_ratio_cutoff([8, 4, 2, 1]) == 1
    with pytest.raises(ValidationError):
        max_ratio_cutoff([1.0])
    with pytest.raises(ValidationError):
        max_ratio_cutoff([1.0, 2.0])
    with pytest.raises(ValidationError):
        max_ratio_cutoff([0.0, 0.0])


def test_max_ratio_search_cap():
    scores = [10.0, 9.0, 8.0, 0.8, 0.75, 0.74]
    assert max_ratio_cutoff(scores) == 3
    # capping the scan hides the big drop after position 3
    assert max_ratio_cutoff(scores, search_cap=2) == 2
    assert max_ratio_cutoff(scores, search_cap=2.0) == 2


@pytest.mark.parametrize("cap", [2.5, 0, -3, True, "2"])
def test_max_ratio_search_cap_is_a_whole_number_of_at_least_one(cap):
    """A fractional cap is not truncated, and 0, negatives and bools are
    not scanned as one ratio."""
    with pytest.raises(ValidationError,
                       match=f"^search_cap must be a whole number >= 1, "
                       f"not {cap!r}$"):
        max_ratio_cutoff([10.0, 9.0, 8.0, 0.8, 0.75, 0.74], search_cap=cap)


def test_hard_cutoff():
    assert hard_cutoff(300) == 52
    assert hard_cutoff(500) == 80
    assert hard_cutoff(3) == 2
    assert hard_cutoff(300, mode="n_minus_1") == 299
    with pytest.raises(ValidationError):
        hard_cutoff(1)
    with pytest.raises(ValidationError):
        hard_cutoff(300, mode="sqrt")


# ------------------------------------------------------------- transforms

def test_discretize_normal_quantile_boundary():
    got = discretize(np.array([-1.0, 0.0, 1e-9, 2.0]), 2)
    # the cut sits at the standard normal median; the boundary goes low
    assert got.tolist() == [1, 1, 2, 2]


def test_discretize_empirical_quantile():
    got = discretize(np.array([1.0, 2.0, 3.0, 4.0]), 2,
                     scheme="empirical_quantile")
    assert got.tolist() == [1, 1, 2, 2]
    got = discretize(np.array([0.3, 0.1, 0.9, 0.5]), 4,
                     scheme="empirical_quantile")
    assert sorted(got.tolist()) == [1, 2, 3, 4]


def test_discretize_rejects_bad_input():
    with pytest.raises(ValidationError):
        discretize([0.0, np.nan], 2)
    with pytest.raises(ValidationError):
        discretize([0.0, 1.0], 1)
    with pytest.raises(ValidationError):
        discretize([0.0, 1.0], 2, scheme="magic")


def test_interaction_expand_codes_and_keys():
    y = np.array([1, 2, 1, 2])
    x = np.array([[1, 1], [1, 2], [2, 1], [2, 2]])
    ds = as_dataset(y, x, [(1, 2)], 2, 2)
    out = interaction_expand(ds, [(1, 2)])
    assert out.p == 3
    assert out.column(3).tolist() == [1, 2, 3, 4]
    assert out.k_levels[2] == 4
    assert feature_key(out, 3) == "1&2"
    # joint tally of the sources equals the marginal tally of the composite
    n3 = joint_tally(out, 3)
    y_by_12 = np.zeros((2, 4), dtype=np.int64)
    for yi, a, b in zip(y, x[:, 0], x[:, 1]):
        y_by_12[yi - 1, (a - 1) * 2 + (b - 1)] += 1
    assert np.array_equal(n3, y_by_12)
    # summed over the second source's levels, it is the first source's tally
    assert np.array_equal(n3.reshape(2, 2, 2).sum(axis=2), joint_tally(ds, 1))


def test_interaction_expand_equals_full_validation():
    """The expanded dataset, built without a second validate pass, equals
    validate() of the same raw parts field by field."""
    rng = np.random.default_rng(33)
    n, r = 30, 3
    y = np.r_[1, 2, 3, rng.integers(1, r + 1, n - 3)]
    widths = [2, 3, 4, 5]  # column 4 declares a level it never shows
    x = np.column_stack([rng.integers(1, w + 1, n) for w in (2, 3, 4, 4)])
    edges = [(s + 1, t + 1) for s in range(n) for t in range(n)
             if s != t and rng.uniform() < 0.2]
    ds = validate(NodeDataset(y, x, np.asarray(edges)[::-1],
                              ["a", "b", "c", "d"], r, widths))
    once = interaction_expand(ds, [(1, 2), (2, 4)])
    for got, names in ((once, ["a", "b", "c", "d", "a&b", "b&d"]),
                       (interaction_expand(once, [(3, 4)]), None)):
        want = validate(NodeDataset(got.y.copy(), got.x.copy(),
                                    got.edges.copy(), got.feature_names,
                                    got.r_levels, got.k_levels.copy(),
                                    got.composite_pairs))
        if names is not None:
            assert list(got.feature_names) == names
        assert got._validated and want._validated
        assert got.feature_names == want.feature_names
        assert got.r_levels == want.r_levels
        assert got.composite_pairs == want.composite_pairs
        for attr in ("y", "x", "edges", "k_levels", "network.y0",
                     "network.src0", "network.dst0"):
            a, b = attrgetter(attr)(got), attrgetter(attr)(want)
            assert a.dtype == b.dtype and a.shape == b.shape, attr
            assert np.array_equal(a, b), attr
            assert not a.flags.writeable, attr
        assert got.x.flags.f_contiguous
    # raw composite columns of the expansion, checked against the sources
    assert once.column(5).tolist() == ((x[:, 0] - 1) * 3 + x[:, 1]).tolist()
    assert once.column(6).tolist() == ((x[:, 1] - 1) * 5 + x[:, 3]).tolist()


def test_interaction_expand_rejects_codes_beyond_int32():
    """A pair is refused when its declared width K_j K_k exceeds CODE_MAX,
    from k_levels alone: every observed code here is 1."""
    big = 2 ** 16 + 1  # big * big > 2^31 - 1
    ds = validate(NodeDataset([1, 2], [[1, 1], [1, 1]], [[1, 2]],
                              k_levels=[big, big]))
    with pytest.raises(ValidationError,
                       match=rf"pair \(1,2\) would have {big * big} levels"):
        interaction_expand(ds, [(1, 2)])
    fits = 46340  # 46340^2 <= 2^31 - 1
    ds = validate(NodeDataset([1, 2], [[1, fits], [fits, 1]], [[1, 2]],
                              k_levels=[fits, fits]))
    out = interaction_expand(ds, [(1, 2)])
    assert out.k_levels[2] == fits * fits
    assert out.column(3).tolist() == [fits, (fits - 1) * fits + 1]


def test_interaction_expand_shares_x():
    """An expansion stores nothing new: it shares its parent's x."""
    ds = random_wide(np.random.default_rng(3), n=40, p=5)
    out = interaction_expand(ds, list(combinations(range(1, 6), 2)))
    assert out.p == 15
    assert np.shares_memory(out.x, ds.x) and out.x.nbytes == ds.x.nbytes


def test_interaction_expand_skips_pairs_it_has():
    ds = random_wide(np.random.default_rng(4), n=40, p=5)
    once = interaction_expand(ds, [(1, 2)])
    assert interaction_expand(once, [(1, 2)]) is once
    twice = interaction_expand(once, [(3, 4), (1, 2)])
    assert twice.composite_pairs == {6: (1, 2), 7: (3, 4)}
    keys = plr_sis(twice, cutoff="hard", d=2).feature_keys
    assert keys == ("1", "2", "3", "4", "5", "1&2", "3&4")


@pytest.mark.parametrize("mode", ["top", "all"])
def test_interaction_screen_on_an_expanded_dataset(mode):
    """Stage 1 and "all" pair the stored mains only, so screening a dataset
    that already has the first pair gives the same result."""
    ds, _ = generate(example_config(3, n=200, p=8), seed=6)
    for screen in (plr_sis, pc_sis):
        want = screen(ds, interactions=mode, top_m=4)
        first = next(k for k in want.feature_keys if "&" in k)
        wide = interaction_expand(ds, [tuple(map(int, first.split("&")))])
        got = screen(wide, interactions=mode, top_m=4)
        assert got.to_dict() == want.to_dict()


def test_interaction_screen_scores_each_main_once(monkeypatch):
    """The joint pass keeps stage 1's values of the stored mains and scores
    only the composites; the result keeps the bytes of a screen of the
    expanded dataset, which scores every column in one pass."""
    ds, _ = generate(example_config(3, n=200, p=8), seed=6)
    for screen, name in ((plr_sis, "_plr_batch"),
                         (pc_sis, "_pearson_batch")):
        calls, statistic = [], getattr(screening, name)

        def spy(dataset, cols, statistic=statistic):
            calls.append(cols.tolist())
            return statistic(dataset, cols)

        monkeypatch.setattr(screening, name, spy)
        got = screen(ds, interactions="top", top_m=4, cutoff="hard")
        p = len(got.feature_keys)
        assert calls == [list(range(1, 9)), list(range(9, p + 1))]
        pairs = [tuple(map(int, key.split("&")))
                 for key in got.feature_keys[8:]]
        want = screen(interaction_expand(ds, pairs), cutoff="hard")
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())


def test_interaction_expand_rejects_bad_pairs():
    ds = random_wide(np.random.default_rng(0), p=4)
    with pytest.raises(ValidationError):
        interaction_expand(ds, [(2, 1)])
    with pytest.raises(ValidationError):
        interaction_expand(ds, [(1, 1)])
    with pytest.raises(ValidationError):
        interaction_expand(ds, [(1, 2), (1, 2)])
    with pytest.raises(ValidationError):
        interaction_expand(ds, [(1, 5)])
    # truncated, either would expand as composite 1&3
    for pair, bad in (((1.9, 3), "1.9"), ((True, 3), "True")):
        with pytest.raises(ValidationError, match=f"pair id must be a whole "
                           f"number, not {bad}$"):
            interaction_expand(ds, [pair])
    assert interaction_expand(ds, [(1.0, 3)]).composite_pairs == {5: (1, 3)}
    out = interaction_expand(ds, [(1, 2)])
    with pytest.raises(ValidationError):
        interaction_expand(out, [(2, 5)])  # composites cannot be re-paired


def test_composite_marginal_equals_joint_tally():
    rng = np.random.default_rng(31)
    ds = random_wide(rng, n=30, p=3, k=3)
    out = interaction_expand(ds, [(1, 3)])
    njoint = joint_tally(out, 4)
    manual = np.zeros((2, 9), dtype=np.int64)
    for yi, a, b in zip(ds.y, ds.column(1), ds.column(3)):
        manual[yi - 1, (a - 1) * 3 + (b - 1)] += 1
    assert np.array_equal(njoint, manual)


# ------------------------------------------------------------- pc screen

def test_stray_large_code_stops_plr_sis_and_pc_sis():
    rng = np.random.default_rng(30)
    n = 60
    x = rng.integers(1, 3, (n, 3))
    x[7, 2] = 30000
    edges = [(s + 1, t + 1) for s in range(n) for t in range(n)
             if s != t and rng.uniform() < 0.1]
    ds = NodeDataset(y=np.r_[1, 2, rng.integers(1, 3, n - 2)], x=x,
                     edges=np.asarray(edges))
    for screen in (plr_sis, pc_sis):
        with pytest.raises(ValidationError,
                           match=f"column 3 .* {4 * 30000 ** 2} cells"):
            screen(ds)
        assert screen(ds, columns=[1, 2]).feature_keys == ("1", "2")


def test_pearson_statistic_values():
    # diagonal 2x2 table: chi-square is n
    y = np.repeat([1, 2], 10)
    x = y[:, None]
    ds = as_dataset(y, x, [(1, 11)], 2, 2)
    res = pc_sis(ds, cutoff="hard", d=1)
    assert res.lam[0] == pytest.approx(20.0, abs=1e-12)
    assert res.df_self.tolist() == [1]
    assert res.p_value[0] == pytest.approx(chi2_tail(20.0, 1), rel=1e-12)
    # proportional rows: exactly zero
    y = np.repeat([1, 2], 4)
    x = np.array([1, 1, 2, 2, 1, 1, 2, 2])[:, None]
    ds = as_dataset(y, x, [(1, 2)], 2, 2)
    res = pc_sis(ds, cutoff="hard", d=1)
    assert res.lam[0] == pytest.approx(0.0, abs=1e-12)


def test_pearson_matches_loop_oracle():
    rng = np.random.default_rng(32)
    for _ in range(40):
        y, x, edges, r, k = random_instance(rng)
        ds = as_dataset(y, x, edges, r, k)
        res = pc_sis(ds, cutoff="hard", d=1)
        want = oracle_pearson(y, x[:, 0], r, k)
        assert res.lam[0] == pytest.approx(want, rel=1e-10, abs=1e-10)


# ------------------------------------------------------------ result shape

def test_screening_result_invariants():
    rng = np.random.default_rng(33)
    ds = random_wide(rng, n=50, p=8)
    for res in (plr_sis(ds), pc_sis(ds), plr_sis(ds, cutoff="hard"),
                plr_sis(ds, cutoff="pvalue", alpha=0.2)):
        assert len(res.feature_keys) == ds.p
        assert res.ranking.shape == (ds.p,)
        assert sorted(res.ranking.tolist()) == list(range(1, ds.p + 1))
        sorted_scores = res.scores[res.ranking - 1]
        assert np.all(np.diff(sorted_scores) <= 1e-12)
        assert 0 <= res.d_hat <= ds.p
        kept = [str(int(j)) for j in res.ranking[:res.d_hat]]
        assert sorted(kept) == sorted(res.selected.keys())
        if 0 < res.d_hat < ds.p and sorted_scores[res.d_hat - 1] > sorted_scores[res.d_hat]:
            assert all(res.scores[int(j) - 1] > res.c_star_hat for j in res.ranking[:res.d_hat])
            assert all(res.scores[int(j) - 1] < res.c_star_hat for j in res.ranking[res.d_hat:])


def test_screening_is_column_order_invariant():
    rng = np.random.default_rng(34)
    ds = random_wide(rng, n=60, p=7, density=0.2)
    flipped = validate(NodeDataset(
        y=ds.y, x=ds.x[:, ::-1], edges=ds.edges,
        r_levels=ds.r_levels, k_levels=ds.k_levels[::-1]))
    a = plr_sis(ds)
    b = plr_sis(flipped)
    assert np.allclose(np.sort(a.scores), np.sort(b.scores), rtol=1e-12)
    remap = {str(j): str(ds.p + 1 - j) for j in range(1, ds.p + 1)}
    assert sorted(remap[k] for k in a.selected.keys()) == sorted(b.selected.keys())


def test_all_constant_columns_degenerate():
    y = np.array([1, 2, 1, 2, 1, 2])
    x = np.tile([1, 2], (6, 1))
    ds = as_dataset(y, x, [(1, 2), (3, 4), (5, 6)], 2, 2)
    for screen in (plr_sis, pc_sis):
        res = screen(ds)
        assert res.degenerate
        assert res.d_hat == 0
        assert len(res.selected) == 0


def test_pvalue_cutoff_keeps_small_tails():
    rng = np.random.default_rng(35)
    ds = random_wide(rng, n=60, p=6)
    res = plr_sis(ds, cutoff="pvalue", alpha=0.5)
    assert res.d_hat == int(np.sum(res.p_value <= 0.5))
    assert res.cutoff == "pvalue:0.5"


def test_hard_cutoff_modes_in_screen():
    rng = np.random.default_rng(36)
    ds = random_wide(rng, n=60, p=6)
    res = plr_sis(ds, cutoff="hard", d=4)
    assert res.d_hat == 4 and res.cutoff == "hard:4"
    res = plr_sis(ds, cutoff="hard")  # default floor(n/log n), capped at p
    assert res.d_hat == 6


@pytest.mark.parametrize("screen", [plr_sis, pc_sis])
def test_hard_cutoff_n_minus_1_in_screen(screen):
    rng = np.random.default_rng(36)
    ds = random_wide(rng, n=60, p=6)
    res = screen(ds, cutoff="hard", d="n_minus_1")
    assert res.cutoff == "hard:59" and res.d_hat == 6
    with pytest.raises(ValidationError):
        screen(ds, cutoff="hard", d="n_plus_1")


@pytest.mark.parametrize("screen", [plr_sis, pc_sis])
def test_empty_column_list_is_rejected(screen):
    rng = np.random.default_rng(40)
    ds = random_wide(rng, n=30, p=3)
    with pytest.raises(ValidationError, match="no columns to screen"):
        screen(ds, columns=[])


@pytest.mark.parametrize("screen", [plr_sis, pc_sis])
@pytest.mark.parametrize("columns, message", [
    ([1, 1], "duplicate column ids"),
    ([2.7], "column ids must be integers"),
    ([True], "column ids must be integers"),
    ([0], "column index outside 1..3"),
    ([2, 4], "column index outside 1..3"),
], ids=["duplicate", "non-integer", "bool", "zero", "past-p"])
def test_malformed_column_ids_are_rejected(screen, columns, message):
    rng = np.random.default_rng(40)
    ds = random_wide(rng, n=30, p=3)
    with pytest.raises(ValidationError, match=message):
        screen(ds, columns=columns)
    # numpy integer ids in any order are fine
    res = screen(ds, columns=np.array([3, 1], dtype=np.uint8))
    assert res.feature_keys == ("3", "1")


def test_permutation_ranking_path():
    rng = np.random.default_rng(37)
    ds = random_wide(rng, n=30, p=3)
    res = plr_sis(ds, perms=19, seed=4, cutoff="hard", d=2)
    assert res.rank_by == "permutation"
    assert res.p_perm is not None and res.p_perm.shape == (3,)
    again = plr_sis(ds, perms=19, seed=4, cutoff="hard", d=2)
    assert np.array_equal(res.p_perm, again.p_perm)
    # the tails as per-column draws gave them before the columns shared one
    # walk
    assert res.p_perm.tobytes() == (np.array([13.0, 15.0, 13.0]) / 20).tobytes()


def test_negative_perms_rejected():
    ds = random_wide(np.random.default_rng(37), n=30, p=3)
    with pytest.raises(ValidationError, match="perms must be nonnegative"):
        plr_sis(ds, perms=-2)


@pytest.mark.parametrize("screen, options, message", [
    (plr_sis, {"search_cap": 0},
     "search_cap must be a whole number >= 1, not 0"),
    (pc_sis, {"search_cap": -3},
     "search_cap must be a whole number >= 1, not -3"),
    (plr_sis, {"search_cap": 2.5},
     "search_cap must be a whole number >= 1, not 2.5"),
    (pc_sis, {"search_cap": True},
     "search_cap must be a whole number >= 1, not True"),
    (plr_sis, {"search_cap": "x"},
     "search_cap must be a whole number >= 1, not 'x'"),
    (plr_sis, {"perms": 2.5}, "perms must be a whole number, not 2.5"),
    (plr_sis, {"perms": True}, "perms must be a whole number, not True"),
], ids=["cap-zero", "cap-negative", "cap-fraction", "cap-bool", "cap-word",
        "perms-fraction", "perms-bool"])
def test_screen_counts_are_whole_numbers(monkeypatch, screen, options,
                                         message):
    """search_cap and perms are refused before anything is scored, not
    truncated, counted as 1 or failed on later; whole floats are taken."""
    ds = random_wide(np.random.default_rng(37), n=30, p=3)
    kept = plr_sis(ds, search_cap=2).d_hat
    assert plr_sis(ds, search_cap=2.0).d_hat == kept
    assert plr_sis(ds, perms=3.0, cutoff="hard", d=1).p_perm.shape == (3,)

    def no_scoring(*args, **kwargs):
        raise AssertionError("scored a column")

    monkeypatch.setattr(screening, "_plr_batch", no_scoring)
    monkeypatch.setattr(screening, "_pearson_batch", no_scoring)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        screen(ds, **options)


@pytest.mark.parametrize("n_perms", [2.5, True, "3"])
def test_permutation_pvalue_refuses_a_fractional_draw_count(n_perms):
    ds = random_wide(np.random.default_rng(37), n=30, p=3)
    with pytest.raises(ValidationError,
                       match="n_perms must be a whole number, not "):
        permutation_pvalue(ds, [1], n_perms)
    assert permutation_pvalue(ds, [1], 3.0).tobytes() == \
        permutation_pvalue(ds, [1], 3).tobytes()


@pytest.mark.parametrize("screen, options, named", [
    (plr_sis, {"seed": -1}, "-1"),
    (pc_sis, {"seed": 2.5}, "2.5"),
    (plr_sis, {"perms": 2, "seed": (4, 1)}, r"\(4, 1\)"),
    (pc_sis, {"seed": "3"}, "'3'"),
], ids=["negative", "fraction", "tuple", "string"])
def test_screen_seed_is_one_whole_number(monkeypatch, screen, options,
                                         named):
    """The recorded seed is checked before anything is scored."""
    ds = random_wide(np.random.default_rng(37), n=30, p=3)

    def no_scoring(*args, **kwargs):
        raise AssertionError("scored a column")

    monkeypatch.setattr(screening, "_plr_batch", no_scoring)
    monkeypatch.setattr(screening, "_pearson_batch", no_scoring)
    with pytest.raises(ValidationError, match=f"number >= 0, not {named}$"):
        screen(ds, **options)


@pytest.mark.parametrize("screen, options, message", [
    (plr_sis, {"cutoff": "pvalue", "alpha": float("nan")}, "alpha .*nan"),
    (pc_sis, {"alpha": 0}, "alpha .*0"),
    (plr_sis, {"alpha": 1.5}, "alpha .*1.5"),
    (pc_sis, {"alpha": "0.1"}, "alpha .*'0.1'"),
    (plr_sis, {"cutoff": "hard", "d": 2.5},
     "d must be a whole number, not 2.5"),
    (pc_sis, {"cutoff": "hard", "d": True},
     "d must be a whole number, not True"),
    (plr_sis, {"cutoff": "hard", "d": float("inf")},
     "d must be a whole number, not inf"),
    (pc_sis, {"cutoff": "hard", "d": 0},
     "hard cutoff must keep at least 1 feature"),
    (plr_sis, {"cutoff": "hard", "d": "n_plus_1"},
     "unknown hard cutoff mode 'n_plus_1'"),
    (plr_sis, {"interactions": "top", "top_m": 1.5},
     "top_m must be a whole number, not 1.5"),
    (pc_sis, {"interactions": "top", "top_m": True},
     "top_m must be a whole number, not True"),
    (plr_sis, {"interactions": "top", "top_m": float("nan")},
     "top_m must be a whole number, not nan"),
    (pc_sis, {"interactions": "top", "top_m": -1},
     "top_m must be nonnegative"),
    (plr_sis, {"cutoff": "bogus"}, "^unknown cutoff 'bogus'$"),
    (pc_sis, {"cutoff": "maxratio"}, "^unknown cutoff 'maxratio'$"),
], ids=["nan-alpha", "zero-alpha", "alpha-above-1", "word-alpha",
        "fractional-d", "bool-d", "infinite-d", "zero-d", "unknown-d-mode",
        "fractional-top-m", "bool-top-m", "nan-top-m", "negative-top-m",
        "unknown-cutoff", "cli-cutoff-name"])
def test_screen_options_are_checked_before_scoring(monkeypatch, screen,
                                                   options, message):
    ds = random_wide(np.random.default_rng(37), n=30, p=3)

    def no_scoring(*args, **kwargs):
        raise AssertionError("scored a column")

    monkeypatch.setattr(screening, "_plr_batch", no_scoring)
    monkeypatch.setattr(screening, "_pearson_batch", no_scoring)
    with pytest.raises(ValidationError, match=message):
        screen(ds, **options)


def test_whole_float_screen_options_keep_their_results():
    ds = random_wide(np.random.default_rng(38), n=40, p=5)
    for screen in (plr_sis, pc_sis):
        for whole, as_int in (({"cutoff": "hard", "d": 2.0},
                               {"cutoff": "hard", "d": 2}),
                              ({"interactions": "top", "top_m": 3.0},
                               {"interactions": "top", "top_m": 3}),
                              ({"cutoff": "hard", "d": np.int64(3)},
                               {"cutoff": "hard", "d": 3})):
            assert screen(ds, **whole).to_dict() == \
                screen(ds, **as_int).to_dict()
        res = screen(ds, cutoff="pvalue", alpha=1)
        assert res.d_hat == 5 and res.cutoff == "pvalue:1"


def test_screen_records_a_whole_float_seed_as_its_int():
    ds = random_wide(np.random.default_rng(37), n=30, p=3)
    for screen in (plr_sis, pc_sis):
        res = screen(ds, seed=2.0)
        assert res.seed == 2 and isinstance(res.seed, int)
        assert res.to_dict() == screen(ds, seed=2).to_dict()


def test_mixed_widths_rank_by_tail_probability():
    rng = np.random.default_rng(38)
    n = 60
    y = np.concatenate([[1, 2], rng.integers(1, 3, n - 2)])
    x = np.column_stack([rng.integers(1, 3, n), rng.integers(1, 5, n)])
    edges = [(s + 1, t + 1) for s in range(n) for t in range(n)
             if s != t and rng.uniform() < 0.1]
    ds = validate(NodeDataset(y=y, x=x, edges=np.asarray(edges),
                              k_levels=[2, 4]))
    res = plr_sis(ds)
    assert res.rank_by == "pvalue"
    assert np.all(res.scores >= 0)


def test_interaction_screen_selects_true_composites():
    """Interaction-driven design: expanding the true pairs and screening
    jointly keeps exactly the active mains and their composites."""
    hits = 0
    for seed in range(3):
        ds, extras = generate(example_config(3, n=500, p=1000), seed=seed)
        expanded = interaction_expand(ds, [(1, 2), (3, 4)])
        res = plr_sis(expanded)
        if set(res.selected.keys()) == {"1", "1&2", "3", "4", "3&4"}:
            hits += 1
        print(f"seed {seed}: d_hat={res.d_hat} selected={sorted(res.selected.keys())}")
    assert hits == 3


def test_interaction_modes_route_candidate_pairs():
    rng = np.random.default_rng(39)
    ds = random_wide(rng, n=40, p=5)
    # 5 mains, then the candidate pairs: all 10, or the 3 of the top 3
    res = plr_sis(ds, interactions="all", cutoff="hard", d=3)
    assert len(res.feature_keys) == 15
    res = plr_sis(ds, interactions="top", top_m=3, cutoff="hard", d=3)
    assert len(res.feature_keys) == 8
    assert len(plr_sis(ds, cutoff="hard", d=3).feature_keys) == 5
    for screen in (plr_sis, pc_sis):
        with pytest.raises(ValidationError):
            screen(ds, interactions="both")
        with pytest.raises(ValidationError):
            screen(ds, interactions="all", columns=[1, 2])
        with pytest.raises(ValidationError):
            screen(ds, interactions="top", top_m=-1)
    res = pc_sis(ds, interactions="all", cutoff="hard", d=3)
    assert len(res.feature_keys) == 15
    res = pc_sis(ds, interactions="top", top_m=3, cutoff="hard", d=3)
    assert len(res.feature_keys) == 8
    assert len(pc_sis(ds, cutoff="hard", d=3).feature_keys) == 5
    # stage 1 pairs up the leaders of each screen's own main-effect ranking
    for screen in (plr_sis, pc_sis):
        leaders = sorted(screen(ds, cutoff="hard", d=3).ranking[:3].tolist())
        res = screen(ds, interactions="top", top_m=3, cutoff="hard", d=3)
        assert res.feature_keys[5:] == tuple(
            f"{a}&{b}" for a, b in combinations(leaders, 2))


@pytest.mark.parametrize("screen", [plr_sis, pc_sis])
def test_single_level_column_has_tail_one(screen):
    rng = np.random.default_rng(41)
    n = 40
    y = np.concatenate([[1, 2], rng.integers(1, 3, n - 2)])
    x = np.column_stack([np.ones(n, dtype=np.int64), rng.integers(1, 3, n)])
    edges = [(s + 1, t + 1) for s in range(n) for t in range(n)
             if s != t and rng.uniform() < 0.1]
    ds = validate(NodeDataset(y=y, x=x, edges=np.asarray(edges),
                              k_levels=[1, 2]))
    res = screen(ds)
    assert res.p_value[0] == 1.0 and res.scores[0] == 0.0
