import numpy as np
import pytest

from netscreen import FeatureSet, NodeDataset, ValidationError, counts
from netscreen import validate
from netscreen.classify import ClassifierSpec, evaluate, fit
from netscreen.dataset import CODE_MAX
from netscreen.io import read_dataset, write_dataset
from netscreen.screening import interaction_expand, pc_sis, plr_sis
from netscreen.simulate import example_config, generate


def small_dataset(**overrides):
    fields = dict(
        y=np.array([1, 2, 1, 2, 1]),
        x=np.array([[1, 2], [2, 1], [1, 1], [2, 2], [1, 2]]),
        edges=np.array([[1, 2], [2, 3], [4, 1], [5, 4]]),
    )
    fields.update(overrides)
    return NodeDataset(**fields)


class TestFeatureSet:
    def test_key_round_trip(self):
        fs = FeatureSet((3, 1), ((2, 5),))
        assert fs.keys() == ("3", "1", "2&5")
        back = FeatureSet.from_keys(fs.keys())
        assert back.mains == (3, 1)
        assert back.pairs == ((2, 5),)

    def test_from_keys_accepts_ints_and_tuples(self):
        fs = FeatureSet.from_keys([4, "7", (1, 2)])
        assert fs.mains == (4, 7)
        assert fs.pairs == ((1, 2),)
        # whole floats and numpy ints are the columns they name
        assert FeatureSet.from_keys([2.0, np.int64(3), (1.0, 4)]) == \
            FeatureSet((2, 3), ((1, 4),))

    def test_membership(self):
        fs = FeatureSet((1,), ((2, 3),))
        assert 1 in fs
        assert "1" in fs
        assert (2, 3) in fs
        assert "2&3" in fs
        assert 2 not in fs
        # a whole number of any type names its column, as every id path
        assert np.int64(1) in fs and 1.0 in fs
        assert (2.0, np.int64(3)) in fs

    @pytest.mark.parametrize("item, bad", [
        (1.9, "1.9"), (True, "True"), ((1.9, 3), "1.9"), ((2, True), "True")])
    def test_membership_refuses_what_is_not_an_id(self, item, bad):
        # int() would truncate 1.9 to 1 and read True as 1
        with pytest.raises(ValidationError,
                           match=f"must be a whole number, not {bad}"):
            item in FeatureSet((1,), ((2, 3),))

    def test_pair_order_enforced(self):
        with pytest.raises(ValidationError):
            FeatureSet((), ((3, 2),))
        with pytest.raises(ValidationError):
            FeatureSet((), ((2, 2),))

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            FeatureSet((1, 1))

    def test_len(self):
        assert len(FeatureSet((1, 2), ((3, 4),))) == 3

    @pytest.mark.parametrize("make, bad", [
        (lambda: FeatureSet((1.5, 2.9)), "1.5"),
        (lambda: FeatureSet((True, 2.7)), "True"),
        (lambda: FeatureSet((), ((1.9, 3),)), "1.9"),
        (lambda: FeatureSet((), ((1, False),)), "False"),
        (lambda: FeatureSet.from_keys([1.5, 2.9]), "1.5"),
        (lambda: FeatureSet.from_keys([(True, 3)]), "True"),
    ], ids=["fractional-mains", "bool-main", "fractional-pair",
            "bool-pair", "fractional-keys", "bool-pair-key"])
    def test_ids_must_be_whole_numbers(self, make, bad):
        """A fraction or a bool would name another column once truncated."""
        with pytest.raises(ValidationError, match=f"not {bad}$"):
            make()


class TestValidate:
    def test_accepts_good_dataset(self):
        ds = validate(small_dataset())
        assert ds.n == 5
        assert ds.p == 2
        assert ds.n_edges == 4
        assert ds.r_levels == 2
        assert list(ds.k_levels) == [2, 2]

    def test_infers_levels(self):
        ds = validate(small_dataset())
        assert ds.r_levels == 2
        # declared slack above the observed maximum is allowed
        ds2 = validate(small_dataset(y=np.array([1, 2, 1, 2, 1])))
        assert ds2.r_levels == 2
        ds3 = NodeDataset(y=np.array([1, 2, 1, 2, 1]),
                          x=small_dataset().x,
                          edges=small_dataset().edges,
                          r_levels=3, k_levels=[4, 2])
        ds3 = validate(ds3)
        assert ds3.r_levels == 3
        assert list(ds3.k_levels) == [4, 2]

    def test_checks_composite_pairs(self):
        """x holds the stored columns only; composites are map entries with
        the trailing ids, pairs of stored columns, widths K_j K_k."""
        rng = np.random.default_rng(18)
        x = rng.integers(1, 3, (12, 3))
        x[:, 2] += rng.integers(0, 2, 12)  # levels 1..3
        x[0, 2] = 3
        y = np.r_[1, 2, rng.integers(1, 3, 10)]
        edges = np.array([[1, 2], [3, 4]])

        def check(composite, k_levels=None):
            return validate(NodeDataset(y=y, x=x, edges=edges,
                                        k_levels=k_levels,
                                        composite_pairs=composite))

        ds = check({"4": [1, 2], 5: (2, 3)})
        assert ds.composite_pairs == {4: (1, 2), 5: (2, 3)}
        assert ds.x.shape == (12, 3) and ds.p == 5
        assert ds.k_levels.tolist() == [2, 2, 3, 4, 6]
        assert check({4: (1, 3)}, [2, 2, 3, 6]).k_levels.tolist() == \
            [2, 2, 3, 6]
        for composite, message in [
                ({9: (1, 2)}, "composite column 9 outside 1..4"),
                ({4: (1, 2), 6: (1, 3)}, "composite column 6 outside 1..5"),
                ({3: (1, 2)}, "composite column 3 is not trailing"),
                ({4: (2, 1)}, r"pair \(2,1\) needs stored columns "
                 "1 <= j < k <= 3"),
                ({4: (1, 5)}, r"pair \(1,5\) needs"),
                ({4: (1, 2), 5: (1, 4)}, r"pair \(1,4\) needs stored"),
                ({4: (1, 2), 5: (1, 2)}, "duplicate composite pair"),
                ({"a": (1, 2)}, "must map column ids to pairs"),
                ({4: (1, 2, 3)}, "must map column ids to pairs"),
                ({4: 1}, "must map column ids to pairs")]:
            with pytest.raises(ValidationError, match=message):
                check(composite)
        with pytest.raises(ValidationError, match="declared level count 5 "
                           "of composite column 4 is not K_1 K_3 = 6"):
            check({4: (1, 3)}, [2, 2, 3, 5])
        big = 2 ** 16 + 1
        with pytest.raises(ValidationError,
                           match=f"would have {big * big} levels"):
            check({4: (1, 2)}, [big, big, 3, big * big])

    def test_rejects_declared_levels_below_observed(self):
        with pytest.raises(ValidationError):
            validate(small_dataset(r_levels=1))

    def test_rejects_zero_or_negative_labels(self):
        with pytest.raises(ValidationError):
            validate(small_dataset(y=np.array([0, 1, 0, 1, 0])))
        bad_x = np.array([[1, 2], [2, 0], [1, 1], [2, 2], [1, 2]])
        with pytest.raises(ValidationError):
            validate(small_dataset(x=bad_x))

    def test_rejects_non_integer_response(self):
        with pytest.raises(ValidationError):
            validate(small_dataset(y=np.array([1.0, 2.5, 1.0, 2.0, 1.0])))

    def test_rejects_single_level_response(self):
        with pytest.raises(ValidationError):
            validate(small_dataset(y=np.ones(5, dtype=int)))

    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError, match="self-loop"):
            validate(small_dataset(edges=np.array([[1, 2], [3, 3]])))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValidationError, match="duplicate edge"):
            validate(small_dataset(edges=np.array([[1, 2], [1, 2]])))

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValidationError):
            validate(small_dataset(edges=np.array([[1, 6]])))
        with pytest.raises(ValidationError):
            validate(small_dataset(edges=np.array([[0, 2]])))

    def test_sorts_edges(self):
        ds = validate(small_dataset(edges=np.array([[5, 4], [1, 2], [2, 3]])))
        assert ds.edges.tolist() == [[1, 2], [2, 3], [5, 4]]

    def test_arrays_frozen(self):
        ds = validate(small_dataset())
        with pytest.raises(ValueError):
            ds.y[0] = 2
        with pytest.raises(ValueError):
            ds.edges[0, 0] = 3

    def test_empty_edges_fine(self):
        ds = validate(small_dataset(edges=np.empty((0, 2), dtype=np.int64)))
        assert ds.n_edges == 0

    def test_column_access_is_one_based(self):
        ds = validate(small_dataset())
        assert ds.column(1).tolist() == [1, 2, 1, 2, 1]
        assert ds.column(2).tolist() == [2, 1, 1, 2, 2]

    def test_rejects_non_integer_feature_codes(self):
        y = np.array([1, 2, 1, 2])
        no_edges = np.empty((0, 2), dtype=np.int64)
        for bad in (1.7, np.nan, np.inf):
            x = np.array([[1.0, 1.0], [2.0, 2.0], [1.0, 1.0], [2.0, bad]])
            with pytest.raises(ValidationError,
                               match="must be integers in column 2"):
                validate(NodeDataset(y=y, x=x, edges=no_edges))
        x = np.array([[1.7], [2.2], [1.0], [2.9]])
        with pytest.raises(ValidationError, match="column 1"):
            validate(NodeDataset(y=y, x=x, edges=no_edges))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValidationError, match="must be integers"):
                validate(NodeDataset(y=np.array([1.0, 2.0, bad, 1.0]),
                                     x=np.ones((4, 1)), edges=no_edges))
        ds = validate(NodeDataset(y=y.astype(float), x=np.array(
            [[1.0], [2.0], [2.0], [1.0]]), edges=no_edges))
        assert ds.x.dtype == np.int32 and ds.x[:, 0].tolist() == [1, 2, 2, 1]
        assert ds.y.tolist() == [1, 2, 1, 2]

    def test_rejects_codes_beyond_int32(self):
        y = np.array([1, 2, 1, 2], dtype=np.int64)
        x = np.array([[1, 1], [2, 2], [1, 2], [2, 2]], dtype=np.int64)
        no_edges = np.empty((0, 2), dtype=np.int64)
        wide = x.copy()
        wide[2, 1] = 2 ** 32 + 1  # int32 would wrap it to 1
        with pytest.raises(ValidationError,
                           match=f"label {2 ** 32 + 1} in column 2 above"):
            validate(NodeDataset(y=y, x=wide, edges=no_edges))
        big_y = y.copy()
        big_y[1] = 2 ** 32 + 2  # int32 would wrap it to 2
        with pytest.raises(ValidationError,
                           match=f"label {2 ** 32 + 2} at node 2 outside"):
            validate(NodeDataset(y=big_y, x=x, edges=no_edges))
        with pytest.raises(ValidationError, match="column 1"):
            validate(NodeDataset(y=y, x=x.astype(float) * [2.0 ** 40, 1],
                                 edges=no_edges))
        # the largest int32 code still passes
        wide[2, 1] = CODE_MAX
        assert validate(NodeDataset(y=y, x=wide, edges=no_edges)
                        ).k_levels.tolist() == [2, CODE_MAX]

    def test_sorted_edges_match_lexsort_on_shuffled_input(self):
        rng = np.random.default_rng(17)
        for n in (2, 3, 9, 40, 200):
            y = np.concatenate([[1, 2], rng.integers(1, 3, n - 2)])
            src, dst = np.divmod(
                rng.choice(n * n, size=min(n * n, 600), replace=False), n)
            edges = np.column_stack([src, dst]) + 1
            edges = edges[edges[:, 0] != edges[:, 1]]
            # both extreme node ids at both ends of some edge
            extremes = np.array([[1, n], [n, 1]])
            edges = np.vstack([edges[~(edges[:, None] == extremes).all(
                axis=2).any(axis=1)], extremes])
            edges = edges[rng.permutation(len(edges))]
            ds = validate(NodeDataset(y=y, x=np.ones((n, 1), dtype=int),
                                      edges=edges))
            want = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
            assert np.array_equal(ds.edges, want)
            assert np.array_equal(ds.network.src0, want[:, 0] - 1)
            assert np.array_equal(ds.network.dst0, want[:, 1] - 1)
            # with two edges repeated, the first in sorted order is named
            twice = edges[rng.choice(len(edges), size=2, replace=False)]
            first = twice[np.lexsort((twice[:, 1], twice[:, 0]))][0]
            dup = np.vstack([edges, twice[::-1]])
            dup = dup[rng.permutation(len(dup))]
            with pytest.raises(
                    ValidationError,
                    match=rf"duplicate edge \({first[0]}, {first[1]}\)"):
                validate(NodeDataset(y=y, x=np.ones((n, 1), dtype=int),
                                     edges=dup))


# ---- the network's lifetime: built on a kernel's first request, once ----

def spy_builds(monkeypatch):
    """Record each counts.tally_adjacency build as "out" (of the edges) or
    "in" (of the reversed edges): a sealed dataset's edges are sorted by
    source, so only an out-build is passed sorted sources."""
    builds = []
    build = counts.tally_adjacency

    def spy(y0, src0, dst0, r):
        builds.append("out" if np.all(src0[1:] >= src0[:-1]) else "in")
        return build(y0, src0, dst0, r)

    monkeypatch.setattr(counts, "tally_adjacency", spy)
    return builds


def test_data_path_builds_no_network(monkeypatch, tmp_path):
    builds = spy_builds(monkeypatch)
    ds, extras = generate(example_config(3, n=80, p=6), seed=2)
    paths = write_dataset(tmp_path / "d", ds, extras)
    back, _ = read_dataset(paths["nodes"], paths["edges"], paths["metadata"])
    wide = interaction_expand(validate(back), [(1, 2), (3, 4)])
    assert wide.network is back.network
    assert builds == []


def test_screens_and_classifier_build_each_side_once(monkeypatch):
    """plr_sis, pc_sis, type3 fits, whole and masked, and an evaluation on a
    dataset and on its expansion build the adjacency out of each node once
    and the one into each node once."""
    ds, _ = generate(example_config(3, n=120, p=8), seed=4)
    builds = spy_builds(monkeypatch)
    plr = plr_sis(ds, interactions="top", top_m=4, cutoff="hard", d=5)
    pc_sis(ds, interactions="top", top_m=4)
    assert plr.selected.pairs
    wide = interaction_expand(ds, plr.selected.pairs)
    clf = fit(ClassifierSpec("type3", s_y=plr.selected, s_a=plr.selected),
              wide)
    evaluate(clf, wide, auc=True)
    fit(ClassifierSpec("type3", s_y=plr.selected, s_a=plr.selected), wide,
        train_mask=np.arange(ds.n) % 3 > 0)
    assert builds == ["out", "in"]


def test_unmasked_screens_and_type2_build_no_side_into_nodes(monkeypatch):
    """plr_sis and pc_sis build the adjacency out of each node alone; a
    type2 fit on every node and its evaluation read the network's unmasked
    degrees, bincounts over the edges, and build no adjacency at all."""
    ds, _ = generate(example_config(3, n=120, p=8), seed=4)
    builds = spy_builds(monkeypatch)
    clf = fit(ClassifierSpec("type2", s_y=FeatureSet((1, 2))), ds)
    evaluate(clf, ds, auc=True)
    assert builds == []
    plr_sis(ds, interactions="top", top_m=4)
    pc_sis(ds)
    assert builds == ["out"]
