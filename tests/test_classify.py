import numpy as np
import pytest

from netscreen import FeatureSet, NodeDataset, ValidationError, counts, plr
from netscreen import validate
from netscreen import classify
from netscreen.classify import (
    KINDS, ClassifierSpec, MetricsReport, _rank_auc, evaluate, fit, predict,
    predict_scores, screening_metrics,
)
from netscreen.counts import tally_edges
from netscreen.screening import interaction_expand
from netscreen.simulate import example_config, generate

from oracles import (oracle_classifier_scores, oracle_edge_counts,
                     random_instance)


def as_dataset(y, x, edges, r, k):
    x = np.asarray(x)
    return validate(NodeDataset(
        y=y, x=x, edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
        r_levels=r, k_levels=np.full(x.shape[1], k)))


def mains(*cols):
    return FeatureSet(tuple(cols), ())


def oracle_cases(rng):
    """(y, x, edges, r, widths, mask, s_y, s_a) inputs for the oracle test.

    Random equal-width instances, fitted on every node or on a random part;
    then R = 3 with link features whose widths (3, 2, 3, 1) are out of width
    order and include a width-1 column, on a graph, on an empty edge list,
    and with a train mask that hides every neighbour of node 1.
    """
    for trial in range(25):
        y, x, edges, r, k = random_instance(rng, p=3)
        n = len(y)
        if trial % 2:
            mask = rng.uniform(size=n) < 0.7
            mask[rng.integers(n)] = True  # never an empty fit
        else:
            mask = np.ones(n, dtype=bool)
        yield y, x, edges, r, (k, k, k), mask, (1, 2), (2, 3)
    n, r, widths = 12, 3, (3, 2, 3, 1)
    y = np.r_[1, 2, 3, rng.integers(1, r + 1, n - r)].astype(np.int32)
    x = np.column_stack([rng.integers(1, w + 1, n) for w in widths])
    edges = [(s + 1, t + 1) for s in range(n) for t in range(n)
             if s != t and rng.uniform() < 0.3]
    edges += [(1, 2), (3, 1)]  # node 1 has neighbours both ways
    edges = sorted(set(edges))
    hidden = np.ones(n, dtype=bool)
    for s, t in edges:
        if 1 in (s, t):
            hidden[s + t - 2] = False  # the other endpoint
    for links in (edges, []):
        for mask in (np.ones(n, dtype=bool), hidden):
            yield y, x, links, r, widths, mask, (1, 3), (1, 2, 3, 4)


def target_lists(rng, mask):
    """Every node in order, then an unsorted draw with repeats that holds
    each masked-out node twice."""
    n = mask.size
    out = np.flatnonzero(~mask) + 1
    some = np.r_[rng.integers(1, n + 1, n // 2), out, out]
    return [list(range(1, n + 1)), rng.permutation(some).tolist()]


def test_scores_match_loop_oracle():
    """All three score types against literal per-neighbor loops, on every
    node and on unsorted target lists with repeats and masked-out nodes."""
    rng = np.random.default_rng(41)
    for y, x, edges, r, widths, mask, s_y, s_a in oracle_cases(rng):
        ds = validate(NodeDataset(
            y=y, x=x, edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
            r_levels=r, k_levels=widths))
        k_widths = dict(enumerate(widths, start=1))
        for kind in KINDS:
            spec = ClassifierSpec(kind, s_y=mains(*s_y), s_a=mains(*s_a))
            clf = fit(spec, ds, train_mask=mask)
            for targets in target_lists(rng, mask):
                got = predict_scores(clf, ds, targets)
                want = oracle_classifier_scores(
                    kind, y, x, edges, list(s_y), list(s_a), k_widths, r,
                    mask, targets)
                np.testing.assert_allclose(got, want, rtol=1e-10,
                                           atol=1e-10)


def link_instance():
    """A masked type3 fit with several link columns per width, R = 3, and
    an unsorted target list with repeats and masked-out nodes."""
    rng = np.random.default_rng(47)
    n, r, widths = 60, 3, (3, 2, 3, 3, 2, 1, 3)
    y = np.r_[1, 2, 3, rng.integers(1, r + 1, n - r)]
    x = np.column_stack([rng.integers(1, w + 1, n) for w in widths])
    edges = [(s + 1, t + 1) for s in range(n) for t in range(n)
             if s != t and rng.uniform() < 0.12]
    ds = validate(NodeDataset(y=y, x=x, edges=np.asarray(edges), r_levels=r,
                              k_levels=widths))
    mask = rng.uniform(size=n) < 0.8
    cols = mains(*range(1, len(widths) + 1))
    clf = fit(ClassifierSpec("type3", s_y=cols, s_a=cols), ds,
              train_mask=mask)
    return clf, ds, target_lists(rng, mask)[1]


def test_scores_independent_of_blocks_and_chunks(monkeypatch):
    clf, ds, targets = link_instance()
    default = predict_scores(clf, ds, targets)
    # widths 3 and 2 at R = 3, n = 60: n (K-1) = 120 and 60 cells per column
    monkeypatch.setattr(plr, "BLOCK_TARGET_CELLS", 150)
    blocks = [part.size for _, part, _ in plr.column_blocks(ds, clf.cols_a)]
    assert set(blocks) == {1, 2}
    np.testing.assert_allclose(predict_scores(clf, ds, targets), default,
                               rtol=0, atol=1e-12)
    monkeypatch.setattr(classify, "CHUNK_CELLS", 1)  # one target per chunk
    np.testing.assert_allclose(predict_scores(clf, ds, targets), default,
                               rtol=0, atol=1e-12)


def test_node_term_sums_columns_in_fitted_order():
    """The per-node term adds the columns in s_y order, not block order."""
    clf, ds, targets = link_instance()
    clf = fit(ClassifierSpec("type1", s_y=mains(7, 2, 3, 6, 1, 5, 4)), ds,
              train_mask=clf.train_mask)
    t0 = np.asarray(targets) - 1
    want = np.tile(clf.log_prior, (t0.size, 1))
    for col in clf.cols_y:
        want += clf.log_cond[col][:, ds.x[t0, col - 1] - 1].T
    assert predict_scores(clf, ds, targets).tobytes() == want.tobytes()


def test_float64_products_give_the_same_scores(monkeypatch):
    """A network fixes its product types when it is built, so the float32
    and float64 sides, with the degree bounds lowered, predict on freshly
    validated copies of the dataset; int16, float32 and float64 products
    give the same score bytes."""
    dtypes = []
    build = counts.tally_adjacency

    def spy(*args):
        out = build(*args)
        dtypes.append(out.dtype)
        return out

    monkeypatch.setattr(counts, "tally_adjacency", spy)
    clf, ds, targets = link_instance()
    scores = [predict_scores(clf, ds, targets)]
    for int16_bound, float32_bound in ((0, counts.FLOAT32_EXACT_DEGREE),
                                       (0, 0)):
        monkeypatch.setattr(counts, "INT16_EXACT_DEGREE", int16_bound)
        monkeypatch.setattr(counts, "FLOAT32_EXACT_DEGREE", float32_bound)
        fresh = validate(NodeDataset(ds.y, ds.x, ds.edges,
                                     r_levels=ds.r_levels,
                                     k_levels=ds.k_levels))
        scores.append(predict_scores(clf, fresh, targets))
    # the masked fit built both of ds's sides, out of each node for the
    # tallies and into each node for the masked degrees; each prediction
    # builds the sides its dataset lacks: none for ds, both for each copy
    assert dtypes == [np.int16] * 2 + [np.float32] * 2 + [np.float64] * 2
    assert scores[0].tobytes() == scores[1].tobytes() == scores[2].tobytes()


def test_hub_past_the_int16_bound_keeps_exact_products(monkeypatch):
    """One node links to 2^15 nodes of one class, all at level 1 of column
    1 and all labeled, so the adjacency out of the nodes needs float32 while
    the one into them stays int16. The edge tallies match the edge-walk
    oracle, and a type3 fit and its scores keep the bytes of all-float64
    products."""
    rng = np.random.default_rng(48)
    n, widths = 2 ** 15 + 40, (2, 3, 4)
    y = np.full(n, 2)
    y[:40] = np.r_[1, 2, rng.integers(1, 3, 38)]
    hub = np.column_stack([np.ones(n - 40, dtype=np.int64),
                           np.arange(41, n + 1)])  # node 1 to class 2
    pairs = rng.integers(1, n + 1, size=(3000, 2))
    edges = np.unique(np.r_[hub, pairs[pairs[:, 0] != pairs[:, 1]]], axis=0)
    x = np.column_stack([rng.integers(1, w + 1, n) for w in widths])
    x[40:, 0] = 1
    ds = validate(NodeDataset(y=y, x=x, edges=edges, r_levels=2,
                              k_levels=widths))
    net = ds.network
    assert net.out.dtype == np.float32
    assert net.into.dtype == np.int16
    for c, k in enumerate(widths):
        xb0 = x[:, [c]].astype(np.int64) - 1
        got = tally_edges(net.y0, net.src0, net.dst0, xb0, k, net)[0]
        assert np.array_equal(got, oracle_edge_counts(y, x[:, c], edges,
                                                      2, k))
    spec = ClassifierSpec("type3", s_y=mains(1, 2, 3), s_a=mains(1, 2, 3))
    mask = np.r_[rng.uniform(size=40) < 0.8, np.ones(n - 40, dtype=bool)]
    targets = np.r_[1, rng.integers(1, n + 1, 300)]
    narrow = predict_scores(fit(spec, ds, train_mask=mask), ds, targets)
    assert np.isfinite(narrow).all()
    monkeypatch.setattr(counts, "INT16_EXACT_DEGREE", 0)
    monkeypatch.setattr(counts, "FLOAT32_EXACT_DEGREE", 0)
    fresh = validate(NodeDataset(y=y, x=x, edges=edges, r_levels=2,
                                 k_levels=widths))
    wide = predict_scores(fit(spec, fresh, train_mask=mask), fresh, targets)
    assert wide.tobytes() == narrow.tobytes()
    assert fresh.network.out.dtype == np.float64
    assert fresh.network.into.dtype == np.float64


@pytest.mark.parametrize("example", range(1, 10))
def test_masked_fit_equals_fit_on_the_masked_nodes(example):
    """A masked fit tallies the whole network with the mask applied; every
    fitted table keeps the bytes of a fit on the subgraph of the masked-in
    nodes, with masks of 100%, 70% and 5% of the nodes."""
    config = example_config(example, n=300, p=10)
    truth = config.true_features()
    ds = interaction_expand(generate(config, seed=example)[0], truth.pairs)
    spec = ClassifierSpec("type3", s_y=truth, s_a=truth)
    rng = np.random.default_rng(example)
    for share in (1.0, 0.7, 0.05):
        mask = rng.uniform(size=ds.n) < share
        mask[:2] = True
        rank = np.cumsum(mask)  # 1-based ids among the masked-in nodes
        src, dst = ds.edges.T - 1
        inner = rank[ds.edges[mask[src] & mask[dst]] - 1]
        sub = validate(NodeDataset(
            ds.y[mask], ds.x[mask], inner, r_levels=ds.r_levels,
            k_levels=ds.k_levels, composite_pairs=ds.composite_pairs))
        got, want = fit(spec, ds, train_mask=mask), fit(spec, sub)
        for name in ("log_prior", "log_pi0", "log_gap0"):
            assert getattr(got, name).tobytes() == \
                getattr(want, name).tobytes()
        for name in ("log_cond", "dlog_edge", "dlog_gap"):
            tables = getattr(want, name)
            assert getattr(got, name).keys() == tables.keys()
            for col, table in getattr(got, name).items():
                assert table.tobytes() == tables[col].tobytes()


def test_fitted_tables_frozen_values():
    """Smoothed cells checked against hand arithmetic (alpha = 1/2)."""
    y = np.array([1, 2, 2])
    x = np.array([[1], [2], [1]])
    ds = as_dataset(y, x, [(1, 2)], 2, 2)
    clf = fit(ClassifierSpec("type2", s_y=mains(1)), ds)
    np.testing.assert_allclose(np.exp(clf.log_prior), [0.375, 0.625])
    # P(x=1 | y=1) = (1 + .5) / (1 + 1); P(x=1 | y=2) = (1 + .5) / (2 + 1)
    np.testing.assert_allclose(np.exp(clf.log_cond[1]),
                               [[0.75, 0.25], [0.5, 0.5]])
    # ordered-pair cells: P0 = [[0, 2], [2, 2]], one edge in cell (1, 2)
    np.testing.assert_allclose(np.exp(clf.log_pi0),
                               [[0.5, 0.5], [1 / 6, 1 / 6]])


def test_ties_resolve_to_smallest_level():
    y = np.array([1, 2, 1, 2])
    x = np.ones((4, 1), dtype=np.int64)
    ds = as_dataset(y, x, [], 2, 1)
    clf = fit(ClassifierSpec("type1"), ds)  # balanced prior, no features
    assert predict(clf, ds).tolist() == [1, 1, 1, 1]


def test_type3_without_link_features_is_type2():
    rng = np.random.default_rng(42)
    y, x, edges, r, k = random_instance(rng, p=2)
    ds = as_dataset(y, x, edges, r, k)
    s2 = predict_scores(fit(ClassifierSpec("type2", s_y=mains(1)), ds), ds)
    s3 = predict_scores(
        fit(ClassifierSpec("type3", s_y=mains(1), s_a=FeatureSet()), ds), ds)
    assert np.array_equal(s2, s3)


def test_composite_features_need_expanded_columns():
    rng = np.random.default_rng(43)
    y, x, edges, r, k = random_instance(rng, p=2)
    ds = as_dataset(y, x, edges, r, k)
    paired = FeatureSet((1,), ((1, 2),))
    with pytest.raises(ValidationError):
        fit(ClassifierSpec("type1", s_y=paired), ds)
    wide = interaction_expand(ds, [(1, 2)])
    clf = fit(ClassifierSpec("type1", s_y=paired), wide)
    assert clf.cols_y == (1, 3)
    assert np.all(np.isfinite(predict_scores(clf, wide)))


def test_type3_refuses_link_tables_beyond_the_cell_limit():
    rng = np.random.default_rng(48)
    n = 60
    x = rng.integers(1, 3, (n, 3))
    x[7, 2] = 30000
    edges = [(s + 1, t + 1) for s in range(n) for t in range(n)
             if s != t and rng.uniform() < 0.1]
    ds = validate(NodeDataset(y=np.r_[1, 2, rng.integers(1, 3, n - 2)], x=x,
                              edges=np.asarray(edges)))
    with pytest.raises(ValidationError, match="column 3 .* cells"):
        fit(ClassifierSpec("type3", s_y=mains(1, 2), s_a=mains(3)), ds)
    # every kind reads its codes through the same refusal, in s_y too
    for kind in KINDS:
        with pytest.raises(ValidationError, match="column 3 .* cells"):
            fit(ClassifierSpec(kind, s_y=mains(1, 3), s_a=mains(1)), ds)
        clf = fit(ClassifierSpec(kind, s_y=mains(1, 2), s_a=mains(2)), ds)
        assert predict_scores(clf, ds).shape == (n, 2)


def test_spec_rejects_bad_arguments():
    with pytest.raises(ValidationError):
        ClassifierSpec("type4")
    with pytest.raises(ValidationError):
        ClassifierSpec("type1", smoothing=0.0)
    for smoothing in (np.inf, np.nan, -1.0):
        with pytest.raises(ValidationError,
                           match="smoothing must be a positive finite"):
            ClassifierSpec("type1", smoothing=smoothing)


@pytest.mark.parametrize("targets", [
    [1.5], [2, 2.25], [1.0], [True], np.array([1, np.nan]), ["1"],
], ids=["fraction", "mixed", "whole-float", "bool", "nan", "string"])
def test_target_ids_are_integers(targets):
    """A float or bool target id is refused by predict_scores and evaluate,
    where it used to be truncated (1.5 scored node 1); numpy integer ids of
    any width name the same nodes as Python ints."""
    y, x, edges, r, k = random_instance(np.random.default_rng(45), p=2)
    ds = as_dataset(y, x, edges, r, k)
    for kind in KINDS:
        clf = fit(ClassifierSpec(kind, s_y=mains(1), s_a=mains(2)), ds)
        for call in (predict_scores, evaluate):
            with pytest.raises(ValidationError,
                               match="target ids must be integers"):
                call(clf, ds, targets)
        assert predict_scores(clf, ds, [2, 1]).tobytes() == \
            predict_scores(clf, ds, np.array([2, 1], dtype=np.uint8)).tobytes()


def test_predict_scores_checks_dataset_shape():
    rng = np.random.default_rng(44)
    y, x, edges, r, k = random_instance(rng, p=2)
    ds = as_dataset(y, x, edges, r, k)
    clf = fit(ClassifierSpec("type1", s_y=mains(1)), ds)
    other = as_dataset(np.r_[y, y], np.r_[x, x],
                       [(1, len(y) + 1)], r, k)
    with pytest.raises(ValidationError):
        predict_scores(clf, other)
    with pytest.raises(ValidationError):
        predict_scores(clf, ds, targets=[0])
    with pytest.raises(ValidationError):
        predict_scores(clf, ds, targets=[len(y) + 1])


def test_rank_auc_values():
    # separated: every positive above every negative
    assert _rank_auc(np.array([0.9, 0.1, 0.5]),
                     np.array([True, False, False])) == 1.0
    # one tie counts half: pairs (tie, win) -> 0.75
    assert _rank_auc(np.array([0.5, 0.5, 0.1]),
                     np.array([True, False, False])) == 0.75
    assert np.isnan(_rank_auc(np.array([0.5, 0.1]),
                              np.array([True, True])))


def test_evaluate_returns_accuracy_and_auc():
    rng = np.random.default_rng(45)
    n = 30
    y = np.r_[1, 2, rng.integers(1, 3, n - 2)].astype(np.int64)
    x = (y[:, None] == 1) + 1  # level tracks the response: easy problem
    edges = [(s + 1, t + 1) for s in range(n) for t in range(n)
             if s != t and rng.uniform() < 0.1]
    ds = as_dataset(y, x.astype(np.int64), edges, 2, 2)
    clf = fit(ClassifierSpec("type1", s_y=mains(1)), ds)
    acc, auc = evaluate(clf, ds, auc=True)
    assert acc == 1.0
    assert auc == 1.0
    acc_only, none_auc = evaluate(clf, ds)
    assert acc_only == 1.0 and none_auc is None
    # single-class target slice: AUC undefined
    ones = [i + 1 for i in range(n) if y[i] == 1]
    _, auc_nan = evaluate(clf, ds, targets=ones, auc=True)
    assert np.isnan(auc_nan)


def test_evaluate_rejects_empty_targets():
    y = np.array([1, 2, 1, 2])
    ds = as_dataset(y, np.ones((4, 1), dtype=np.int64), [(1, 2)], 2, 1)
    clf = fit(ClassifierSpec("type2"), ds)
    with pytest.raises(ValidationError, match="no targets to evaluate"):
        evaluate(clf, ds, targets=[])


def test_auc_requires_two_level_response():
    y = np.array([1, 2, 3, 1, 2, 3])
    x = np.ones((6, 1), dtype=np.int64)
    ds = as_dataset(y, x, [(1, 2)], 3, 1)
    clf = fit(ClassifierSpec("type1"), ds)
    with pytest.raises(ValidationError):
        evaluate(clf, ds, auc=True)


def test_holdout_evaluation_uses_only_fitted_nodes():
    rng = np.random.default_rng(46)
    y, x, edges, r, k = random_instance(rng, p=2)
    n = len(y)
    mask = np.zeros(n, dtype=bool)
    mask[: max(2, n // 2)] = True
    ds = as_dataset(y, x, edges, r, k)
    clf = fit(ClassifierSpec("type3", s_y=mains(1), s_a=mains(2)), ds,
              train_mask=mask)
    held = [i + 1 for i in range(n) if not mask[i]]
    scores = predict_scores(clf, ds, held)
    assert scores.shape == (len(held), r)
    assert np.all(np.isfinite(scores))


def test_screening_metrics_aggregation():
    truth = FeatureSet.from_keys(["1", "2", "3&4"])
    picks = [FeatureSet.from_keys(["1", "2", "3&4"]),
             FeatureSet.from_keys(["1", "5"])]
    rep = screening_metrics(picks, truth)
    assert rep.cmf == 2.0
    assert rep.imf == 0.5
    assert rep.cp == {"1": 1.0, "2": 0.5, "3&4": 0.5}
    assert rep.n_reps == 2
    # accuracies reach a report through the experiment's fit summary, so
    # the metrics carry none
    assert rep.to_dict() == {"cmf": 2.0, "imf": 0.5, "n_reps": 2,
                             "cp": {"1": 1.0, "2": 0.5, "3&4": 0.5}}
    assert isinstance(rep, MetricsReport)
    with pytest.raises(ValidationError):
        screening_metrics([], truth)
