import hashlib
import json
import math

import numpy as np
import pytest
from scipy.special import expit

from netscreen import FeatureSet, ValidationError, simulate
from netscreen.io import write_dataset
from netscreen.dataset import discretize
from netscreen.simulate import (
    SimulationConfig, check_config, example_config, gen_network, gen_nlr,
    gen_nnb, generate, noise_rates, perturb_network,
)


def plain_config(**overrides):
    base = dict(name="t", model="nnb", n=60, p=3)
    base.update(overrides)
    return SimulationConfig(**base)


# ------------------------------------------------------------ determinism

def test_generate_is_deterministic():
    cfg = example_config(1, n=80, p=6)
    a, _ = generate(cfg, seed=5)
    b, _ = generate(cfg, seed=5)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.edges, b.edges)
    c, _ = generate(cfg, seed=6)
    assert not np.array_equal(a.edges, c.edges)


def test_tuple_seeds_open_distinct_streams():
    cfg = plain_config()
    a, _ = generate(cfg, seed=(3, 0))
    b, _ = generate(cfg, seed=(3, 1))
    assert not np.array_equal(a.x, b.x)


def test_column_draws_do_not_depend_on_p():
    """Column j is its own stream: adding more columns changes nothing."""
    narrow = example_config(1, n=50, p=4)
    wide = example_config(1, n=50, p=12)
    y1, x1, _ = gen_nnb(narrow, seed=(9,))
    y2, x2, _ = gen_nnb(wide, seed=(9,))
    assert np.array_equal(y1, y2)
    assert np.array_equal(x1, x2[:, :4])


# ------------------------------------------------------- sampling recipes

def test_conditional_recipe_frequencies():
    """Observed conditional rates sit within 3 standard errors."""
    cfg = example_config(1, n=4000, p=4)
    y, x, _ = gen_nnb(cfg, seed=(11,))
    # column 1 draws level 2 w.p. 0.2 when y=1 and 0.9 when y=2
    for resp, q in ((1, 0.2), (2, 0.9)):
        sel = y == resp
        rate = np.mean(x[sel, 0] == 2)
        se = math.sqrt(q * (1 - q) / sel.sum())
        assert abs(rate - q) < 3 * se, (resp, rate)
    # background columns are sparse bernoulli
    rate = np.mean(x[:, 3 - 1] == 2)  # column 3: level 2 w.p. 0.4 both ways
    assert abs(rate - 0.4) < 3 * math.sqrt(0.4 * 0.6 / 4000)


def test_logistic_response_rate():
    cfg = example_config(1, n=4000, p=4, model="nlr")
    y, x, _ = gen_nlr(cfg, seed=(12,))
    # x1=2, x2=1 drives the logit to -4
    sel = (x[:, 0] == 2) & (x[:, 1] == 1)
    want = expit(-4.0)
    assert want == pytest.approx(0.017986209962091555)
    rate = np.mean(y[sel] == 2)
    se = math.sqrt(want * (1 - want) / sel.sum())
    assert abs(rate - want) < 3 * se
    # and +4 on the opposite corner
    sel = (x[:, 0] == 1) & (x[:, 1] == 2)
    rate = np.mean(y[sel] == 2)
    want = expit(4.0)
    assert abs(rate - want) < 3 * math.sqrt(want * (1 - want) / sel.sum())


def test_network_rates_match_closed_form():
    """With no feature bonus the link rate depends only on response match."""
    cfg = plain_config(n=300, p=1, phi=())
    y, x, _ = gen_nnb(cfg, seed=(13,))
    edges = gen_network(y, x, cfg, seed=(13,))
    same_edges = diff_edges = 0
    for s, t in edges:
        if y[s - 1] == y[t - 1]:
            same_edges += 1
        else:
            diff_edges += 1
    n_y = np.bincount(y, minlength=3)[1:]
    same_pairs = int(np.sum(n_y * (n_y - 1)))
    diff_pairs = 300 * 299 - same_pairs
    # odds same: n^-1/2, odds diff: 0.5 n^-1/2
    p_same = 1.0 / (1.0 + math.sqrt(300))
    p_diff = 1.0 / (1.0 + 2 * math.sqrt(300))
    for got, pairs, want in ((same_edges, same_pairs, p_same),
                             (diff_edges, diff_pairs, p_diff)):
        se = math.sqrt(want * (1 - want) / pairs)
        assert abs(got / pairs - want) < 3 * se, (got / pairs, want)


def test_feature_agreement_raises_link_rate():
    cfg = plain_config(n=300, p=1, phi=((1, 2.0),),
                       default_column={"kind": "bern", "p": 0.5})
    y, x, _ = gen_nnb(cfg, seed=(14,))
    edges = gen_network(y, x, cfg, seed=(14,))
    col = x[:, 0]
    agree = sum(1 for s, t in edges if col[s - 1] == col[t - 1])
    assert agree > len(edges) - agree  # bonus makes agreeing links dominate


# sha256 of the int64 edge bytes of generate(example_config(ex, n=150, p=6,
# seed=3)), recorded from the pairwise generator that held all n(n-1) pairs
FROZEN_EDGES = (
    (1, 1863, "f948c51755765cd99bf8c47752721b8193796209d3e8e7a617974f33622a27e5"),
    (3, 1644, "57a49c069afbcc2a1462df18a583d287232be57cf495bba8fec6185b3c2165a6"),
    (5, 1850, "80bc41dac4c3ece6cd4a779271a5389da14ea998ccc7fbc7c6b0d5f8dc119bb8"),
    (7, 1559, "a3344db05a262b4dba7883bb405e376b57fb7d68573b816d2023ec4f9d7cbb3b"),
    (9, 1902, "7948f0fbdd936dbfa3266020366ec6d5232fa1cc11bbd5ee6cd98ea1de4cabb4"),
)


@pytest.mark.parametrize("block_pairs", [None, 997])
@pytest.mark.parametrize("example, n_edges, digest", FROZEN_EDGES,
                         ids=[f"ex{e[0]}" for e in FROZEN_EDGES])
def test_generated_edges_frozen(monkeypatch, block_pairs, example, n_edges,
                                digest):
    if block_pairs is not None:
        monkeypatch.setattr(simulate, "BLOCK_TARGET_PAIRS", block_pairs)
    ds, _ = generate(example_config(example, n=150, p=6, seed=3))
    assert ds.edges.shape == (n_edges, 2)
    got = np.ascontiguousarray(ds.edges, dtype=np.int64).tobytes()
    assert hashlib.sha256(got).hexdigest() == digest


@pytest.mark.parametrize("example", [3, 7, 9])
def test_network_blocks_do_not_change_edges(monkeypatch, example):
    """One source row per block and all n rows in one block draw the same
    uniforms in the same order, so they give the same edges."""
    cfg = example_config(example, n=90, p=6, seed=8)
    gen = gen_nlr if cfg.model == "nlr" else gen_nnb
    y, x, _ = gen(cfg, (8,))
    runs = []
    for target in (1, 90 * 90):
        monkeypatch.setattr(simulate, "BLOCK_TARGET_PAIRS", target)
        runs.append(gen_network(y, x, cfg, (8,)))
    assert runs[0].dtype == np.int64 and runs[0].shape[1] == 2
    assert len(runs[0]) > 0
    assert np.array_equal(runs[0], runs[1])


def pairwise_edges(y, x, cfg, seed):
    """The network drawn pair by pair: one uniform per loop-free ordered
    pair in source-row order, tested against expit of the pair's logit,
    summed term by term."""
    rng = simulate._stream(simulate._entropy(seed), simulate._STREAM_NETWORK)
    n = len(y)
    u = rng.random(n * (n - 1))
    decay = cfg.gamma * math.log(n)
    edges, k = [], 0
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            odds = cfg.base_odds_same if y[s] == y[t] else cfg.base_odds_diff
            logit = math.log(odds) - decay
            for key, coef in cfg.phi:
                cols = key if isinstance(key, tuple) else (key,)
                if all(x[s, c - 1] == x[t, c - 1] for c in cols):
                    logit += coef
            if u[k] < expit(logit):
                edges.append((s + 1, t + 1))
            k += 1
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


HALF = {"kind": "bern", "p": 0.5}
NETWORK_CASES = {
    # agreeing pairs link with probability 1, so every uniform is below the
    # largest entry and every pair is a candidate
    "certain": plain_config(n=14, p=1, phi=((1, 60.0),),
                            default_column=HALF),
    # the largest entry is same response, disagreeing on column 1
    "negative-phi": plain_config(n=30, p=2, phi=((1, -1.5), (2, 0.7)),
                                 default_column=HALF),
    "ex3-tuple-phi": example_config(3, n=60, p=6, seed=4),
    "ex7-four-levels": example_config(7, n=60, p=6, seed=4),
    "n2": plain_config(n=2, p=1, base_odds_same=20.0, base_odds_diff=20.0,
                       phi=((1, 0.5),)),
}


@pytest.mark.parametrize("block_pairs", [1, 997, None],
                         ids=["1", "997", "all"])
@pytest.mark.parametrize("cfg", NETWORK_CASES.values(), ids=NETWORK_CASES)
def test_network_matches_pairwise_reference(monkeypatch, cfg, block_pairs):
    gen = gen_nlr if cfg.model == "nlr" else gen_nnb
    y, x, _ = gen(cfg, (21,))
    n = cfg.n
    monkeypatch.setattr(simulate, "BLOCK_TARGET_PAIRS",
                        block_pairs or n * (n - 1))
    got = gen_network(y, x, cfg, (21,))
    want = pairwise_edges(y, x, cfg, (21,))
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want)
    if cfg is NETWORK_CASES["certain"]:
        linked = {(int(s), int(t)) for s, t in got}
        assert all((s + 1, t + 1) in linked
                   for s in range(n) for t in range(n)
                   if s != t and x[s, 0] == x[t, 0])


# sha256 of each file write_dataset wrote for example_config(ex, n=50, p=6,
# seed=2), recorded from the np.savetxt writer
FROZEN_FILES = (
    (1, "edges.csv", "6894a114ad078abc25a5cae38040fee40f1a1c324cb403f215fc532dc1afe309"),
    (1, "metadata.json", "79e0386bc9084a78564a2dabfcfe9fec29e823ac0223b4e5836084a41d411eef"),
    (1, "nodes.csv", "3fdbfa7d566f026972df6c4cb58bc53628991f37534d4633fd15373e8b954b4f"),
    (8, "continuous.csv", "66ed7afde4784787e29983c99e2dfba0ca3ed9de9ae8950d56b0fb874b4fe0a4"),
    (8, "edges.csv", "9f422f339849f7df5555b9f9a3477c598287b6759a14885d71f6b1959b164b45"),
    (8, "metadata.json", "76bb8f87fbee7815ca4b7fa91bd05582b9cb7e84835254c15422e0bd1db9337d"),
    (8, "nodes.csv", "56ce3a50bd377caf96749e8b66f7f9f3e45202f12d4d70e62f4139fcd6600a4a"),
)


@pytest.mark.parametrize("example", [1, 8])
def test_written_files_frozen(tmp_path, example):
    cfg = example_config(example, n=50, p=6, seed=2)
    ds, extras = generate(cfg)
    paths = write_dataset(tmp_path, ds, extras, generator=cfg.to_dict())
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in paths.values()}
    assert got == {name: digest for ex, name, digest in FROZEN_FILES
                   if ex == example}


# ------------------------------------------------------------- noise pass

def test_noise_rates_frozen():
    keep, add = noise_rates(300, 0.4)
    assert keep == pytest.approx(1.0 - 300 ** -0.6)
    assert add == pytest.approx(10.0 * 300 ** -1.6)
    assert keep == pytest.approx(0.9673615, abs=1e-6)
    assert add == pytest.approx(0.0010880, abs=1e-6)


def test_perturb_network_edge_cases():
    edges = np.array([[1, 2], [2, 3], [3, 1]])
    # keep everything, add nothing: identity
    out = perturb_network(edges, 4, 1.0, 0.0, seed=0)
    assert np.array_equal(out, edges)
    # drop everything
    out = perturb_network(edges, 4, 0.0, 0.0, seed=0)
    assert out.shape == (0, 2)
    # add every absent ordered pair: the complete directed graph
    out = perturb_network(edges, 4, 1.0, 1.0, seed=0)
    assert out.shape == (12, 2)
    assert len({(int(s), int(t)) for s, t in out}) == 12
    assert np.all(out[:, 0] != out[:, 1])


def test_perturb_network_is_seeded():
    edges = np.array([[i + 1, ((i + 1) % 20) + 1] for i in range(20)])
    a = perturb_network(edges, 20, 0.5, 0.05, seed=3)
    b = perturb_network(edges, 20, 0.5, 0.05, seed=3)
    assert np.array_equal(a, b)


def perturb_by_mask(edges, n, keep_prob, add_prob, seed):
    """The noise pass written with an n(n-1) presence mask and the array of
    every absent pair code: the reference for perturb_network."""
    rng = simulate._stream(simulate._entropy(seed), simulate._STREAM_NOISE)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    kept = edges[rng.random(edges.shape[0]) < keep_prob]
    src0, dst0 = edges[:, 0] - 1, edges[:, 1] - 1
    present = np.zeros(n * (n - 1), dtype=bool)
    present[src0 * (n - 1) + dst0 - (dst0 > src0)] = True
    absent = np.flatnonzero(~present)
    m = rng.binomial(absent.size, add_prob)
    picked = rng.choice(absent, size=m, replace=False)
    s0, rem = picked // (n - 1), picked % (n - 1)
    added = np.column_stack([s0 + 1, rem + (rem >= s0) + 1])
    return np.concatenate([kept, added], axis=0)


@pytest.mark.parametrize("n", [2, 4, 9, 60, 400])
@pytest.mark.parametrize("add_prob", [0.0, 0.01, 0.2, 1.0])
def test_perturb_network_matches_mask_reference(n, add_prob):
    rng = np.random.default_rng(n)
    pairs = np.array([(s, t) for s in range(1, n + 1)
                      for t in range(1, n + 1) if s != t])
    for density in (0.0, 0.3, 1.0):
        edges = pairs[rng.random(len(pairs)) < density]
        for seed in (0, (5, 1)):
            want = perturb_by_mask(edges, n, 0.7, add_prob, seed)
            got = perturb_network(edges, n, 0.7, add_prob, seed)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
    # a repeated edge counts once as present
    dup = np.array([[1, 2], [1, 2], [2, 1]])
    assert np.array_equal(perturb_network(dup, n, 1.0, add_prob, 3),
                          perturb_by_mask(dup, n, 1.0, add_prob, 3))


def test_check_config_rejects_noise_rates_outside_unit_interval():
    # s = 1.5 gives keep probability 1 - n^0.5 < 0: every link would drop
    with pytest.raises(ValidationError, match="keep probability"):
        check_config(plain_config(noise={"s": 1.5}))
    # s = 0.4 at n = 4 gives add probability 10 * 4^-1.6 > 1
    with pytest.raises(ValidationError, match="add probability"):
        check_config(example_config(5, n=4, p=5))
    check_config(example_config(5, n=5, p=5))  # 10 * 5^-1.6 < 1


def test_noisy_example_stays_valid():
    cfg = example_config(5, n=60, p=5)
    assert cfg.noise == {"s": 0.4}
    ds, _ = generate(cfg, seed=2)
    assert ds.n == 60  # validates: no duplicate edges, no self-loops


# ------------------------------------------------------- ready-made configs

def test_example_configs_cover_designed_scenarios():
    ex1 = example_config(1, n=100, p=10)
    assert ex1.s_y == FeatureSet((1, 2))
    assert ex1.s_a == FeatureSet((3, 4))
    assert ex1.phi == ((3, 0.4), (4, 0.4))
    assert ex1.true_features().keys() == ("1", "2", "3", "4")

    ex2 = example_config(2, n=100, p=10)
    assert ex2.s_a == FeatureSet((1, 2, 3, 4))
    assert len(ex2.phi) == 4

    ex3 = example_config(3, n=100, p=10)
    assert ex3.s_y == FeatureSet((1,), ((1, 2),))
    assert ex3.s_a == FeatureSet((3, 4), ((3, 4),))
    assert ((3, 4), 0.2) in ex3.phi
    assert ex3.true_features().keys() == ("1", "3", "4", "1&2", "3&4")
    assert ex3.columns[2]["kind"] == "cond_yx"
    assert ex3.columns[2]["parent"] == 1

    ex6 = example_config(6, n=100, p=10)
    assert ex6.column_width(1) == 4
    assert ex6.column_width(9) == 4

    ex7 = example_config(7, n=100, p=10)
    assert ex7.r_levels == 4

    ex8 = example_config(8, n=100, p=10)
    assert ex8.columns[5]["mu"] == [-1.0, 1.0]
    assert ex8.column_width(5) == 4

    ex9 = example_config(9, n=100, p=10)
    assert ex9.model == "nlr"
    assert ex9.response["kind"] == "logistic"

    assert example_config("ex2", n=50, p=5).name == "ex2"


def test_example_config_rejects_model_mismatch():
    with pytest.raises(ValidationError):
        example_config(9, model="nnb")
    with pytest.raises(ValidationError):
        example_config(4, model="nlr")
    with pytest.raises(ValidationError):
        example_config(10)
    with pytest.raises(ValidationError):
        example_config(1, model="mystery")


def test_config_round_trips_through_json():
    for ex in (1, 3, 8, 9):
        cfg = example_config(ex, n=70, p=8)
        blob = json.dumps(cfg.to_dict())
        back = SimulationConfig.from_dict(json.loads(blob))
        assert back.to_dict() == cfg.to_dict()
        assert back.s_y == cfg.s_y and back.phi == cfg.phi


def test_check_config_rejects_structural_problems():
    with pytest.raises(ValidationError):
        check_config(plain_config(model="frog"))
    with pytest.raises(ValidationError):
        check_config(plain_config(n=1))
    with pytest.raises(ValidationError):
        check_config(plain_config(columns={9: {"kind": "bern", "p": 0.5}}))
    # the logistic model generates y last, so columns cannot condition on it
    with pytest.raises(ValidationError):
        check_config(plain_config(
            model="nlr",
            columns={1: {"kind": "cond_y", "table": [[0.5, 0.5], [0.5, 0.5]]}},
            response={"kind": "logistic", "terms": [[[2], 1.0]]}))
    with pytest.raises(ValidationError):  # parent must come earlier
        check_config(plain_config(columns={
            2: {"kind": "cond_x", "parent": 3, "table": [[0.5, 0.5], [0.5, 0.5]]}}))
    with pytest.raises(ValidationError):  # rows must be probabilities
        check_config(plain_config(columns={
            1: {"kind": "cond_y", "table": [[0.7, 0.7], [0.5, 0.5]]}}))
    with pytest.raises(ValidationError):
        check_config(plain_config(noise={"s": 0.0}))
    with pytest.raises(ValidationError):
        check_config(plain_config(phi=((7, 0.4),)))
    with pytest.raises(ValidationError, match="phi terms"):
        check_config(plain_config(phi=((1, 0.1),) * 21))


def test_continuous_columns_are_binned_and_raw_is_kept():
    cfg = example_config(8, n=200, p=8)
    ds, extras = generate(cfg, seed=4)
    assert np.all(ds.k_levels == 4)
    assert set(extras["raw"]) == set(range(1, 9))  # every column is normal
    raw5 = extras["raw"][5]
    assert raw5.shape == (200,)
    assert np.array_equal(discretize(raw5, 4), ds.column(5))
    # the response-shifted column separates the means
    assert (raw5[ds.y == 2].mean() - raw5[ds.y == 1].mean()) > 1.0


def test_generate_reports_truth():
    ds, extras = generate(example_config(3, n=50, p=6), seed=1)
    assert extras["true_features"].keys() == ("1", "3", "4", "1&2", "3&4")
    assert ds.p == 6
    assert extras["raw"] == {}
