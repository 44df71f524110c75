import hashlib
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

from netscreen import FeatureSet, ValidationError, simulate
from netscreen.io import write_dataset
from netscreen.dataset import discretize
from netscreen.simulate import (
    SimulationConfig, example_config, gen_network, gen_nlr, gen_nnb, generate,
    noise_rates, perturb_network,
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


# ------------------------------------------------- one-pass column seeding

def stream_draws(rng):
    """Draws of every kind the recipes use; the 32-bit integers come first
    and last, so a stale buffered half would show in the next stream."""
    return [rng.integers(0, 7, 9), rng.random(5), rng.normal(size=3),
            rng.normal(np.array([-1.0, 1.0])[[0, 1, 1]], 0.5),
            rng.permutation(10), rng.integers(0, 7, 3)]


# prefixes of 1, 2 and 5 or more words, and ints that split into 2-4 words
STREAM_PREFIXES = [(0,), (2**32 - 1,), (2**32,), (2**64 + 1,),
                   (2**100 + 12345,), (7, 3), (7, 0, 2), (1, 2, 3, 4, 5, 6),
                   (2**40, 0, 2**70 + 9, 2)]


@pytest.mark.parametrize("prefix", STREAM_PREFIXES, ids=str)
def test_keyed_streams_match_seed_sequence(prefix):
    keys = [0, 1, 2, 2**32 - 1, 5]
    streams = simulate._keyed_streams(prefix, keys)
    for key, rng in zip(keys, streams, strict=True):
        ref = np.random.default_rng(np.random.SeedSequence(prefix + (key,)))
        for got, want in zip(stream_draws(rng), stream_draws(ref)):
            assert np.array_equal(got, want), (prefix, key)


def test_keyed_streams_refuse_keys_beyond_one_word():
    for key in (-1, 2**32):
        with pytest.raises(ValueError, match="stream keys"):
            next(simulate._keyed_streams((7,), [1, key]))


def per_column_reference(config, entropy, y0):
    """_draw_columns with one SeedSequence stream per column."""
    x = np.empty((config.n, config.p), dtype=np.int32, order="F")
    raw = {}
    for j in range(1, config.p + 1):
        rng = simulate._stream(entropy, simulate._STREAM_COLUMN, j)
        codes, raw_j = simulate._draw_column(config.recipes[j - 1], config,
                                             rng, y0, x)
        x[:, j - 1] = codes
        if raw_j is not None:
            raw[j] = raw_j
    return x, raw


EVERY_RECIPE = plain_config(
    n=90, p=9, r_levels=3, bins=5,
    columns={1: {"kind": "uniform", "k": 3},
             2: {"kind": "cond_x", "parent": 1,
                 "table": [[0.2, 0.8], [0.5, 0.5], [0.9, 0.1]]},
             3: {"kind": "cond_yx", "parent": 2,
                 "table": [[[0.1, 0.2, 0.7], [0.3, 0.3, 0.4]],
                           [[0.6, 0.2, 0.2], [0.2, 0.2, 0.6]],
                           [[0.3, 0.4, 0.3], [0.5, 0.4, 0.1]]]},
             4: {"kind": "normal", "mu": 0.5, "sigma": 2.0},
             5: {"kind": "normal", "mu": [-1.0, 0.0, 1.5], "sigma": 0.7},
             6: {"kind": "cond_y", "table": [[0.9, 0.1], [0.5, 0.5],
                                             [0.1, 0.9]]},
             7: {"kind": "bern", "p": 0.3}})
# columns 3..8 share one cond_x recipe whose parent is an explicit column
DEFAULT_COND_X = plain_config(
    n=80, p=8, columns={1: {"kind": "uniform", "k": 3},
                        2: {"kind": "bern", "p": 0.4}},
    default_column={"kind": "cond_x", "parent": 1,
                    "table": [[0.1, 0.2, 0.7], [0.5, 0.5, 0.0],
                              [0.3, 0.3, 0.4]]})
DRAW_CASES = {f"ex{ex}-{model}": example_config(ex, n=70, p=12, model=model)
              for ex in range(1, 10) for model in ("nnb", "nlr")
              if (model == "nlr") == (ex == 9) or ex <= 3}
DRAW_CASES["every-recipe"] = EVERY_RECIPE
DRAW_CASES["default-cond-x"] = DEFAULT_COND_X


@pytest.mark.parametrize("seed", [(7, 0), (2**33 + 5, 3)], ids=str)
@pytest.mark.parametrize("cfg", DRAW_CASES.values(), ids=DRAW_CASES)
def test_draw_columns_match_per_column_streams(cfg, seed):
    y0 = None
    if cfg.model == "nnb":
        y0 = simulate._stream(seed, simulate._STREAM_RESPONSE).integers(
            0, cfg.r_levels, cfg.n)
    x, raw = simulate._draw_columns(cfg, seed, y0)
    want_x, want_raw = per_column_reference(cfg, seed, y0)
    assert np.array_equal(x, want_x)
    assert x.flags.f_contiguous
    assert raw.keys() == want_raw.keys()
    for j in raw:
        assert np.array_equal(raw[j], want_raw[j])


def test_default_cond_x_recipe_generates():
    ds, _ = generate(DEFAULT_COND_X, seed=3)
    assert ds.k_levels.tolist() == [3, 2, 3, 3, 3, 3, 3, 3]
    # parent level 2 never draws level 3
    assert not np.any((ds.x[:, 0] == 2)[:, None] & (ds.x[:, 2:] == 3))


@pytest.mark.parametrize("parent", [3, 4, 8])
def test_default_cond_x_parent_at_or_after_first_default_is_refused(parent):
    with pytest.raises(ValidationError,
                       match=f"^column 3 needs a parent with smaller index, "
                             f"got {parent}$"):
        plain_config(p=8, columns={1: {"kind": "bern", "p": 0.5},
                                   2: {"kind": "bern", "p": 0.5}},
                     default_column={"kind": "cond_x", "parent": parent,
                                     "table": [[0.5, 0.5]] * 2})


def test_each_recipe_object_is_parsed_once(monkeypatch):
    calls = []
    parse = simulate._parse_recipe

    def counted(recipe, j, *args):
        calls.append(j)
        return parse(recipe, j, *args)

    monkeypatch.setattr(simulate, "_parse_recipe", counted)
    cfg = example_config(1, n=50, p=1000)
    # four explicit recipes, then the default at its first column
    assert calls == [1, 2, 3, 4, 5]
    assert all(cfg.recipes[j] is cfg.recipes[4] for j in range(5, 1000))
    assert cfg.widths.tolist() == [2] * 1000
    calls.clear()
    generate(replace(cfg, n=30, p=20))  # replace parses; generate does not
    assert calls == [1, 2, 3, 4, 5]
    calls.clear()
    shared = {"kind": "uniform", "k": 3}
    plain_config(p=6, columns={2: shared, 5: shared}, default_column=shared)
    assert calls == [1]


@pytest.mark.parametrize("ex, model", [(3, "nnb"), (5, "nnb"), (8, "nnb"),
                                       (3, "nlr"), (9, "nlr")])
def test_samplers_read_only_the_checked_config(ex, model):
    """generate on a made config whose recipes, response terms, phi keys
    and noise field were blanked draws the dataset of the full config."""
    cfg = example_config(ex, n=60, p=8, model=model, seed=4)
    want, _ = generate(cfg)
    for name in ("columns", "default_column", "response", "phi", "noise"):
        object.__setattr__(cfg, name, None)
    got, _ = generate(cfg)
    for name in ("y", "x", "edges", "k_levels"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


# ----------------------------------------------------------- seed values

@pytest.mark.parametrize("seed", [-1, 2.5, (7, 1.9), (7, -2), float("nan"),
                                  float("inf"), "3", [7, 1]], ids=repr)
def test_seeds_must_be_whole_and_nonnegative(seed):
    cfg = plain_config()
    with pytest.raises(ValidationError, match="a seed must be a whole "
                       "number >= 0, not "):
        generate(cfg, seed=seed)


@pytest.mark.parametrize("seed", [2.5, -1, [7, 1]], ids=repr)
def test_config_files_refuse_seeds_int_would_change(seed):
    blob = dict(plain_config().to_dict(), seed=seed)
    with pytest.raises(ValidationError, match="a seed must be a whole number "
                       rf">= 0, not {re.escape(repr(seed))}$"):
        SimulationConfig.from_dict(blob)
    blob["seed"] = 3.0
    assert SimulationConfig.from_dict(blob).seed == 3


def test_whole_float_seeds_keep_their_streams():
    cfg = example_config(1, n=40, p=5)
    for whole, exact in ((2.0, 2), ((7.0, np.int64(1)), (7, 1))):
        got, want = generate(cfg, seed=whole)[0], generate(cfg, seed=exact)[0]
        assert np.array_equal(got.x, want.x)
        assert np.array_equal(got.edges, want.edges)
    edges = generate(cfg, seed=1)[0].edges
    assert np.array_equal(perturb_network(edges, 40, 0.5, 0.01, 3.0),
                          perturb_network(edges, 40, 0.5, 0.01, 3))
    with pytest.raises(ValidationError, match="not -3"):
        perturb_network(edges, 40, 0.5, 0.01, -3)


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
    rng = simulate._stream(simulate.seed_entropy(seed), simulate._STREAM_NETWORK)
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
    rng = simulate._stream(simulate.seed_entropy(seed), simulate._STREAM_NOISE)
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
        plain_config(noise={"s": 1.5})
    # s = 0.4 at n = 4 gives add probability 10 * 4^-1.6 > 1
    with pytest.raises(ValidationError, match="add probability"):
        example_config(5, n=4, p=5)
    example_config(5, n=5, p=5)  # 10 * 5^-1.6 < 1


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
    assert ex6.widths.tolist() == [4] * 10

    ex7 = example_config(7, n=100, p=10)
    assert ex7.r_levels == 4

    ex8 = example_config(8, n=100, p=10)
    assert ex8.columns[5]["mu"] == [-1.0, 1.0]
    assert ex8.widths[5 - 1] == 4

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
    # an absent optional field takes the dataclass default
    least = {"name": "tiny", "model": "nnb", "n": 30, "p": 4}
    assert SimulationConfig.from_dict(least).to_dict() == \
        SimulationConfig(**least).to_dict()


def test_made_config_holds_ints_and_floats():
    cfg = plain_config(n=60.0, p=np.int64(3), r_levels=2.0, bins=5.0,
                       seed=7.0, gamma=1, base_odds_same=2, phi=((3.0, 1),))
    for name in ("n", "p", "r_levels", "bins", "seed"):
        assert type(getattr(cfg, name)) is int, name
    for name in ("gamma", "base_odds_same", "base_odds_diff"):
        assert type(getattr(cfg, name)) is float, name
    assert cfg.phi_terms == (((2,), 1.0),)
    want = plain_config(n=60, p=3, bins=5, seed=7, gamma=1.0,
                        base_odds_same=2.0, phi=((3, 1.0),))
    assert json.dumps(cfg.to_dict()) == json.dumps(want.to_dict())
    assert np.array_equal(generate(cfg)[0].edges, generate(want)[0].edges)
    with pytest.raises(ValidationError, match="need n >= 2"):
        replace(cfg, n=1)  # replace checks the changed config


def test_fractional_recipe_levels_are_refused_and_whole_floats_kept():
    # int() would truncate k 2.7 to a 2-level column without a word
    with pytest.raises(ValidationError,
                       match="column 2: k must be a whole number, not 2.7"):
        generate(plain_config(columns={2: {"kind": "uniform", "k": 2.7}}))
    with pytest.raises(ValidationError, match="column 3: parent must be"):
        generate(plain_config(columns={3: {
            "kind": "cond_x", "parent": 1.5, "table": [[0.5, 0.5]] * 2}}))
    whole, as_int = (plain_config(columns={2: {"kind": "uniform", "k": k}})
                     for k in (4.0, 4))
    assert np.array_equal(generate(whole)[0].x, generate(as_int)[0].x)
    blob = json.dumps(whole.to_dict())  # values are checked, not replaced
    assert '"k": 4.0' in blob
    assert json.dumps(SimulationConfig.from_dict(
        json.loads(blob)).to_dict()) == blob


def test_check_config_rejects_structural_problems():
    with pytest.raises(ValidationError):
        plain_config(model="frog")
    with pytest.raises(ValidationError):
        plain_config(n=1)
    with pytest.raises(ValidationError):
        plain_config(columns={9: {"kind": "bern", "p": 0.5}})
    # the logistic model generates y last, so columns cannot condition on it
    with pytest.raises(ValidationError):
        plain_config(
            model="nlr",
            columns={1: {"kind": "cond_y", "table": [[0.5, 0.5], [0.5, 0.5]]}},
            response={"kind": "logistic", "terms": [[[2], 1.0]]})
    with pytest.raises(ValidationError):  # parent must come earlier
        plain_config(columns={
            2: {"kind": "cond_x", "parent": 3, "table": [[0.5, 0.5], [0.5, 0.5]]}})
    with pytest.raises(ValidationError):  # rows must be probabilities
        plain_config(columns={
            1: {"kind": "cond_y", "table": [[0.7, 0.7], [0.5, 0.5]]}})
    with pytest.raises(ValidationError):
        plain_config(noise={"s": 0.0})
    with pytest.raises(ValidationError):
        plain_config(phi=((7, 0.4),))
    with pytest.raises(ValidationError, match="phi terms"):
        plain_config(phi=((1, 0.1),) * 21)


LOGISTIC = {"kind": "logistic", "terms": [[[1], 1.0]]}


@pytest.mark.parametrize("overrides, message", [
    ({"columns": {2: {"kind": "poisson"}}},
     "unknown column recipe kind 'poisson'"),
    ({"r_levels": 1}, "need at least 2 response levels"),
    ({"model": "nlr", "r_levels": 3, "response": LOGISTIC},
     "the logistic response model needs R = 2"),
    ({"columns": {2: {"kind": "uniform", "k": 0}}}, "column 2 has no levels"),
    ({"columns": {2: {"kind": "uniform", "k": 2 ** 31}}},
     "column 2 has 2147483648 levels, above 2147483647"),
    ({"columns": {1: {"kind": "cond_y", "table": [[0.5, 0.5]] * 3}}},
     r"column 1 table shape \(3, 2\) != \(2, 2\)"),
    ({"columns": {1: {"kind": "cond_y",
                      "table": [[float("nan")] * 2] * 2}}},
     "column 1: rows must be probability vectors"),
    ({"columns": {2: {"kind": "bern", "p": 1.5}}}, "column 2: p outside"),
    ({"model": "nlr", "response": LOGISTIC,
      "columns": {2: {"kind": "normal", "mu": [0.0, 1.0], "sigma": 1.0}}},
     "column 2: per-response means need the nnb model"),
    ({"columns": {2: {"kind": "normal", "mu": [0.0, 1.0, 2.0],
                      "sigma": 1.0}}},
     "column 2: need one mean per response level"),
    ({"columns": {2: {"kind": "normal", "mu": 0.0, "sigma": 0.0}}},
     "column 2: sigma must be positive"),
    ({"model": "nlr"}, "the nlr model needs a logistic response"),
    ({"model": "nlr", "response": {"kind": "logistic"}},
     "the logistic response needs terms"),
    ({"model": "nlr", "response": {"kind": "logistic", "terms": [[1, 2.0]]}},
     r"response terms must be \[column ids, number\] pairs"),
    ({"model": "nlr", "response": {"kind": "logistic",
                                   "terms": [[[1.5], 2.0]]}},
     r"response terms must be \[column ids, number\] pairs"),
    ({"model": "nlr", "response": {"kind": "logistic",
                                   "terms": [[[float("inf")], 2.0]]}},
     r"response terms must be \[column ids, number\] pairs"),
    ({"model": "nlr", "response": {"kind": "logistic",
                                   "terms": [[[4], 2.0]]}},
     "response term column 4 out of range"),
    ({"model": "nlr", "response": LOGISTIC,
      "columns": {1: {"kind": "uniform", "k": 3}}},
     "response term column 1 must be 2-level"),
    ({"response": LOGISTIC}, "the nnb model needs a uniform response"),
    ({"response": [1]}, "the response must be an object"),
    ({"noise": [0.4]}, "noise must be an object"),
    ({"noise": {"s": None}},
     "noise exponent s must be a finite number, not None"),
    ({"noise": {"s": "0.4"}},
     "noise exponent s must be a finite number, not '0.4'"),
    ({"s_y": FeatureSet((0,))}, "s_y column 0 outside 1..3"),
    ({"s_a": FeatureSet((1,), ((2, 4),))}, "s_a column 4 outside 1..3"),
    ({"bins": 1}, "bins must be at least 2"),
    ({"columns": {2: {"kind": "normal", "mu": [[0.0, 1.0]] * 2,
                      "sigma": 1.0}}},
     "column 2: need one mean per response level"),
    ({"columns": {2: {"kind": "bern", "p": "abc"}}},
     "column 2: p cannot be 'abc'"),
    ({"columns": {2: {"kind": "uniform", "k": None}}},
     "column 2: k must be a whole number, not None"),
    ({"columns": {2: {"kind": "normal", "mu": "a", "sigma": 1.0}}},
     "column 2: mu cannot be 'a'"),
    ({"base_odds_same": 0}, "base_odds_same must be a finite positive "
                            "number, not 0$"),
    ({"base_odds_diff": -1}, "base_odds_diff must be a finite positive "
                             "number, not -1$"),
    ({"gamma": float("nan")}, "gamma must be a finite number, not nan"),
    ({"gamma": "0.5"}, "gamma must be a finite number, not '0.5'"),
    ({"phi": ((1, float("nan")),)},
     "a phi coefficient must be a finite number, not nan"),
    ({"phi": ((1, 0.4), (3.7, 0.4))},
     "a phi column must be a whole number, not 3.7"),
    ({"phi": ((True, 0.4),)}, "a phi column must be a whole number, not True"),
    ({"n": 60.7}, "n must be a whole number, not 60.7"),
    ({"r_levels": 2.9}, "r_levels must be a whole number, not 2.9"),
], ids=["unknown-kind", "one-level", "nlr-three-levels", "no-levels",
        "width-past-int32", "table-shape", "nan-table", "bern-p",
        "nlr-mean-list", "mean-count", "sigma", "nlr-uniform-response",
        "no-terms", "bare-term", "fractional-term-column",
        "infinite-term-column", "term-column-range", "wide-term-column",
        "nnb-logistic-response", "list-response", "list-noise",
        "noise-s-none", "numeral-noise-s", "s-y-zero", "s-a-pair-past-p",
        "one-bin", "nested-mean-rows", "word-p", "none-k",
        "word-mu", "zero-base-odds", "negative-base-odds", "nan-gamma",
        "word-gamma", "nan-phi-coefficient", "fractional-phi-column",
        "bool-phi-column", "fractional-n", "fractional-r-levels"])
def test_check_config_refusals(overrides, message):
    with pytest.raises(ValidationError, match=message):
        plain_config(**overrides)


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
