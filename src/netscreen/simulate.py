"""Synthetic classification networks with planted feature signal.

Two sampling models share one network layer:

  nnb  response first (uniform levels), then features column by column,
       each from a recipe that may condition on the response and on an
       earlier column
  nlr  features first, then a 2-level response from a logistic model on
       0/1-coded columns and their products

The directed network draws every ordered node pair independently. The log
odds of a link start at a density offset, minus gamma * log n so the graph
sparsifies as it grows, plus log 1 when the endpoints share a response
level and log 0.5 when they do not, plus a bonus for every network-related
feature on which the endpoints agree. An optional noise pass drops each
link and adds absent links at fixed rates.

The pairs share a few link probabilities, one per agreement pattern, so the
generator draws one uniform per pair in a fixed order and codes only the
pairs whose uniform lies below the largest of them (the candidates, a few
percent at the designs' densities). Every other pair fails its own test
whatever its pattern, so the edges are those of testing every pair, bit for
bit, at a fraction of the work.

Recipes (dicts, JSON-friendly):
  {"kind": "bern", "p": q}                   levels {1, 2}, level 2 w.p. q
  {"kind": "uniform", "k": K}                uniform levels 1..K
  {"kind": "cond_y", "table": rows}          rows[r-1] = level probs given
                                             response r
  {"kind": "cond_yx", "parent": j, "table"}  table[r-1][parent level - 1]
  {"kind": "cond_x", "parent": j, "table"}   table[parent level - 1]
  {"kind": "normal", "mu": m, "sigma": s}    continuous; mu may be a
                                             per-response list (nnb only);
                                             stored as quantile-binned codes

All randomness flows through named SeedSequence streams keyed by (seed,
stream, column), so any column or the network can be regenerated alone and
results never depend on evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np
from scipy.special import expit

from .dataset import FeatureSet, NodeDataset, discretize, validate
from .errors import ValidationError

_STREAM_RESPONSE = 1
_STREAM_COLUMN = 2
_STREAM_NETWORK = 3
_STREAM_NOISE = 4

BLOCK_TARGET_PAIRS = 250_000  # soft cap on ordered pairs per network block
MAX_PHI_TERMS = 20  # the link table has 2^(terms + 1) entries
RECIPE_FIELDS = {"bern": ("p",), "uniform": ("k",), "cond_y": ("table",),
                 "cond_yx": ("parent", "table"), "cond_x": ("parent", "table"),
                 "normal": ("mu", "sigma")}
# the type each recipe value must convert to
RECIPE_VALUES = {"p": float, "k": int, "parent": int, "sigma": float,
                 "mu": lambda mu: np.asarray(mu, dtype=np.float64),
                 "table": lambda table: np.asarray(table, dtype=np.float64)}


@dataclass(frozen=True, eq=False)
class SimulationConfig:
    """Complete description of one synthetic setting."""

    name: str
    model: str
    n: int
    p: int
    r_levels: int = 2
    columns: dict = field(default_factory=dict)
    default_column: dict = field(
        default_factory=lambda: {"kind": "bern", "p": 0.2})
    response: dict = field(default_factory=lambda: {"kind": "uniform"})
    s_y: FeatureSet = field(default_factory=FeatureSet)
    s_a: FeatureSet = field(default_factory=FeatureSet)
    phi: tuple = ()
    gamma: float = 0.5
    base_odds_same: float = 1.0
    base_odds_diff: float = 0.5
    noise: dict | None = None
    bins: int = 4
    bin_scheme: str = "normal_quantile"
    seed: int = 0

    def true_features(self) -> FeatureSet:
        mains = sorted(set(self.s_y.mains) | set(self.s_a.mains))
        pairs = sorted(set(self.s_y.pairs) | set(self.s_a.pairs))
        return FeatureSet(tuple(mains), tuple(pairs))

    def recipe(self, j: int) -> dict:
        return self.columns.get(j, self.default_column)

    def column_width(self, j: int) -> int:
        return _recipe_width(self.recipe(j), self)

    def to_dict(self) -> dict:
        def key_str(key):
            return f"{key[0]}&{key[1]}" if isinstance(key, tuple) else str(key)

        return {
            "name": self.name, "model": self.model,
            "n": self.n, "p": self.p, "r_levels": self.r_levels,
            "columns": {str(j): r for j, r in sorted(self.columns.items())},
            "default_column": self.default_column,
            "response": self.response,
            "s_y": list(self.s_y.keys()), "s_a": list(self.s_a.keys()),
            "phi": [[key_str(k), float(c)] for k, c in self.phi],
            "gamma": self.gamma,
            "base_odds_same": self.base_odds_same,
            "base_odds_diff": self.base_odds_diff,
            "noise": self.noise, "bins": self.bins,
            "bin_scheme": self.bin_scheme, "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SimulationConfig":
        """The config of a to_dict-shaped mapping; an absent optional field
        takes its dataclass default."""
        if not isinstance(d, dict):
            raise ValidationError("a simulation config must be a JSON object")

        def key_of(s):
            if isinstance(s, str) and "&" in s:
                a, b = s.split("&")
                return (int(a), int(b))
            return int(s)

        convert = {
            "n": int, "p": int, "r_levels": int, "gamma": float,
            "base_odds_same": float, "base_odds_diff": float, "bins": int,
            "seed": int, "s_y": FeatureSet.from_keys,
            "s_a": FeatureSet.from_keys,
            "default_column": _typed_recipe,
            "columns": lambda c: {int(j): _typed_recipe(r)
                                  for j, r in c.items()},
            "phi": lambda phi: tuple((key_of(k), float(c)) for k, c in phi),
        }
        kwargs = {}
        for f in fields(cls):
            if f.name in d:
                value = d[f.name]
                try:
                    kwargs[f.name] = convert.get(f.name, lambda v: v)(value)
                except (TypeError, ValueError, AttributeError):
                    raise ValidationError(
                        f"simulation config field {f.name!r} cannot be "
                        f"{value!r}") from None
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ValidationError(
                    f"simulation config needs the field {f.name!r}")
        return cls(**kwargs)


def _typed_recipe(recipe):
    """recipe as given, once each value in it converts to its type
    (RECIPE_VALUES); a recipe that is no object, or lacks a value, is left
    for :func:`check_config` to name."""
    if isinstance(recipe, dict):
        for key in RECIPE_VALUES.keys() & recipe.keys():
            RECIPE_VALUES[key](recipe[key])
    return recipe


def _recipe_width(recipe: dict, config: SimulationConfig) -> int:
    kind = recipe.get("kind")
    if kind == "bern":
        return 2
    if kind == "uniform":
        return int(recipe["k"])
    if kind in ("cond_y", "cond_x"):
        return len(recipe["table"][0])
    if kind == "cond_yx":
        return len(recipe["table"][0][0])
    if kind == "normal":
        return config.bins
    raise ValidationError(f"unknown column recipe kind {kind!r}")


def _check_prob_rows(rows, what):
    arr = np.asarray(rows, dtype=np.float64)
    if arr.min() < 0 or np.any(np.abs(arr.sum(axis=-1) - 1.0) > 1e-8):
        raise ValidationError(f"{what}: rows must be probability vectors")
    return arr


def check_config(config: SimulationConfig) -> None:
    """Raise ValidationError on structural problems, before any sampling."""
    if config.model not in ("nnb", "nlr"):
        raise ValidationError(f"unknown model {config.model!r}")
    if config.n < 2 or config.p < 1:
        raise ValidationError("need n >= 2 nodes and p >= 1 columns")
    if config.r_levels < 2:
        raise ValidationError("need at least 2 response levels")
    if config.model == "nlr" and config.r_levels != 2:
        raise ValidationError("the logistic response model needs R = 2")
    for j in config.columns:
        if not 1 <= j <= config.p:
            raise ValidationError(f"column recipe index {j} outside 1..{config.p}")
    for j in range(1, config.p + 1):
        recipe = config.recipe(j)
        if not isinstance(recipe, dict):
            raise ValidationError(f"column {j}: a recipe must be an object")
        kind = recipe.get("kind")
        for key in RECIPE_FIELDS.get(kind, ()):
            if key not in recipe:
                raise ValidationError(
                    f"column {j}: a {kind} recipe needs {key!r}")
        width = _recipe_width(recipe, config)
        if width < 1:
            raise ValidationError(f"column {j} has no levels")
        if kind in ("cond_y", "cond_yx") and config.model == "nlr":
            raise ValidationError(
                f"column {j} conditions on the response, which the "
                "logistic model generates last")
        if kind in ("cond_y", "cond_yx", "cond_x"):
            # table rows are indexed by the response, the parent's level,
            # or both, and hold the column's level probabilities
            want = (config.r_levels,) if kind != "cond_x" else ()
            if kind != "cond_y":
                parent = int(recipe["parent"])
                if not 1 <= parent < j:
                    raise ValidationError(f"column {j} needs a parent with "
                                          f"smaller index, got {parent}")
                want += (config.column_width(parent),)
            want += (width,)
            table = np.asarray(recipe["table"], dtype=np.float64)
            if table.shape != want:
                raise ValidationError(
                    f"column {j} table shape {table.shape} != {want}")
            _check_prob_rows(table, f"column {j}")
        elif kind == "bern":
            if not 0.0 <= float(recipe["p"]) <= 1.0:
                raise ValidationError(f"column {j}: p outside [0, 1]")
        elif kind == "normal":
            mu = recipe["mu"]
            if isinstance(mu, (list, tuple)):
                if config.model == "nlr":
                    raise ValidationError(
                        f"column {j}: per-response means need the nnb model")
                if len(mu) != config.r_levels:
                    raise ValidationError(
                        f"column {j}: need one mean per response level")
            if not float(recipe["sigma"]) > 0:
                raise ValidationError(f"column {j}: sigma must be positive")
    if config.model == "nlr":
        if config.response.get("kind") != "logistic":
            raise ValidationError("the nlr model needs a logistic response")
        if not config.response.get("terms"):
            raise ValidationError("the logistic response needs terms")
        for cols, _ in config.response["terms"]:
            for c in cols:
                if not 1 <= int(c) <= config.p:
                    raise ValidationError(f"response term column {c} out of range")
                if config.column_width(int(c)) != 2:
                    raise ValidationError(
                        f"response term column {c} must be 2-level")
    elif config.response.get("kind") != "uniform":
        raise ValidationError("the nnb model needs a uniform response")
    if len(config.phi) > MAX_PHI_TERMS:
        raise ValidationError(f"at most {MAX_PHI_TERMS} phi terms")
    for key, _ in config.phi:
        cols = key if isinstance(key, tuple) else (key,)
        for c in cols:
            if not 1 <= int(c) <= config.p:
                raise ValidationError(f"phi column {c} out of range")
    if config.noise is not None:
        s = float(config.noise.get("s", 0))
        if not 0 < s < 2:
            raise ValidationError("noise exponent s must be in (0, 2)")
        keep, add = noise_rates(config.n, s)
        if not (0 <= keep <= 1 and 0 <= add <= 1):
            raise ValidationError(
                f"noise s={s} at n={config.n} gives keep probability {keep:.4g}"
                f" and add probability {add:.4g}; both must be in [0, 1]")
    if config.bins < 2:
        raise ValidationError("bins must be at least 2")


def _entropy(seed) -> tuple:
    if isinstance(seed, tuple):
        return tuple(int(v) for v in seed)
    return (int(seed),)


def _stream(entropy: tuple, *tail) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy + tail))


def _sample_rows(rng, probs: np.ndarray, row_index: np.ndarray) -> np.ndarray:
    """One level per node: probs[row_index[i]] drives node i. 1-based."""
    cdf = np.cumsum(probs, axis=-1)
    u = rng.random(row_index.shape[0])
    return (u[:, None] > cdf[row_index]).sum(axis=1).astype(np.int32) + 1


def _draw_column(recipe, config, rng, y0, x):
    """(codes 1..K, raw-or-None) for one column; x holds earlier columns."""
    kind = recipe["kind"]
    n = config.n
    if kind == "bern":
        q = float(recipe["p"])
        return (rng.random(n) < q).astype(np.int32) + 1, None
    if kind == "uniform":
        return rng.integers(0, int(recipe["k"]), n).astype(np.int32) + 1, None
    if kind == "cond_y":
        table = np.asarray(recipe["table"], dtype=np.float64)
        return _sample_rows(rng, table, y0), None
    if kind == "cond_yx":
        table = np.asarray(recipe["table"], dtype=np.float64)
        r, pw, width = table.shape
        parent0 = x[:, int(recipe["parent"]) - 1].astype(np.int64) - 1
        return _sample_rows(rng, table.reshape(r * pw, width),
                            y0 * pw + parent0), None
    if kind == "cond_x":
        table = np.asarray(recipe["table"], dtype=np.float64)
        parent0 = x[:, int(recipe["parent"]) - 1].astype(np.int64) - 1
        return _sample_rows(rng, table, parent0), None
    if kind == "normal":
        mu = recipe["mu"]
        if isinstance(mu, (list, tuple)):
            raw = rng.normal(np.asarray(mu, dtype=np.float64)[y0],
                             float(recipe["sigma"]))
        else:
            raw = rng.normal(float(mu), float(recipe["sigma"]), n)
        return discretize(raw, config.bins, config.bin_scheme), raw
    raise ValidationError(f"unknown column recipe kind {kind!r}")


def _draw_columns(config: SimulationConfig, entropy: tuple, y0):
    """(x codes, raw columns) of every column, each from its own stream."""
    x = np.empty((config.n, config.p), dtype=np.int32, order="F")
    raw = {}
    for j in range(1, config.p + 1):
        rng = _stream(entropy, _STREAM_COLUMN, j)
        codes, raw_j = _draw_column(config.recipe(j), config, rng, y0, x)
        x[:, j - 1] = codes
        if raw_j is not None:
            raw[j] = raw_j
    return x, raw


def gen_nnb(config: SimulationConfig, seed=None):
    """Response-first sampler: (y, x codes, raw continuous columns)."""
    check_config(config)
    entropy = _entropy(config.seed if seed is None else seed)
    y0 = _stream(entropy, _STREAM_RESPONSE).integers(
        0, config.r_levels, config.n)
    x, raw = _draw_columns(config, entropy, y0)
    return (y0 + 1).astype(np.int32), x, raw


def gen_nlr(config: SimulationConfig, seed=None):
    """Feature-first sampler with a logistic 2-level response."""
    check_config(config)
    entropy = _entropy(config.seed if seed is None else seed)
    n = config.n
    x, raw = _draw_columns(config, entropy, None)
    logits = np.zeros(n)
    for cols, coef in config.response["terms"]:
        term = np.ones(n)
        for c in cols:
            term = term * (x[:, int(c) - 1] - 1)
        logits += float(coef) * term
    u = _stream(entropy, _STREAM_RESPONSE).random(n)
    y = (u < expit(logits)).astype(np.int32) + 1
    return y, x, raw


def gen_network(y, x, config: SimulationConfig, seed=None) -> np.ndarray:
    """Directed edges (E, 2), 1-based, one Bernoulli draw per ordered pair.

    Each pair's agreement code (bit 0: same response, bit i: phi term i
    agrees) indexes a table of link probabilities, and the pair is linked
    when its uniform falls below its entry. The uniforms are one stream
    over the n(n-1) loop-free pairs in source-row order, drawn in chunks of
    BLOCK_TARGET_PAIRS. A uniform at or above the table's largest entry
    links no pair, so only the pairs below it (a few percent in the
    designs) are decoded, coded and compared with their own entry. That is
    the same float comparison on the same uniform as coding every pair, so
    neither the candidate step nor the chunk size changes the edges.
    """
    entropy = _entropy(config.seed if seed is None else seed)
    rng = _stream(entropy, _STREAM_NETWORK)
    y = np.asarray(y)
    n = y.shape[0]
    decay = config.gamma * math.log(n)
    w_same = math.log(config.base_odds_same) - decay
    w_diff = math.log(config.base_odds_diff) - decay
    terms = [[x[:, int(c) - 1] for c in (key if isinstance(key, tuple)
                                         else (key,))]
             for key, _ in config.phi]
    table_codes = np.arange(2 << len(terms))
    # sum each code's logit term by term, in the order of the pairwise
    # formula, so every table entry is the float that formula gives
    logit = np.where((table_codes & 1) == 1, w_same, w_diff)
    for i, (_, coef) in enumerate(config.phi):
        bit = ((table_codes >> (i + 1)) & 1).astype(bool)
        logit = logit + float(coef) * bit
    prob = expit(logit)
    top = prob.max()

    pairs = n * (n - 1)
    u = np.empty(min(pairs, BLOCK_TARGET_PAIRS))
    links = []
    for lo in range(0, pairs, u.size):
        block = u[:min(u.size, pairs - lo)]
        rng.random(out=block)
        cand = np.flatnonzero(block < top)
        s0, t0 = _pair_nodes(lo + cand, n)
        code = (y[s0] == y[t0]).astype(np.int64)
        for i, cols in enumerate(terms):
            agree = np.ones(cand.size, dtype=bool)
            for col in cols:
                agree &= col[s0] == col[t0]
            code |= agree << (i + 1)
        link = block[cand] < prob[code]
        links.append(lo + cand[link])
    return _pair_edges(np.concatenate(links), n)


def _pair_nodes(codes: np.ndarray, n: int):
    """0-based (s, t) of ordered-pair codes s * (n - 1) + t - (t > s),
    which number the n(n-1) loop-free pairs 0, 1, ... in source-row order."""
    s0, rem = np.divmod(codes, n - 1)
    return s0, rem + (rem >= s0)


def _pair_edges(codes: np.ndarray, n: int) -> np.ndarray:
    """1-based (src, dst) rows of ordered-pair codes; see _pair_nodes."""
    return np.column_stack(_pair_nodes(codes, n)) + 1


def noise_rates(n: int, s: float) -> tuple[float, float]:
    """(keep probability for links, add probability for absent pairs)."""
    return 1.0 - n ** (s - 1.0), 10.0 * n ** (s - 2.0)


def perturb_network(edges, n: int, keep_prob: float, add_prob: float,
                    seed=None) -> np.ndarray:
    """Drop each link w.p. 1-keep_prob; add each absent ordered pair w.p.
    add_prob. Returns the rewired edge list, 1-based."""
    entropy = _entropy(0 if seed is None else seed)
    rng = _stream(entropy, _STREAM_NOISE)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    kept = edges[rng.random(edges.shape[0]) < keep_prob]

    src0, dst0 = edges[:, 0] - 1, edges[:, 1] - 1
    codes = np.sort(src0 * (n - 1) + dst0 - (dst0 > src0))
    first = np.ones(codes.size, dtype=bool)
    first[1:] = codes[1:] != codes[:-1]
    codes = codes[first]
    n_absent = n * (n - 1) - codes.size
    m = rng.binomial(n_absent, add_prob)
    k = rng.choice(n_absent, size=m, replace=False)
    # the k-th absent code skips every present code at or below it
    picked = k + np.searchsorted(codes - np.arange(codes.size), k,
                                 side="right")
    return np.concatenate([kept, _pair_edges(picked, n)], axis=0)


def generate(config: SimulationConfig, seed=None):
    """Sample one dataset: (validated NodeDataset, extras).

    extras carries "raw" (dict of continuous columns before binning) and
    "true_features". seed overrides config.seed; a tuple seed opens a
    distinct stream family, which the replication harness uses. The
    sampler (gen_nnb or gen_nlr) checks the config before any draw.
    """
    seed = config.seed if seed is None else seed
    y, x, raw = (gen_nnb if config.model == "nnb" else gen_nlr)(config, seed)
    entropy = _entropy(seed)
    edges = gen_network(y, x, config, entropy)
    if config.noise is not None:
        keep, add = noise_rates(config.n, float(config.noise["s"]))
        edges = perturb_network(edges, config.n, keep, add, entropy)
    widths = np.asarray([config.column_width(j)
                         for j in range(1, config.p + 1)], dtype=np.int64)
    dataset = validate(NodeDataset(y, x, edges, r_levels=config.r_levels,
                                   k_levels=widths))
    return dataset, {"raw": raw, "true_features": config.true_features()}


def _exp_tilted(k: int) -> list[float]:
    w = [math.exp(i) for i in range(k)]
    z = sum(w)
    return [v / z for v in w]


def example_config(example, n: int = 300, p: int = 400, model: str | None = None,
                   seed: int = 0) -> SimulationConfig:
    """Ready-made configs 1..9 spanning the designed scenarios.

    1  two response-related and two network-related binary features
    2  the response-related features also drive the network
    3  interaction signal in both the response and the network
    4  decoy features correlated with the true ones
    5  setting 1 observed through a noisy network
    6  4-level features
    7  4-level response
    8  continuous features, quantile-binned
    9  logistic response with dependent features

    Examples 1-3 accept model "nnb" (default) or "nlr"; 4-8 are nnb only and
    9 is nlr only.
    """
    ex = str(example).lower().lstrip("ex")
    if ex not in {str(i) for i in range(1, 10)}:
        raise ValidationError(f"unknown example {example!r}")
    ex = int(ex)
    if model is None:
        model = "nlr" if ex == 9 else "nnb"
    if model not in ("nnb", "nlr"):
        raise ValidationError(f"unknown model {model!r}")
    if model == "nlr" and ex in (4, 5, 6, 7, 8):
        raise ValidationError(f"example {ex} is defined for the nnb model")
    if model == "nnb" and ex == 9:
        raise ValidationError("example 9 is defined for the nlr model")

    def cond_y(*level2_prob_per_r):
        return {"kind": "cond_y",
                "table": [[1.0 - q, q] for q in level2_prob_per_r]}

    name = f"ex{ex}"
    phi_net = ((3, 0.4), (4, 0.4))
    base = dict(name=name, model=model, n=n, p=p, seed=seed)

    if ex in (1, 2, 5):
        if model == "nnb":
            cols = {1: cond_y(0.2, 0.9), 2: cond_y(0.9, 0.4),
                    3: cond_y(0.4, 0.4), 4: cond_y(0.5, 0.5)}
            default = {"kind": "bern", "p": 0.2}
            response = {"kind": "uniform"}
        else:
            cols = {}
            default = {"kind": "bern", "p": 0.5}
            response = {"kind": "logistic",
                        "terms": [[[1], -4.0], [[2], 4.0]]}
        phi = (tuple((j, 0.4) for j in (1, 2, 3, 4)) if ex == 2 else phi_net)
        s_a = FeatureSet((1, 2, 3, 4)) if ex == 2 else FeatureSet((3, 4))
        return SimulationConfig(
            **base, columns=cols, default_column=default, response=response,
            s_y=FeatureSet((1, 2)), s_a=s_a, phi=phi,
            noise={"s": 0.4} if ex == 5 else None)

    if ex == 3:
        if model == "nnb":
            cols = {
                1: cond_y(0.2, 0.9),
                2: {"kind": "cond_yx", "parent": 1,
                    "table": [[[0.5, 0.5], [0.5, 0.5]],
                              [[0.8, 0.2], [0.3, 0.7]]]},
                3: cond_y(0.4, 0.4),
                4: {"kind": "cond_yx", "parent": 3,
                    "table": [[[0.9, 0.1], [0.1, 0.9]],
                              [[0.8, 0.2], [0.2, 0.8]]]},
            }
            default = {"kind": "bern", "p": 0.2}
            response = {"kind": "uniform"}
        else:
            cols = {}
            default = {"kind": "bern", "p": 0.5}
            response = {"kind": "logistic",
                        "terms": [[[1], 3.0], [[1, 2], 4.0]]}
        return SimulationConfig(
            **base, columns=cols, default_column=default, response=response,
            s_y=FeatureSet((1,), ((1, 2),)),
            s_a=FeatureSet((3, 4), ((3, 4),)),
            phi=((3, 0.2), (4, 0.2), ((3, 4), 0.2)))

    if ex == 4:
        cols = {1: cond_y(0.3, 0.9), 2: cond_y(0.8, 0.3),
                3: cond_y(0.5, 0.5), 4: cond_y(0.6, 0.6),
                5: {"kind": "cond_x", "parent": 2,
                    "table": [[0.3, 0.7], [0.7, 0.3]]},
                6: {"kind": "cond_x", "parent": 3,
                    "table": [[0.2, 0.8], [0.8, 0.2]]}}
        return SimulationConfig(
            **base, columns=cols, s_y=FeatureSet((1, 2)),
            s_a=FeatureSet((3, 4)), phi=phi_net)

    if ex == 6:
        tilted = _exp_tilted(4)
        flat = [0.25] * 4
        cols = {1: {"kind": "cond_y", "table": [flat, tilted]},
                2: {"kind": "cond_y", "table": [tilted, flat]},
                3: {"kind": "uniform", "k": 4},
                4: {"kind": "uniform", "k": 4}}
        return SimulationConfig(
            **base, columns=cols, default_column={"kind": "uniform", "k": 4},
            s_y=FeatureSet((1, 2)), s_a=FeatureSet((3, 4)), phi=phi_net)

    if ex == 7:
        up = [math.exp(2 * i) / (1 + math.exp(2 * i)) for i in range(4)]
        cols = {1: cond_y(*up), 2: cond_y(*(1.0 - q for q in up)),
                3: {"kind": "bern", "p": 0.5}, 4: {"kind": "bern", "p": 0.5}}
        return SimulationConfig(
            **base, r_levels=4, columns=cols, s_y=FeatureSet((1, 2)),
            s_a=FeatureSet((3, 4)), phi=phi_net)

    if ex == 8:
        cols = {5: {"kind": "normal", "mu": [-1.0, 1.0],
                    "sigma": math.sqrt(0.5)},
                6: {"kind": "normal", "mu": 0.0, "sigma": 1.0}}
        return SimulationConfig(
            **base, columns=cols,
            default_column={"kind": "normal", "mu": 0.0, "sigma": 1.0},
            s_y=FeatureSet((5,)), s_a=FeatureSet((6,)), phi=((6, 0.4),))

    # ex == 9
    cols = {3: {"kind": "cond_x", "parent": 1,
                "table": [[0.5, 0.5], [0.0, 1.0]]}}
    return SimulationConfig(
        **base, columns=cols, default_column={"kind": "bern", "p": 0.5},
        response={"kind": "logistic", "terms": [[[1], -4.0], [[2], 4.0]]},
        s_y=FeatureSet((1, 2)), s_a=FeatureSet((3, 4)), phi=phi_net)
