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
  {"kind": "normal", "mu": m, "sigma": s}    continuous, stored as
                                             quantile-binned codes; mu is a
                                             number, or a flat list of R
                                             numbers, one per response
                                             level (nnb only)

A SimulationConfig checks itself when it is made. It parses each distinct
recipe object once, at the first column that uses it, and keeps the parse
beside its fields. The samplers read only that parse.

All randomness flows through named SeedSequence streams keyed by (seed,
stream, column), so any column or the network can be regenerated alone and
results never depend on evaluation order. A seed is an int or a tuple of
ints, each a whole number >= 0. The response, network and noise each draw
from default_rng(SeedSequence(...)). The columns draw from the same streams,
but their states are computed for all columns in one vectorized pass
(_keyed_streams), since building p SeedSequences one by one cost more than
drawing from them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, field, fields

import numpy as np
from scipy.special import expit

from .dataset import (CODE_MAX, FeatureSet, NodeDataset, discretize,
                      seed_entropy, validate, whole)
from .errors import ValidationError

_STREAM_RESPONSE = 1
_STREAM_COLUMN = 2
_STREAM_NETWORK = 3
_STREAM_NOISE = 4
# SeedSequence's constants (numpy/random/bit_generator.pyx) and PCG64's
# multiplier (numpy/random/src/pcg64/pcg64.h), for _keyed_streams
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_PCG64_MULT = 0x2360ed051fc65da44385df649fccf645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1

BLOCK_TARGET_PAIRS = 250_000  # soft cap on ordered pairs per network block
MAX_PHI_TERMS = 20  # the link table has 2^(terms + 1) entries
RECIPE_FIELDS = {"bern": ("p",), "uniform": ("k",), "cond_y": ("table",),
                 "cond_yx": ("parent", "table"), "cond_x": ("parent", "table"),
                 "normal": ("mu", "sigma")}
# the conversion of each recipe value but the whole numbers k and parent
RECIPE_VALUES = {"p": float, "sigma": float,
                 "mu": lambda mu: np.asarray(mu, dtype=np.float64),
                 "table": lambda table: np.asarray(table, dtype=np.float64)}


@dataclass(frozen=True, eq=False)
class SimulationConfig:
    """Complete description of one synthetic setting, checked when made.

    A made config holds ints in n, p, r_levels, bins and seed, and floats in
    gamma and the base odds. Its parse sits in the fields after seed:
    recipes[j - 1] is column j's (kind, width, converted values), one tuple
    per recipe object; widths holds every column's level count; terms (the
    logistic response) and phi_terms hold ((0-based column ids), float
    coefficient); noise_rates is (keep, add) or None. The samplers read only
    these. Recipe values stay as given, so to_dict echoes them.

    Editing a made config's dicts in place is not seen by the parse; use
    dataclasses.replace to change a config, which checks it again.
    """

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
    recipes: tuple = field(init=False, repr=False)
    widths: np.ndarray = field(init=False, repr=False)
    terms: tuple = field(init=False, repr=False)
    phi_terms: tuple = field(init=False, repr=False)
    noise_rates: tuple | None = field(init=False, repr=False)

    def __post_init__(self):
        """Check every field and store the parse, or raise ValidationError
        naming what is wrong."""
        def put(**values):
            for name, value in values.items():
                object.__setattr__(self, name, value)

        put(n=whole(self.n, "n"), p=whole(self.p, "p"),
            r_levels=whole(self.r_levels, "r_levels"),
            bins=whole(self.bins, "bins"), seed=seed_entropy((self.seed,))[0])
        if self.model not in ("nnb", "nlr"):
            raise ValidationError(f"unknown model {self.model!r}")
        if self.n < 2 or self.p < 1:
            raise ValidationError("need n >= 2 nodes and p >= 1 columns")
        if self.r_levels < 2:
            raise ValidationError("need at least 2 response levels")
        if self.model == "nlr" and self.r_levels != 2:
            raise ValidationError("the logistic response model needs R = 2")
        if not isinstance(self.response, dict):
            raise ValidationError("the response must be an object")
        if self.noise is not None and not isinstance(self.noise, dict):
            raise ValidationError("noise must be an object")
        for j in self.columns:
            if not 1 <= whole(j, "a column recipe index") <= self.p:
                raise ValidationError(
                    f"column recipe index {j} outside 1..{self.p}")
        for role, ids in (("s_y", self.s_y), ("s_a", self.s_a)):
            for c in ids.mains + sum(ids.pairs, ()):
                if not 1 <= c <= self.p:
                    raise ValidationError(
                        f"{role} column {c} outside 1..{self.p}")
        parsed, recipes = {}, []  # parsed: id(recipe) -> its parse
        for j in range(1, self.p + 1):
            recipe = self.columns.get(j, self.default_column)
            if id(recipe) not in parsed:
                parsed[id(recipe)] = _parse_recipe(recipe, j, self, recipes)
            recipes.append(parsed[id(recipe)])
        widths = np.array([width for _, width, _ in recipes], dtype=np.int64)
        widths.flags.writeable = False
        terms = ()
        if self.model == "nlr":
            if self.response.get("kind") != "logistic":
                raise ValidationError("the nlr model needs a logistic response")
            if not self.response.get("terms"):
                raise ValidationError("the logistic response needs terms")
            terms = _logistic_terms(self.response["terms"], widths)
        elif self.response.get("kind") != "uniform":
            raise ValidationError("the nnb model needs a uniform response")
        if len(self.phi) > MAX_PHI_TERMS:
            raise ValidationError(f"at most {MAX_PHI_TERMS} phi terms")
        phi_terms = []
        for key, coef in self.phi:
            cols = [whole(c, "a phi column")
                    for c in (key if isinstance(key, tuple) else (key,))]
            for c in cols:
                if not 1 <= c <= self.p:
                    raise ValidationError(f"phi column {c} out of range")
            phi_terms.append((tuple(c - 1 for c in cols),
                              _finite(coef, "a phi coefficient")))
        put(gamma=_finite(self.gamma, "gamma"),
            **{name: _finite(getattr(self, name), name, positive=True)
               for name in ("base_odds_same", "base_odds_diff")})
        noise = None
        if self.noise is not None:
            s = _finite(self.noise.get("s", 0), "noise exponent s")
            if not 0 < s < 2:
                raise ValidationError("noise exponent s must be in (0, 2)")
            keep, add = noise = noise_rates(self.n, s)
            if not (0 <= keep <= 1 and 0 <= add <= 1):
                raise ValidationError(
                    f"noise s={s} at n={self.n} gives keep probability "
                    f"{keep:.4g} and add probability {add:.4g}; both must be "
                    "in [0, 1]")
        if self.bins < 2:
            raise ValidationError("bins must be at least 2")
        put(recipes=tuple(recipes), widths=widths, terms=terms,
            phi_terms=tuple(phi_terms), noise_rates=noise)

    def true_features(self) -> FeatureSet:
        mains = sorted(set(self.s_y.mains) | set(self.s_a.mains))
        pairs = sorted(set(self.s_y.pairs) | set(self.s_a.pairs))
        return FeatureSet(tuple(mains), tuple(pairs))

    def to_dict(self) -> dict:
        return {
            "name": self.name, "model": self.model,
            "n": self.n, "p": self.p, "r_levels": self.r_levels,
            "columns": {str(j): r for j, r in sorted(self.columns.items())},
            "default_column": self.default_column,
            "response": self.response,
            "s_y": list(self.s_y.keys()), "s_a": list(self.s_a.keys()),
            "phi": [["&".join(str(c + 1) for c in cols), coef]
                    for cols, coef in self.phi_terms],
            "gamma": self.gamma,
            "base_odds_same": self.base_odds_same,
            "base_odds_diff": self.base_odds_diff,
            "noise": self.noise, "bins": self.bins,
            "bin_scheme": self.bin_scheme, "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SimulationConfig":
        """The config of a to_dict-shaped mapping; an absent optional field
        takes its dataclass default. Only JSON's shapes are converted here:
        string column ids and phi keys ("j" or "j&k") to ints, and key lists
        to FeatureSets. The values are checked as the config is made."""
        if not isinstance(d, dict):
            raise ValidationError("a simulation config must be a JSON object")

        def key_of(s):  # a number is left to the checks
            if not isinstance(s, str):
                return s
            ids = tuple(int(c) for c in s.split("&"))
            return ids if len(ids) > 1 else ids[0]

        convert = {
            "s_y": FeatureSet.from_keys,
            "s_a": FeatureSet.from_keys,
            "columns": lambda c: {int(j): r for j, r in c.items()},
            "phi": lambda phi: tuple((key_of(k), c) for k, c in phi),
        }
        kwargs = {}
        for f in fields(cls):
            if not f.init:  # the parse, made with the config
                continue
            if f.name in d:
                value = d[f.name]
                try:
                    kwargs[f.name] = convert.get(f.name, lambda v: v)(value)
                except ValidationError:  # it names the id at fault
                    raise
                except (TypeError, ValueError, AttributeError):
                    raise ValidationError(
                        f"simulation config field {f.name!r} cannot be "
                        f"{value!r}") from None
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ValidationError(
                    f"simulation config needs the field {f.name!r}")
        return cls(**kwargs)


def _parse_recipe(recipe, j: int, config: SimulationConfig, earlier: list):
    """(kind, width, converted values) of a recipe whose first column is j;
    earlier holds the parses of columns 1..j-1."""
    if not isinstance(recipe, dict):
        raise ValidationError(f"column {j}: a recipe must be an object")
    kind = recipe.get("kind")
    if kind not in RECIPE_FIELDS:
        raise ValidationError(f"unknown column recipe kind {kind!r}")
    values = {}
    for key in RECIPE_FIELDS[kind]:
        if key not in recipe:
            raise ValidationError(f"column {j}: a {kind} recipe needs {key!r}")
        value = recipe[key]
        if key not in RECIPE_VALUES:  # k or parent
            values[key] = whole(value, f"column {j}: {key}")
            continue
        try:
            values[key] = RECIPE_VALUES[key](value)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(
                f"column {j}: {key} cannot be {value!r}") from None
    width = {"bern": 2, "uniform": values.get("k"),
             "normal": config.bins}.get(kind)
    if width is None:  # a table's last axis holds the level probabilities
        width = values["table"].shape[-1] if values["table"].ndim else 0
    if width < 1:
        raise ValidationError(f"column {j} has no levels")
    if width > CODE_MAX:
        raise ValidationError(f"column {j} has {width} levels, above {CODE_MAX}")
    if kind in ("cond_y", "cond_yx") and config.model == "nlr":
        raise ValidationError(
            f"column {j} conditions on the response, which the "
            "logistic model generates last")
    if kind in ("cond_y", "cond_yx", "cond_x"):
        # table rows are indexed by the response, the parent's level,
        # or both, and hold the column's level probabilities
        want = (config.r_levels,) if kind != "cond_x" else ()
        if kind != "cond_y":
            parent = values["parent"]
            if not 1 <= parent < j:
                raise ValidationError(f"column {j} needs a parent with "
                                      f"smaller index, got {parent}")
            want += (earlier[parent - 1][1],)
        want, table = want + (width,), values["table"]
        if table.shape != want:
            raise ValidationError(
                f"column {j} table shape {table.shape} != {want}")
        # written to fail on NaN, which every comparison calls false
        if not (table.min() >= 0
                and np.all(np.abs(table.sum(axis=-1) - 1.0) <= 1e-8)):
            raise ValidationError(
                f"column {j}: rows must be probability vectors")
    elif kind == "bern" and not 0.0 <= values["p"] <= 1.0:
        raise ValidationError(f"column {j}: p outside [0, 1]")
    elif kind == "normal":
        mu = values["mu"]
        if mu.ndim and config.model == "nlr":
            raise ValidationError(
                f"column {j}: per-response means need the nnb model")
        if mu.ndim and mu.shape != (config.r_levels,):
            raise ValidationError(
                f"column {j}: need one mean per response level")
        if not values["sigma"] > 0:
            raise ValidationError(f"column {j}: sigma must be positive")
    return kind, width, values


def _finite(value, what: str, positive: bool = False) -> float:
    """value as a float, refused unless it is a finite number (and
    positive, if asked)."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value)
            and (value > 0 or not positive)):
        raise ValidationError(f"{what} must be a finite "
                              f"{'positive ' * positive}number, not {value!r}")
    return float(value)


def _logistic_terms(terms, widths: np.ndarray) -> tuple:
    """Logistic response terms as ((0-based column ids), coefficient)."""
    try:  # whole()'s ValidationError is a ValueError
        parsed = tuple((tuple(whole(c, "a term column") - 1 for c in cols),
                        float(coef)) for cols, coef in terms)
    except (TypeError, ValueError):
        raise ValidationError("response terms must be [column ids, number] "
                              f"pairs, not {terms!r}") from None
    for (cols, _), (ids, _) in zip(terms, parsed):
        for c, i in zip(cols, ids):
            if not 0 <= i < widths.size:
                raise ValidationError(f"response term column {c} out of range")
            if widths[i] != 2:
                raise ValidationError(
                    f"response term column {c} must be 2-level")
    return parsed


def _stream(entropy: tuple, *tail) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy + tail))


def _keyed_streams(prefix: tuple, keys):
    """For each key in turn, a Generator in the state of
    ``default_rng(SeedSequence(prefix + (key,)))``, seeded for all keys in
    one vectorized pass.

    prefix holds ints >= 0; every key must lie in [0, 2^32), one entropy
    word. This restates numpy's seeding, which its stream-compatibility
    policy (NEP 19) keeps fixed:
      - SeedSequence's word split (``_int_to_uint32_array``), pool mixing
        (``mix_entropy``) and ``generate_state(4, uint64)`` from
        numpy/random/bit_generator.pyx, run on arrays with one entry per
        key, and
      - PCG64's seeding (``pcg_setseq_128_srandom_r`` in
        numpy/random/src/pcg64/pcg64.h): inc = initseq << 1 | 1 and
        state = ((inc + initstate) * MULT + inc) mod 2^128.
    Each state goes in through ``PCG64.state`` with no buffered 32-bit
    half (has_uint32 = 0, uinteger = 0), as a fresh PCG64 starts.

    Every key gets the same Generator object, reset to that key's state, so
    a stream must be drawn completely before the next one is requested.
    """
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size and not 0 <= keys.min() <= keys.max() < 1 << 32:
        raise ValueError("stream keys must lie in [0, 2^32)")
    words = [np.full(keys.size, w, dtype=np.uint32)
             for v in prefix for w in _uint32_words(v)]
    words.append(keys.astype(np.uint32))
    hashmix = _hash_chain(_INIT_A, _MULT_A)

    def mix(x, y):
        out = _MIX_MULT_L * x - _MIX_MULT_R * y
        return out ^ out >> 16

    zeros = np.zeros(keys.size, dtype=np.uint32)
    pool = [hashmix(words[i] if i < len(words) else zeros)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state hashes the pool cyclically into 8 uint32 words
    hash_out = _hash_chain(_INIT_B, _MULT_B)
    state32 = [hash_out(pool[i % _POOL_SIZE]).astype(np.uint64)
               for i in range(8)]
    # uint32 words pair little-endian into (initstate hi, lo, initseq hi, lo)
    seeds = np.column_stack([state32[i] | state32[i + 1] << 32
                             for i in range(0, 8, 2)]).tolist()
    bit_gen = np.random.PCG64(0)
    rng = np.random.Generator(bit_gen)
    for s_hi, s_lo, q_hi, q_lo in seeds:
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        bit_gen.state = {"bit_generator": "PCG64",
                         "state": {"state": state, "inc": inc},
                         "has_uint32": 0, "uinteger": 0}
        yield rng


def _hash_chain(const: int, mult: int):
    """SeedSequence's hashmix: each call xors in the hash constant, steps it
    (const * mult mod 2^32), multiplies by it and xor-shifts by 16."""

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ value >> 16

    return hashmix


def _uint32_words(value: int) -> list[int]:
    """value's little-endian 32-bit words; 0 is one word."""
    words = [value & _MASK32]
    while value >> 32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _sample_rows(rng, probs: np.ndarray, row_index: np.ndarray) -> np.ndarray:
    """One level per node: probs[row_index[i]] drives node i. 1-based."""
    cdf = np.cumsum(probs, axis=-1)
    u = rng.random(row_index.shape[0])
    return (u[:, None] > cdf[row_index]).sum(axis=1).astype(np.int32) + 1


def _draw_column(recipe, config, rng, y0, x):
    """(codes 1..K, raw-or-None) for one column from its parsed recipe; x
    holds earlier columns."""
    kind, _, v = recipe
    n = config.n
    if kind == "bern":
        return (rng.random(n) < v["p"]).astype(np.int32) + 1, None
    if kind == "uniform":
        return rng.integers(0, v["k"], n).astype(np.int32) + 1, None
    if kind == "cond_y":
        return _sample_rows(rng, v["table"], y0), None
    if kind == "cond_yx":
        r, pw, width = v["table"].shape
        parent0 = x[:, v["parent"] - 1].astype(np.int64) - 1
        return _sample_rows(rng, v["table"].reshape(r * pw, width),
                            y0 * pw + parent0), None
    if kind == "cond_x":
        parent0 = x[:, v["parent"] - 1].astype(np.int64) - 1
        return _sample_rows(rng, v["table"], parent0), None
    # "normal", the one kind left
    mu = v["mu"]
    raw = (rng.normal(mu[y0], v["sigma"]) if mu.ndim
           else rng.normal(mu, v["sigma"], n))
    return discretize(raw, config.bins, config.bin_scheme), raw


def _draw_columns(config: SimulationConfig, entropy: tuple, y0):
    """(x codes, raw columns) of every column, each from its own stream."""
    x = np.empty((config.n, config.p), dtype=np.int32, order="F")
    raw = {}
    streams = _keyed_streams(entropy + (_STREAM_COLUMN,),
                             range(1, config.p + 1))
    for j, (recipe, rng) in enumerate(zip(config.recipes, streams), 1):
        codes, raw_j = _draw_column(recipe, config, rng, y0, x)
        x[:, j - 1] = codes
        if raw_j is not None:
            raw[j] = raw_j
    return x, raw


def gen_nnb(config: SimulationConfig, seed=None):
    """Response-first sampler: (y, x codes, raw continuous columns)."""
    entropy = seed_entropy(config.seed if seed is None else seed)
    y0 = _stream(entropy, _STREAM_RESPONSE).integers(
        0, config.r_levels, config.n)
    x, raw = _draw_columns(config, entropy, y0)
    return (y0 + 1).astype(np.int32), x, raw


def gen_nlr(config: SimulationConfig, seed=None):
    """Feature-first sampler with a logistic 2-level response."""
    entropy = seed_entropy(config.seed if seed is None else seed)
    n = config.n
    x, raw = _draw_columns(config, entropy, None)
    logits = np.zeros(n)
    for cols, coef in config.terms:
        term = np.ones(n)
        for c in cols:
            term = term * (x[:, c] - 1)
        logits += coef * term
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
    entropy = seed_entropy(config.seed if seed is None else seed)
    rng = _stream(entropy, _STREAM_NETWORK)
    y = np.asarray(y)
    n = y.shape[0]
    decay = config.gamma * math.log(n)
    w_same = math.log(config.base_odds_same) - decay
    w_diff = math.log(config.base_odds_diff) - decay
    terms = [[x[:, c] for c in cols] for cols, _ in config.phi_terms]
    table_codes = np.arange(2 << len(terms))
    # sum each code's logit term by term, in the order of the pairwise
    # formula, so every table entry is the float that formula gives
    logit = np.where((table_codes & 1) == 1, w_same, w_diff)
    for i, (_, coef) in enumerate(config.phi_terms):
        bit = ((table_codes >> (i + 1)) & 1).astype(bool)
        logit = logit + coef * bit
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
    entropy = seed_entropy(0 if seed is None else seed)
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
    distinct stream family, which the replication harness uses.
    """
    seed = config.seed if seed is None else seed
    y, x, raw = (gen_nnb if config.model == "nnb" else gen_nlr)(config, seed)
    entropy = seed_entropy(seed)
    edges = gen_network(y, x, config, entropy)
    if config.noise_rates is not None:
        edges = perturb_network(edges, config.n, *config.noise_rates, entropy)
    dataset = validate(NodeDataset(y, x, edges, r_levels=config.r_levels,
                                   k_levels=config.widths))
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
