"""Validated dataset container and feature-set bookkeeping.

All public indices are 1-based: response levels are 1..R, feature levels in
column j are 1..K_j, node ids and column ids count from 1. Internal helpers
use 0-based views where that makes the array math direct.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .counts import Network
from .errors import ValidationError

CODE_MAX = np.iinfo(np.int32).max  # every column's codes fit int32


@dataclass(frozen=True)
class FeatureSet:
    """Ordered set of main-effect columns plus (j, k) interaction pairs.

    Mains are 1-based column indices; pairs satisfy j < k. The string key of
    a main is "j", of a pair "j&k".
    """

    mains: tuple[int, ...] = ()
    pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        mains = tuple(whole(j, "a feature id") for j in self.mains)
        pairs = tuple((whole(j, "a pair id"), whole(k, "a pair id"))
                      for j, k in self.pairs)
        if len(set(mains)) != len(mains) or len(set(pairs)) != len(pairs):
            raise ValidationError("duplicate entries in feature set")
        for j, k in pairs:
            if not j < k:
                raise ValidationError(f"interaction pair ({j},{k}) must have j < k")
        object.__setattr__(self, "mains", mains)
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def from_keys(cls, keys) -> "FeatureSet":
        mains, pairs = [], []
        for key in keys:
            try:
                if isinstance(key, str) and "&" in key:
                    j, k = key.split("&")
                    pairs.append((int(j), int(k)))
                elif isinstance(key, tuple):
                    pairs.append(key)
                else:
                    mains.append(int(key) if isinstance(key, str) else key)
            except (TypeError, ValueError) as err:
                raise ValidationError(
                    f"malformed feature key {key!r}; use j or j&k") from err
        return cls(tuple(mains), tuple(pairs))

    def keys(self) -> tuple[str, ...]:
        return tuple(str(j) for j in self.mains) + tuple(
            f"{j}&{k}" for j, k in self.pairs)

    def __len__(self) -> int:
        return len(self.mains) + len(self.pairs)

    def __contains__(self, item) -> bool:
        if isinstance(item, str):
            return item in self.keys()
        if isinstance(item, tuple):
            return tuple(whole(j, "a pair id") for j in item) in self.pairs
        return whole(item, "a feature id") in self.mains


class NodeDataset:
    """Response vector, categorical feature matrix, directed adjacency.

    Construct with raw arrays and call :func:`validate` to obtain the
    canonical instance used by every statistic. Validated datasets are
    immutable (arrays are write-protected) and safe to share across workers.

    Attributes
    ----------
    y : (n,) int array, response levels 1..R
    x : (n, s) int array of the stored columns, column j holding levels
        1..K_j, column-contiguous; expansion shares it with its parent
    edges : (E, 2) int array of ordered node pairs (src, dst), 1-based,
        lexicographically sorted, deduplicated, no self-loops
    r_levels : level count R
    k_levels : (p,) per-column level counts K_j, composites included
    feature_names : optional tuple of p column names
    composite_pairs : mapping from each composite column id, s+1..p, to
        its stored source pair (j, k); a composite (added by interaction
        expansion) is only this entry, and :func:`column_codes` builds its
        codes from the sources
    network : the read-only counts.Network of the 0-based responses and
        edge endpoints, set by :func:`seal`
    """

    def __init__(self, y, x, edges, feature_names=None, r_levels=None,
                 k_levels=None, composite_pairs=None):
        self.y = np.asarray(y)
        self.x = np.asarray(x)
        self.edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self.feature_names = (
            tuple(feature_names) if feature_names is not None else None)
        self.r_levels = r_levels
        self.k_levels = k_levels  # validate makes it an int64 array
        self.composite_pairs = dict(composite_pairs or {})
        self._validated = False

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1] + len(self.composite_pairs)

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    def column(self, j: int) -> np.ndarray:
        """Levels of column j (1-based), values 1..K_j, as int64."""
        return column_codes(self, [j])[:, 0]


def validate(dataset: NodeDataset) -> NodeDataset:
    """Check all invariants and return the canonical immutable dataset.

    Idempotent: a validated dataset is returned unchanged. Raises
    :class:`ValidationError` naming the offending node or column.
    """
    if getattr(dataset, "_validated", False):
        return dataset

    y = np.asarray(dataset.y)
    if y.ndim != 1 or y.shape[0] == 0:
        raise ValidationError("response vector must be 1-d and non-empty")
    if not np.issubdtype(y.dtype, np.integer):
        if not np.all(np.isfinite(y) & (y == np.floor(y))):
            raise ValidationError("response labels must be integers")
    n = y.shape[0]
    if y.min() < 1 or y.max() > CODE_MAX:
        bad = int(np.argmin(y) if y.min() < 1 else np.argmax(y)) + 1
        raise ValidationError(
            f"response label {int(y[bad - 1])} at node {bad} outside 1..R")
    y = y.astype(np.int32)
    r_obs = int(y.max())
    r_levels = (whole(dataset.r_levels, "r_levels")
                if dataset.r_levels is not None else r_obs)
    if r_levels < r_obs:
        raise ValidationError(
            f"declared level count R={r_levels} below observed maximum {r_obs}")
    if r_levels < 2:
        raise ValidationError("response needs at least 2 levels")

    x = np.asarray(dataset.x)
    if x.ndim != 2 or x.shape[0] != n:
        raise ValidationError("feature matrix must be n x s")
    s = x.shape[1]  # stored columns
    if not np.issubdtype(x.dtype, np.integer):
        integral = np.isfinite(x) & (x == np.floor(x))
        if not integral.all():
            j = int(np.argmin(integral.all(axis=0))) + 1
            raise ValidationError(
                f"feature labels must be integers in column {j}")
    col_min = x.min(axis=0) if s else np.empty(0, np.int32)
    col_max = x.max(axis=0) if s else np.empty(0, np.int32)
    if s and col_min.min() < 1:
        j = int(np.argmin(col_min)) + 1
        raise ValidationError(f"feature label below 1 in column {j}")
    if s and col_max.max() > CODE_MAX:
        j = int(np.argmax(col_max)) + 1
        raise ValidationError(
            f"feature label {int(col_max[j - 1])} in column {j} above {CODE_MAX}")
    x = np.asfortranarray(x, dtype=np.int32)
    p = s + len(dataset.composite_pairs)
    if dataset.k_levels is not None:
        k_levels = np.asarray(dataset.k_levels)
        if k_levels.dtype.kind not in "iu":  # bools, fractions, words
            k_levels = np.reshape([whole(k, "a k_levels entry")
                                   for k in k_levels.ravel().tolist()],
                                  k_levels.shape)
        k_levels = k_levels.astype(np.int64, copy=False)
        if k_levels.shape != (p,):
            raise ValidationError("k_levels length must equal column count")
        if s and np.any(k_levels[:s] < col_max):
            j = int(np.argmax(k_levels[:s] < col_max)) + 1
            raise ValidationError(
                f"declared level count {int(k_levels[j - 1])} in column {j} "
                f"below observed maximum {int(col_max[j - 1])}")
    else:
        k_levels = col_max.astype(np.int64)
    composite, widths = _check_composites(dataset.composite_pairs,
                                          k_levels[:s])
    if dataset.k_levels is None:
        k_levels = np.concatenate([k_levels, widths])
    elif np.any(k_levels[s:] != widths):
        j = s + int(np.argmax(k_levels[s:] != widths)) + 1
        raise ValidationError(
            f"declared level count {k_levels[j - 1]} of composite column {j} "
            "is not K_{} K_{} = {}".format(*composite[j], widths[j - s - 1]))

    edges = np.asarray(dataset.edges, dtype=np.int64).reshape(-1, 2)
    if edges.size:
        if edges.min() < 1 or edges.max() > n:
            k = int(np.argmax((edges < 1) | (edges > n)))
            raise ValidationError(
                f"edge endpoint {int(edges.flat[k])} outside 1..{n}")
        loops = edges[:, 0] == edges[:, 1]
        if loops.any():
            raise ValidationError(
                f"self-loop at node {int(edges[loops][0, 0])}")
        # src * (n + 1) + dst sorts as (src, dst) does; divmod inverts it
        key = edges[:, 0] * (n + 1) + edges[:, 1]
        key.sort()
        edges = np.empty((key.size, 2), dtype=np.int64)
        np.divmod(key, n + 1, out=(edges[:, 0], edges[:, 1]))
        dup = key[1:] == key[:-1]
        if dup.any():
            s, t = edges[1:][dup][0]
            raise ValidationError(f"duplicate edge ({int(s)}, {int(t)})")

    names = dataset.feature_names
    if names is not None and len(names) != p:
        raise ValidationError("feature_names length must equal column count")

    return seal(NodeDataset(y, x, edges, names, r_levels, k_levels,
                            composite),
                Network((y - 1).astype(np.int64), edges[:, 0] - 1,
                        edges[:, 1] - 1, r_levels))


def column_codes(dataset: NodeDataset, cols, rows=slice(None)) -> np.ndarray:
    """(n, B) int64 levels 1..K_j of the 1-based column ids cols, in column
    order, at the nodes rows selects (all by default). The one reader of
    codes: a stored column is gathered from x, and the composite of columns
    a and b is built as (x_a - 1) K_b + x_b."""
    cols = np.asarray(cols, dtype=np.int64)
    x, stored = dataset.x[rows], cols <= dataset.x.shape[1]
    out = np.empty((x.shape[0], cols.size), dtype=np.int64, order="F")
    at = cols[stored] - 1
    if at.size and np.all(np.diff(at) == 1):
        at = slice(at[0], at[-1] + 1)  # a run of ids: a view, not a gather
    out[:, stored] = x[:, at]
    pairs = [dataset.composite_pairs[c] for c in cols[~stored].tolist()]
    a, b = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    out[:, ~stored] = (x[:, a - 1] - 1) * dataset.k_levels[b - 1] + x[:, b - 1]
    return out


def pair_width(a: int, b: int, k_stored) -> int:
    """Width K_a K_b of the composite of stored columns a < b, given the
    stored widths; refused beyond CODE_MAX, so that every composite's codes
    fit int32."""
    if not 1 <= a < b <= len(k_stored):
        raise ValidationError(
            f"interaction pair ({a},{b}) needs stored columns "
            f"1 <= j < k <= {len(k_stored)}")
    width = int(k_stored[a - 1]) * int(k_stored[b - 1])
    if width > CODE_MAX:
        raise ValidationError(
            f"pair ({a},{b}) would have {width} levels, above {CODE_MAX}")
    return width


def _check_composites(composite_pairs, k_stored):
    """(composite_pairs as {column: (j, k)} ints, the widths of columns
    s+1..p), where s = len(k_stored): the map's ids must be exactly those
    trailing ones, and its distinct pairs must pass :func:`pair_width`."""
    try:
        composite = {int(c): (int(a), int(b))
                     for c, (a, b) in composite_pairs.items()}
    except (TypeError, ValueError) as err:
        raise ValidationError(
            "composite_pairs must map column ids to pairs of column ids"
        ) from err
    if len(set(composite.values())) != len(composite):
        raise ValidationError("duplicate composite pair")
    s = len(k_stored)
    p = s + len(composite)
    for col in composite:
        if not 1 <= col <= p:
            raise ValidationError(f"composite column {col} outside 1..{p}")
        if col <= s:
            raise ValidationError(
                f"composite column {col} is not trailing: composites take "
                f"ids {s + 1}..{p}, after the {s} stored columns")
    return composite, np.array([pair_width(*composite[col], k_stored)
                                for col in range(s + 1, p + 1)], np.int64)


def seal(dataset: NodeDataset, network: Network) -> NodeDataset:
    """Mark a dataset whose invariants hold as validated.

    Its y and edges must already be in canonical form (int32 levels, sorted
    int64 edges), x Fortran-ordered int32 and composite_pairs a checked map
    of the trailing ids. The network, of the 0-based views :func:`validate`
    derives from them, is the one derived value a sealed dataset holds; its
    adjacencies are built when a kernel first reads them, never here. Every
    array is made read-only, so an expansion can share y, x, edges and the
    network with its parent.
    """
    dataset.network = network
    for arr in (dataset.y, dataset.x, dataset.edges, network.y0,
                network.src0, network.dst0, dataset.k_levels):
        arr.flags.writeable = False
    dataset._validated = True
    return dataset


def discretize(values, k: int, scheme: str = "normal_quantile") -> np.ndarray:
    """Bin continuous values into levels 1..k, boundaries going to the lower bin.

    normal_quantile cuts at standard normal quantiles i/k; empirical_quantile
    cuts at the sample quantiles of the values themselves.
    """
    v = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ValidationError("cannot discretize non-finite values")
    if k < 2:
        raise ValidationError("need at least 2 bins")
    qs = np.arange(1, k) / k
    if scheme == "normal_quantile":
        edges = ndtri(qs)
    elif scheme == "empirical_quantile":
        edges = np.quantile(v, qs)
    else:
        raise ValidationError(f"unknown discretization scheme {scheme!r}")
    return (np.searchsorted(edges, v, side="left") + 1).astype(np.int32)


def whole(value, name: str, low: int | None = None) -> int:
    """value as an int, refused unless it is a whole number, not a bool,
    and at least low when low is given. A whole float such as 3.0 gives 3;
    int() would truncate a fraction without a word."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or value % 1  # NaN and infinities leave a NaN remainder
            or (low is not None and value < low)):
        bound = "" if low is None else f" >= {low}"
        raise ValidationError(
            f"{name} must be a whole number{bound}, not {value!r}")
    return int(value)


def seed_entropy(seed) -> tuple[int, ...]:
    """The values of an int or tuple seed as a tuple of ints, each a whole
    number >= 0 (:func:`whole`): SeedSequence refuses a negative word."""
    return tuple(whole(value, "a seed", low=0)
                 for value in (seed if isinstance(seed, tuple) else (seed,)))
