"""Validated dataset container and feature-set bookkeeping.

All public indices are 1-based: response levels are 1..R, feature levels in
column j are 1..K_j, node ids and column ids count from 1. Internal helpers
use 0-based views where that makes the array math direct.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class FeatureSet:
    """Ordered set of main-effect columns plus (j, k) interaction pairs.

    Mains are 1-based column indices; pairs satisfy j < k. The string key of
    a main is "j", of a pair "j&k".
    """

    mains: tuple[int, ...] = ()
    pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        mains = tuple(int(j) for j in self.mains)
        pairs = tuple((int(j), int(k)) for j, k in self.pairs)
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
            if isinstance(key, str) and "&" in key:
                j, k = key.split("&")
                pairs.append((int(j), int(k)))
            elif isinstance(key, tuple):
                pairs.append(key)
            else:
                mains.append(int(key))
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
            return tuple(item) in self.pairs
        return int(item) in self.mains

    def intersection_size(self, other: "FeatureSet") -> int:
        return len(set(self.keys()) & set(other.keys()))


class NodeDataset:
    """Response vector, categorical feature matrix, directed adjacency.

    Construct with raw arrays and call :func:`validate` to obtain the
    canonical instance used by every statistic. Validated datasets are
    immutable (arrays are write-protected) and safe to share across workers.

    Attributes
    ----------
    y : (n,) int array, response levels 1..R
    x : (n, p) int array, column j holds levels 1..K_j, column-contiguous
    edges : (E, 2) int array of ordered node pairs (src, dst), 1-based,
        lexicographically sorted, deduplicated, no self-loops
    r_levels : level count R
    k_levels : (p,) per-column level counts K_j
    feature_names : optional tuple of column names
    composite_pairs : mapping from a composite column (1-based) to the
        (j, k) source pair it encodes, for columns added by interaction
        expansion
    """

    def __init__(self, y, x, edges, feature_names=None, r_levels=None,
                 k_levels=None, composite_pairs=None):
        self.y = np.asarray(y)
        self.x = np.asarray(x)
        self.edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self.feature_names = (
            tuple(feature_names) if feature_names is not None else None)
        self.r_levels = r_levels
        self.k_levels = (
            np.asarray(k_levels, dtype=np.int64) if k_levels is not None else None)
        self.composite_pairs = dict(composite_pairs or {})
        self._validated = False

    # Populated by validate(): _y0, the 0-based responses, and _src0/_dst0,
    # the 0-based edge endpoints, with edges sorted by (src, dst).

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    def column(self, j: int) -> np.ndarray:
        """Levels of column j (1-based), values 1..K_j."""
        return self.x[:, j - 1]

    def name_of(self, j: int) -> str:
        if self.feature_names is not None:
            return self.feature_names[j - 1]
        if j in self.composite_pairs:
            a, b = self.composite_pairs[j]
            return f"{a}&{b}"
        return str(j)


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
        if not np.all(y == np.floor(y)):
            raise ValidationError("response labels must be integers")
    y = y.astype(np.int32)
    n = y.shape[0]
    if y.min() < 1:
        bad = int(np.argmin(y)) + 1
        raise ValidationError(
            f"response label {int(y[bad - 1])} at node {bad} outside 1..R")
    r_obs = int(y.max())
    r_levels = dataset.r_levels if dataset.r_levels is not None else r_obs
    if r_levels < r_obs:
        raise ValidationError(
            f"declared level count R={r_levels} below observed maximum {r_obs}")
    if r_levels < 2:
        raise ValidationError("response needs at least 2 levels")

    x = np.asarray(dataset.x)
    if x.ndim != 2 or x.shape[0] != n:
        raise ValidationError("feature matrix must be n x p")
    x = np.asfortranarray(x, dtype=np.int32)
    p = x.shape[1]
    col_min = x.min(axis=0) if p else np.empty(0, np.int32)
    col_max = x.max(axis=0) if p else np.empty(0, np.int32)
    if p and col_min.min() < 1:
        j = int(np.argmin(col_min)) + 1
        raise ValidationError(f"feature label below 1 in column {j}")
    if dataset.k_levels is not None:
        k_levels = np.asarray(dataset.k_levels, dtype=np.int64)
        if k_levels.shape != (p,):
            raise ValidationError("k_levels length must equal column count")
        if p and np.any(k_levels < col_max):
            j = int(np.argmax(k_levels < col_max)) + 1
            raise ValidationError(
                f"declared level count {int(k_levels[j - 1])} in column {j} "
                f"below observed maximum {int(col_max[j - 1])}")
    else:
        k_levels = col_max.astype(np.int64)
    if p and k_levels.min() < 1:
        raise ValidationError("every column needs at least one level")

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
        order = np.lexsort((edges[:, 1], edges[:, 0]))
        edges = edges[order]
        dup = np.all(edges[1:] == edges[:-1], axis=1)
        if dup.any():
            s, t = edges[1:][dup][0]
            raise ValidationError(f"duplicate edge ({int(s)}, {int(t)})")

    names = dataset.feature_names
    if names is not None and len(names) != p:
        raise ValidationError("feature_names length must equal column count")

    out = NodeDataset(y, x, edges, names, r_levels, k_levels,
                      dict(dataset.composite_pairs))
    out._y0 = (y - 1).astype(np.int64)
    out._src0 = edges[:, 0] - 1
    out._dst0 = edges[:, 1] - 1
    for arr in (out.y, out.x, out.edges, out._y0, out._src0, out._dst0,
                out.k_levels):
        arr.flags.writeable = False
    out._validated = True
    return out


def degree_filter(dataset: NodeDataset, min_degree: int) -> NodeDataset:
    """Induced sub-dataset on nodes with total degree (in + out) >= min_degree.

    Node indices are relabeled contiguously; edges with a removed endpoint
    are dropped. Raises :class:`ValidationError` if nothing survives.
    """
    dataset = validate(dataset)
    n = dataset.n
    deg = (np.bincount(dataset._src0, minlength=n)
           + np.bincount(dataset._dst0, minlength=n))
    keep = deg >= min_degree
    if not keep.any():
        raise ValidationError(
            f"degree filter {min_degree} removed every node")
    if keep.all():
        return dataset
    new_id = np.cumsum(keep) - 1  # old 0-based -> new 0-based
    emask = keep[dataset._src0] & keep[dataset._dst0]
    edges = np.stack([new_id[dataset._src0[emask]] + 1,
                      new_id[dataset._dst0[emask]] + 1], axis=1)
    return validate(NodeDataset(
        dataset.y[keep], dataset.x[keep], edges, dataset.feature_names,
        dataset.r_levels, dataset.k_levels, dataset.composite_pairs))
