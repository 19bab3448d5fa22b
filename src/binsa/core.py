"""Domain types and elementary statistics with a fixed accumulation order.

Every statistic in this module sorts its accumulation terms into a canonical
order before summing, so results are bitwise identical across runs, platforms
and row permutations of the underlying sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MarginalDistribution",
    "InputSpec",
    "Dataset",
    "SensitivityReport",
    "stable_sum",
    "stable_mean",
    "stable_variance",
    "pearson",
    "spearman",
]

_PROB_TOL = 1e-12

# Rows per block of column_major's copy: a block of a row-major matrix with
# up to a few dozen columns stays in cache while its columns are written.
_COPY_BLOCK_ROWS = 4096


def column_major(matrix):
    """matrix as a column-major (Fortran-ordered) float array.

    A float matrix that is already column-major, or that is not 2-D, is
    returned as is. Any other matrix is copied a block of rows at a time,
    which reads a row-major matrix in cache-sized pieces instead of striding
    across all of it once per column as np.asfortranarray does; the values
    are the same.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.flags.f_contiguous:
        return matrix
    out = np.empty(matrix.shape, order="F")
    for start in range(0, matrix.shape[0], _COPY_BLOCK_ROWS):
        out[start : start + _COPY_BLOCK_ROWS] = matrix[start : start + _COPY_BLOCK_ROWS]
    return out


@dataclass(frozen=True)
class MarginalDistribution:
    """Marginal law of one model input: uniform, normal or categorical."""

    kind: str
    lo: float = 0.0
    hi: float = 1.0
    mean: float = 0.0
    sd: float = 1.0
    levels: tuple = ()
    probabilities: tuple = ()

    def __post_init__(self):
        if self.kind == "uniform":
            if not self.lo < self.hi:
                raise ValueError(f"uniform requires lo < hi, got [{self.lo}, {self.hi}]")
        elif self.kind == "normal":
            if not self.sd > 0:
                raise ValueError(f"normal requires sd > 0, got {self.sd}")
        elif self.kind == "categorical":
            if len(self.levels) != len(self.probabilities) or not self.levels:
                raise ValueError("categorical requires matching, non-empty levels and probabilities")
            p = np.asarray(self.probabilities, dtype=float)
            if np.any(p <= 0) or np.any(p > 1):
                raise ValueError("categorical probabilities must lie in (0, 1]")
            if abs(float(p.sum()) - 1.0) > _PROB_TOL:
                raise ValueError(f"categorical probabilities sum to {p.sum()}, not 1")
        else:
            raise ValueError(f"unknown distribution kind {self.kind!r}")

    @staticmethod
    def uniform(lo, hi):
        return MarginalDistribution("uniform", lo=float(lo), hi=float(hi))

    @staticmethod
    def normal(mean, sd):
        return MarginalDistribution("normal", mean=float(mean), sd=float(sd))

    @staticmethod
    def categorical(levels, probabilities):
        return MarginalDistribution(
            "categorical", levels=tuple(levels), probabilities=tuple(float(p) for p in probabilities)
        )


@dataclass(frozen=True)
class InputSpec:
    """One named model input with its marginal distribution."""

    name: str
    distribution: MarginalDistribution


@dataclass(frozen=True)
class Dataset:
    """An N x K input matrix plus the length-N output vector it produced.

    The inputs are stored column-major (Fortran order), so that column(i) is
    one contiguous vector: every consumer reads the matrix a column at a
    time. A column-major float matrix, as sample_inputs returns, is kept
    without a copy. Categorical columns are stored as level indices:
    integers in [0, len(levels)), checked on construction. This is the sole
    input to every estimator in the package.
    """

    inputs: np.ndarray
    output: np.ndarray
    specs: tuple

    def __post_init__(self):
        inputs = column_major(self.inputs)
        output = np.ascontiguousarray(np.asarray(self.output, dtype=float))
        if inputs.ndim != 2:
            raise ValueError("inputs must be a 2-D matrix")
        if output.ndim != 1 or output.shape[0] != inputs.shape[0]:
            raise ValueError("output length must match the number of input rows")
        if inputs.shape[0] < 2:
            raise ValueError("dataset requires at least 2 rows")
        if inputs.shape[1] != len(self.specs):
            raise ValueError(
                f"dataset has {inputs.shape[1]} columns but {len(self.specs)} input specs"
            )
        if not np.all(np.isfinite(inputs)) or not np.all(np.isfinite(output)):
            raise ValueError("dataset contains NaN or Inf entries")
        names = [s.name for s in self.specs]
        if len(set(names)) != len(names):
            raise ValueError("input names must be unique")
        for j, spec in enumerate(self.specs):
            if spec.distribution.kind == "categorical":
                col = inputs[:, j]
                n_levels = len(spec.distribution.levels)
                bad = np.flatnonzero((col != np.floor(col)) | (col < 0) | (col >= n_levels))
                if bad.size:
                    r = int(bad[0])
                    raise ValueError(
                        f"categorical column {spec.name!r}, row {r}: {float(col[r])!r} "
                        f"is not a level code in 0..{n_levels - 1}"
                    )
        inputs.flags.writeable = False
        output.flags.writeable = False
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "output", output)
        object.__setattr__(self, "specs", tuple(self.specs))

    @property
    def n_rows(self):
        return self.inputs.shape[0]

    @property
    def n_inputs(self):
        return self.inputs.shape[1]

    @property
    def names(self):
        return tuple(s.name for s in self.specs)

    def column(self, i):
        return self.inputs[:, i]


@dataclass(frozen=True)
class SensitivityReport:
    """First-order vector, symmetric second-order matrix and combined indices."""

    names: tuple
    first_order: np.ndarray
    second_order: np.ndarray
    combined: np.ndarray
    var_y: float
    n_bins_first: int
    n_bins_second_per_dim: int
    warnings: tuple = field(default_factory=tuple)

    def __post_init__(self):
        k = len(self.names)
        fo = np.asarray(self.first_order, dtype=float)
        so = np.asarray(self.second_order, dtype=float)
        co = np.asarray(self.combined, dtype=float)
        if fo.shape != (k,) or co.shape != (k,) or so.shape != (k, k):
            raise ValueError("report arrays inconsistent with the number of inputs")
        if not (np.all(np.isfinite(fo)) and np.all(np.isfinite(so)) and np.all(np.isfinite(co))):
            raise ValueError("report contains non-finite indices")
        if not np.array_equal(so, so.T):
            raise ValueError("second-order matrix must be exactly symmetric")
        if np.any(np.diag(so) != 0.0):
            raise ValueError("second-order diagonal must be exactly zero")
        for a in (fo, so, co):
            a.flags.writeable = False
        object.__setattr__(self, "first_order", fo)
        object.__setattr__(self, "second_order", so)
        object.__setattr__(self, "combined", co)


def stable_sum(values):
    """Sum after sorting the terms: fixed order regardless of input order.

    The sort need not be stable. Two sorts of the same floats can differ only
    in the order of equal terms, and equal floats are identical bits except
    +0.0 and -0.0 (NaNs go last either way). Moving a zero does not change a
    float sum: adding a zero to a nonzero partial sum returns it unchanged,
    and a sum is -0.0 only if every one of its terms is -0.0. So the default
    (SIMD) sort gives the same bits as a stable one, several times faster.
    """
    v = np.asarray(values, dtype=float)
    return float(np.sum(np.sort(v)))


def stable_mean(values):
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("mean of empty vector")
    return stable_sum(v) / v.size


def stable_variance(values, mean=None):
    """Population variance with canonical accumulation order."""
    v = np.asarray(values, dtype=float)
    if mean is None:
        mean = stable_mean(v)
    return stable_sum((v - mean) ** 2) / v.size


def _paired_vectors(x, y, name):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError(f"{name} requires two equal-length vectors of size >= 2")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError(f"{name} requires finite values")
    return x, y


def pearson(x, y):
    """Product-moment correlation coefficient of two finite vectors."""
    x, y = _paired_vectors(x, y, "pearson")
    dx = x - stable_mean(x)
    dy = y - stable_mean(y)
    sx = stable_sum(dx * dx)
    sy = stable_sum(dy * dy)
    if sx == 0.0 or sy == 0.0:
        raise ValueError("degenerate correlation")
    r = stable_sum(dx * dy) / math.sqrt(sx * sy)
    return min(1.0, max(-1.0, r))


def _mid_ranks(v):
    """1-based ranks of v, tied values sharing the mean of their ranks.

    Ties span sorted positions start..end-1, whose ranks average to
    (start + end + 1) / 2: exact in float, and the same bits as
    scipy's rankdata(v, method="average"), which also gives all-NaN
    ranks when v holds a NaN.
    """
    order = np.argsort(v)
    s = v[order]
    if s.size and np.isnan(s[-1]):  # the sort puts NaNs last
        return np.full(v.size, np.nan)
    starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    ends = np.append(starts[1:], v.size)
    ranks = np.empty(v.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2, ends - starts)
    return ranks


def spearman(x, y):
    """Rank correlation of two finite vectors: pearson applied to mid-rank
    transforms."""
    x, y = _paired_vectors(x, y, "spearman")
    return pearson(_mid_ranks(x), _mid_ranks(y))
