"""The simple binning estimator: conditional variance over equal-width bins
of one input (first order) or a grid of two (second order), divided by the
output variance."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import SensitivityReport, stable_sum, stable_variance

__all__ = [
    "BinningConfig",
    "bin_count_first",
    "bin_count_second_per_dim",
    "analyze",
    "conservation_check",
]

# Experimentally optimal first-order bin counts over a grid of sample sizes
# (rows) and input counts (columns 3, 6, 12); queried by bilinear
# interpolation with clamping.
_N_GRID = np.array([1000, 2500, 5000, 7500, 10000, 25000, 50000], dtype=float)
_K_GRID = np.array([3, 6, 12], dtype=float)
_BIN_TABLE = np.array(
    [
        [10, 10, 10],
        [25, 10, 10],
        [50, 10, 10],
        [50, 25, 10],
        [50, 50, 10],
        [100, 50, 25],
        [100, 50, 50],
    ],
    dtype=float,
)

_MIN_BINS = 10
_MAX_BINS = 100

# Target observations per two-dimensional grid cell for second-order indices.
# Chosen so the joint conditional variance stays resolved at large samples
# (the square-root-of-first-order-bins rule is too coarse there) while small
# samples keep cells populated: 1000 rows -> 4 bins per axis.
_PAIR_CELL_OCCUPANCY = 60.0


@dataclass(frozen=True)
class BinningConfig:
    """Bin counts for the estimator; None selects the automatic rule."""

    n_bins_first: int | None = None
    n_bins_second_per_dim: int | None = None

    def __post_init__(self):
        for v in (self.n_bins_first, self.n_bins_second_per_dim):
            if v is not None and v < 2:
                raise ValueError("bin counts must be >= 2")


def bin_count_first(n_obs, k_inputs):
    """First-order bin count: interpolated from the experimental table.

    Bilinear interpolation over (n_obs, k_inputs) with n_obs clamped to
    [1000, 50000] and k to [3, 12]; the result is rounded, floored at 10 and
    capped at 100.
    """
    if k_inputs < 1:
        raise ValueError("k_inputs must be >= 1")
    if n_obs < 100:
        raise ValueError("sample too small")
    n = min(max(float(n_obs), _N_GRID[0]), _N_GRID[-1])
    k = min(max(float(k_inputs), _K_GRID[0]), _K_GRID[-1])
    by_k = [np.interp(n, _N_GRID, _BIN_TABLE[:, j]) for j in range(len(_K_GRID))]
    value = float(np.interp(k, _K_GRID, by_k))
    return int(min(_MAX_BINS, max(_MIN_BINS, round(value))))


def bin_count_second_per_dim(n_obs):
    """Per-axis bin count for the two-dimensional grid.

    Keeps roughly a constant number of observations per grid cell.
    """
    if n_obs < 100:
        raise ValueError("sample too small")
    return max(2, round(math.sqrt(n_obs / _PAIR_CELL_OCCUPANCY)))


def _cell_indices(column, spec, resolutions):
    """Bin index per row at each bin count in resolutions: equal-width over
    the observed [min, max], rightmost inclusive. Categorical columns bin by
    level code at every resolution."""
    if spec.distribution.kind == "categorical":
        codes = column.astype(np.int64)
        return [(codes, len(spec.distribution.levels))] * len(resolutions)
    lo = column.min()
    hi = column.max()
    if lo == hi:
        raise ValueError("degenerate input")
    offset = column - lo
    cells = []
    for n_bins in resolutions:
        idx = np.floor(offset * (n_bins / (hi - lo))).astype(np.int64)
        np.clip(idx, 0, n_bins - 1, out=idx)
        cells.append((idx, n_bins))
    return cells


def _conditional_variance_ratio(cell_idx, n_cells, y, var_y):
    """V_w(E[Y | cell]) / Var(Y) with order-canonical accumulation."""
    order = np.lexsort((y, cell_idx))
    ci = cell_idx[order]
    ys = y[order]
    counts = np.bincount(ci, minlength=n_cells)
    sums = np.bincount(ci, weights=ys, minlength=n_cells)
    occ = counts > 0
    means = sums[occ] / counts[occ]
    n_occ = counts[occ].astype(float)
    total = n_occ.sum()
    grand = stable_sum(n_occ * means) / total
    wvar = stable_sum(n_occ * (means - grand) ** 2) / total
    return wvar / var_y


def analyze(dataset, config=None):
    """Full sensitivity report for a dataset.

    First-order indices use the table-interpolated bin count; every pair gets
    a second-order index on an m x m grid, with both marginal terms
    recomputed at m bins so the joint and marginal conditional variances
    share one bin geometry. Constant input columns are assigned index 0
    instead of failing the analysis, and a grid with fewer than 5 rows per
    cell on average (m^2 > N/5) is kept; each case is recorded in
    report.warnings and emitted as a UserWarning.
    """
    config = config or BinningConfig()
    n, k = dataset.n_rows, dataset.n_inputs
    y = dataset.output
    var_y = stable_variance(y)
    if var_y == 0.0:
        raise ValueError("constant output")
    nb = config.n_bins_first or bin_count_first(n, k)
    m = config.n_bins_second_per_dim or bin_count_second_per_dim(n)

    notes = []
    if k > 1 and m * m > n / 5:
        notes.append("sparse grid: m^2 exceeds N/5")
    cells_first = {}
    cells_pair = {}
    for i, spec in enumerate(dataset.specs):
        try:
            cells_first[i], cells_pair[i] = _cell_indices(dataset.column(i), spec, (nb, m))
        except ValueError:
            notes.append(f"degenerate input column {dataset.names[i]!r}: indices set to 0")
    for note in notes:
        warnings.warn(note, stacklevel=2)

    first = np.zeros(k)
    for i, (ci, n_cells) in cells_first.items():
        first[i] = _conditional_variance_ratio(ci, n_cells, y, var_y)

    second = np.zeros((k, k))
    marg = {i: _conditional_variance_ratio(ci, nc, y, var_y) for i, (ci, nc) in cells_pair.items()}
    for i in range(k):
        for j in range(i + 1, k):
            if i not in cells_pair or j not in cells_pair:
                continue
            (ci, ni), (cj, nj) = cells_pair[i], cells_pair[j]
            joint = _conditional_variance_ratio(ci * nj + cj, ni * nj, y, var_y)
            second[i, j] = second[j, i] = joint - marg[i] - marg[j]

    combined = first + 0.5 * second.sum(axis=1)
    return SensitivityReport(
        names=dataset.names,
        first_order=first,
        second_order=second,
        combined=combined,
        var_y=var_y,
        n_bins_first=nb,
        n_bins_second_per_dim=m,
        warnings=tuple(notes),
    )


def conservation_check(report):
    """Sum of all first- and second-order indices; 1 when nothing is missing."""
    upper = report.second_order[np.triu_indices(len(report.names), k=1)]
    return float(stable_sum(report.first_order) + stable_sum(upper))
