"""The simple binning estimator: conditional variance over equal-width bins
of one input (first order) or a grid of two (second order), divided by the
output variance."""

from __future__ import annotations

import itertools
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


def _cell_indices(column, order, spec, resolutions):
    """Bin index per row, rows taken in the given order, at each bin count in
    resolutions: equal-width over the observed [min, max], rightmost
    inclusive. Categorical columns bin by level code at every resolution.

    None for a constant column. A range so wide that max - min overflows,
    or so narrow that bins / (max - min) does, has no float bin geometry:
    a ValueError names the column.
    """
    if spec.distribution.kind == "categorical":
        codes = column[order].astype(np.int64)
        return [(codes, len(spec.distribution.levels))] * len(resolutions)
    lo = float(column.min())
    hi = float(column.max())
    if lo == hi:
        return None
    scales = [n_bins / (hi - lo) for n_bins in resolutions]
    if not all(0.0 < scale < math.inf for scale in scales):
        raise ValueError(
            f"input column {spec.name!r} spans [{lo!r}, {hi!r}]: its width or its bin "
            "scale overflows a float, so it cannot be cut into equal-width bins"
        )
    offset = column[order]  # a fresh copy, so it is shifted in place
    offset -= lo
    cells = []
    for n_bins, scale in zip(resolutions, scales):
        # the offsets are >= 0, so the cast's truncation is the floor
        idx = (offset * scale).astype(np.int64)
        np.minimum(idx, n_bins - 1, out=idx)
        cells.append((idx, n_bins))
    return cells


def _conditional_variance_ratio(cell_idx, n_cells, y, var_y):
    """V_w(E[Y | cell]) / Var(Y).

    The rows arrive sorted by y, and bincount adds them in array order: each
    cell's sum is built in ascending-y order, which makes it independent of
    how the dataset's rows were ordered. The sort need not be stable: tied
    outputs are identical bits except +0.0 and -0.0, and moving a zero does
    not change a sum (see stable_sum).
    """
    counts = np.bincount(cell_idx, minlength=n_cells)
    sums = np.bincount(cell_idx, weights=y, minlength=n_cells)
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
    share one bin geometry; a categorical input bins by level at both
    resolutions. Constant input columns are assigned index 0 instead of
    failing the analysis, and a pair grid with fewer than 5 rows per cell on
    average is kept: one note covers every numeric pair when m^2 > N/5, and
    each pair with a categorical input whose n_cells_i x n_cells_j exceeds
    N/5 is named in a note of its own. Each note is recorded in
    report.warnings and emitted as a UserWarning. A numeric column whose
    range has no float bin geometry (see _cell_indices) raises ValueError.
    """
    config = config or BinningConfig()
    n, k = dataset.n_rows, dataset.n_inputs
    var_y = stable_variance(dataset.output)
    if var_y == 0.0:
        raise ValueError("constant output")
    nb = config.n_bins_first or bin_count_first(n, k)
    m = config.n_bins_second_per_dim or bin_count_second_per_dim(n)

    order = np.argsort(dataset.output)
    y = dataset.output[order]
    first = np.zeros(k)
    cells = {}
    degenerate = []
    for i, spec in enumerate(dataset.specs):
        binned = _cell_indices(dataset.column(i), order, spec, (nb, m))
        if binned is None:
            degenerate.append(f"degenerate input column {dataset.names[i]!r}: indices set to 0")
            continue
        (ci, n_cells), cells[i] = binned
        first[i] = _conditional_variance_ratio(ci, n_cells, y, var_y)
        del binned, ci  # nothing else reads the nb-bin index
    pairs = list(itertools.combinations(cells, 2))

    sparse = [(i, j) for i, j in pairs if cells[i][1] * cells[j][1] > n / 5]
    categorical = [s.distribution.kind == "categorical" for s in dataset.specs]
    notes = []
    if any(not (categorical[i] or categorical[j]) for i, j in sparse):
        notes.append("sparse grid: m^2 exceeds N/5")
    for i, j in sparse:
        if categorical[i] or categorical[j]:
            a, b = dataset.names[i], dataset.names[j]
            ni, nj = cells[i][1], cells[j][1]
            notes.append(f"sparse grid: pair ({a!r}, {b!r}) has {ni} x {nj} cells, more than N/5")
    notes += degenerate
    for note in notes:
        warnings.warn(note, stacklevel=2)

    # Joint cell of a pair: ci * nj + cj. The scaled index ci * nj is formed
    # once per (i, nj) and shared by every later j with nj cells; both it and
    # the joint index are written into one buffer each.
    marg = {i: _conditional_variance_ratio(ci, nc, y, var_y) for i, (ci, nc) in cells.items()}
    by_size = {}
    for j, (_, nj) in cells.items():
        by_size.setdefault(nj, []).append(j)
    scaled = np.empty(n, dtype=np.int64)
    joint = np.empty(n, dtype=np.int64)
    second = np.zeros((k, k))
    for i, (ci, ni) in cells.items():
        for nj, js in by_size.items():
            later = [j for j in js if j > i]
            if not later:
                continue
            np.multiply(ci, nj, out=scaled)
            for j in later:
                np.add(scaled, cells[j][0], out=joint)
                s_ij = _conditional_variance_ratio(joint, ni * nj, y, var_y)
                second[i, j] = second[j, i] = s_ij - marg[i] - marg[j]

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
