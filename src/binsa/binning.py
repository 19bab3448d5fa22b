"""The simple binning estimator: conditional variance over equal-width bins
of one input (first order) or a grid of two (second order), divided by the
output variance."""

from __future__ import annotations

import itertools
import math
import os
import threading
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


def _usable_cpus():
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Each worker holds 16 bytes of scratch per row in analyze, and about 3 MB
# of block buffers in the dataset writer: the cap keeps that memory bounded
# on hosts with many CPUs.
_MAX_WORKERS = 8

def _chunks(items, n_chunks):
    """items cut into at most n_chunks contiguous runs of near-equal length:
    one run, empty, when items is."""
    n_chunks = max(1, min(n_chunks, len(items)))
    q, r = divmod(len(items), n_chunks)
    bounds = [c * q + min(c, r) for c in range(n_chunks + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _run(work, chunks, scratch):
    """work(chunks[c], scratch[c]) for every c: the last chunk in the calling
    thread, each other chunk on a thread of its own, started and joined
    here. Waits for every chunk before it raises the first chunk's error, so
    which error surfaces does not depend on timing."""
    errors = [None] * len(chunks)

    def run(c):
        try:
            work(chunks[c], scratch[c])
        except BaseException as exc:
            errors[c] = exc

    threads = [threading.Thread(target=run, args=(c,)) for c in range(len(chunks) - 1)]
    for thread in threads:
        thread.start()
    run(len(chunks) - 1)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


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
    share one bin geometry. Numeric bins are equal-width over the column's
    observed [min, max], rightmost inclusive; a categorical input bins by
    level at both resolutions. Constant input columns are assigned index 0
    instead of failing the analysis. First-order bins, and a pair grid, with
    fewer than 5 rows per cell on average are kept: one note covers the
    binned numeric inputs' first-order bins when nb > N/5, one covers every
    numeric pair when m^2 > N/5, and each pair with a categorical input
    whose n_cells_i x n_cells_j exceeds N/5 is named in a note of its own. Each
    note is recorded in report.warnings and emitted as a UserWarning. A
    numeric column whose range is so wide that max - min overflows a float,
    or so narrow that bins / (max - min) does, has no bin geometry: a
    ValueError names it.

    The columns, and then the pairs, are split into contiguous runs, one per
    worker: as many workers as there are pairs or CPUs this process may
    use, whichever is fewer, and at most 8. The calling thread runs the
    last run, and a thread started for the call runs each other run; the
    call joins them all before it returns, so no thread outlives it. With
    one worker (two inputs, or one CPU) no thread starts. There is no
    setting: every index comes from the same numpy calls on the
    same arrays however the work is split, so the report is bitwise
    identical for any number of workers.
    """
    config = config or BinningConfig()
    n, k = dataset.n_rows, dataset.n_inputs
    order = np.argsort(dataset.output)
    y = dataset.output[order]
    # The plain sum of the sorted output is stable_mean's to the bit: the two
    # sorts differ at most in where +0.0 and -0.0 fall (see stable_sum).
    var_y = stable_variance(y, mean=np.sum(y) / n)
    if var_y == 0.0:
        raise ValueError("constant output")
    nb = config.n_bins_first or bin_count_first(n, k)
    m = config.n_bins_second_per_dim or bin_count_second_per_dim(n)

    categorical = [s.distribution.kind == "categorical" for s in dataset.specs]
    n_cells = [len(s.distribution.levels) if c else m for s, c in zip(dataset.specs, categorical)]
    # Row r of codes: input r's pair-resolution cell per row, in y order, in
    # the narrowest type that holds every cell number.
    codes = np.empty((k, n), dtype=np.min_scalar_type(max(n_cells) - 1))
    binned = np.zeros(k, dtype=bool)
    first = np.zeros(k)
    marg = np.zeros(k)
    second = np.zeros((k, k))
    # The workers allocate nothing of length n, only write into their own
    # scratch: a thread's frees go back to its own malloc arena, which would
    # keep that memory.
    workers = max(1, min(k * (k - 1) // 2, _usable_cpus(), _MAX_WORKERS))
    scratch = [(np.empty(n), np.empty(n, dtype=np.int64)) for _ in range(workers)]

    def bin_columns(columns, buf):
        offset, idx = buf
        for i in columns:
            column = dataset.column(i)
            # order is a permutation, so "clip" never clips; unlike the
            # default "raise" it writes into out without a temporary copy
            np.take(column, order, out=offset, mode="clip")
            if categorical[i]:
                np.copyto(idx, offset, casting="unsafe")
                first[i] = marg[i] = _conditional_variance_ratio(idx, n_cells[i], y, var_y)
            else:
                lo = float(column.min())
                hi = float(column.max())
                if lo == hi:
                    continue
                scales = [n_bins / (hi - lo) for n_bins in (nb, m)]
                if not all(0.0 < scale < math.inf for scale in scales):
                    raise ValueError(
                        f"input column {dataset.names[i]!r} spans [{lo!r}, {hi!r}]: its width "
                        "or its bin scale overflows a float, so it cannot be cut into "
                        "equal-width bins"
                    )
                offset -= lo
                ratios = []
                for n_bins, scale in zip((nb, m), scales):
                    # the offsets are >= 0, so the cast's truncation is the floor
                    np.multiply(offset, scale, out=idx, casting="unsafe")
                    np.minimum(idx, n_bins - 1, out=idx)
                    ratios.append(_conditional_variance_ratio(idx, n_bins, y, var_y))
                first[i], marg[i] = ratios
            codes[i] = idx
            binned[i] = True

    _run(bin_columns, _chunks(range(k), workers), scratch)
    pairs = list(itertools.combinations(np.flatnonzero(binned).tolist(), 2))

    sparse = [(i, j) for i, j in pairs if n_cells[i] * n_cells[j] > n / 5]
    notes = []
    if nb > n / 5 and any(b and not c for b, c in zip(binned, categorical)):
        notes.append("sparse bins: nb exceeds N/5")
    if any(not (categorical[i] or categorical[j]) for i, j in sparse):
        notes.append("sparse grid: m^2 exceeds N/5")
    for i, j in sparse:
        if categorical[i] or categorical[j]:
            a, b = dataset.names[i], dataset.names[j]
            notes.append(
                f"sparse grid: pair ({a!r}, {b!r}) has {n_cells[i]} x {n_cells[j]} cells, "
                "more than N/5"
            )
    notes += [
        f"degenerate input column {name!r}: indices set to 0"
        for name, b in zip(dataset.names, binned)
        if not b
    ]
    for note in notes:
        warnings.warn(note, stacklevel=2)

    def pair_ratios(chunk, buf):
        # Joint cell of a pair: ci * nj + cj, both read widened to int64. The
        # scaled index ci * nj is formed once per (i, nj) and shared by the
        # next pairs in the run that have the same i and nj.
        scaled, joint = buf[0].view(np.int64), buf[1]
        formed = None
        for i, j in chunk:
            nj = n_cells[j]
            if formed != (i, nj):
                np.multiply(codes[i], nj, out=scaled, dtype=np.int64)
                formed = (i, nj)
            np.add(scaled, codes[j], out=joint)
            s_ij = _conditional_variance_ratio(joint, n_cells[i] * nj, y, var_y)
            second[i, j] = second[j, i] = s_ij - marg[i] - marg[j]

    _run(pair_ratios, _chunks(pairs, workers), scratch)

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
