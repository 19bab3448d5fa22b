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


# Each worker holds 16 bytes of scratch per row in analyze, about 3 MB of
# block buffers in the dataset writer, and about six times its chunk of at
# most 1 MiB in the dataset reader: the cap keeps that memory bounded on
# hosts with many CPUs.
_MAX_WORKERS = 8


def _workers(limit):
    """Workers for a stage that can use at most limit: one per CPU this
    process may use, at most _MAX_WORKERS and at most limit, at least 1."""
    return max(1, min(limit, _usable_cpus(), _MAX_WORKERS))


def _chunks(items, n_chunks):
    """items cut into at most n_chunks contiguous runs of near-equal length:
    one run, empty, when items is."""
    n_chunks = max(1, min(n_chunks, len(items)))
    q, r = divmod(len(items), n_chunks)
    bounds = [c * q + min(c, r) for c in range(n_chunks + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _in_order(make, take, items, buffers):
    """make(items[i], buffers[w]) on worker w, for every i dealt to it in
    turn (i = w, w + W, w + 2W, ... for W workers), then take(items[i],
    made) for every i in item order. It is the one way a stage runs work on
    threads: analyze makes each run of columns' codes, and then each run of
    subsets' closed indices, which its take merges; sweep_dependence makes a
    grid value's correlations beside its report; the dataset writer formats
    a block of rows in its make and writes it in its take; and the reader
    parses a chunk of lines in its make and puts its rows in place in its
    take. So the results are the same for any number of workers.

    There is one worker per buffer, and no more workers than items. A
    worker makes its next item while another takes, and each worker makes
    into its own buffer, reused from item to item. The calling thread runs
    the last worker, and a thread started and joined here runs each other
    one, so with one worker no thread starts. After a make or a take
    raises, no later item is taken, and the first failed item's error is
    raised once every worker has stopped.
    """
    workers = max(1, min(len(buffers), len(items)))
    turn = threading.Condition()
    taken, errors = 0, {}

    def work(w):
        nonlocal taken
        for i in range(w, len(items), workers):
            try:
                made = make(items[i], buffers[w])
                with turn:
                    turn.wait_for(lambda: taken == i or min(errors, default=i) < i)
                if taken != i:  # an item before it failed
                    return
                take(items[i], made)
                del made  # freed before this worker's next make
            except BaseException as exc:
                with turn:
                    errors[i] = exc
                    turn.notify_all()
                return
            with turn:
                taken += 1
                turn.notify_all()

    threads = [threading.Thread(target=work, args=(w,)) for w in range(workers - 1)]
    for thread in threads:
        thread.start()
    work(workers - 1)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[min(errors)]


def _conditional_variance_ratio(cell_idx, n_cells, y, var_y):
    """V_w(E[Y | cell]) / Var(Y), and the rows per cell.

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
    return wvar / var_y, counts


def analyze(dataset, config=None):
    """Full sensitivity report for a dataset.

    Every index is made of closed indices, V(E[Y | cell]) / Var(Y) over the
    joint cells of an input subset. First order is input i's at nb bins; a
    pair's second-order index is its closed index on an m x m grid less both
    inputs' at m, so the joint and marginal terms share one bin geometry.
    Numeric bins are equal-width over the column's observed [min, max],
    rightmost inclusive; a categorical input with L levels is cut into L
    equal-width cells over [0, L), one per level, at both resolutions.
    The sorted output is scaled by a power of two before its variance, which
    changes no index's bits: y * 2**k gives y's indices for any k that
    leaves y normal. report.var_y is the variance scaled back, inf past the
    largest double and 0.0 or subnormal below the smallest normal one.
    Constant input columns are assigned index 0 instead of failing the
    analysis. First-order bins, and a pair grid, with fewer than 5 rows per
    cell on average are kept: one note covers the binned numeric inputs'
    first-order bins when nb > N/5, one covers every numeric pair when
    m^2 > N/5, and each pair with a categorical input whose
    n_cells_i x n_cells_j exceeds N/5 is named in a note of its own. A
    binned numeric input whose fullest first-order bin holds more than half
    the rows is named in a "skewed bins" note, counted from the bin counts
    its index is computed from. Each note is recorded in report.warnings and
    emitted as a UserWarning once every index exists. A numeric column whose range is so wide that
    max - min overflows a float, or so narrow that bins / (max - min) does,
    has no bin geometry: a ValueError names it.

    The columns, and then the subsets, are split into contiguous runs, one
    per worker, _workers(pairs) of them, and each split is one _in_order
    call with one run per item: the calling thread runs the last run, and
    a thread started for the call runs each other run; the call joins them
    all before it returns, so no thread outlives it. With one worker (two
    inputs, or one CPU) no thread starts. There is no setting: every index
    comes from the same numpy calls on the same arrays however the work is
    split, so the report is bitwise identical for any number of workers.
    """
    config = config or BinningConfig()
    n, k = dataset.n_rows, dataset.n_inputs
    order = np.argsort(dataset.output)
    y = dataset.output[order]
    # y times 2**shift, its largest magnitude in [0.5, 1): the scaling is
    # exact, so every ratio has the bits it has on y, and the variance
    # neither overflows nor goes subnormal at any scale of the output.
    shift = -math.frexp(max(-y[0], y[-1]))[1]
    np.ldexp(y, shift, out=y)
    # The plain sum of the sorted output is stable_mean's to the bit: the two
    # sorts differ at most in where +0.0 and -0.0 fall (see stable_sum).
    var_y = stable_variance(y, mean=np.sum(y) / n)
    if var_y == 0.0:
        raise ValueError("constant output")
    nb = config.n_bins_first or bin_count_first(n, k)
    m = config.n_bins_second_per_dim or bin_count_second_per_dim(n)

    # levels[i]: categorical input i's level count, 0 for a numeric input
    levels = [len(s.distribution.levels) if s.distribution.kind == "categorical" else 0
              for s in dataset.specs]
    # cells[r][i]: input i's cell count at resolution r, nb (r = 0) or m (r = 1)
    cells = [[n_levels or n_bins for n_levels in levels] for n_bins in (nb, m)]
    # codes[r, i]: input i's cell per row at resolution r, in y order. The type
    # holds each cell count too: a row at the max is cast to it before the clip.
    codes = np.empty((2, k, n), dtype=np.min_scalar_type(max(cells[0] + cells[1])))
    binned = np.zeros(k, dtype=bool)
    # The workers allocate nothing of length n, only write into their own
    # scratch: a thread's frees go back to its own malloc arena, which would
    # keep that memory.
    workers = _workers(k * (k - 1) // 2)
    scratch = [(np.empty(n), np.empty(n, dtype=np.int64)) for _ in range(workers)]

    def bin_columns(columns, buf):
        offset = buf[0]
        for i in columns:
            column = dataset.column(i)
            # order is a permutation, so "clip" never clips; unlike the
            # default "raise" it writes into out without a temporary copy
            np.take(column, order, out=offset, mode="clip")
            # a categorical input spans [0, L): its scale L / L is exactly 1.0,
            # so its cells are its level codes
            lo, hi = (0.0, levels[i]) if levels[i] else (float(column.min()), float(column.max()))
            if lo == hi:
                continue
            scales = [cells[r][i] / (hi - lo) for r in (0, 1)]
            if not all(0.0 < scale < math.inf for scale in scales):
                raise ValueError(
                    f"input column {dataset.names[i]!r} spans [{lo!r}, {hi!r}]: its width "
                    "or its bin scale overflows a float, so it cannot be cut into "
                    "equal-width bins"
                )
            offset -= lo
            for r, scale in enumerate(scales):
                # the offsets are >= 0, so the cast's truncation is the floor
                np.multiply(offset, scale, out=codes[r, i], casting="unsafe")
                np.minimum(codes[r, i], cells[r][i] - 1, out=codes[r, i])
            binned[i] = True

    _in_order(bin_columns, lambda *_: None, _chunks(range(k), workers), scratch)
    inputs = np.flatnonzero(binned).tolist()
    pairs = list(itertools.combinations(inputs, 2))
    # (r, i): input i at resolution r; (1, i, j): the pair (i, j) at m. Each
    # input's pairs follow its own subsets, so each run gets some of both.
    # An input with as many cells at nb as at m has the same codes at both,
    # so only (1, i) is listed for it.
    subsets = [s for i in inputs for s in [(0, i)] * (cells[0][i] != cells[1][i]) + [(1, i)]
               + [(1, i, j) for j in inputs if j > i]]

    def closed_ratios(chunk, buf):
        # Joint cell of a subset: c_i * n_j + c_j for a pair, c_i for one input,
        # the codes widened to int64. The scaled c_i * n_j is formed once per
        # (r, i, n_j) and shared by the next subsets in the run that have it.
        scaled, joint = buf[0].view(np.int64), buf[1]
        formed, ratios, fullest = None, {}, {}
        for subset in chunk:
            r, i, *j = subset
            nj = cells[r][j[0]] if j else 1
            if formed != (r, i, nj):
                np.copyto(scaled, codes[r, i])
                if nj != 1:
                    scaled *= nj
                formed = (r, i, nj)
            cell = np.add(scaled, codes[r, j[0]], out=joint) if j else scaled
            ratios[subset], counts = _conditional_variance_ratio(cell, cells[r][i] * nj, y, var_y)
            if not j and cells[r][i] == cells[0][i]:
                fullest[i] = int(counts.max())
        return ratios, fullest

    # closed[subset]: its closed index; fullest[i]: the rows in input i's
    # fullest first-order bin
    closed, fullest = {}, {}
    _in_order(closed_ratios, lambda _, made: (closed.update(made[0]), fullest.update(made[1])),
              _chunks(subsets, workers), scratch)
    first, second = np.zeros(k), np.zeros((k, k))
    for i in inputs:
        first[i] = closed.get((0, i), closed[1, i])
    for i, j in pairs:
        second[i, j] = second[j, i] = closed[1, i, j] - closed[1, i] - closed[1, j]
    combined = first + 0.5 * second.sum(axis=1)

    sparse = [(i, j) for i, j in pairs if cells[1][i] * cells[1][j] > n / 5]
    notes = []
    if nb > n / 5 and any(b and not c for b, c in zip(binned, levels)):
        notes.append("sparse bins: nb exceeds N/5")
    if any(not (levels[i] or levels[j]) for i, j in sparse):
        notes.append("sparse grid: m^2 exceeds N/5")
    names = dataset.names
    notes += [f"sparse grid: pair ({names[i]!r}, {names[j]!r}) has {cells[1][i]} x {cells[1][j]} "
              "cells, more than N/5" for i, j in sparse if levels[i] or levels[j]]
    notes += [f"skewed bins: column {names[i]!r} has {100 * fullest[i] / n:.0f} % of its rows in "
              f"one of {nb} bins" for i in inputs if not levels[i] and 2 * fullest[i] > n]
    notes += [f"degenerate input column {name!r}: indices set to 0"
              for name, b in zip(names, binned) if not b]
    for note in notes:
        warnings.warn(note, stacklevel=2)
    with np.errstate(over="ignore"):
        # inf past the largest double; 0.0 or subnormal below the smallest
        var_y = float(np.ldexp(var_y, -2 * shift))
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
