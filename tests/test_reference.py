"""analyze against a textbook binning estimator: integer cell codes,
np.bincount and plain means, in the order the formulas are written."""

import warnings
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from binsa import BinningConfig, Dataset, InputSpec, MarginalDistribution, analyze, binning


def reference_indices(x, y, levels, nb, m):
    """First- and second-order indices of the columns of x; levels[i] is
    input i's level count, or 0 for a numeric input cut into equal-width
    bins over its range (a constant one has no index)."""
    n, k = x.shape

    def codes(i, bins):
        if levels[i]:
            return x[:, i].astype(np.int64), levels[i]
        lo, hi = x[:, i].min(), x[:, i].max()
        if lo == hi:
            return None, 0
        cell = ((x[:, i] - lo) * (bins / (hi - lo))).astype(np.int64)
        return np.minimum(cell, bins - 1), bins

    def ratio(cell):
        counts = np.bincount(cell)
        occupied = counts > 0
        means = np.bincount(cell, weights=y)[occupied] / counts[occupied]
        return np.sum(counts[occupied] * (means - y.mean()) ** 2) / n / y.var()

    first, second = np.zeros(k), np.zeros((k, k))
    pair = [codes(i, m) for i in range(k)]
    for i in range(k):
        cell = codes(i, nb)[0]
        first[i] = 0.0 if cell is None else ratio(cell)
        for j in range(i):
            (ci, ni), (cj, nj) = pair[i], pair[j]
            if ni and nj:
                second[i, j] = second[j, i] = ratio(ci * nj + cj) - ratio(ci) - ratio(cj)
    return first, second


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(100, 600),
    levels=st.lists(st.sampled_from([0, 0, 2, 3, 5]), min_size=2, max_size=5),
    constant=st.booleans(),
    output=st.sampled_from(["smooth", "tied", "signed_zeros"]),
    n_bins=st.one_of(st.none(), st.tuples(st.integers(2, 30), st.integers(2, 8))),
    cpus=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_analyze_agrees_with_the_reference_estimator(n, levels, constant, output, n_bins, cpus,
                                                      seed):
    rng = np.random.default_rng(seed)
    k = len(levels)
    x = rng.random((n, k)) * rng.choice([1e-3, 1.0, 1e3], k) - rng.random(k)
    specs = []
    for i, count in enumerate(levels):
        if count:
            x[:, i] = rng.integers(0, count, n)
            dist = MarginalDistribution.categorical([f"l{v}" for v in range(count)],
                                                    (1 / count,) * count)
        else:
            dist = MarginalDistribution.uniform(0, 1)
        specs.append(InputSpec(f"x{i}", dist))
    if constant:
        x[:, -1] = 0.0 if levels[-1] else 0.25
    y = x @ rng.normal(size=k) + x[:, 0] * x[:, 1] + 0.1 * rng.normal(size=n)
    if output == "tied":
        y = np.round(y)
    elif output == "signed_zeros":
        y = np.where(rng.random(n) < 0.5, np.copysign(0.0, rng.normal(size=n)), np.sign(y))
    if y.min() == y.max():
        y[0] += 1.0
    config = BinningConfig(*n_bins) if n_bins else None
    with mock.patch.object(binning, "_usable_cpus", lambda: cpus), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # sparse-grid and degenerate-column notes
        report = analyze(Dataset(inputs=x, output=y, specs=tuple(specs)), config)
    first, second = reference_indices(x, y, levels, report.n_bins_first,
                                      report.n_bins_second_per_dim)
    assert np.allclose(report.first_order, first, rtol=0, atol=1e-12)
    assert np.allclose(report.second_order, second, rtol=0, atol=1e-12)
